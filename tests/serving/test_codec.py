"""The one internal JSON codec: strict decoding, the pinned v1 snapshot
bytes, and append errors that do not depend on the backend.

``fixtures/snapshot_v1/sess-000001.jsonl`` was written by the snapshot
code as it stood before rules, nodes and records moved into
:mod:`repro.codec` and :mod:`repro.session.session`.  It holds exact
nodes, one approximate node (``estimate``), bucketized ``Interval``
values, a literal ``None`` value and two history records;
``fixtures/snapshot_v1.render.txt`` is that session's ``to_text()``.
"""

from __future__ import annotations

import json
import shutil
from pathlib import Path

import pytest

from repro.codec import decode_rule
from repro.errors import ReproError, SnapshotError
from repro.serving import DrillDownServer, SessionSnapshot, ShardRouter, SnapshotStore
from repro.serving.persistence import SNAPSHOT_VERSION
from repro.session import DrillDownSession
from repro.table import Schema, Table
from repro.table.bucketize import Interval

FIXTURES = Path(__file__).resolve().parent / "fixtures"
SNAPSHOT = FIXTURES / "snapshot_v1" / "sess-000001.jsonl"


def fixture_table() -> Table:
    """The table the fixture session explored (rebuilt, not stored)."""
    low, mid = Interval(0.0, 10.0), Interval(10.0, 20.0)
    high = Interval(20.0, 30.0, closed_right=True)
    stores = [None, "Walmart", None, "Target"]
    prices = [low, mid, high]
    cities = ["Paris", "Oslo", "Rome", "Lima"]
    rows = [
        (stores[(i * 7) % 5 % 4], prices[(i * 3) % 4 % 3], cities[(i * 5) % 7 % 4])
        for i in range(240)
    ]
    return Table.from_rows(Schema.categorical(["store", "price", "city"]), rows)


@pytest.fixture
def v1_store(tmp_path) -> SnapshotStore:
    shutil.copy(SNAPSHOT, tmp_path / SNAPSHOT.name)
    return SnapshotStore(tmp_path)


# -- the pinned on-disk format ----------------------------------------------------


class TestSnapshotV1Fixture:
    def test_loads_restores_and_resaves_byte_identically(self, v1_store, tmp_path):
        assert SNAPSHOT_VERSION == 1
        loaded = v1_store.load("sess-000001")
        session = DrillDownSession.restore(fixture_table(), loaded.state)
        expected = (FIXTURES / "snapshot_v1.render.txt").read_text()
        assert session.to_text() == expected
        approx = [n for n in session.displayed() if n.estimate is not None]
        assert len(approx) == 1 and approx[0].estimate["exact"] is False
        assert len(session.history) == 2

        out = SnapshotStore(tmp_path / "resaved")
        path = out.save(
            SessionSnapshot(
                session_id=loaded.session_id,
                table=loaded.table,
                tenant=loaded.tenant,
                wf_spec=loaded.wf_spec,
                state=session.snapshot(),
                expansions=loaded.expansions,
                table_version=loaded.table_version,
                idle_seconds=loaded.idle_seconds,
                age_seconds=loaded.age_seconds,
                saved_at=loaded.saved_at,
            )
        )
        assert path.read_bytes() == SNAPSHOT.read_bytes()


# -- strict decoding ----------------------------------------------------------------


def _bad_rule(encoded):
    return lambda store: decode_rule(encoded)


def _bad_file(edit):
    """Rewrite the stored snapshot with ``edit(records)``, then load it."""

    def run(store: SnapshotStore):
        path = store.root / SNAPSHOT.name
        records = [json.loads(line) for line in path.read_text().splitlines()]
        path.write_text("\n".join(edit(records)) + "\n")
        store.load("sess-000001")

    return run


def _garble_line(records):
    lines = [json.dumps(r) for r in records]
    lines[1] = lines[1][:-7]
    return lines


def _drop_meta_k(records):
    del records[0]["k"]
    return [json.dumps(r) for r in records]


def _count_as_string(records):
    records[-1]["root"]["count"] = "x"
    return [json.dumps(r) for r in records]


@pytest.mark.parametrize(
    "defect",
    [
        pytest.param(_bad_rule([["i", 1.9]]), id="int-tag-float"),
        pytest.param(_bad_rule([["b", "yes"]]), id="bool-tag-string"),
        pytest.param(_bad_rule([["iv", 1.0]]), id="interval-arity"),
        pytest.param(_bad_rule([["s"]]), id="string-arity"),
        pytest.param(_bad_file(_garble_line), id="garbled-line"),
        pytest.param(_bad_file(_drop_meta_k), id="meta-without-k"),
        pytest.param(_bad_file(_count_as_string), id="count-not-a-number"),
    ],
)
def test_defects_raise_snapshot_error(defect, v1_store):
    with pytest.raises(SnapshotError):
        defect(v1_store)
    # load_all never raises: the one file either loads or is counted.
    loaded = v1_store.load_all()
    assert len(loaded) + v1_store.stats()["skipped_corrupt"] == 1


# -- append errors are the same on every backend ------------------------------------


@pytest.mark.parametrize(
    "row",
    [
        pytest.param(("x", ["l"]), id="list-cell"),
        pytest.param(("x", {"k": 1}), id="dict-cell"),
        pytest.param(("x",), id="wrong-arity"),
    ],
)
def test_bad_append_raises_the_same_error_on_both_backends(row):
    table = Table.from_rows(Schema.categorical(["a", "b"]), [("x", "y"), ("z", "w")])
    outcomes = []
    with DrillDownServer() as server, ShardRouter(1) as router:
        for backend in (server, router):
            backend.register_table("t", table)
            with pytest.raises(ReproError) as caught:
                backend.append_rows("t", [row])
            outcomes.append((type(caught.value).__name__, str(caught.value)))
            # Nothing was appended: the next good row is version 2.
            assert backend.append_rows("t", [("x", "y")])["version"] == 2
    assert outcomes[0] == outcomes[1]
