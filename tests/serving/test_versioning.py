"""Versioned, append-able tables: the ISSUE 10 equivalence pins.

The contract: ``append_rows`` creates a *new table version* whose
serving behaviour is bit-identical to registering a table built from
the same rows from scratch — across the incremental machinery
(delta-maintained first-pick marginals, lazily rebuilt sample sets)
that makes the append cheap — while every session opened before the
append stays pinned to its version and does not move by a byte.  Superseded versions are reaped when their last
pinned session closes, and reaping (like ``unregister``) purges the
version's persisted sample artifact.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.first_pick import build_first_pick_cache, extend_first_pick_cache
from repro.core.rule import STAR, Rule
from repro.errors import (
    ReproError,
    ServingError,
    TableConflictError,
    UnknownTableError,
)
from repro.serving import DrillDownServer, ShardRouter, TableCatalog, TableVersion
from repro.serving.catalog import WEIGHT_FUNCTIONS
from repro.table import Schema, Table
from tests.conftest import random_table

SCHEMA = Schema.categorical(["A", "B", "C"])
BASE_ROWS = [
    ("a", "x", "p"),
    ("a", "x", "p"),
    ("a", "x", "q"),
    ("a", "y", "q"),
    ("b", "x", "p"),
    ("b", "y", "q"),
    ("b", "z", "r"),
]
# The tail grows two dictionaries ("c", "s") and reuses old values.
EXTRA_ROWS = [
    ("c", "x", "p"),
    ("a", "z", "s"),
    ("c", "y", "s"),
]


def _root(table: Table) -> Rule:
    return Rule([STAR] * table.n_columns)


# -- table-level bit identity ----------------------------------------------------


class TestAppendBitIdentity:
    def test_append_rows_matches_from_rows(self):
        base = Table.from_rows(SCHEMA, BASE_ROWS)
        appended = base.append_rows(EXTRA_ROWS)
        cold = Table.from_rows(SCHEMA, BASE_ROWS + EXTRA_ROWS)
        assert appended == cold
        assert appended.schema is base.schema  # schema identity preserved
        for pos in range(base.n_columns):
            a, c = appended.column(pos), cold.column(pos)
            assert np.array_equal(a.codes, c.codes)
            assert a.codes.dtype == c.codes.dtype
            assert tuple(a.values) == tuple(c.values)

    def test_append_preserves_existing_codes(self):
        base = Table.from_rows(SCHEMA, BASE_ROWS)
        appended = base.append_rows(EXTRA_ROWS)
        for pos in range(base.n_columns):
            old = base.column(pos).codes
            assert np.array_equal(appended.column(pos).codes[: len(old)], old)

    def test_append_rejects_bad_rows(self):
        base = Table.from_rows(SCHEMA, BASE_ROWS)
        with pytest.raises(ReproError):
            base.append_rows([("a", "x")])  # wrong width

    def test_delta_marginals_match_cold_build(self):
        base = Table.from_rows(SCHEMA, BASE_ROWS)
        appended = base.append_rows(EXTRA_ROWS)
        old_cache = build_first_pick_cache(base, WEIGHT_FUNCTIONS["size"](base), 5.0)
        wf = WEIGHT_FUNCTIONS["size"](appended)
        delta = extend_first_pick_cache(old_cache, appended, wf)
        assert delta is not None, "size weighting must take the delta path"
        cold = build_first_pick_cache(appended, wf, 5.0)
        assert len(delta.entries) == len(cold.entries)
        for d_entry, c_entry in zip(delta.entries, cold.entries):
            assert (d_entry is None) == (c_entry is None)
            if d_entry is None:
                continue
            d_weight, d_supported, d_counts, d_marginals = d_entry
            c_weight, c_supported, c_counts, c_marginals = c_entry
            assert d_weight == c_weight
            assert np.array_equal(d_supported, c_supported)
            assert np.array_equal(d_counts, c_counts)
            # Bit-identical, not just numerically close: the delta fold
            # replays the cold pass's IEEE accumulation order exactly.
            assert d_marginals.tobytes() == c_marginals.tobytes()

    def test_delta_declines_weight_changing_appends(self):
        """``bits`` weights depend on dictionary sizes, which the append
        grows — the extension must refuse and force a cold rebuild."""
        base = Table.from_rows(SCHEMA, BASE_ROWS)
        appended = base.append_rows(EXTRA_ROWS)
        old_cache = build_first_pick_cache(base, WEIGHT_FUNCTIONS["bits"](base), 5.0)
        assert old_cache is not None
        wf = WEIGHT_FUNCTIONS["bits"](appended)
        assert extend_first_pick_cache(old_cache, appended, wf) is None


# -- the serving-tier equivalence pin --------------------------------------------


def _tier_factories():
    return [
        pytest.param(lambda: DrillDownServer(), id="server-serial"),
        pytest.param(lambda: ShardRouter(1), id="router-1"),
        pytest.param(lambda: ShardRouter(2), id="router-2"),
        pytest.param(lambda: ShardRouter(4), id="router-4"),
    ]


class TestEquivalencePin:
    @pytest.mark.slow
    @pytest.mark.parametrize("make_tier", _tier_factories())
    def test_append_equals_fresh_registration(self, make_tier):
        """The acceptance pin: after ``append_rows``, a fresh session's
        expansions/renders are bit-identical to a session over a freshly
        registered table built from the same rows, and a pre-append
        session keeps rendering its pinned version unchanged."""
        rng = np.random.default_rng(42)
        base = random_table(rng, n_rows=70, n_columns=3, domain=4)
        extra = [
            tuple(f"v{rng.integers(6)}" for _ in range(3)) for _ in range(9)
        ]
        full_rows = [
            tuple(base.column(pos).values[base.column(pos).codes[row]]
                  for pos in range(3))
            for row in range(base.n_rows)
        ] + extra
        full = Table.from_rows(base.schema, full_rows)

        reference = DrillDownServer()
        try:
            reference.register_table("t", full)
            ref_sid = reference.create_session("t")
            reference.expand(ref_sid)
            ref_render = reference.render(ref_sid)
        finally:
            reference.close()

        tier = make_tier()
        try:
            tier.register_table("t", base)
            pinned = tier.create_session("t")
            tier.expand(pinned)
            pinned_render = tier.render(pinned)

            record = tier.append_rows("t", extra)
            assert record["version"] == 2 and record["rows"] == full.n_rows

            fresh = tier.create_session("t")
            tier.expand(fresh)
            assert tier.render(fresh) == ref_render
            # The pre-append session must not move by a byte.
            assert tier.render(pinned) == pinned_render
        finally:
            tier.close()

    def test_replace_table_swaps_versions(self, tiny_table, retail):
        with DrillDownServer() as tier:
            tier.register_table("t", tiny_table)
            record = tier.replace_table("t", retail)
            assert record["version"] == 2
            sid = tier.create_session("t")
            assert len(tier.session_columns(sid)) == retail.n_columns

    def test_conflict_travels_the_wire(self, tiny_table, retail):
        """Satellite 2 end to end: the typed conflict crosses the shard
        pipe protocol as a ``TableConflictError``, not a generic 500."""
        with ShardRouter(2) as router:
            router.register_table("t", tiny_table)
            # The router short-circuits same-object idempotence locally,
            # so force the conflict shard-side via a second router op.
            with pytest.raises(TableConflictError, match="append_rows"):
                router.register_table("t", retail)

    def test_append_unknown_table(self):
        with DrillDownServer() as tier:
            with pytest.raises(UnknownTableError):
                tier.append_rows("nope", [("a",)])
        with ShardRouter(1) as router:
            with pytest.raises(UnknownTableError):
                router.append_rows("nope", [("a",)])

    def test_append_empty_rows_rejected(self, tiny_table):
        with DrillDownServer() as tier:
            tier.register_table("t", tiny_table)
            with pytest.raises(ServingError):
                tier.append_rows("t", [])


# -- catalog version records ---------------------------------------------------


class TestCatalogVersions:
    def test_append_reaps_the_unpinned_old_version(self):
        catalog = TableCatalog()
        catalog.register("t", Table.from_rows(SCHEMA, BASE_ROWS))
        record = catalog.append_rows("t", EXTRA_ROWS)
        assert isinstance(record, TableVersion) and record.version == 2
        assert catalog.version_stats()["reaped"] == 1
        catalog.pin("t")  # a pinned old version survives the next append
        catalog.append_rows("t", EXTRA_ROWS)
        versions = catalog.version_stats()["tables"]["t"]["versions"]
        assert [v["version"] for v in versions] == [2, 3]
        catalog.unpin("t", 2)
        assert catalog.version_stats()["reaped"] == 2
        catalog.close()


# -- pin / reap lifecycle --------------------------------------------------------


class TestPinReapLifecycle:
    def test_old_version_reaped_when_last_session_closes(self, tiny_table):
        with DrillDownServer() as tier:
            tier.register_table("t", tiny_table)
            sid = tier.create_session("t")
            tier.append_rows("t", [("q", "q", "q")])
            stats = tier.stats()["versions"]
            assert stats["tables"]["t"]["latest"] == 2
            assert len(stats["tables"]["t"]["versions"]) == 2  # v1 pinned
            tier.close_session(sid)
            stats = tier.stats()["versions"]
            assert stats["reaped"] == 1
            versions = stats["tables"]["t"]["versions"]
            assert [v["version"] for v in versions] == [2]

    def test_unpinned_old_version_reaped_immediately(self, tiny_table):
        with DrillDownServer() as tier:
            tier.register_table("t", tiny_table)
            tier.append_rows("t", [("q", "q", "q")])
            stats = tier.stats()["versions"]
            assert stats["reaped"] == 1
            assert [v["version"] for v in stats["tables"]["t"]["versions"]] == [2]

    def test_unregistered_pinned_version_survives_until_close(self, tiny_table):
        with DrillDownServer() as tier:
            tier.register_table("t", tiny_table)
            sid = tier.create_session("t")
            before = tier.render(sid)
            tier.unregister_table("t")
            # The pinned session keeps serving its version...
            assert tier.render(sid) == before
            # ...and the version is reaped when the session closes.
            tier.close_session(sid)
            assert tier.stats()["versions"]["reaped"] == 1

    def test_eviction_releases_pins(self, tiny_table):
        with DrillDownServer(max_sessions=1) as tier:
            tier.register_table("t", tiny_table)
            first = tier.create_session("t")
            tier.append_rows("t", [("q", "q", "q")])
            # LRU-evicting the v1 session must release its pin and reap v1.
            tier.create_session("t")
            assert first not in [e.session_id for e in tier.registry.entries()]
            stats = tier.stats()["versions"]
            assert [v["version"] for v in stats["tables"]["t"]["versions"]] == [2]

    def test_register_after_reap_does_not_collide(self, tiny_table, retail):
        """A name whose old pinned version is still alive can be
        re-registered (new lineage) without version-key collisions."""
        with DrillDownServer() as tier:
            tier.register_table("t", tiny_table)
            sid = tier.create_session("t")
            tier.unregister_table("t")
            tier.register_table("t", retail)  # pinned v1 still alive
            assert tier.render(sid)  # old session unperturbed
            fresh = tier.create_session("t")
            assert len(tier.session_columns(fresh)) == retail.n_columns


# -- artifact purge (satellite 1 regression) -------------------------------------


class TestArtifactPurge:
    def _catalog(self, tmp_path) -> TableCatalog:
        return TableCatalog(
            sample_budget=16,
            sample_dir=tmp_path / "samples",
            marginal_mw=5.0,
        )

    def test_unregister_purges_persisted_artifacts(self, tmp_path, tiny_table):
        """The pre-fix behaviour stranded ``samples/<t>.json`` on disk
        forever after unregister."""
        catalog = self._catalog(tmp_path)
        catalog.register("t", tiny_table)
        before = sorted(p for p in tmp_path.rglob("*") if p.is_file())
        assert before, "registration must persist the sample artifact"
        catalog.unregister("t")
        after = [p for p in tmp_path.rglob("*") if p.is_file()]
        assert after == [], f"stranded artifacts: {after}"
        assert catalog.version_stats()["artifacts_purged"] == len(before)
        catalog.close()

    def test_pinned_version_defers_purge_to_last_unpin(self, tmp_path, tiny_table):
        catalog = self._catalog(tmp_path)
        catalog.register("t", tiny_table)
        catalog.pin("t")
        catalog.unregister("t")
        assert any(p.is_file() for p in tmp_path.rglob("*"))  # still pinned
        catalog.unpin("t", 1)
        assert not any(p.is_file() for p in tmp_path.rglob("*"))
        catalog.close()

    def test_append_keeps_artifacts_fresh(self, tmp_path, tiny_table):
        """Appending invalidates the sample file, and the lazy rebuild
        re-persists it under the new table's fingerprint."""
        catalog = self._catalog(tmp_path)
        catalog.register("t", tiny_table)
        record = catalog.append_rows("t", [("q", "q", "q")])
        catalog.samples_for("t")  # lazy rebuild + re-persist
        catalog.close()
        reopened = self._catalog(tmp_path)
        reopened.register("t", record.table)
        stats = reopened.sample_stats()
        assert stats["loaded"] == 1, "re-persisted sample file must load clean"
        reopened.close()
