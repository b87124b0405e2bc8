"""Fault injection for the persisted files: crashes mid-save, torn
files, garbage on disk, and the size cap.

``test_persistence.py`` pins the happy paths; this suite attacks the
one writer (``atomic_write``, behind ``SnapshotStore.save`` and
``TableSampleSet.save``) the way production disks do —
``os.replace``/``os.fsync`` dying after partial writes, SIGKILL
leaving ``.tmp`` litter behind,
truncated/garbage/stale-version files planted in the directory — and
asserts the contract from the module docstring: a warm restart *skips
and counts*, never raises; failed writes never publish torn files or
leak temp files; and ``max_bytes`` keeps the directory bounded even
across a reaper checkpoint sweep.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import numpy as np
import pytest

from repro.codec import encode_rule
from repro.core.rule import STAR, Rule
from repro.errors import SnapshotError
from repro.serving import (
    DrillDownServer,
    SessionSnapshot,
    SnapshotStore,
    TableCatalog,
    build_sample_set,
    derive_seed,
    load_sample_set,
)
from repro.serving.persistence import SNAPSHOT_VERSION
from repro.session import DrillDownSession


def _snapshot(session, sid="sess-000001", *, tenant="alice"):
    return SessionSnapshot(
        session_id=sid,
        table="retail",
        tenant=tenant,
        wf_spec="size",
        state=session.snapshot(),
        expansions=len(session.history),
    )


def _tiny_snapshot(sid: str, *, pad: int = 0) -> SessionSnapshot:
    """A store-level snapshot with a controllable on-disk size."""
    rule = Rule([STAR, STAR])
    state = {
        "k": 2,
        "mw": 3.0,
        "measure": None,
        "tenant": "pad-" + "x" * pad,
        "columns": ["A", "B"],
        "tree": {
            "rule": encode_rule(rule),
            "count": 10.0,
            "weight": 1.0,
            "depth": 0,
            "expanded_via": None,
            "children": [],
        },
        "history": [],
    }
    return SessionSnapshot(
        session_id=sid, table="t", tenant=state["tenant"], wf_spec="size", state=state
    )


# -- crash mid-save --------------------------------------------------------------


def _save_snapshot(tmp_path, retail, second: bool) -> Path:
    session = DrillDownSession(retail, k=3, mw=3.0)
    if second:
        session.expand(session.root.rule)
    return SnapshotStore(tmp_path).save(_snapshot(session))


def _reload_snapshot(tmp_path, retail) -> bool:
    return bool(SnapshotStore(tmp_path).load("sess-000001").state["tree"]["children"])


def _save_samples(tmp_path, retail, second: bool) -> Path:
    path = tmp_path / "retail.samples.json"
    build_sample_set(retail, budget=12, seed=int(second)).save(path)
    return path


def _reload_samples(tmp_path, retail) -> bool:
    path = tmp_path / "retail.samples.json"
    return load_sample_set(path, retail, budget=12, seed=1) is not None


#: Both callers of the one atomic writer: ``(save, reload)``, where
#: ``save(tmp_path, table, second)`` publishes the first or the second
#: version of one file and ``reload`` checks the second one reads back.
WRITERS = {
    "snapshot": (_save_snapshot, _reload_snapshot),
    "samples": (_save_samples, _reload_samples),
}


def _exploding_replace(src, dst, *args, **kwargs):
    raise OSError("simulated crash between write and publish")


def _exploding_fsync(fd):
    raise OSError("simulated fsync failure (dying disk)")


class TestCrashMidSave:
    @pytest.mark.parametrize("writer", sorted(WRITERS))
    def test_replace_failure_publishes_nothing_and_leaks_no_tmp(
        self, tmp_path, retail, monkeypatch, writer
    ):
        """A crash between the temp write and the rename must leave the
        previous file byte-identical and the directory litter-free."""
        save, reload = WRITERS[writer]
        path = save(tmp_path, retail, False)
        before = path.read_bytes()

        monkeypatch.setattr(os, "replace", _exploding_replace)
        with pytest.raises(OSError):
            save(tmp_path, retail, True)
        monkeypatch.undo()

        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == [path.name]
        # The writer still works once the disk recovers.
        assert save(tmp_path, retail, True).read_bytes() != before
        assert reload(tmp_path, retail)

    @pytest.mark.parametrize("writer", sorted(WRITERS))
    def test_fsync_failure_before_rename_is_contained(
        self, tmp_path, retail, monkeypatch, writer
    ):
        save, _reload = WRITERS[writer]
        monkeypatch.setattr(os, "fsync", _exploding_fsync)
        with pytest.raises(OSError):
            save(tmp_path, retail, True)
        monkeypatch.undo()
        # Nothing published, nothing leaked: fsync fires before replace.
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "target, fault",
        [("replace", _exploding_replace), ("fsync", _exploding_fsync)],
        ids=["replace", "fsync"],
    )
    def test_sample_write_failure_still_serves_built_samples(
        self, tmp_path, retail, monkeypatch, target, fault
    ):
        """Sample persistence is best-effort: a failed write costs the
        warm restart, never the registration or the samples served."""
        monkeypatch.setattr(os, target, fault)
        with TableCatalog(sample_budget=12, sample_dir=tmp_path) as catalog:
            catalog.register("retail", retail)
            served = catalog.samples_for("retail")
            assert catalog.sample_stats()["built"] == 1
        monkeypatch.undo()
        expected = build_sample_set(retail, budget=12, seed=derive_seed("retail", 0))
        assert np.array_equal(served.uniform.row_ids, expected.uniform.row_ids)
        assert served.strata.keys() == expected.strata.keys()
        for filt, stratum in expected.strata.items():
            assert np.array_equal(served.strata[filt].row_ids, stratum.row_ids)
        assert list(tmp_path.iterdir()) == []

    def test_sigkill_tmp_litter_is_swept_on_construction(self, tmp_path, retail):
        """The in-process failure path unlinks its own temp file; a
        SIGKILL cannot.  The next store over the directory sweeps the
        litter (it is unpublished garbage by definition) and counts it."""
        session = DrillDownSession(retail, k=3, mw=3.0)
        SnapshotStore(tmp_path).save(_snapshot(session))
        (tmp_path / "sess-000001.jsonl.tmp-4242-1").write_text("torn half-write")
        (tmp_path / "sess-000777.jsonl.tmp-4242-2").write_text("{")

        store = SnapshotStore(tmp_path)
        assert store.cleaned_tmp == 2
        assert store.stats()["cleaned_tmp"] == 2
        assert sorted(p.name for p in tmp_path.iterdir()) == ["sess-000001.jsonl"]
        # The published snapshot is untouched and loadable.
        assert [s.session_id for s in store.load_all()] == ["sess-000001"]

    def test_checkpoint_failure_keeps_session_dirty_and_counts(
        self, tmp_path, retail, monkeypatch
    ):
        """Server-level: a mid-save crash during a checkpoint sweep is
        counted, retried on the next sweep, and never kills the server."""
        with DrillDownServer(persist_dir=tmp_path) as server:
            server.register_table("retail", retail)
            sid = server.create_session("retail", k=3, mw=3.0)
            server.expand(sid)

            monkeypatch.setattr(
                os, "replace", lambda *a, **k: (_ for _ in ()).throw(OSError("boom"))
            )
            assert server.checkpoint_all() == 0
            monkeypatch.undo()
            assert server.checkpoint_errors == 1
            assert len(server.store.session_ids()) == 0

            # Next sweep retries the still-dirty session and succeeds.
            assert server.checkpoint_all() == 1
            assert server.store.session_ids() == (sid,)


# -- hostile directory contents --------------------------------------------------


class TestHostileSnapshotFiles:
    def _plant_fixtures(self, tmp_path, retail) -> str:
        """One good snapshot plus one truncated, one garbage, one
        stale-version, and one tmp-litter file.  Returns the good id."""
        session = DrillDownSession(retail, k=3, mw=3.0)
        session.expand(session.root.rule)
        store = SnapshotStore(tmp_path)
        path = store.save(_snapshot(session, "sess-000001"))
        lines = path.read_text().splitlines()
        # Truncated: everything but the tree terminator survived.
        (tmp_path / "sess-000002.jsonl").write_text("\n".join(lines[:-1]) + "\n")
        # Garbage: not JSON at all.
        (tmp_path / "sess-000003.jsonl").write_bytes(b"\x00\xff drill-down? \xfe")
        # Stale version: decodable, wrong format generation.
        meta = json.loads(lines[0])
        meta["version"] = SNAPSHOT_VERSION + 7
        (tmp_path / "sess-000004.jsonl").write_text(
            "\n".join([json.dumps(meta)] + lines[1:]) + "\n"
        )
        (tmp_path / "sess-000001.jsonl.tmp-99-99").write_text("litter")
        return "sess-000001"

    def test_load_all_skips_and_counts_every_defect(self, tmp_path, retail):
        good = self._plant_fixtures(tmp_path, retail)
        store = SnapshotStore(tmp_path)
        loaded = store.load_all()
        assert [s.session_id for s in loaded] == [good]
        assert store.skipped_corrupt == 2  # truncated + garbage
        assert store.skipped_version == 1
        assert store.cleaned_tmp == 1

    def test_warm_restart_never_raises_on_hostile_directory(self, tmp_path, retail):
        good = self._plant_fixtures(tmp_path, retail)
        with DrillDownServer(persist_dir=tmp_path) as server:
            server.register_table("retail", retail)
            stats = server.stats()["persistence"]
            assert server.registry.session_ids() == (good,)
            assert stats["skipped_corrupt"] == 2
            assert stats["skipped_version"] == 1
            assert stats["cleaned_tmp"] == 1
            assert server.restored == 1
            # The survivor serves: render works and is a real tree.
            assert "?" in server.render(good)

    def test_empty_and_whitespace_files_are_corrupt_not_fatal(self, tmp_path):
        (tmp_path / "sess-000001.jsonl").write_text("")
        (tmp_path / "sess-000002.jsonl").write_text("\n\n  \n")
        store = SnapshotStore(tmp_path)
        assert store.load_all() == []
        assert store.skipped_corrupt == 2


# -- the size cap ----------------------------------------------------------------


class TestSnapshotSizeCap:
    def test_cap_evicts_oldest_recency_first(self, tmp_path):
        store = SnapshotStore(tmp_path, max_bytes=2_000)
        sids = [f"sess-{i:06d}" for i in range(1, 6)]
        for age, sid in enumerate(sids):
            path = store.save(_tiny_snapshot(sid, pad=600))
            # Pin distinct mtimes, oldest first (save order already is,
            # but filesystem timestamp granularity should not decide a test).
            stamp = 1_000_000 + age
            os.utime(path, (stamp, stamp))
            store._enforce_cap(keep=path)
        # Every save kept the directory under the cap by evicting the
        # stalest files first; the newest snapshot always survives.
        assert store.total_bytes() <= 2_000
        survivors = store.session_ids()
        assert sids[-1] in survivors
        evicted = [sid for sid in sids if sid not in survivors]
        assert evicted == sids[: len(evicted)]  # strictly oldest-first
        assert store.cap_evictions == len(evicted) > 0
        assert store.stats()["cap_evictions"] == store.cap_evictions

    def test_single_oversized_snapshot_is_kept(self, tmp_path):
        """The just-written file is never its own victim — the cap
        degrades to keep-latest, not to an empty directory."""
        store = SnapshotStore(tmp_path, max_bytes=64)
        store.save(_tiny_snapshot("sess-000001", pad=500))
        assert store.session_ids() == ("sess-000001",)
        store.save(_tiny_snapshot("sess-000002", pad=500))
        assert store.session_ids() == ("sess-000002",)
        assert store.cap_evictions == 1

    def test_invalid_cap_rejected(self, tmp_path):
        with pytest.raises(SnapshotError):
            SnapshotStore(tmp_path, max_bytes=0)

    def test_cap_survives_a_reaper_checkpoint_sweep(self, tmp_path, retail):
        """ROADMAP item: a long-lived durable tier's directory stays
        bounded even when the background sweep checkpoints everything."""
        with DrillDownServer(
            persist_dir=tmp_path, persist_max_bytes=4_000
        ) as server:
            server.register_table("retail", retail)
            sids = [
                server.create_session("retail", tenant=f"t{i}", k=3, mw=3.0)
                for i in range(6)
            ]
            for sid in sids:
                server.expand(sid)
            # The reaper's sweep target, driven synchronously.
            written = server.checkpoint_all()
            assert written == len(sids)
            assert server.store.total_bytes() <= 4_000
            assert server.store.cap_evictions > 0
            # The latest-checkpointed session always survives the sweep.
            assert sids[-1] in server.store.session_ids()
        # Shutdown's final checkpoint respects the cap too.
        assert SnapshotStore(tmp_path).total_bytes() <= 4_000

    def test_warm_restart_after_eviction_restores_survivors_only(
        self, tmp_path, retail
    ):
        with DrillDownServer(persist_dir=tmp_path, persist_max_bytes=4_000) as server:
            server.register_table("retail", retail)
            sids = [
                server.create_session("retail", tenant=f"t{i}", k=3, mw=3.0)
                for i in range(6)
            ]
            for sid in sids:
                server.expand(sid)
            server.checkpoint_all()
            survivors = set(server.store.session_ids())
        assert 0 < len(survivors) < len(sids)
        with DrillDownServer(persist_dir=tmp_path) as server:
            server.register_table("retail", retail)
            assert set(server.registry.session_ids()) == survivors
