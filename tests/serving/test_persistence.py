"""Durable sessions: snapshot/restore, the reaper, and lifecycle race fixes.

Four claims pinned here:

1. **Restart equivalence** — kill a :class:`DrillDownServer`
   mid-exploration, construct a new one over the same ``persist_dir``,
   re-register the same table, and the restored session's rendered
   tree *and* the rule lists of its next expansion are bit-identical
   to an uninterrupted session (including measure-weighted and
   star-expanded trees).
2. **Robust storage** — corrupt, truncated, and stale-version snapshot
   files are skipped with a counter, never fatal; writes are atomic.
3. **The background reaper** — TTL-expired sessions are reaped by the
   thread with zero intervening registry traffic, and dirty sessions
   are checkpointed on the interval.
4. **The satellite bugfix regressions** — eviction no longer closes
   sessions under the registry lock; per-entry expansion counters are
   updated under the entry lock; a close racing an in-flight expansion
   cannot repopulate the retained-context cache; explicit ``k=0`` /
   ``mw<=0`` are rejected (HTTP 400) instead of silently defaulted;
   refunds follow the documented rejected-before-table-work policy.
"""

from __future__ import annotations

import json
import sys
import threading

import pytest

from repro.core.rule import STAR, Rule, Wildcard
from repro.errors import (
    ServingError,
    SessionError,
    SnapshotError,
    UnknownSessionError,
)
from repro.serving import DrillDownServer, SessionRegistry, SnapshotStore
from repro.codec import decode_rule, encode_rule
from repro.serving.persistence import SNAPSHOT_VERSION, ReaperThread, SessionSnapshot
from repro.session import DrillDownSession
from repro.table.bucketize import Interval


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


def _explored_server(persist_dir, table, **kwargs) -> tuple[DrillDownServer, str]:
    """A server with one two-level-expanded session over ``table``."""
    server = DrillDownServer(persist_dir=persist_dir, **kwargs)
    server.register_table("retail", table)
    sid = server.create_session("retail", tenant="alice", k=3, mw=3.0)
    server.expand(sid)
    server.expand(sid, server.session(sid).root.children[0].rule)
    return server, sid


# -- wire format -----------------------------------------------------------------


class TestRuleEncoding:
    def test_value_types_round_trip(self):
        rule = Rule(
            [
                STAR,
                "Walmart",
                3,
                2.5,
                True,
                None,
                Interval(0.0, 10.0),
                Interval(10.0, 20.0, closed_right=True),
            ]
        )
        decoded = decode_rule(encode_rule(rule))
        assert decoded == rule
        assert isinstance(decoded[0], Wildcard)
        assert decoded[5] is None  # a literal None value, not the wildcard

    def test_numpy_scalars_coerce(self):
        np = pytest.importorskip("numpy")
        decoded = decode_rule(encode_rule(Rule([np.int64(7), np.float64(1.5)])))
        assert decoded == Rule([7, 1.5])

    def test_json_round_trip_is_exact(self):
        rule = Rule([0.1 + 0.2, "x"])  # a float that doesn't print prettily
        wire = json.loads(json.dumps(encode_rule(rule)))
        assert decode_rule(wire) == rule

    def test_unserialisable_value_raises_typed_error(self):
        with pytest.raises(SnapshotError):
            encode_rule(Rule([("tuples", "are", "hashable")]))


# -- the store -------------------------------------------------------------------


class TestSnapshotStore:
    def _snapshot(self, session, sid="sess-000001", table="retail"):
        return SessionSnapshot(
            session_id=sid,
            table=table,
            tenant="alice",
            wf_spec="size",
            state=session.snapshot(),
            expansions=len(session.history),
        )

    def test_save_load_round_trip(self, tmp_path, retail):
        session = DrillDownSession(retail, k=3, mw=3.0)
        session.expand(session.root.rule)
        store = SnapshotStore(tmp_path)
        store.save(self._snapshot(session))
        loaded = store.load("sess-000001")
        restored = DrillDownSession.restore(retail, loaded.state)
        assert restored.to_text() == session.to_text()
        assert [decode_rule(r["rule"]) for r in loaded.state["history"]] == [
            r.rule for r in session.history
        ]

    def test_atomic_write_leaves_no_temp_files(self, tmp_path, retail):
        session = DrillDownSession(retail, k=3, mw=3.0)
        store = SnapshotStore(tmp_path)
        for _ in range(3):
            store.save(self._snapshot(session))
        assert [p.name for p in tmp_path.iterdir()] == ["sess-000001.jsonl"]

    def test_corrupt_snapshot_skipped_with_counter(self, tmp_path, retail):
        session = DrillDownSession(retail, k=3, mw=3.0)
        store = SnapshotStore(tmp_path)
        store.save(self._snapshot(session))
        (tmp_path / "sess-000002.jsonl").write_text("{ not json\n")
        # Truncated: a meta header but no tree terminator.
        good = (tmp_path / "sess-000001.jsonl").read_text().splitlines()
        (tmp_path / "sess-000003.jsonl").write_text(good[0] + "\n")
        loaded = SnapshotStore(tmp_path).load_all()
        assert [s.session_id for s in loaded] == ["sess-000001"]

    def test_stale_version_skipped_with_counter(self, tmp_path, retail):
        session = DrillDownSession(retail, k=3, mw=3.0)
        store = SnapshotStore(tmp_path)
        path = store.save(self._snapshot(session))
        lines = path.read_text().splitlines()
        meta = json.loads(lines[0])
        meta["version"] = SNAPSHOT_VERSION + 1
        path.write_text("\n".join([json.dumps(meta)] + lines[1:]) + "\n")
        reader = SnapshotStore(tmp_path)
        assert reader.load_all() == []
        assert reader.skipped_version == 1 and reader.skipped_corrupt == 0

    def test_delete_and_unsafe_ids(self, tmp_path, retail):
        session = DrillDownSession(retail, k=3, mw=3.0)
        store = SnapshotStore(tmp_path)
        store.save(self._snapshot(session))
        assert store.delete("sess-000001") is True
        assert store.delete("sess-000001") is False
        with pytest.raises(SnapshotError):
            store.save(self._snapshot(session, sid="../escape"))


# -- restart equivalence ---------------------------------------------------------


class TestRestartEquivalence:
    def _uninterrupted(self, table, **session_kwargs) -> DrillDownSession:
        session = DrillDownSession(table, k=3, mw=3.0, **session_kwargs)
        session.expand(session.root.rule)
        session.expand(session.root.children[0].rule)
        return session

    def test_restored_render_and_next_expansion_bit_identical(self, tmp_path, retail):
        reference = self._uninterrupted(retail)
        server, sid = _explored_server(tmp_path, retail)
        server.close()  # graceful shutdown checkpoints the dirty session

        revived = DrillDownServer(persist_dir=tmp_path)
        revived.register_table("retail", retail)
        assert revived.restored == 1 and revived.restore_skipped == 0
        entry = revived.registry.entry(sid)
        assert entry.tenant == "alice" and entry.expansions == 2
        assert revived.render(sid) == reference.to_text()
        next_rule = reference.root.children[1].rule
        expected = [c.rule for c in reference.expand(next_rule)]
        restored = [c.rule for c in revived.expand(sid, next_rule)]
        assert restored == expected
        assert revived.render(sid) == reference.to_text()
        revived.close()

    def test_measure_weighted_tree_round_trips(self, tmp_path, retail):
        reference = DrillDownSession(retail, k=3, mw=3.0, measure="Sales")
        reference.expand(reference.root.rule)
        with DrillDownServer(persist_dir=tmp_path) as server:
            server.register_table("retail", retail)
            sid = server.create_session("retail", k=3, mw=3.0, measure="Sales")
            server.expand(sid)
            assert server.checkpoint(sid) is True
        revived = DrillDownServer(persist_dir=tmp_path)
        revived.register_table("retail", retail)
        assert revived.render(sid) == reference.to_text()
        assert revived.session(sid).measure == "Sales"
        revived.close()

    def test_star_expanded_tree_round_trips(self, tmp_path, retail):
        reference = DrillDownSession(retail, k=3, mw=3.0)
        first = reference.expand(reference.root.rule)
        star_parent = first[0].rule
        star_column = next(
            i for i, v in enumerate(star_parent) if isinstance(v, Wildcard)
        )
        reference.expand_star(star_parent, star_column)
        with DrillDownServer(persist_dir=tmp_path) as server:
            server.register_table("retail", retail)
            sid = server.create_session("retail", k=3, mw=3.0)
            server.expand(sid)
            server.expand_star(sid, star_parent, star_column)
        revived = DrillDownServer(persist_dir=tmp_path)
        revived.register_table("retail", retail)
        assert revived.render(sid) == reference.to_text()
        node = revived.session(sid).node(star_parent)
        assert node.expanded_via == "star"
        revived.close()

    def test_restored_session_reuses_shared_context_store(self, tmp_path, retail):
        """First expansion after restore leases from the store when a
        sibling configuration already published — no full re-mine."""
        server, sid = _explored_server(tmp_path, retail)
        server.close()
        revived = DrillDownServer(persist_dir=tmp_path)
        revived.register_table("retail", retail)
        other = revived.create_session("retail", tenant="bob", k=3, mw=3.0)
        revived.expand(other)  # publishes the root prototype
        hits_before = revived.contexts.hits
        revived.collapse(sid, revived.session(sid).root.rule)
        revived.expand(sid)  # restored session: no retained context → lease
        assert revived.contexts.hits == hits_before + 1
        revived.close()

    def test_unrestorable_snapshots_are_skipped_not_fatal(self, tmp_path, retail, tiny_table):
        server, sid = _explored_server(tmp_path, retail)
        server.close()
        revived = DrillDownServer(persist_dir=tmp_path)
        # Same name, structurally different table: columns no longer match.
        revived.register_table("retail", tiny_table)
        assert revived.restored == 0 and revived.restore_skipped == 1
        with pytest.raises(UnknownSessionError):
            revived.session(sid)
        revived.close()

    def test_new_ids_never_collide_with_snapshots(self, tmp_path, retail):
        server, sid = _explored_server(tmp_path, retail)
        server.close()
        revived = DrillDownServer(persist_dir=tmp_path)
        # "retail" is never re-registered: the snapshot stays pending,
        # but its id must still be reserved for fresh sessions.
        revived.register_table("other", retail)
        new_sid = revived.create_session("other")
        assert new_sid != sid
        assert int(new_sid.split("-")[1]) > int(sid.split("-")[1])
        revived.close()

    def test_readonly_touches_refresh_persisted_recency(self, tmp_path, retail):
        """Render/lookup move ``last_used`` without dirtying the tree;
        the dirty-only sweep must still rewrite the snapshot, or a warm
        restart revives an active session as long-idle (and the reaper
        kills it)."""
        clock = FakeClock()
        server, sid = _explored_server(tmp_path, retail, clock=clock)
        assert server.checkpoint_all() == 1  # idle 0 persisted
        clock.advance(500.0)
        server.render(sid)  # read-only touch: last_used = 500, not dirty
        clock.advance(100.0)
        assert server.checkpoint_all() == 1  # recency stale → re-saved
        assert server.store.load(sid).idle_seconds == 100.0
        assert server.checkpoint_all() == 0  # untouched since: clean sweep
        server.close()

    def test_failed_durability_wiring_closes_the_catalog(self, tmp_path, retail):
        """A constructor failure after the catalog exists propagates
        (the half-built server closes its catalog first)."""
        with pytest.raises(SnapshotError):
            DrillDownServer(persist_dir=tmp_path, reaper_interval=-1.0)
        blocker = tmp_path / "not-a-dir"
        blocker.write_text("")
        with pytest.raises(OSError):
            DrillDownServer(persist_dir=blocker / "sub")

    def test_same_columns_different_data_is_rejected(self, retail):
        """Column names alone are not identity: a same-schema table
        with different rows must not serve a stale tree."""
        from repro.table import Schema, Table

        session = DrillDownSession(retail, k=3, mw=3.0)
        session.expand(session.root.rule)
        state = session.snapshot()
        impostor = Table.from_rows(
            Schema.categorical(list(retail.column_names)),
            [("a", "b", "c", "d")] * 8,
        )
        with pytest.raises(SessionError):
            DrillDownSession.restore(impostor, state)

    def test_checkpoint_sweep_cannot_resurrect_a_closed_session(self, tmp_path, retail):
        """A sweep racing a close: the save may re-create the snapshot
        the close just deleted — the post-save liveness check undoes it."""
        server, sid = _explored_server(tmp_path, retail)
        entry = server.registry.peek(sid)  # the sweep's stale handle
        server.close_session(sid)  # pops the entry, deletes the snapshot
        assert server._checkpoint_entry(entry, only_dirty=False) is False
        assert sid not in server.store, "sweep resurrected a closed session"
        server.close()

    def test_deterministic_save_failure_is_not_retried_forever(
        self, tmp_path, retail, monkeypatch
    ):
        server, sid = _explored_server(tmp_path, retail)
        calls = []

        def doomed(snapshot):
            calls.append(snapshot.session_id)
            raise SnapshotError("unserialisable rule value")

        monkeypatch.setattr(server.store, "save", doomed)
        assert server.checkpoint_all() == 0
        assert server.checkpoint_all() == 0  # dirty was not re-marked
        assert calls == [sid] and server.checkpoint_errors == 1
        server.close()

    def test_unserialisable_tree_is_not_retried_forever(self, tmp_path):
        from repro.table import Schema, Table

        table = Table.from_rows(Schema.categorical(["a"]), [(("t", 1),)] * 3 + [("x",)])
        server = DrillDownServer(persist_dir=tmp_path)
        server.register_table("tuples", table)
        sid = server.create_session("tuples", k=2, mw=1.0)
        server.expand(sid)  # displays the tuple value, which has no JSON form
        assert server.checkpoint_all() == 0
        assert server.checkpoint_all() == 0  # dirty was not re-marked
        assert server.checkpoint_errors == 1 and sid not in server.store
        server.close()

    def test_transient_save_failure_is_retried(self, tmp_path, retail, monkeypatch):
        server, sid = _explored_server(tmp_path, retail)
        real_save, fails = server.store.save, []

        def flaky(snapshot):
            if not fails:
                fails.append(snapshot.session_id)
                raise OSError("disk full")
            return real_save(snapshot)

        monkeypatch.setattr(server.store, "save", flaky)
        assert server.checkpoint_all() == 0  # first sweep fails...
        assert server.checkpoint_all() == 1  # ...still dirty: retried
        assert server.checkpoint_errors == 1
        monkeypatch.undo()
        server.close()

    def test_frozen_wall_clock_downtime_corrects_restored_idle(
        self, tmp_path, retail
    ):
        """The wall_clock seam end to end: idle before the save, the
        measured downtime, and idle after the restore must add exactly
        (frozen clocks — no tolerance, no sleeps).

        Monotonic clocks restart from an arbitrary zero, so recency is
        persisted as idle-seconds plus a wall ``saved_at``; on restore
        the server adds ``wall_clock() - saved_at`` so TTL kept counting
        while the process was down.
        """
        clock, wall = FakeClock(), FakeClock()
        wall.advance(1_000_000.0)  # wall time is an epoch, not zero
        server, sid = _explored_server(
            tmp_path, retail, clock=clock, wall_clock=wall
        )
        clock.advance(40.0)  # idle 40 s before the checkpoint
        assert server.checkpoint_all() == 1
        assert server.store.load(sid).saved_at == wall.now  # seam stamps it
        server.close()

        wall.advance(300.0)  # the server is down for 300 wall seconds
        revived_clock = FakeClock()  # fresh monotonic origin, as after reboot
        revived = DrillDownServer(
            persist_dir=tmp_path, clock=revived_clock, wall_clock=wall
        )
        revived.register_table("retail", retail)
        assert revived.restored == 1
        entry = revived.registry.peek(sid)
        # idle = 40 (pre-save) + 300 (downtime), on the *new* monotonic axis.
        assert revived_clock.now - entry.last_used == pytest.approx(340.0)
        revived.close()

    def test_frozen_wall_clock_uptime_in_stats(self, retail):
        wall = FakeClock()
        wall.advance(5_000.0)
        server = DrillDownServer(wall_clock=wall)
        server.register_table("retail", retail)
        wall.advance(12.5)
        assert server.stats()["uptime_seconds"] == 12.5
        server.close()

    def test_closing_a_session_deletes_its_snapshot(self, tmp_path, retail):
        server, sid = _explored_server(tmp_path, retail)
        assert server.checkpoint(sid) is True
        assert sid in server.store
        server.close_session(sid)
        assert sid not in server.store  # orphan cleanup on close
        server.close()
        revived = DrillDownServer(persist_dir=tmp_path)
        revived.register_table("retail", retail)
        assert revived.restored == 0
        revived.close()


# -- the reaper ------------------------------------------------------------------


class TestReaper:
    def test_background_thread_reaps_with_zero_registry_traffic(self, tmp_path, retail):
        clock = FakeClock()
        server = DrillDownServer(
            persist_dir=tmp_path,
            ttl_seconds=60.0,
            reaper_interval=0.01,
            clock=clock,
        )
        server.register_table("retail", retail)
        sid = server.create_session("retail")
        assert server.checkpoint(sid) is True
        clock.advance(61.0)
        # No registry operation from here on: only the reaper thread
        # may expire the session.
        deadline = threading.Event()
        for _ in range(500):
            if server.registry.ttl_evictions:
                break
            deadline.wait(0.01)
        assert server.registry.ttl_evictions == 1
        assert sid not in server.registry
        assert sid not in server.store  # reaped sessions do not resurrect
        server.close()

    def test_run_once_reaps_and_checkpoints_deterministically(self, tmp_path, retail):
        clock = FakeClock()
        server = DrillDownServer(persist_dir=tmp_path, ttl_seconds=60.0, clock=clock)
        server.register_table("retail", retail)
        keep = server.create_session("retail")
        server.expand(keep)
        lose = server.create_session("retail", tenant="idle")
        reaper = ReaperThread(
            reap=server.reap, checkpoint=server.checkpoint_all, interval=5.0
        )
        clock.advance(30.0)
        server.session(keep)  # touch: keep survives the sweep
        clock.advance(31.0)
        reaper.run_once()
        assert reaper.reaped == 1 and lose not in server.registry
        assert reaper.checkpointed == 1  # only the dirty survivor
        reaper.run_once()
        assert reaper.checkpointed == 1  # clean now: nothing rewritten
        assert keep in server.store
        server.close()

    def test_session_that_outsleeps_ttl_across_restart_is_reaped(self, tmp_path, retail):
        clock = FakeClock()
        server, sid = _explored_server(tmp_path, retail, ttl_seconds=3600.0, clock=clock)
        clock.advance(1800.0)
        server.close()  # checkpoint records 1800 s of idleness
        revived_clock = FakeClock()
        revived = DrillDownServer(
            persist_dir=tmp_path, ttl_seconds=3600.0, clock=revived_clock
        )
        revived.register_table("retail", retail)
        assert revived.restored == 1
        revived_clock.advance(2000.0)  # 1800 + 2000 > 3600: now stale
        assert revived.reap() == [sid]
        revived.close()

    def test_checkpoint_interval_shorter_than_reap_interval_is_honoured(
        self, tmp_path, retail
    ):
        """The durability-first configuration (frequent checkpoints,
        lazy reaping) must checkpoint at the checkpoint cadence, not
        once per reap tick."""
        server = DrillDownServer(
            persist_dir=tmp_path,
            reaper_interval=60.0,  # far beyond the test's lifetime
            checkpoint_interval=0.01,
        )
        server.register_table("retail", retail)
        sid = server.create_session("retail")
        server.expand(sid)  # dirty
        waiter = threading.Event()
        for _ in range(500):
            if sid in server.store:
                break
            waiter.wait(0.01)
        assert sid in server.store, "background checkpoint never fired"
        assert server.reaper.reaped == 0  # the reap duty never became due
        server.close()

    def test_reaper_survives_failing_callbacks(self):
        reaper = ReaperThread(
            reap=lambda: 1 / 0, checkpoint=lambda: 1 / 0, interval=5.0
        )
        reaper.run_once()
        assert reaper.errors == 2 and reaper.ticks == 1

    def test_shutdown_checkpoints_without_explicit_call(self, tmp_path, retail):
        server, sid = _explored_server(tmp_path, retail)
        assert len(server.store) == 0  # nothing checkpointed yet
        server.close()
        assert sid in SnapshotStore(tmp_path).session_ids()


# -- satellite bugfix regressions ------------------------------------------------


class SlowCloseSession:
    """Duck-typed session whose ``close()`` blocks until released."""

    def __init__(self):
        self.close_started = threading.Event()
        self.release = threading.Event()
        self.closed = False

    def close(self):
        self.close_started.set()
        assert self.release.wait(timeout=10.0)
        self.closed = True


class TestEvictionDoesNotHoldRegistryLock:
    def test_lookup_proceeds_while_eviction_closes(self, retail):
        """LRU eviction closing a slow session must not stall other
        tenants' lookups (victims are closed after ``_lock`` release)."""
        registry = SessionRegistry(max_sessions=2)
        slow = SlowCloseSession()
        registry.add(slow)  # the LRU victim-to-be
        survivor = DrillDownSession(retail, k=3, mw=3.0)
        survivor_id = registry.add(survivor).session_id

        adder = threading.Thread(
            target=registry.add, args=(DrillDownSession(retail, k=3, mw=3.0),)
        )
        adder.start()
        assert slow.close_started.wait(timeout=10.0)  # eviction is mid-close

        looked_up = []
        lookup = threading.Thread(
            target=lambda: looked_up.append(registry.get(survivor_id))
        )
        lookup.start()
        lookup.join(timeout=2.0)
        assert not lookup.is_alive(), "lookup stalled behind a victim's close()"
        assert looked_up == [survivor]

        slow.release.set()
        adder.join(timeout=10.0)
        assert slow.closed

    def test_on_evict_callback_may_reenter_registry(self, retail):
        """The eviction hook runs outside ``_lock`` — re-entering the
        registry from it must not deadlock."""
        clock = FakeClock()
        registry = SessionRegistry(ttl_seconds=10.0, clock=clock)
        seen = []
        registry.on_evict = lambda entry, reason: seen.append(
            (entry.session_id, reason, registry.session_ids())
        )
        sid = registry.add(DrillDownSession(retail, k=3, mw=3.0)).session_id
        clock.advance(11.0)
        assert registry.evict_expired() == [sid]
        assert seen == [(sid, "ttl", ())]


class TestExpansionCounterThreadSafety:
    def test_concurrent_expansions_never_lose_counter_updates(self, server):
        sid = server.create_session("retail")
        threads, per_thread = 8, 50
        barrier = threading.Barrier(threads)

        def hammer():
            barrier.wait()
            for _ in range(per_thread):
                server._run_expansion(sid, lambda session: [])

        old_interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # force frequent GIL handoffs
        try:
            workers = [threading.Thread(target=hammer) for _ in range(threads)]
            for w in workers:
                w.start()
            for w in workers:
                w.join()
        finally:
            sys.setswitchinterval(old_interval)
        assert server.registry.entry(sid).expansions == threads * per_thread
        assert server.registry.stats()["expansions"] == threads * per_thread


class TestCloseVsRetainRace:
    def test_close_during_expand_cannot_repin_contexts(self, retail, monkeypatch):
        """A close landing mid-mining must leave ``_search_contexts``
        empty — retention after ``clear_search_cache`` pinned the table
        and candidate lattice past session death."""
        session = DrillDownSession(retail, k=3, mw=3.0)
        import repro.session.session as session_module

        real = session_module.rule_drilldown

        def close_mid_mining(*args, **kwargs):
            result = real(*args, **kwargs)
            session.close()  # the registry evicting us mid-expand
            return result

        monkeypatch.setattr(session_module, "rule_drilldown", close_mid_mining)
        children = session.expand(session.root.rule)
        assert children  # the in-flight expansion still completed
        assert session.closed
        assert session._search_contexts == {}, "closed session retained a context"


class TestExplicitKZeroAndMwValidation:
    def test_session_rejects_k_zero_instead_of_defaulting(self, retail):
        session = DrillDownSession(retail, k=3, mw=3.0)
        for bad in (0, -1, 2.5, True):
            with pytest.raises(SessionError):
                session.expand(session.root.rule, k=bad)
        assert not session.root.children  # nothing was silently mined
        with pytest.raises(SessionError):
            session.expand_star(session.root.rule, 0, k=0)
        with pytest.raises(SessionError):
            session.expand_traditional(session.root.rule, 0, k=0)

    def test_integral_numpy_k_still_accepted(self, retail):
        import numpy as np

        session = DrillDownSession(retail, k=np.int64(3), mw=3.0)
        children = session.expand(session.root.rule, k=np.int64(2))
        assert len(children) == 2 and session.k == 3

    def test_constructor_validates_k_and_mw(self, retail):
        for kwargs in ({"k": 0}, {"k": -3}, {"mw": 0.0}, {"mw": -1.0}, {"mw": "x"}):
            with pytest.raises(SessionError):
                DrillDownSession(retail, **kwargs)

    def test_http_maps_invalid_k_and_mw_to_400(self, retail):
        import urllib.error
        import urllib.request
        from repro.serving.http import serve

        tier = DrillDownServer()
        tier.register_table("retail", retail)
        httpd = serve(tier, port=0)
        thread = threading.Thread(target=httpd.serve_forever, daemon=True)
        thread.start()
        host, port = httpd.server_address[:2]
        base = f"http://{host}:{port}"

        def post(path, body):
            request = urllib.request.Request(
                base + path, data=json.dumps(body).encode(), method="POST"
            )
            try:
                with urllib.request.urlopen(request, timeout=30) as response:
                    return response.status, json.loads(response.read())
            except urllib.error.HTTPError as error:
                return error.code, json.loads(error.read())

        try:
            for body in (
                {"table": "retail", "k": 0},
                {"table": "retail", "k": -2},
                {"table": "retail", "mw": 0},
                {"table": "retail", "mw": -5.0},
            ):
                status, payload = post("/sessions", body)
                assert status == 400, payload
            status, payload = post("/sessions", {"table": "retail"})
            assert status == 201
            sid = payload["session_id"]
            status, payload = post(
                f"/sessions/{sid}/expand", {"rule": [None] * 4, "k": 0}
            )
            assert status == 400, payload
        finally:
            httpd.shutdown()
            tier.close()


class TestRefundPolicy:
    def test_pre_table_work_rejection_refunds(self, retail):
        server = DrillDownServer(tenant_budget=20_000.0)
        server.register_table("retail", retail)
        sid = server.create_session("retail", tenant="alice")
        balance = server.scheduler.balance("alice")
        with pytest.raises(SessionError):
            server.expand(sid, k=0)  # rejected before any mining
        assert server.scheduler.balance("alice") == balance
        server.close()

    def test_unknown_column_rejection_refunds(self, retail):
        """A column typo is a SchemaError, not a SessionError — still a
        pre-mining rejection, still refunded (repeating a typo must not
        drain the bucket)."""
        server = DrillDownServer(tenant_budget=20_000.0)
        server.register_table("retail", retail)
        sid = server.create_session("retail", tenant="alice")
        balance = server.scheduler.balance("alice")
        from repro.errors import ReproError

        root = server.session(sid).root.rule
        for _ in range(3):
            with pytest.raises(ReproError):
                server.expand_star(sid, root, "NoSuchColumn")
        assert server.scheduler.balance("alice") == balance
        server.close()

    def test_mid_mining_failure_keeps_the_charge(self, retail):
        server = DrillDownServer(tenant_budget=20_000.0)
        server.register_table("retail", retail)
        sid = server.create_session("retail", tenant="alice")
        balance = server.scheduler.balance("alice")

        def explode(session):
            raise RuntimeError("worker died mid-pass")

        with pytest.raises(RuntimeError):
            server._run_expansion(sid, explode)
        # The counting pass scanned rows: the documented policy keeps
        # the charge for failures *after* table work began.
        assert server.scheduler.balance("alice") == balance - retail.n_rows
        assert server.registry.entry(sid).expansions == 0
        server.close()


class TestTableVersionProvenance:
    """Snapshots record which catalog version a session was pinned to."""

    @pytest.mark.versioning
    def test_table_version_round_trips(self, tmp_path, retail):
        session = DrillDownSession(retail, k=3, mw=3.0)
        session.expand(session.root.rule)
        store = SnapshotStore(tmp_path)
        store.save(SessionSnapshot(
            session_id="sess-000009",
            table="retail",
            tenant="alice",
            wf_spec="size",
            state=session.snapshot(),
            expansions=len(session.history),
            table_version=3,
        ))
        assert store.load("sess-000009").table_version == 3

    @pytest.mark.versioning
    def test_missing_table_version_decodes_to_none(self, tmp_path, retail):
        """Pre-versioning snapshots (no ``table_version`` key) must keep
        loading — the field is provenance, not an address."""
        session = DrillDownSession(retail, k=3, mw=3.0)
        store = SnapshotStore(tmp_path)
        store.save(SessionSnapshot(
            session_id="sess-000010",
            table="retail",
            tenant="alice",
            wf_spec="size",
            state=session.snapshot(),
            expansions=0,
        ))
        path = store.root / "sess-000010.jsonl"
        lines = path.read_text().splitlines()
        meta = json.loads(lines[0])
        meta.pop("table_version", None)
        path.write_text("\n".join([json.dumps(meta)] + lines[1:]) + "\n")
        assert store.load("sess-000010").table_version is None
