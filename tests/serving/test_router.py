"""The sharded serving router: placement, parity, crashes, warm restore.

The contract under test is ISSUE 5's acceptance line: an N-shard
:class:`~repro.serving.ShardRouter` answers every request bit-identically
to a single-process :class:`~repro.serving.DrillDownServer`, a killed
shard's sessions survive via warm restore from the shard's own persist
directory, and the router's crash handling is typed
(:class:`~repro.errors.ShardDownError`), never a hang or a silent retry.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.core.rule import STAR, Rule
from repro.errors import (
    ReproError,
    ServingError,
    SessionError,
    ShardDownError,
    ShardError,
    TenantBudgetError,
    UnknownSessionError,
    UnknownTableError,
)
from repro.codec import decode_table, encode_table
from repro.serving import DrillDownServer, ShardRouter
from repro.serving.faults import OPS
from repro.serving.shard import _OWN_BODY_OPS, decode_node, encode_node
from repro.session import DrillDownSession
from repro.table import Schema, Table
from repro.table.bucketize import Interval
from tests.conftest import random_table


def _wire_tree(node) -> tuple:
    """A displayed node's subtree as comparable plain data."""
    return (
        tuple(node.rule),
        node.count,
        node.weight,
        node.depth,
        node.expanded_via,
        tuple(_wire_tree(c) for c in node.children),
    )


# -- wire format -----------------------------------------------------------------


class TestWireFormat:
    def test_table_roundtrip_categorical_and_numeric(self, measure_table):
        decoded = decode_table(encode_table(measure_table))
        assert decoded == measure_table
        assert decoded.schema == measure_table.schema
        # Dictionary order (the mining tie-break order) is preserved.
        for name in measure_table.column_names:
            if measure_table.schema[name].is_categorical:
                assert decoded.categorical(name).values == measure_table.categorical(name).values
                assert (decoded.categorical(name).codes == measure_table.categorical(name).codes).all()

    def test_table_roundtrip_exotic_values(self):
        rows = [
            (Interval(0.0, 1.5, False), None),
            (Interval(1.5, 3.0, True), True),
            (Interval(0.0, 1.5, False), 7),
        ]
        table = Table.from_rows(Schema.categorical(["bucket", "flag"]), rows)
        decoded = decode_table(encode_table(table))
        assert decoded.to_rows() == table.to_rows()

    def test_node_roundtrip(self, retail):
        session = DrillDownSession(retail, k=3, mw=3.0)
        session.expand(session.root.rule)
        session.expand(session.root.children[0].rule)
        root = session.root
        assert _wire_tree(decode_node(encode_node(root))) == _wire_tree(root)


# -- placement -------------------------------------------------------------------


class TestPlacement:
    def test_placement_is_stable_across_instances(self, retail):
        with ShardRouter(4) as a, ShardRouter(4) as b:
            names = [f"table-{i}" for i in range(32)]
            assert [a.shard_of_table(n) for n in names] == [
                b.shard_of_table(n) for n in names
            ]

    def test_placement_spreads_tables(self):
        with ShardRouter(2) as router:
            owners = {router.shard_of_table(f"t{i}") for i in range(64)}
            assert owners == {0, 1}

    def test_sessions_stick_to_their_tables_shard(self, retail):
        with ShardRouter(2) as router:
            router.register_table("retail", retail)
            sid = router.create_session("retail", k=3, mw=3.0)
            assert router.shard_of_session(sid) == router.shard_of_table("retail")
            # Ids carry the shard prefix, so they are unique tier-wide.
            assert sid.startswith(f"s{router.shard_of_table('retail')}-")

    def test_same_object_reregistration_is_idempotent(self, retail):
        with ShardRouter(2) as router:
            router.register_table("retail", retail)
            router.register_table("retail", retail)
            assert router.tables() == ("retail",)


# -- equivalence with the in-process tier ----------------------------------------


class TestEquivalence:
    @pytest.mark.parametrize("n_shards", [1, 2, 4])
    def test_bit_identical_to_single_process(self, retail, n_shards):
        """The acceptance criterion: same workload, same bytes."""
        with DrillDownServer() as server, ShardRouter(n_shards) as router:
            for tier in (server, router):
                tier.register_table("retail", retail)
            ref_sid = server.create_session("retail", tenant="alice", k=3, mw=3.0)
            sid = router.create_session("retail", tenant="alice", k=3, mw=3.0)

            ref_l1 = server.expand(ref_sid)
            l1 = router.expand(sid)
            assert [tuple(c.rule) for c in l1] == [tuple(c.rule) for c in ref_l1]
            assert [c.count for c in l1] == [c.count for c in ref_l1]
            assert [c.weight for c in l1] == [c.weight for c in ref_l1]

            ref_l2 = server.expand(ref_sid, ref_l1[0].rule)
            l2 = router.expand(sid, l1[0].rule)
            assert [tuple(c.rule) for c in l2] == [tuple(c.rule) for c in ref_l2]

            assert router.render(sid) == server.render(ref_sid)
            assert _wire_tree(router.tree(sid)) == _wire_tree(server.tree(ref_sid))

            root = Rule([STAR] * len(retail.column_names))
            server.collapse(ref_sid, root)
            router.collapse(sid, root)
            ref_star = server.expand_star(ref_sid, root, "Region")
            star = router.expand_star(sid, root, "Region")
            assert [tuple(c.rule) for c in star] == [tuple(c.rule) for c in ref_star]
            assert router.render(sid) == server.render(ref_sid)

    def test_expand_traditional_and_measures(self, measure_table):
        with DrillDownServer() as server, ShardRouter(2) as router:
            for tier in (server, router):
                tier.register_table("sales", measure_table)
            ref = server.create_session("sales", k=3, mw=3.0, measure="Sales")
            sid = router.create_session("sales", k=3, mw=3.0, measure="Sales")
            trivial = Rule([STAR] * measure_table.n_columns)
            ref_kids = server.expand_traditional(ref, trivial, "Store")
            kids = router.expand_traditional(sid, trivial, "Store")
            assert [tuple(c.rule) for c in kids] == [tuple(c.rule) for c in ref_kids]
            assert [c.count for c in kids] == [c.count for c in ref_kids]
            assert router.render(sid) == server.render(ref)

    def test_multiple_tables_land_on_their_own_shards(self, rng):
        tables = {f"t{i}": random_table(rng, n_rows=60, n_columns=3, domain=4) for i in range(4)}
        with DrillDownServer() as server, ShardRouter(2) as router:
            sids = {}
            for name, table in tables.items():
                server.register_table(name, table)
                router.register_table(name, table)
                ref = server.create_session(name, tenant=name, k=2, mw=3.0)
                sid = router.create_session(name, tenant=name, k=2, mw=3.0)
                server.expand(ref)
                router.expand(sid)
                sids[name] = (ref, sid)
            assert set(router.tables()) == set(tables)
            for name, (ref, sid) in sids.items():
                assert router.render(sid) == server.render(ref)


# -- typed errors over the wire --------------------------------------------------


class TestErrorPropagation:
    def test_unknown_table_and_session(self, retail):
        with ShardRouter(2) as router:
            router.register_table("retail", retail)
            with pytest.raises(UnknownTableError):
                router.create_session("nope")
            with pytest.raises(UnknownSessionError):
                router.render("sess-999999")

    def test_session_errors_reraise_as_themselves(self, retail):
        with ShardRouter(2) as router:
            router.register_table("retail", retail)
            sid = router.create_session("retail", k=3, mw=3.0)
            router.expand(sid)
            with pytest.raises(SessionError):
                router.expand(sid)  # root already expanded
            with pytest.raises(SessionError):
                router.expand(sid, Rule(["??", STAR, STAR, STAR]))  # not displayed

    def test_budget_error_keeps_retry_after(self, retail):
        with ShardRouter(
            1, tenant_budget=10.0, refill_per_second=5.0
        ) as router:
            router.register_table("retail", retail)
            sid = router.create_session("retail", tenant="alice", k=3, mw=3.0)
            with pytest.raises(TenantBudgetError) as excinfo:
                router.expand(sid)  # costs 6000 rows against a 10-token bucket
            assert excinfo.value.retry_after is not None
            assert excinfo.value.requested == pytest.approx(float(retail.n_rows))

    def test_invalid_k_rejected_before_work(self, retail):
        with ShardRouter(1) as router:
            router.register_table("retail", retail)
            sid = router.create_session("retail", k=3, mw=3.0)
            with pytest.raises(SessionError):
                router.expand(sid, k=0)

    def test_shard_answers_only_whitelisted_verbs(self):
        """The worker calls server verbs by op name: any other server
        attribute (``close``, ``session``, dunders) is refused."""
        with ShardRouter(1) as router:
            shard = router._shards[0]
            for op in ("close", "session", "__init__"):
                with pytest.raises(ShardError, match="unknown shard op"):
                    shard.request(op, {})
            assert shard.request("tables", {}) == []


    def test_every_verb_op_names_a_server_method(self):
        """The shard answers an op of ``OPS`` with its own body or the
        server method of the same name: the table and the facade agree."""
        verbs = [op for op in OPS if op not in _OWN_BODY_OPS]
        assert verbs and all(callable(getattr(DrillDownServer, op)) for op in verbs)

    @pytest.mark.parametrize(
        "setting",
        [
            {"default_approx": True},
            {"default_error_target": 0.0},
            {"marginal_mw": -1},
            {"max_sessions": 0},
            {"reaper_interval": -1},
        ],
        ids=lambda setting: next(iter(setting)),
    )
    def test_bad_setting_fails_start_up_with_the_servers_own_error(self, setting):
        """A shard whose server constructor refuses a setting reports
        that typed error, not a bare ``failed to start``."""
        with pytest.raises(ReproError) as in_process:
            DrillDownServer(**setting)
        with pytest.raises(ReproError) as sharded:
            ShardRouter(1, **setting)
        assert type(sharded.value) is type(in_process.value)
        assert str(sharded.value) == str(in_process.value)


# -- lifecycle -------------------------------------------------------------------


class TestLifecycle:
    def test_close_is_idempotent_and_final(self, retail):
        router = ShardRouter(2)
        router.register_table("retail", retail)
        router.close()
        router.close()
        with pytest.raises(ServingError):
            router.create_session("retail")

    def test_close_session_roundtrip(self, retail):
        with ShardRouter(2) as router:
            router.register_table("retail", retail)
            sid = router.create_session("retail")
            assert router.close_session(sid) is True
            assert router.close_session(sid) is False
            with pytest.raises(UnknownSessionError):
                router.render(sid)

    def test_shard_ttl_eviction_prunes_the_router_map(self, retail):
        with ShardRouter(1, ttl_seconds=0.05) as router:
            router.register_table("retail", retail)
            sid = router.create_session("retail", k=3, mw=3.0)
            time.sleep(0.15)
            assert sid in router.reap()
            with pytest.raises(UnknownSessionError):
                router.render(sid)

    def test_unregister_table(self, retail):
        with ShardRouter(2) as router:
            router.register_table("retail", retail)
            router.unregister_table("retail")
            assert router.tables() == ()
            with pytest.raises(UnknownTableError):
                router.create_session("retail")

    def test_stats_per_shard_breakdown(self, retail):
        with ShardRouter(2) as router:
            router.register_table("retail", retail)
            sid = router.create_session("retail", k=3, mw=3.0)
            router.expand(sid)
            stats = router.stats()
            assert stats["tables"] == ["retail"]
            assert stats["sessions"] == 1
            assert stats["router"]["n_shards"] == 2
            assert stats["router"]["placement"] == {
                "retail": router.shard_of_table("retail")
            }
            assert len(stats["shards"]) == 2
            by_shard = {entry["shard"]: entry for entry in stats["shards"]}
            owner = router.shard_of_table("retail")
            assert all(entry["alive"] for entry in stats["shards"])
            assert by_shard[owner]["server"]["registry"]["sessions"] == 1
            assert by_shard[1 - owner]["server"]["registry"]["sessions"] == 0


# -- crash detection, restart, warm restore --------------------------------------


class TestCrashRecovery:
    def _kill_owner(self, router: ShardRouter, table: str) -> int:
        index = router.shard_of_table(table)
        router._shards[index].process.kill()
        return index

    def test_killed_shard_raises_typed_503_and_restarts(self, retail):
        with ShardRouter(2) as router:
            router.register_table("retail", retail)
            sid = router.create_session("retail", k=3, mw=3.0)
            index = self._kill_owner(router, "retail")
            with pytest.raises(ShardDownError):
                router.render(sid)
            assert router.restarts == 1
            # Without durable state the session is gone; the tier serves on.
            with pytest.raises(UnknownSessionError):
                router.render(sid)
            replacement = router.create_session("retail", k=3, mw=3.0)
            assert router.expand(replacement)
            # The restarted shard's fresh registry cannot re-issue the
            # dead session's id to a different tenant.
            assert replacement != sid
            assert replacement.startswith(f"s{index}r1-")

    def test_other_shards_unaffected_by_a_crash(self, rng):
        with ShardRouter(2) as router:
            tables = {}
            for i in range(6):
                name = f"t{i}"
                tables[name] = random_table(rng, n_rows=50, n_columns=3, domain=3)
                router.register_table(name, tables[name])
            owners = {name: router.shard_of_table(name) for name in tables}
            assert set(owners.values()) == {0, 1}
            victim_table = next(n for n, s in owners.items() if s == 0)
            survivor_table = next(n for n, s in owners.items() if s == 1)
            survivor_sid = router.create_session(survivor_table, k=2, mw=3.0)
            survivor_render = router.render(survivor_sid)
            router._shards[0].process.kill()
            with pytest.raises(ShardDownError):
                router.create_session(victim_table, k=2, mw=3.0)
            assert router.render(survivor_sid) == survivor_render

    def test_killed_shard_sessions_survive_via_warm_restore(self, retail, tmp_path):
        """The acceptance criterion: kill -9 a shard, lose nothing
        that was checkpointed — render and next expansion bit-identical."""
        with DrillDownServer() as reference:
            reference.register_table("retail", retail)
            ref_sid = reference.create_session("retail", tenant="alice", k=3, mw=3.0)
            ref_l1 = reference.expand(ref_sid)

            with ShardRouter(2, persist_dir=tmp_path) as router:
                router.register_table("retail", retail)
                sid = router.create_session("retail", tenant="alice", k=3, mw=3.0)
                l1 = router.expand(sid)
                expected_render = router.render(sid)
                assert expected_render == reference.render(ref_sid)
                assert router.checkpoint_all() >= 1

                self._kill_owner(router, "retail")
                with pytest.raises(ShardDownError):
                    router.render(sid)
                assert router.restarts == 1

                # Same id, same bytes, same future: the restored session
                # renders identically and its next expansion matches the
                # never-crashed reference expansion for expansion.
                assert router.render(sid) == expected_render
                ref_l2 = reference.expand(ref_sid, ref_l1[0].rule)
                l2 = router.expand(sid, l1[0].rule)
                assert [tuple(c.rule) for c in l2] == [tuple(c.rule) for c in ref_l2]
                assert [c.count for c in l2] == [c.count for c in ref_l2]
                assert router.render(sid) == reference.render(ref_sid)

    def test_full_router_restart_warm_restores_every_shard(self, rng, tmp_path):
        tables = {f"t{i}": random_table(rng, n_rows=60, n_columns=3, domain=4) for i in range(4)}
        renders: dict[str, str] = {}
        sids: dict[str, str] = {}
        with ShardRouter(2, persist_dir=tmp_path) as router:
            for name, table in tables.items():
                router.register_table(name, table)
                sid = router.create_session(name, tenant=name, k=2, mw=3.0)
                router.expand(sid)
                sids[name] = sid
                renders[name] = router.render(sid)
            # close() checkpoints every dirty session on every shard.
        with ShardRouter(2, persist_dir=tmp_path) as router:
            for name, table in tables.items():
                router.register_table(name, table)
            for name, sid in sids.items():
                assert router.render(sid) == renders[name]
            stats = router.stats()
            assert stats["sessions"] == len(sids)

    def test_stats_and_close_survive_a_permanently_failed_respawn(
        self, retail, monkeypatch
    ):
        """A slot whose respawn keeps failing holds a reaped handle;
        stats() must report it down (not raise on the closed process
        record) and close() must stay clean."""
        router = ShardRouter(1)
        try:
            router.register_table("retail", retail)
            sid = router.create_session("retail", k=3, mw=3.0)
            monkeypatch.setattr(
                router, "_spawn",
                lambda *a, **k: (_ for _ in ()).throw(ServingError("nope")),
            )
            router._shards[0].process.kill()
            with pytest.raises(ShardDownError):
                router.render(sid)
            stats = router.stats()
            assert stats["shards"][0]["alive"] is False
            assert isinstance(stats["shards"][0]["pid"], int)
        finally:
            router.close()  # must not raise on the reaped handle

    def test_restart_failure_leaves_router_usable(self, retail, monkeypatch):
        """If the respawn itself fails the request still gets a typed
        ShardDownError and a later request retries the spawn."""
        with ShardRouter(1) as router:
            router.register_table("retail", retail)
            sid = router.create_session("retail", k=3, mw=3.0)
            original_spawn = router._spawn
            calls = {"n": 0}

            def flaky_spawn(index, **kwargs):
                calls["n"] += 1
                if calls["n"] == 1:
                    raise ServingError("no forks today")
                return original_spawn(index, **kwargs)

            monkeypatch.setattr(router, "_spawn", flaky_spawn)
            router._shards[0].process.kill()
            with pytest.raises(ShardDownError):
                router.render(sid)
            # The failed respawn left the dead handle in place; the next
            # request observes it and succeeds in restarting.
            with pytest.raises(ShardDownError):
                router.create_session("retail")
            assert router.create_session("retail", k=3, mw=3.0).startswith("s0r")


def test_numpy_count_types_cross_the_wire(rng):
    """Counts/weights must be JSON-clean even when numpy scalars leak in."""
    table = random_table(rng, n_rows=40, n_columns=3, domain=3)
    with ShardRouter(1) as router:
        router.register_table("t", table)
        sid = router.create_session("t", k=2, mw=3.0)
        children = router.expand(sid)
        assert all(isinstance(c.count, float) for c in children)
        assert all(isinstance(c.weight, float) for c in children)
        assert all(isinstance(c.rule, Rule) for c in children)
        assert isinstance(np.float64(1.0), np.floating)  # sanity: numpy present


class TestVersionedTables:
    @pytest.mark.versioning
    def test_append_survives_shard_crash(self, rng, tmp_path):
        """The router's local table mirror must track appends: a killed
        shard is re-registered with the *appended* table (encoded at
        respawn, not per append), so sessions created after the restart
        see every appended batch."""
        table = random_table(rng, n_rows=40, n_columns=3, domain=3)
        batches = [
            [("v0", "v1", "v0"), ("v9", "v9", "v9")],
            [("v1", "v1", "v2"), ("v9", "v0", "v8")],
            [("v2", "v0", "v0"), ("v7", "v7", "v7")],
        ]
        with ShardRouter(1, persist_dir=tmp_path) as router:
            router.register_table("t", table)
            for version, batch in enumerate(batches, start=2):
                assert router.append_rows("t", batch)["version"] == version
            router._shards[0].process.kill()
            with pytest.raises(ShardDownError):
                router.render(router.create_session("t", k=2, mw=3.0))
            sid = router.create_session("t", k=2, mw=3.0)
            router.expand(sid)
            assert router.stats()["router"]["table_versions"]["t"] >= 1
            assert router.tree(sid).count == 40 + 3 * 2  # base + 3 × batch
            # Parity against a never-crashed single process.
            with DrillDownServer() as server:
                server.register_table("t", table)
                for batch in batches:
                    server.append_rows("t", batch)
                ssid = server.create_session("t", k=2, mw=3.0)
                server.expand(ssid)
                assert router.render(sid) == server.render(ssid)

    @pytest.mark.versioning
    def test_orphaned_snapshots_counted_and_swept(self, tmp_path):
        """Satellite regression: snapshots under a ``shard-NN`` directory
        no current slot owns (a previous run used more shards) were
        silently ignored forever.  They must be *counted* in stats and,
        when the byte-cap compaction policy is configured, swept."""
        orphan = tmp_path / "shard-03" / "s3-000001.jsonl"
        orphan.parent.mkdir(parents=True)
        orphan.write_text("{}\n")
        with ShardRouter(2, persist_dir=tmp_path) as router:
            stats = router.stats()["router"]
            assert stats["orphaned_snapshots"] == 1
            assert stats["orphaned_swept"] == 0
        assert orphan.exists(), "no byte cap: orphans are reported, not deleted"
        with ShardRouter(2, persist_dir=tmp_path, persist_max_bytes=10_000) as router:
            stats = router.stats()["router"]
            assert stats["orphaned_snapshots"] == 0
            assert stats["orphaned_swept"] == 1
        assert not orphan.exists()
