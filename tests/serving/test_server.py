"""DrillDownServer: the acceptance criteria, end to end.

Two tenants served over one catalog table must produce rule lists
bit-identical to two standalone sessions, while sharing (matching
configs) one SearchContext lattice; budget
exhaustion throttles with a typed error; eviction never unlinks shared
state still in use.
"""

from __future__ import annotations

import threading

import pytest

from repro.core import BitsWeight, Rule, SizeWeight
from repro.errors import (
    ServingError,
    TenantBudgetError,
    UnknownSessionError,
    UnknownTableError,
)
from repro.serving import DrillDownServer
from repro.serving.catalog import resolve_weight
from repro.session import DrillDownSession
from repro.table import Table


class TestTables:
    def test_register_and_list(self, server, retail):
        assert server.tables() == ("retail",)
        assert server.catalog.get("retail") is retail

    def test_unknown_table_in_create(self, server):
        with pytest.raises(UnknownTableError):
            server.create_session("nope")

    def test_unregister_drops_context_prototypes(self, server, retail):
        sid = server.create_session("retail", k=3, mw=3.0)
        server.expand(sid)
        assert server.contexts.stats()["prototypes"] == 1
        server.unregister_table("retail")
        assert server.contexts.stats()["prototypes"] == 0

    def test_unknown_weight_function(self, server):
        with pytest.raises(ServingError, match="unknown weight function"):
            server.create_session("retail", wf="heaviness")


class TestAcceptance:
    def test_two_tenants_bit_identical_to_standalone(self, retail):
        """The headline guarantee, at both drill-down levels."""
        with DrillDownServer() as server:
            server.register_table("retail", retail)
            alice = server.create_session("retail", tenant="alice", k=3, mw=3.0)
            bob = server.create_session("retail", tenant="bob", k=3, mw=3.0)

            standalone = DrillDownSession(retail, k=3, mw=3.0)
            expected = standalone.expand(standalone.root.rule)
            walmart = Rule.from_named(retail, Store="Walmart")
            expected2 = standalone.expand(walmart)

            for sid in (alice, bob):
                got = server.expand(sid)
                assert [(c.rule, c.count, c.weight) for c in got] == [
                    (c.rule, c.count, c.weight) for c in expected
                ]
                got2 = server.expand(sid, walmart)
                assert [(c.rule, c.count, c.weight) for c in got2] == [
                    (c.rule, c.count, c.weight) for c in expected2
                ]
            # ... while sharing one lattice per expanded node:
            stats = server.contexts.stats()
            assert stats["prototypes"] == 2  # root + walmart
            assert stats["hits"] == 2  # bob leased both

    def test_eviction_leaves_other_tenants_working(self, retail):
        with DrillDownServer(max_sessions=2) as server:
            server.register_table("retail", retail)
            a = server.create_session("retail", tenant="a", k=3, mw=3.0)
            b = server.create_session("retail", tenant="b", k=3, mw=3.0)
            first = server.expand(b)  # touches b: a is now the LRU
            c = server.create_session("retail", tenant="c", k=3, mw=3.0)  # evicts a
            with pytest.raises(UnknownSessionError):
                server.expand(a)
            # The surviving tenants keep working over the shared table.
            assert server.expand(b, first[-1].rule)
            assert [child.rule for child in server.expand(c)] == [
                child.rule for child in first
            ]

    def test_budget_exhaustion_is_typed_not_a_hang(self, retail):
        # retail = 6000 rows; 13000 tokens buy exactly two expansions.
        with DrillDownServer(tenant_budget=13_000) as server:
            server.register_table("retail", retail)
            sid = server.create_session("retail", tenant="alice", k=3, mw=3.0)
            children = server.expand(sid)
            server.expand(sid, children[-1].rule)
            with pytest.raises(TenantBudgetError) as info:
                server.expand(sid, children[0].rule)
            assert info.value.tenant == "alice"
            # Throttling charged nothing extra and other tenants are fine.
            other = server.create_session("retail", tenant="bob", k=3, mw=3.0)
            assert server.expand(other)

    def test_failed_expansion_refunds_budget(self, retail):
        """A rejected request (rule not displayed) must not burn budget."""
        from repro.core import STAR
        from repro.errors import SessionError

        with DrillDownServer(tenant_budget=6_000) as server:
            server.register_table("retail", retail)
            sid = server.create_session("retail", tenant="alice", k=3, mw=3.0)
            ghost = Rule(["Nobody", STAR, STAR, STAR])
            for _ in range(3):  # 3 failures would cost 18k of a 6k budget
                with pytest.raises(SessionError):
                    server.expand(sid, ghost)
            assert server.scheduler.balance("alice") == pytest.approx(6_000)
            assert server.expand(sid)  # the budget still buys real work

    def test_duplicate_expand_rejected_before_mining(self, retail):
        """Re-expanding an expanded rule must fail pre-work and refund —
        otherwise a tenant could mine for free on the refund path."""
        from repro.errors import SessionError

        with DrillDownServer(tenant_budget=12_000) as server:
            server.register_table("retail", retail)
            sid = server.create_session("retail", tenant="alice", k=3, mw=3.0)
            server.expand(sid)  # 6000 tokens
            store_stats_before = server.contexts.stats()
            for _ in range(5):
                with pytest.raises(SessionError, match="already expanded"):
                    server.expand(sid)
            # No mining happened (no new publishes/misses) and the
            # failures were refunded.
            assert server.contexts.stats() == store_stats_before
            assert server.scheduler.balance("alice") == pytest.approx(6_000)

    def test_context_store_cap_and_injection(self, retail):
        from repro.serving import ContextStore

        with DrillDownServer(max_context_prototypes=1) as server:
            assert server.contexts.max_prototypes == 1
        injected = ContextStore(max_prototypes=7)
        with DrillDownServer(share_contexts=injected) as server:
            assert server.contexts is injected

    def test_collapse_and_rerender_free_of_charge(self, retail):
        with DrillDownServer(tenant_budget=6_000) as server:
            server.register_table("retail", retail)
            sid = server.create_session("retail", k=3, mw=3.0)
            server.expand(sid)  # spends the whole budget
            server.collapse(sid, server.session(sid).root.rule)  # still allowed
            assert server.render(sid).strip()


class TestConcurrency:
    def test_concurrent_tenants_identical_results(self, retail):
        """Eight threads, one server: every tenant sees the standalone
        rule lists (per-session locks + private context clones)."""
        standalone = DrillDownSession(retail, k=3, mw=3.0)
        expected = [c.rule for c in standalone.expand(standalone.root.rule)]
        walmart = Rule.from_named(retail, Store="Walmart")
        expected2 = [c.rule for c in standalone.expand(walmart)]

        with DrillDownServer() as server:
            server.register_table("retail", retail)
            results: dict[int, tuple] = {}
            errors: list[Exception] = []

            def tenant_run(i: int) -> None:
                try:
                    sid = server.create_session("retail", tenant=f"t{i}", k=3, mw=3.0)
                    level1 = [c.rule for c in server.expand(sid)]
                    level2 = [c.rule for c in server.expand(sid, walmart)]
                    results[i] = (level1, level2)
                except Exception as exc:  # pragma: no cover - failure path
                    errors.append(exc)

            threads = [threading.Thread(target=tenant_run, args=(i,)) for i in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60.0)
            assert not errors
            assert len(results) == 8
            for level1, level2 in results.values():
                assert level1 == expected and level2 == expected2

    def test_stats_surface(self, server):
        sid = server.create_session("retail", tenant="alice", k=3, mw=3.0)
        server.expand(sid)
        stats = server.stats()
        assert stats["tables"] == ["retail"]
        assert stats["registry"]["per_tenant"] == {"alice": 1}
        assert stats["contexts"]["publishes"] == 1
        assert "'alice'" in stats["scheduler"]["tenants"]


def _children(nodes):
    return [(c.rule, c.count, c.weight) for c in nodes]


def _standalone_children(table, wf=None):
    session = DrillDownSession(table, wf=wf, k=3, mw=3.0)
    return _children(session.expand(session.root.rule))


class TestSharedContexts:
    """The context store is the tier's one cross-session search cache:
    it changes which lattices get built, never what a session reads."""

    @pytest.mark.parametrize("change", ["append", "replace"])
    def test_new_version_never_leases_the_old_lattice(self, retail, change):
        with DrillDownServer() as server:
            server.register_table("retail", retail)
            before = server.create_session("retail", k=3, mw=3.0)
            server.expand(before)
            if change == "append":
                server.append_rows("retail", [retail.row(i) for i in range(400)])
            else:
                server.replace_table(
                    "retail", Table.from_rows(retail.schema, retail.to_rows()[::2])
                )
            latest = server.catalog.get("retail")
            assert latest is not retail
            after = server.create_session("retail", k=3, mw=3.0)
            assert _children(server.expand(after)) == _standalone_children(latest)
            stats = server.contexts.stats()
            assert (stats["hits"], stats["prototypes"]) == (0, 2)

    def test_private_contexts_read_like_shared(self, retail):
        transcripts = []
        for share in (True, False):
            with DrillDownServer(share_contexts=share) as server:
                server.register_table("retail", retail)
                assert (server.contexts is None) == (not share)
                assert (server.stats()["contexts"] is None) == (not share)
                sids = [server.create_session("retail", k=3, mw=3.0) for _ in range(2)]
                transcripts.append([_children(server.expand(sid)) for sid in sids])
        assert transcripts[0] == transcripts[1]
        assert transcripts[0][0] == _standalone_children(retail)

    @pytest.mark.parametrize(
        "make_wf",
        [
            lambda table: "bits",
            lambda table: "size",
            BitsWeight.for_table,
            lambda table: SizeWeight(),
        ],
        ids=["bits", "size", "BitsWeight", "SizeWeight"],
    )
    def test_equal_weightings_share_one_lattice(self, retail, make_wf):
        """Weightings are keyed by value: each session resolves its own
        weighting (a fresh instance per session for the object cases),
        and equal weightings still lease one lattice."""
        with DrillDownServer() as server:
            server.register_table("retail", retail)
            sids = [
                server.create_session("retail", wf=make_wf(retail), k=3, mw=3.0)
                for _ in range(2)
            ]
            got = [_children(server.expand(sid)) for sid in sids]
            wf = resolve_weight(make_wf(retail), retail)
            assert got[0] == got[1] == _standalone_children(retail, wf=wf)
            stats = server.contexts.stats()
            assert (stats["hits"], stats["prototypes"]) == (1, 1)


class TestLifecycle:
    def test_close_session(self, server):
        sid = server.create_session("retail", k=3, mw=3.0)
        assert server.close_session(sid) is True
        assert server.close_session(sid) is False
        with pytest.raises(UnknownSessionError):
            server.expand(sid)

    def test_server_close_is_idempotent(self, retail):
        server = DrillDownServer()
        server.register_table("retail", retail)
        sid = server.create_session("retail", k=3, mw=3.0)
        session = server.session(sid)
        server.close()
        server.close()
        assert session.closed
        with pytest.raises(ServingError):
            server.create_session("retail")
