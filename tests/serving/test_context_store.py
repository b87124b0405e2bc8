"""ContextStore + SearchContext.clone: sharing without corruption.

The load-bearing claims: a leased clone skips the full-table build but
returns bit-identical rules — across every weighting in the column-set
family, mw edge values, measures and exact ties; clones and prototypes
are mutation-isolated; publishing is first-writer-wins; eviction
bounds the store.
"""

from __future__ import annotations

import sys
import threading

import numpy as np
import pytest

from repro.core import (
    BitsWeight,
    Rule,
    SizeMinusOneWeight,
    SizeWeight,
    brs,
    tuple_measures,
)
from repro.core.drilldown import drilldown_tag
from repro.core.search_cache import SearchContext
from repro.serving import ContextStore
from repro.session import DrillDownSession
from repro.table import Schema, Table
from tests.conftest import random_table


@pytest.fixture
def wf():
    return SizeWeight()


def _tag(wf, mw=3.0):
    return drilldown_tag("rule", Rule.trivial(4), None, measure=None, wf=wf, mw=mw)


class TestClone:
    def test_clone_skips_build_and_matches(self, retail, wf):
        context = SearchContext(retail, wf, 3.0)
        original = brs(retail, wf, 3, 3.0, context=context)
        clone = context.clone()
        assert clone._built and clone.cached_candidates == context.cached_candidates
        rerun = brs(retail, wf, 3, 3.0, context=clone)
        assert rerun.rules == original.rules
        # The clone re-served the run from cache: no new size-1 build.
        assert clone.total_stats.candidates_generated == 0

    def test_clone_isolated_from_prototype(self, retail, wf):
        context = SearchContext(retail, wf, 3.0)
        brs(retail, wf, 2, 3.0, context=context)
        clone = context.clone()
        before = {k: (c.marginal, c.epoch, c.expanded) for k, c in context._cands.items()}
        # Drive the clone hard: a fresh greedy run mutates its heaps,
        # epochs, and marginals.
        brs(retail, wf, 3, 3.0, context=clone)
        after = {k: (c.marginal, c.epoch, c.expanded) for k, c in context._cands.items()}
        assert before == after  # prototype untouched

    def test_clone_after_nonmonotone_top_resets_bounds(self, retail, wf):
        """A clone leased after a full greedy run serves a *fresh* run
        (top restarts at the seed) with identical results."""
        context = SearchContext(retail, wf, 3.0)
        first = brs(retail, wf, 3, 3.0, context=context)
        # The prototype's _last_top is now the final greedy top; a new
        # session starts over from zero — lower, hence non-monotone.
        clone = context.clone()
        again = brs(retail, wf, 3, 3.0, context=clone)
        assert again.rules == first.rules

    def test_clone_shares_row_arrays(self, retail, wf):
        context = SearchContext(retail, wf, 3.0)
        brs(retail, wf, 3, 3.0, context=context)
        clone = context.clone()
        shared = sum(
            1
            for key, cand in context._cands.items()
            if cand.rows is not None and clone._cands[key].rows is cand.rows
        )
        assert shared > 0  # zero-copy: materialised rows shared by reference


def _weighting(name, table):
    if name == "bits":
        return BitsWeight.for_table(table)
    return {"size": SizeWeight, "size_minus_one": SizeMinusOneWeight}[name]()


def _picks(result):
    return [(p.rule, p.weight, p.count, p.marginal) for p in result.picks]


class TestLeasedEquivalence:
    """A search served from a leased clone ≡ the cold search, bit for bit."""

    @staticmethod
    def _lease(table, wf, k, mw, measures=None):
        """Publish a context that served a full run, then lease it back."""
        store = ContextStore()
        tag = drilldown_tag(
            "rule", Rule.trivial(table.n_columns), None, measure=None, wf=wf, mw=mw
        )
        context = SearchContext(table, wf, mw, measures=measures)
        brs(table, wf, k, mw, context=context, measures=measures)
        assert store.publish(table, tag, context)
        leased = store.lease(table, tag)
        assert leased is not None and store.hits == 1
        return leased

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("weighting", ["size", "bits", "size_minus_one"])
    @pytest.mark.parametrize("mw", [0.5, 3.0, 100.0])
    def test_mw_edges_on_random_tables(self, seed, weighting, mw):
        rng = np.random.default_rng(seed)
        table = random_table(rng, n_rows=40, n_columns=4, domain=4)
        wf = _weighting(weighting, table)
        leased = self._lease(table, wf, 3, mw)
        warm = brs(table, wf, 3, mw, context=leased)
        cold = brs(table, wf, 3, mw)
        assert _picks(warm) == _picks(cold)
        assert warm.rule_list.rules == cold.rule_list.rules
        assert leased.total_stats.candidates_generated == 0

    def test_exact_ties_break_like_the_cold_search(self):
        """Columns B and C copy A, so every level-1 marginal ties
        exactly: any tie-break drift between the leased lattice and
        the cold scan changes the rule list."""
        rows = [("a", "a", "a")] * 4 + [("b", "b", "b")] * 3 + [("c", "c", "c")] * 2
        table = Table.from_rows(Schema.categorical(["A", "B", "C"]), rows)
        wf = SizeWeight()
        leased = self._lease(table, wf, 4, 3.0)
        assert _picks(brs(table, wf, 4, 3.0, context=leased)) == _picks(
            brs(table, wf, 4, 3.0)
        )

    @pytest.mark.parametrize("measure", [None, "Sales"])
    def test_measures(self, measure_table, measure):
        wf = SizeWeight()
        measures = tuple_measures(measure_table, measure)
        leased = self._lease(measure_table, wf, 4, 2.0, measures=measures)
        warm = brs(measure_table, wf, 4, 2.0, context=leased, measures=measures)
        cold = brs(measure_table, wf, 4, 2.0, measures=measures)
        assert _picks(warm) == _picks(cold)


class TestStore:
    def test_lease_miss_then_publish_then_hit(self, retail, wf):
        store = ContextStore()
        tag = _tag(wf)
        assert store.lease(retail, tag) is None
        context = SearchContext(retail, wf, 3.0)
        context.source, context.tag = retail, tag
        brs(retail, wf, 3, 3.0, context=context)
        assert store.publish(retail, tag, context) is True
        leased = store.lease(retail, tag)
        assert leased is not None and leased is not context
        assert leased.source is retail and leased.tag == tag
        assert store.stats() == {
            "prototypes": 1, "hits": 1, "misses": 1, "publishes": 1,
            "bytes": leased.nbytes(),
        }

    def test_publish_first_writer_wins(self, retail, wf):
        store = ContextStore()
        tag = _tag(wf)
        a = SearchContext(retail, wf, 3.0)
        b = SearchContext(retail, wf, 3.0)
        assert store.publish(retail, tag, a) is True
        assert store.publish(retail, tag, b) is False
        assert len(store) == 1

    def test_keyed_by_table_identity_and_tag(self, retail, tiny_table, wf):
        store = ContextStore()
        tag = _tag(wf)
        store.publish(retail, tag, SearchContext(retail, wf, 3.0))
        assert store.lease(tiny_table, tag) is None  # other table
        assert store.lease(retail, _tag(wf, mw=4.0)) is None  # other mw
        assert store.lease(retail, _tag(SizeMinusOneWeight())) is None  # other wf
        # Weightings are keyed by value: an equal, fresh instance hits.
        assert store.lease(retail, _tag(SizeWeight())) is not None

    def test_drop_table_and_clear(self, retail, tiny_table, wf):
        store = ContextStore()
        store.publish(retail, _tag(wf), SearchContext(retail, wf, 3.0))
        store.publish(retail, _tag(wf, mw=4.0), SearchContext(retail, wf, 4.0))
        store.publish(tiny_table, _tag(wf), SearchContext(tiny_table, wf, 3.0))
        assert store.drop_table(retail) == 2 and len(store) == 1
        store.clear()
        assert len(store) == 0

    def test_lru_cap(self, retail, wf):
        store = ContextStore(max_prototypes=2)
        tags = [_tag(wf, mw=float(m)) for m in (2, 3, 4)]
        for tag, m in zip(tags, (2.0, 3.0, 4.0)):
            store.publish(retail, tag, SearchContext(retail, wf, m))
        assert len(store) == 2
        assert store.lease(retail, tags[0]) is None  # oldest evicted


class TestByteAccounting:
    """``stats()["bytes"]``: each prototype's ``nbytes()``, taken at publish."""

    def _published(self, store, table, wf, mw=3.0, k=3):
        context = SearchContext(table, wf, mw)
        brs(table, wf, k, mw, context=context)
        store.publish(table, _tag(wf, mw), context)
        return context

    def test_publish_lease_drop(self, retail, wf):
        store = ContextStore()
        context = self._published(store, retail, wf, k=1)
        held = store.stats()["bytes"]
        assert held == context.clone().nbytes() > 0
        # A lease, even one that searches further, adds nothing.
        leased = store.lease(retail, _tag(wf))
        brs(retail, wf, 6, 3.0, context=leased)
        assert leased.nbytes() > held
        assert store.stats()["bytes"] == held
        assert store.drop_table(retail) == 1
        assert store.stats()["bytes"] == 0

    def test_eviction_and_clear_subtract(self, retail, tiny_table, wf):
        store = ContextStore(max_prototypes=1)
        self._published(store, retail, wf)
        small = self._published(store, tiny_table, wf)  # evicts retail's
        assert store.stats()["bytes"] == small.clone().nbytes()
        store.clear()
        assert store.stats()["bytes"] == 0

    def test_concurrent_publish_evict_drop_keep_the_total(self, retail, tiny_table, wf):
        built = [
            (table, mw, SearchContext(table, wf, mw))
            for table in (retail, tiny_table) for mw in (2.0, 3.0, 4.0)
        ]
        for table, mw, context in built:
            brs(table, wf, 2, mw, context=context)
        store = ContextStore(max_prototypes=4)

        def worker(seed: int) -> None:
            rng = np.random.default_rng(seed)
            for _ in range(40):
                table, mw, context = built[rng.integers(len(built))]
                if rng.random() < 0.2:
                    store.drop_table(table)
                else:
                    store.publish(table, _tag(wf, mw), context)
                    store.lease(table, _tag(wf, mw))

        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(seed,)) for seed in range(6)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60.0)
        finally:
            sys.setswitchinterval(switch)
        assert not any(thread.is_alive() for thread in threads)
        held = [entry[0] for entry in store._prototypes.values()]
        assert store.stats()["bytes"] == sum(p.nbytes() for p in held)

    def test_lost_publish_adds_nothing(self, retail, wf):
        store = ContextStore()
        self._published(store, retail, wf)
        held = store.stats()["bytes"]
        self._published(store, retail, wf)
        assert store.stats()["bytes"] == held


class TestSessionIntegration:
    def test_two_sessions_share_one_lattice(self, retail):
        """Second tenant's expansion leases the first's published
        context — zero candidate generation — with identical children."""
        store = ContextStore()
        wf = SizeWeight()
        first = DrillDownSession(retail, wf=wf, k=3, mw=3.0, context_store=store)
        second = DrillDownSession(retail, wf=wf, k=3, mw=3.0, context_store=store)
        a = first.expand(first.root.rule)
        assert store.stats()["publishes"] == 1
        b = second.expand(second.root.rule)
        assert [c.rule for c in a] == [c.rule for c in b]
        assert store.hits == 1
        leased = second._search_contexts[("rule", second.root.rule, None)]
        assert leased.total_stats.candidates_generated == 0  # served from cache

    def test_store_results_identical_to_private(self, retail):
        wf = SizeWeight()
        store = ContextStore()
        shared_sessions = [
            DrillDownSession(retail, wf=wf, k=3, mw=3.0, context_store=store)
            for _ in range(2)
        ]
        private = DrillDownSession(retail, wf=wf, k=3, mw=3.0)
        expected = [c.rule for c in private.expand(private.root.rule)]
        walmart = Rule.from_named(retail, Store="Walmart")
        expected2 = [c.rule for c in private.expand(walmart)]
        for session in shared_sessions:
            assert [c.rule for c in session.expand(session.root.rule)] == expected
            assert [c.rule for c in session.expand(walmart)] == expected2

    @staticmethod
    def _transcript(table, wf, store):
        out = []
        for op in ("expand", "star", "traditional"):
            session = DrillDownSession(table, wf=wf, k=3, mw=4.0, context_store=store)
            try:
                root = session.root.rule
                if op == "expand":
                    children = [c.rule for c in session.expand(root)]
                    out.append(children)
                    if children:
                        out.append([c.rule for c in session.expand(children[0])])
                elif op == "star":
                    out.append([c.rule for c in session.expand_star(root, 0)])
                else:
                    out.append([c.rule for c in session.expand_traditional(root, 1)])
            finally:
                session.close()
        return out

    @pytest.mark.parametrize("seed", [0, 3])
    def test_leased_transcripts_match_private(self, seed):
        """Every drill-down verb, one level deep and two: a second pass
        over a warm store (all leases) reads exactly like private
        sessions."""
        rng = np.random.default_rng(seed)
        table = random_table(rng, n_rows=50, n_columns=4, domain=3)
        wf = SizeWeight()
        store = ContextStore()
        private = self._transcript(table, wf, None)
        assert self._transcript(table, wf, store) == private  # publishes
        hits = store.hits
        assert self._transcript(table, wf, store) == private  # leases
        assert store.hits > hits

    def test_star_expansions_share_too(self, retail):
        wf = SizeWeight()
        store = ContextStore()
        a = DrillDownSession(retail, wf=wf, k=3, mw=3.0, context_store=store)
        b = DrillDownSession(retail, wf=wf, k=3, mw=3.0, context_store=store)
        ra = a.expand_star(a.root.rule, "Region")
        rb = b.expand_star(b.root.rule, "Region")
        assert [c.rule for c in ra] == [c.rule for c in rb]
        assert store.hits == 1

    def test_different_config_never_shared(self, retail):
        store = ContextStore()
        wf = SizeWeight()
        a = DrillDownSession(retail, wf=wf, k=3, mw=3.0, context_store=store)
        b = DrillDownSession(retail, wf=wf, k=3, mw=4.0, context_store=store)
        a.expand(a.root.rule)
        b.expand(b.root.rule)
        assert store.hits == 0 and store.stats()["prototypes"] == 2

    def test_measure_weighted_sessions_share(self, retail):
        store = ContextStore()
        wf = SizeWeight()
        a = DrillDownSession(retail, wf=wf, k=3, mw=3.0, measure="Sales", context_store=store)
        b = DrillDownSession(retail, wf=wf, k=3, mw=3.0, measure="Sales", context_store=store)
        ca = a.expand(a.root.rule)
        cb = b.expand(b.root.rule)
        assert store.hits == 1
        assert [(c.rule, c.count) for c in ca] == [(c.rule, c.count) for c in cb]
        np.testing.assert_allclose(
            [c.count for c in ca], [c.count for c in cb]
        )
