"""ContextStore + SearchContext.clone: sharing without corruption.

The load-bearing claims: a leased clone skips the full-table build but
returns bit-identical rules; clones and prototypes are mutation-
isolated; publishing is first-writer-wins; eviction bounds the store.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import Rule, SizeWeight, brs
from repro.core.drilldown import drilldown_tag
from repro.core.search_cache import SearchContext
from repro.serving import ContextStore
from repro.session import DrillDownSession


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
        assert store.stats() == {"prototypes": 1, "hits": 1, "misses": 1, "publishes": 1}

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
        other_wf = SizeWeight()  # equal config, different instance
        assert store.lease(retail, _tag(other_wf)) is None

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
