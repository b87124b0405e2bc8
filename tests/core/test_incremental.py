"""Equivalence tests: the incremental engine ≡ the from-scratch greedy.

The cached/CELF engine (:mod:`repro.core.search_cache`) must return
*byte-identical* rule lists, weights, counts, and marginals to a cold
:func:`find_best_marginal_rule` per pick, across weight functions,
Sum vs Count measures, pruning on/off, and rule-size caps — plus reuse
the cache correctly across runs, drill-downs, and sessions.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import (
    BitsWeight,
    MergedWeight,
    Rule,
    STAR,
    SearchContext,
    SizeMinusOneWeight,
    SizeWeight,
    StarConstrainedWeight,
    brs,
    brs_iter,
    cover_mask,
    find_best_marginal_rule,
    rule_drilldown,
    star_drilldown,
    tuple_measures,
)
from repro.core.marginal import SearchStats
from repro.errors import EngineError, RuleError
from repro.session import DrillDownSession
from tests.conftest import random_table


def _weighting(name: str, table):
    if name == "size":
        return SizeWeight()
    if name == "bits":
        return BitsWeight.for_table(table)
    if name == "size_minus_one":
        return SizeMinusOneWeight()
    if name == "star":
        return StarConstrainedWeight(SizeWeight(), min(1, table.n_columns - 1))
    raise AssertionError(name)


def _case(name: str, table):
    """``(table to mine, weight)``; "merged" is the drill-down lifting,
    meaningful on the sub-table its parent covers."""
    if name != "merged":
        return table, _weighting(name, table)
    parent = Rule.from_items(table.n_columns, {0: table.categorical(0).decode(0)})
    return table.filter(cover_mask(parent, table)), MergedWeight(SizeWeight(), parent)


def _assert_identical(a, b):
    """Byte-identical pick sequences: rules, weights, counts, marginals."""
    assert [p.rule for p in a.picks] == [p.rule for p in b.picks]
    assert [p.weight for p in a.picks] == [p.weight for p in b.picks]
    assert [p.count for p in a.picks] == [p.count for p in b.picks]
    assert [p.marginal for p in a.picks] == [p.marginal for p in b.picks]
    assert a.rules == b.rules
    assert a.score == b.score
    for ea, eb in zip(a.rule_list.entries, b.rule_list.entries):
        assert (ea.rule, ea.weight, ea.count, ea.mcount) == (
            eb.rule,
            eb.weight,
            eb.count,
            eb.mcount,
        )


class TestEngineEquivalence:
    @pytest.mark.parametrize(
        "weighting", ["size", "bits", "size_minus_one", "merged", "star"]
    )
    @pytest.mark.parametrize("prune", [True, False])
    def test_weightings_on_tiny_table(self, tiny_table, weighting, prune):
        table, wf = _case(weighting, tiny_table)
        scratch = brs(table, wf, 5, 3.0, prune=prune, engine="scratch")
        lazy = brs(table, wf, 5, 3.0, prune=prune, engine="incremental")
        _assert_identical(scratch, lazy)

    @pytest.mark.parametrize("max_rule_size", [None, 1, 2])
    def test_rule_size_caps(self, tiny_table, max_rule_size):
        wf = SizeWeight()
        scratch = brs(
            tiny_table, wf, 4, 3.0, max_rule_size=max_rule_size, engine="scratch"
        )
        lazy = brs(tiny_table, wf, 4, 3.0, max_rule_size=max_rule_size)
        _assert_identical(scratch, lazy)

    @pytest.mark.parametrize("measure", [None, "Sales"])
    @pytest.mark.parametrize("prune", [True, False])
    def test_sum_vs_count_measures(self, measure_table, measure, prune):
        wf = SizeWeight()
        measures = tuple_measures(measure_table, measure)
        scratch = brs(
            measure_table, wf, 4, 2.0, measures=measures, prune=prune, engine="scratch"
        )
        lazy = brs(measure_table, wf, 4, 2.0, measures=measures, prune=prune)
        _assert_identical(scratch, lazy)

    @pytest.mark.parametrize("seed", range(8))
    def test_random_tables(self, seed):
        rng = np.random.default_rng(seed)
        table = random_table(rng, n_rows=40, n_columns=4, domain=3)
        for weighting in ("size", "bits", "star"):
            wf = _weighting(weighting, table)
            scratch = brs(table, wf, 6, 3.0, engine="scratch")
            lazy = brs(table, wf, 6, 3.0)
            _assert_identical(scratch, lazy)

    def test_initial_top_seeding(self, tiny_table):
        wf = SizeWeight()
        seed = np.full(tiny_table.n_rows, 1.0)
        scratch = brs(tiny_table, wf, 3, 3.0, initial_top=seed, engine="scratch")
        lazy = brs(tiny_table, wf, 3, 3.0, initial_top=seed)
        _assert_identical(scratch, lazy)

    def test_exhausts_identically(self, tiny_table):
        """Both engines stop at the same pick when marginals dry up."""
        wf = SizeWeight()
        scratch = brs(tiny_table, wf, 100, 3.0, engine="scratch")
        lazy = brs(tiny_table, wf, 100, 3.0)
        assert len(scratch.picks) == len(lazy.picks) < 100
        _assert_identical(scratch, lazy)

    def test_streaming_iter_equivalence(self, tiny_table):
        wf = SizeWeight()
        scratch = [r.rule for r in brs_iter(tiny_table, wf, 3.0, engine="scratch")]
        lazy = [r.rule for r in brs_iter(tiny_table, wf, 3.0)]
        assert scratch == lazy

    def test_matches_single_search_sequence(self, tiny_table):
        """context.find_best ≡ find_best_marginal_rule pick by pick."""
        wf = SizeWeight()
        ctx = SearchContext(tiny_table, wf, 3.0)
        top = np.zeros(tiny_table.n_rows)
        for _ in range(4):
            cold = find_best_marginal_rule(tiny_table, wf, top.copy(), 3.0)
            warm = ctx.find_best(top.copy())
            if cold is None:
                assert warm is None
                break
            assert warm is not None
            assert (warm.rule, warm.weight, warm.count, warm.marginal) == (
                cold.rule,
                cold.weight,
                cold.count,
                cold.marginal,
            )

            mask = cover_mask(cold.rule, tiny_table)
            top[mask] = np.maximum(top[mask], cold.weight)


class TestContextReuse:
    def test_second_run_identical_and_cheaper(self, marketing7):
        wf = SizeWeight()
        ctx = SearchContext(marketing7, wf, 5.0)
        first = brs(marketing7, wf, 4, 5.0, context=ctx)
        second = brs(marketing7, wf, 4, 5.0, context=ctx)
        _assert_identical(first, second)
        # The second run regenerates nothing: every candidate it needs
        # is already cached.
        assert second.stats.candidates_generated == 0
        assert second.stats.cache_hits > 0
        assert second.stats.rows_scanned < first.stats.rows_scanned

    def test_growing_k_reuses_cache(self, tiny_table):
        """k=2 then k=4 on one context: the k=4 run prefixes identically."""
        wf = SizeWeight()
        ctx = SearchContext(tiny_table, wf, 3.0)
        small = brs(tiny_table, wf, 2, 3.0, context=ctx)
        large = brs(tiny_table, wf, 4, 3.0, context=ctx)
        fresh = brs(tiny_table, wf, 4, 3.0, engine="scratch")
        assert [p.rule for p in large.picks[:2]] == [p.rule for p in small.picks]
        _assert_identical(fresh, large)

    def test_lazy_counters_populated(self, marketing7):
        result = brs(marketing7, SizeWeight(), 4, 5.0)
        assert result.stats.cache_hits > 0
        assert result.stats.lazy_skips > 0

    def test_incompatible_context_rejected(self, tiny_table, measure_table):
        wf = SizeWeight()
        ctx = SearchContext(tiny_table, wf, 3.0)
        with pytest.raises(RuleError):
            brs(measure_table, wf, 2, 3.0, context=ctx)
        with pytest.raises(RuleError):
            brs(tiny_table, wf, 2, 2.0, context=ctx)  # different mw
        with pytest.raises(RuleError):
            brs(tiny_table, wf, 2, 3.0, prune=False, context=ctx)
        with pytest.raises(RuleError):
            brs(tiny_table, SizeWeight(), 2, 3.0, context=ctx)  # different wf object

    def test_unknown_engine_rejected(self, tiny_table):
        # EngineError subclasses ValueError, so both spellings catch it.
        with pytest.raises(EngineError):
            brs(tiny_table, SizeWeight(), 2, 3.0, engine="warp")
        with pytest.raises(ValueError):
            brs(tiny_table, SizeWeight(), 2, 3.0, engine="warp")


class TestDrilldownReuse:
    def test_rule_drilldown_context_roundtrip(self, marketing7):
        wf = SizeWeight()
        parent = Rule.from_items(
            marketing7.n_columns, {0: marketing7.categorical(0).decode(0)}
        )
        first = rule_drilldown(marketing7, parent, wf, 3, 5.0)
        assert first.context is not None
        second = rule_drilldown(
            marketing7, parent, wf, 3, 5.0, context=first.context
        )
        assert second.context is first.context
        assert first.rules == second.rules
        assert [e.mcount for e in first.rule_list] == [e.mcount for e in second.rule_list]
        # Reuse serves most of the lattice from cache: far fewer
        # candidates are generated than a cold run needs (a few pruned
        # subtrees may expand late, since the redo re-verifies bounds
        # under its own top sequence).
        assert second.stats.candidates_generated < first.stats.candidates_generated / 2
        assert second.stats.cache_hits > 0

    def test_rule_drilldown_matches_scratch(self, marketing7):
        wf = SizeWeight()
        parent = Rule.from_items(
            marketing7.n_columns, {0: marketing7.categorical(0).decode(0)}
        )
        lazy = rule_drilldown(marketing7, parent, wf, 3, 5.0)
        cold = rule_drilldown(marketing7, parent, wf, 3, 5.0, engine="scratch")
        assert cold.context is None
        assert lazy.rules == cold.rules

    def test_stale_context_rebuilt(self, tiny_table, measure_table):
        """A context from another table/parent is ignored, not an error."""
        wf = SizeWeight()
        parent_a = Rule(["a", STAR, STAR])
        parent_b = Rule(["b", STAR, STAR])
        first = rule_drilldown(tiny_table, parent_a, wf, 2, 3.0)
        second = rule_drilldown(tiny_table, parent_b, wf, 2, 3.0, context=first.context)
        assert second.context is not first.context
        cold = rule_drilldown(tiny_table, parent_b, wf, 2, 3.0, engine="scratch")
        assert second.rules == cold.rules

    def test_star_drilldown_context_roundtrip(self, tiny_table):
        wf = SizeWeight()
        parent = Rule(["a", STAR, STAR])
        first = star_drilldown(tiny_table, parent, 1, wf, 2, 3.0)
        second = star_drilldown(
            tiny_table, parent, 1, wf, 2, 3.0, context=first.context
        )
        assert second.context is first.context
        assert first.rules == second.rules
        cold = star_drilldown(tiny_table, parent, 1, wf, 2, 3.0, engine="scratch")
        assert first.rules == cold.rules


class TestSessionReuse:
    def test_expand_collapse_expand_identical(self, marketing7):
        session = DrillDownSession(marketing7, k=3, mw=5.0)
        root = session.root.rule
        first = [c.rule for c in session.expand(root)]
        ctx = session._search_contexts[("rule", root, None)]
        session.collapse(root)
        again = [c.rule for c in session.expand(root)]
        assert first == again
        # Same context object survived the collapse and served the redo.
        assert session._search_contexts[("rule", root, None)] is ctx
        assert ctx.total_stats.cache_hits > 0

    def test_clear_search_cache(self, tiny_table):
        session = DrillDownSession(tiny_table, k=2, mw=3.0)
        session.expand(session.root.rule)
        assert session._search_contexts
        session.clear_search_cache()
        assert not session._search_contexts


class TestSearchStatsCounters:
    def test_merge_accumulates_new_counters(self):
        a = SearchStats(cache_hits=2, lazy_skips=5)
        b = SearchStats(cache_hits=3, lazy_skips=7, rows_scanned=10)
        a.merge(b)
        assert a.cache_hits == 5
        assert a.lazy_skips == 12
        assert a.rows_scanned == 10

    def test_scratch_engine_reports_no_cache_work(self, tiny_table):
        result = brs(tiny_table, SizeWeight(), 3, 3.0, engine="scratch")
        assert result.stats.cache_hits == 0
        assert result.stats.lazy_skips == 0
