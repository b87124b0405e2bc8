"""Equivalence tests: the incremental engine ≡ the reference greedy.

The cached/CELF engine (:mod:`repro.core.search_cache`) must return
*byte-identical* rule lists, weights, counts, and marginals to a cold
:func:`find_best_marginal_rule` per pick (:func:`reference_brs`),
across weight functions, Sum vs Count measures, pruning on/off, and
rule-size caps — plus reuse the cache correctly across runs,
drill-downs, and sessions.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import (
    BitsWeight,
    CallableWeight,
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
    reference_brs,
    rule_drilldown,
    star_drilldown,
    tuple_measures,
)
from repro.core.marginal import SearchStats
from repro.errors import RuleError
from repro.session import DrillDownSession
from repro.table import Schema, Table
from tests.conftest import random_table, reference_drilldown


def _weighting(name: str, table):
    if name == "size":
        return SizeWeight()
    if name == "bits":
        return BitsWeight.for_table(table)
    if name == "size_minus_one":
        return SizeMinusOneWeight()
    if name == "star":
        return StarConstrainedWeight(SizeWeight(), min(1, table.n_columns - 1))
    if name == "callable":
        # Value-dependent (the engine's slow path): a column adds 1, or
        # 1.25 for a value ending in "a" or "0".
        return CallableWeight(
            lambda rule: sum(
                1.25 if str(rule[i])[-1] in "a0" else 1.0 for i in rule.instantiated_indexes
            ),
            name="value-bonus",
        )
    raise AssertionError(name)


def _case(name: str, table):
    """``(table to mine, weight)``; "merged" is the drill-down lifting,
    meaningful on the sub-table its parent covers."""
    if name != "merged":
        return table, _weighting(name, table)
    parent = Rule.from_items(table.n_columns, {0: table.categorical(0).decode(0)})
    return table.filter(cover_mask(parent, table)), MergedWeight(SizeWeight(), parent)


def _assert_identical(reference, result):
    """Byte-identical pick sequences: rules, weights, counts, marginals."""
    assert [(p.rule, p.weight, p.count, p.marginal) for p in reference] == [
        (p.rule, p.weight, p.count, p.marginal) for p in result.picks
    ]


def _assert_runs_identical(a, b):
    """Two engine runs agree on picks and on the displayed rule list."""
    _assert_identical(a.picks, b)
    assert a.rules == b.rules
    assert a.score == b.score
    assert a.rule_list.entries == b.rule_list.entries


class TestEngineEquivalence:
    @pytest.mark.parametrize(
        "weighting", ["size", "bits", "size_minus_one", "merged", "star", "callable"]
    )
    @pytest.mark.parametrize("prune", [True, False])
    def test_weightings_on_tiny_table(self, tiny_table, weighting, prune):
        table, wf = _case(weighting, tiny_table)
        reference = reference_brs(table, wf, 5, 3.0, prune=prune)
        lazy = brs(table, wf, 5, 3.0, prune=prune)
        _assert_identical(reference, lazy)

    @pytest.mark.parametrize("max_rule_size", [None, 1, 2])
    def test_rule_size_caps(self, tiny_table, max_rule_size):
        wf = SizeWeight()
        reference = reference_brs(tiny_table, wf, 4, 3.0, max_rule_size=max_rule_size)
        lazy = brs(tiny_table, wf, 4, 3.0, max_rule_size=max_rule_size)
        _assert_identical(reference, lazy)

    @pytest.mark.parametrize("measure", [None, "Sales"])
    @pytest.mark.parametrize("prune", [True, False])
    def test_sum_vs_count_measures(self, measure_table, measure, prune):
        wf = SizeWeight()
        measures = tuple_measures(measure_table, measure)
        reference = reference_brs(measure_table, wf, 4, 2.0, measures=measures, prune=prune)
        lazy = brs(measure_table, wf, 4, 2.0, measures=measures, prune=prune)
        _assert_identical(reference, lazy)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("weighting", ["size", "bits", "size_minus_one"])
    @pytest.mark.parametrize("mw", [0.5, 3.0, 100.0])
    def test_mw_edges_on_random_tables(self, seed, weighting, mw):
        rng = np.random.default_rng(seed)
        table = random_table(rng, n_rows=40, n_columns=4, domain=4)
        wf = _weighting(weighting, table)
        _assert_identical(reference_brs(table, wf, 3, mw), brs(table, wf, 3, mw))

    def test_exact_ties_break_like_the_reference(self):
        """Columns B and C copy A, so every level-1 marginal ties
        exactly: any tie-break drift from the reference changes the
        rule list."""
        rows = [("a", "a", "a")] * 4 + [("b", "b", "b")] * 3 + [("c", "c", "c")] * 2
        table = Table.from_rows(Schema.categorical(["A", "B", "C"]), rows)
        wf = SizeWeight()
        _assert_identical(reference_brs(table, wf, 4, 3.0), brs(table, wf, 4, 3.0))

    @pytest.mark.parametrize("seed", range(4))
    def test_value_dependent_weight_sums_in_row_order(self, seed):
        """Non-dyadic weights, measures and seed over a few hundred rows:
        a marginal summed in any order but row order (numpy's pairwise
        ``.sum()``, say) misses the reference by an ulp."""
        rng = np.random.default_rng(seed)
        table = random_table(rng, n_rows=300, n_columns=3, domain=3)
        wf = CallableWeight(
            lambda rule: sum(0.1 * (1 + int(str(rule[i])[1:])) for i in rule.instantiated_indexes),
            name="tenths",
        )
        measures = rng.random(table.n_rows)
        seed_top = rng.random(table.n_rows) * 0.3
        kwargs = dict(measures=measures, initial_top=seed_top)
        _assert_identical(reference_brs(table, wf, 5, 1.5, **kwargs), brs(table, wf, 5, 1.5, **kwargs))

    @pytest.mark.parametrize("seed", range(8))
    def test_random_tables(self, seed):
        rng = np.random.default_rng(seed)
        table = random_table(rng, n_rows=40, n_columns=4, domain=3)
        for weighting in ("size", "bits", "star", "callable"):
            wf = _weighting(weighting, table)
            reference = reference_brs(table, wf, 6, 3.0)
            lazy = brs(table, wf, 6, 3.0)
            _assert_identical(reference, lazy)

    def test_initial_top_seeding(self, tiny_table):
        wf = SizeWeight()
        seed = np.full(tiny_table.n_rows, 1.0)
        reference = reference_brs(tiny_table, wf, 3, 3.0, initial_top=seed)
        lazy = brs(tiny_table, wf, 3, 3.0, initial_top=seed)
        _assert_identical(reference, lazy)

    def test_exhausts_identically(self, tiny_table):
        """The engine stops at the reference's pick when marginals dry up."""
        wf = SizeWeight()
        reference = reference_brs(tiny_table, wf, 100, 3.0)
        lazy = brs(tiny_table, wf, 100, 3.0)
        assert len(reference) == len(lazy.picks) < 100
        _assert_identical(reference, lazy)

    def test_streaming_iter_equivalence(self, tiny_table):
        wf = SizeWeight()
        reference = [r.rule for r in reference_brs(tiny_table, wf, 100, 3.0)]
        lazy = [r.rule for r in brs_iter(tiny_table, wf, 3.0)]
        assert reference == lazy

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
        _assert_runs_identical(first, second)
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
        fresh = reference_brs(tiny_table, wf, 4, 3.0)
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
            brs(tiny_table, SizeMinusOneWeight(), 2, 3.0, context=ctx)  # different wf
        # Weightings compare by value: an equal, fresh instance is compatible.
        assert brs(tiny_table, SizeWeight(), 2, 3.0, context=ctx).rules


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
        _picks, rule_list, _seed = reference_drilldown(marketing7, parent, wf, 3, 5.0)
        assert lazy.rule_list.entries == rule_list.entries

    def test_stale_context_rebuilt(self, tiny_table, measure_table):
        """A context from another table/parent is ignored, not an error."""
        wf = SizeWeight()
        parent_a = Rule(["a", STAR, STAR])
        parent_b = Rule(["b", STAR, STAR])
        first = rule_drilldown(tiny_table, parent_a, wf, 2, 3.0)
        second = rule_drilldown(tiny_table, parent_b, wf, 2, 3.0, context=first.context)
        assert second.context is not first.context
        _picks, cold, _seed = reference_drilldown(tiny_table, parent_b, wf, 2, 3.0)
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
        _picks, cold, _seed = reference_drilldown(tiny_table, parent, wf, 2, 3.0, column=1)
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
        """The reference searches from scratch on every pick."""
        for pick in reference_brs(tiny_table, SizeWeight(), 3, 3.0):
            assert pick.stats.cache_hits == 0
            assert pick.stats.lazy_skips == 0
