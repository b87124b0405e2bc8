"""Tests for the drill-down operators (§2.3, §3.1 reductions, §5.1)."""

from __future__ import annotations

import sys
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    BitsWeight,
    CallableWeight,
    ColumnIndicatorWeight,
    ColumnSetWeight,
    MergedWeight,
    Rule,
    STAR,
    SizeWeight,
    WeightFunction,
    brs,
    count,
    rule_drilldown,
    star_drilldown,
    traditional_drilldown,
)
from repro.errors import RuleError
from repro.session import DrillDownSession
from repro.table import Table


class TestRuleDrillDown:
    def test_children_are_strict_superrules(self, tiny_table):
        parent = Rule(["a", STAR, STAR])
        result = rule_drilldown(tiny_table, parent, SizeWeight(), 2, 3.0)
        for rule in result.rules:
            assert parent.is_strict_subrule_of(rule)

    def test_counts_are_global(self, tiny_table):
        """A child's count on the sub-table equals its full-table count."""
        parent = Rule(["a", STAR, STAR])
        result = rule_drilldown(tiny_table, parent, SizeWeight(), 2, 3.0)
        for entry in result.rule_list:
            assert entry.count == count(entry.rule, tiny_table)

    def test_subtable_rows(self, tiny_table):
        parent = Rule(["a", STAR, STAR])
        result = rule_drilldown(tiny_table, parent, SizeWeight(), 2, 3.0)
        assert result.subtable_rows == 5

    def test_trivial_parent_is_plain_brs(self, tiny_table):
        from repro.core import brs

        via_drill = rule_drilldown(tiny_table, Rule.trivial(3), SizeWeight(), 2, 3.0)
        via_brs = brs(tiny_table, SizeWeight(), 2, 3.0)
        assert via_drill.rules == tuple(via_brs.rule_list.rules)

    def test_parent_not_among_children(self, retail):
        walmart = Rule.from_named(retail, Store="Walmart")
        result = rule_drilldown(retail, walmart, SizeWeight(), 3, 3.0)
        assert walmart not in result.rules

    def test_arity_mismatch(self, tiny_table):
        with pytest.raises(RuleError):
            rule_drilldown(tiny_table, Rule(["a"]), SizeWeight(), 2, 3.0)

    def test_paper_table3(self, retail):
        """The Walmart expansion reproduces Table 3 exactly."""
        walmart = Rule.from_named(retail, Store="Walmart")
        result = rule_drilldown(retail, walmart, SizeWeight(), 3, 3.0)
        got = {(str(e.rule), int(e.count)) for e in result.rule_list}
        assert got == {
            ("(Walmart, cookies, ?, ?)", 200),
            ("(Walmart, ?, CA-1, ?)", 150),
            ("(Walmart, ?, WA-5, ?)", 130),
        }

    def test_measure_changes_selection(self, measure_table):
        by_count = rule_drilldown(
            measure_table, Rule.trivial(3), SizeWeight(), 1, 2.0
        )
        by_sum = rule_drilldown(
            measure_table, Rule.trivial(3), SizeWeight(), 1, 2.0, measure="Sales"
        )
        assert by_count.rules != by_sum.rules


class TestStarDrillDown:
    def test_children_instantiate_clicked_column(self, tiny_table):
        result = star_drilldown(tiny_table, Rule.trivial(3), "C", SizeWeight(), 3, 3.0)
        c_idx = tiny_table.schema.index_of("C")
        assert result.rules
        for rule in result.rules:
            assert not rule.is_star(c_idx)

    def test_with_nontrivial_parent(self, tiny_table):
        parent = Rule(["a", STAR, STAR])
        result = star_drilldown(tiny_table, parent, 2, SizeWeight(), 2, 3.0)
        for rule in result.rules:
            assert parent.is_subrule_of(rule)
            assert not rule.is_star(2)

    def test_clicking_instantiated_column_raises(self, tiny_table):
        parent = Rule(["a", STAR, STAR])
        with pytest.raises(RuleError):
            star_drilldown(tiny_table, parent, 0, SizeWeight(), 2, 3.0)

    def test_column_by_name_and_index_agree(self, tiny_table):
        by_name = star_drilldown(tiny_table, Rule.trivial(3), "B", SizeWeight(), 2, 3.0)
        by_index = star_drilldown(tiny_table, Rule.trivial(3), 1, SizeWeight(), 2, 3.0)
        assert by_name.rules == by_index.rules

    def test_paper_fig2_education_values(self, marketing7):
        """Star expansion on Education of the Female rule (Figure 2)."""
        female = Rule.from_named(marketing7, Sex="Female")
        result = star_drilldown(marketing7, female, "Education", SizeWeight(), 4, 5.0)
        edu_idx = marketing7.schema.index_of("Education")
        sex_idx = marketing7.schema.index_of("Sex")
        assert len(result.rules) == 4
        for rule in result.rules:
            assert rule[sex_idx] == "Female"
            assert not rule.is_star(edu_idx)


class TestTraditionalDrillDown:
    def test_one_rule_per_distinct_value(self, tiny_table):
        result = traditional_drilldown(tiny_table, Rule.trivial(3), "C")
        assert len(result.rules) == 3  # p, q, r

    def test_sorted_by_count_descending(self, tiny_table):
        result = traditional_drilldown(tiny_table, Rule.trivial(3), "C")
        counts = [e.count for e in result.rule_list]
        assert counts == sorted(counts, reverse=True)

    def test_counts_partition_subtable(self, tiny_table):
        parent = Rule(["a", STAR, STAR])
        result = traditional_drilldown(tiny_table, parent, "B")
        assert sum(e.count for e in result.rule_list) == 5

    def test_k_truncates(self, tiny_table):
        result = traditional_drilldown(tiny_table, Rule.trivial(3), "C", k=2)
        assert len(result.rules) == 2

    def test_equivalent_via_brs(self, tiny_table):
        """§5.1: traditional drill-down = BRS with an indicator weight."""
        direct = traditional_drilldown(tiny_table, Rule.trivial(3), "B")
        via_brs = traditional_drilldown(tiny_table, Rule.trivial(3), "B", via_brs=True)
        assert set(direct.rules) == set(via_brs.rules)

    def test_via_brs_counts_match(self, tiny_table):
        direct = traditional_drilldown(tiny_table, Rule.trivial(3), "B")
        via_brs = traditional_drilldown(tiny_table, Rule.trivial(3), "B", via_brs=True)
        direct_counts = {e.rule: e.count for e in direct.rule_list}
        brs_counts = {e.rule: e.count for e in via_brs.rule_list}
        assert direct_counts == brs_counts

    def test_instantiated_column_raises(self, tiny_table):
        with pytest.raises(RuleError):
            traditional_drilldown(tiny_table, Rule(["a", STAR, STAR]), 0)

    def test_measure_ordering(self, measure_table):
        result = traditional_drilldown(
            measure_table, Rule.trivial(3), "Store", measure="Sales"
        )
        # T has 40 sales, W has 30, C has 1.
        assert [e.rule[0] for e in result.rule_list] == ["T", "W", "C"]
        assert [e.count for e in result.rule_list] == [40.0, 30.0, 1.0]


class TestNumericColumnGuards:
    def test_star_on_numeric_column_rejected(self, measure_table):
        """Numeric columns must be bucketized before star drill-down (§6.2)."""
        with pytest.raises(RuleError):
            star_drilldown(
                measure_table, Rule.trivial(3), "Sales", SizeWeight(), 2, 3.0
            )

    def test_star_works_after_bucketization(self, measure_table):
        from repro.table import bucketize

        bucketed = bucketize(measure_table, "Sales", n_buckets=2)
        result = star_drilldown(
            bucketed, Rule.trivial(3), "Sales", SizeWeight(), 2, 3.0
        )
        sales_idx = bucketed.schema.index_of("Sales")
        assert result.rules
        assert all(not r.is_star(sales_idx) for r in result.rules)


class _OpaqueMergedColumns(ColumnSetWeight):
    """``MergedWeight`` over a column-set base, with the parent hidden.

    Same weights, bit for bit, but the engines cannot tell it lifts a
    drill-down parent, so they enumerate the full lattice — parent
    columns included — as they did before PR 19.
    """

    def __init__(self, base: ColumnSetWeight, parent: Rule):
        self._base = base
        self._parent_columns = frozenset(parent.instantiated_indexes)

    def weight_of_columns(self, columns):
        return self._base.weight_of_columns(tuple(sorted(self._parent_columns.union(columns))))


class _OpaqueMergedCallable(WeightFunction):
    """The same for a value-dependent base (the engines' slow path)."""

    def __init__(self, base: WeightFunction, parent: Rule):
        self._merged = MergedWeight(base, parent)

    def weight(self, rule: Rule) -> float:
        return self._merged.weight(rule)


def _opaque_merged(base: WeightFunction, parent: Rule) -> WeightFunction:
    if isinstance(base, ColumnSetWeight):
        return _OpaqueMergedColumns(base, parent)
    return _OpaqueMergedCallable(base, parent)


def _reference_lattice():
    """Run drill-downs on the full lattice: same code, opaque merged weight."""
    return mock.patch.object(sys.modules["repro.core.drilldown"], "MergedWeight", _opaque_merged)


def _value_dependent_weight() -> CallableWeight:
    """Monotone and value-dependent: a column adds 1, or 1.5 for a ``…0`` value."""
    return CallableWeight(
        lambda rule: sum(1.5 if str(rule[i]).endswith("0") else 1.0 for i in rule.instantiated_indexes),
        name="zeros-heavier",
    )


@st.composite
def _drilldown_cases(draw):
    """A small table (numeric ``M`` between the categoricals, so positions
    and table indexes differ), a non-trivial parent covering at least one
    row — up to a leaf that instantiates every column, which leaves no
    free position — and the drill-down to run on it."""
    n = draw(st.integers(1, 30))
    cells = draw(
        st.lists(
            st.tuples(*[st.integers(0, d) for d in (1, 2, 2, 3)]), min_size=n, max_size=n
        )
    )
    measures = draw(st.lists(st.integers(0, 4), min_size=n, max_size=n))
    table = Table.from_dict(
        {
            "A": [f"a{c[0]}" for c in cells],
            "M": [float(m) for m in measures],
            "B": [f"b{c[1]}" for c in cells],
            "C": [f"c{c[2]}" for c in cells],
            "D": [f"d{c[3]}" for c in cells],
        }
    )
    cat = table.schema.categorical_indexes
    fixed = draw(st.sets(st.sampled_from(cat), min_size=1, max_size=len(cat)))
    row = draw(st.integers(0, n - 1))
    parent = Rule.from_items(
        table.n_columns, {idx: table.categorical(idx).decode(int(table.categorical(idx).codes[row])) for idx in fixed}
    )
    starred = sorted(set(cat) - fixed)
    star = draw(st.one_of(st.none(), st.sampled_from(starred))) if starred else None
    params = dict(
        k=draw(st.integers(1, 4)),
        mw=draw(st.sampled_from([1.0, 2.0, 3.0, 4.5, 100.0])),
        measure=draw(st.sampled_from([None, "M"])),
        max_rule_size=draw(st.sampled_from([None, 1, 2])),
        engine=draw(st.sampled_from(["incremental", "scratch"])),
    )
    return table, parent, star, params


def _drill(table, parent, star, wf, params):
    params = dict(params)
    k, mw = params.pop("k"), params.pop("mw")
    if star is None:
        return rule_drilldown(table, parent, wf, k, mw, **params)
    return star_drilldown(table, parent, star, wf, k, mw, **params)


def _assert_free_lattice_equals_reference(table, parent, star, wf, params):
    real = _drill(table, parent, star, wf, params)
    with _reference_lattice():
        reference = _drill(table, parent, star, wf, params)
    # Rules, display order, weights, counts and mcounts, exactly.
    assert real.rule_list.entries == reference.rule_list.entries
    assert real.subtable_rows == reference.subtable_rows
    # Strictly fewer candidates counted — unless none is supported at all
    # (the covered tuples' measures sum to zero), when both count nothing.
    if real.context is None:
        # A scratch run reports the stats of its successful searches only.
        generated = real.stats.candidates_generated, reference.stats.candidates_generated
    else:
        generated = tuple(
            r.context.total_stats.candidates_generated for r in (real, reference)
        )
    assert generated[0] < generated[1] or generated == (0, 0)
    if real.context is not None:
        cat = real.context.cat_positions
        named = {cat[pos] for key in real.context._cands for pos, _code in key}
        assert named.isdisjoint(parent.instantiated_indexes)


class TestFreeColumnLattice:
    """Drill-down lattices skip the clicked rule's own columns (PR 19):
    the result must equal mining the full lattice, which holds every
    candidate once more per subset of those single-valued columns."""

    @settings(deadline=None, max_examples=150)
    @given(_drilldown_cases(), st.sampled_from(["size", "bits"]))
    def test_equals_full_lattice(self, case, weighting):
        table, parent, star, params = case
        wf = SizeWeight() if weighting == "size" else BitsWeight.for_table(table)
        _assert_free_lattice_equals_reference(table, parent, star, wf, params)

    @settings(deadline=None, max_examples=60)
    @given(_drilldown_cases())
    def test_equals_full_lattice_on_the_slow_path(self, case):
        """A value-dependent weight under ``MergedWeight`` takes
        ``_generate_slow`` / ``_count_extensions_slow``."""
        table, parent, star, params = case
        _assert_free_lattice_equals_reference(table, parent, star, _value_dependent_weight(), params)

    @pytest.mark.parametrize("engine", ["incremental", "scratch"])
    @pytest.mark.parametrize("max_rule_size", [None, 1])
    def test_leaf_with_no_free_column(self, tiny_table, engine, max_rule_size):
        leaf, params = Rule(["a", "x", "p"]), dict(engine=engine, max_rule_size=max_rule_size)
        real = rule_drilldown(tiny_table, leaf, SizeWeight(), 2, 5.0, **params)
        with _reference_lattice():
            reference = rule_drilldown(tiny_table, leaf, SizeWeight(), 2, 5.0, **params)
        assert real.rule_list.entries == reference.rule_list.entries
        assert real.rules == ()
        assert real.stats.candidates_generated == 0

    def test_unfiltered_table_is_rejected(self, tiny_table):
        """Skipping the parent's columns is sound on ``T_r'`` only."""
        wf = MergedWeight(SizeWeight(), Rule(["a", STAR, STAR]))
        for engine in ("incremental", "scratch"):
            with pytest.raises(RuleError, match="single-valued"):
                brs(tiny_table, wf, 2, 3.0, engine=engine)

    @pytest.mark.parametrize("max_rule_size", [None, 1, 3])
    def test_reexpansion_reuses_the_context(self, tiny_table, max_rule_size):
        """The size limit counts free columns in the constructor *and*
        in the compatibility check, so a retained context still serves."""
        parent, wf = Rule(["a", STAR, STAR]), SizeWeight()  # contexts key on the wf instance
        first = rule_drilldown(tiny_table, parent, wf, 2, 3.0, max_rule_size=max_rule_size)
        again = rule_drilldown(
            tiny_table, parent, wf, 2, 3.0, max_rule_size=max_rule_size, context=first.context
        )
        assert again.context is first.context
        assert again.stats.cache_hits > 0
        assert again.rule_list.entries == first.rule_list.entries

    def test_session_collapse_then_reexpand_of_a_child(self, retail):
        session = DrillDownSession(retail, k=3, mw=3.0)
        child = session.expand(session.root.rule)[0].rule
        shown = [(n.rule, n.count) for n in session.expand(child)]
        context = session._search_contexts[("rule", child, None)]
        hits = context.total_stats.cache_hits
        session.collapse(child)
        assert [(n.rule, n.count) for n in session.expand(child)] == shown
        assert session._search_contexts[("rule", child, None)] is context
        assert context.total_stats.cache_hits > hits
