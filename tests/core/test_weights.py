"""Tests for weighting functions (paper §2.2, §6.1): contracts and values."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    BitsWeight,
    CallableWeight,
    ColumnIndicatorWeight,
    MergedWeight,
    ParametricWeight,
    Rule,
    STAR,
    SizeMinusOneWeight,
    SizeWeight,
    StarConstrainedWeight,
    bits_per_column,
    validate_weight_function,
)
from repro.core.drilldown import drilldown_tag
from repro.core.weights import all_column_subsets
from repro.errors import WeightFunctionError
from repro.table import Schema, Table


class TestSizeWeight:
    def test_equals_rule_size(self):
        wf = SizeWeight()
        assert wf.weight(Rule.trivial(3)) == 0.0
        assert wf.weight(Rule(["a", STAR, STAR])) == 1.0
        assert wf.weight(Rule(["a", "b", "c"])) == 3.0

    def test_max_weight(self):
        assert SizeWeight().max_weight(5) == 5.0

    def test_paper_table2_weights(self):
        # (Target, bicycles, ?) has weight 2 (paper §2.2 example).
        assert SizeWeight().weight(Rule(["Target", "bicycles", STAR])) == 2.0


class TestBitsWeight:
    def test_for_table(self, tiny_table):
        wf = BitsWeight.for_table(tiny_table)
        # Columns have 2, 3, 3 distinct values → ceil(log2) = 1, 2, 2.
        assert wf.column_bits == (1.0, 2.0, 2.0)
        assert wf.weight(Rule(["a", "x", STAR])) == 3.0
        assert wf.max_weight(3) == 5.0

    def test_binary_column_weighs_one(self):
        table = Table.from_dict({"sex": ["F", "M", "F"], "edu": ["a", "b", "c"]})
        wf = BitsWeight.for_table(table)
        assert wf.weight(Rule(["F", STAR])) == 1.0
        assert wf.weight(Rule([STAR, "a"])) == 2.0

    def test_single_valued_column_weighs_zero(self):
        table = Table.from_dict({"const": ["k", "k"], "ab": ["a", "b"]})
        bits = bits_per_column(table)
        assert bits == (0.0, 1.0)

    def test_negative_bits_rejected(self):
        with pytest.raises(WeightFunctionError):
            BitsWeight([-1.0])

    def test_numeric_column_gets_zero_bits(self, measure_table):
        bits = bits_per_column(measure_table)
        assert bits[measure_table.schema.index_of("Sales")] == 0.0


class TestSizeMinusOne:
    def test_values(self):
        wf = SizeMinusOneWeight()
        assert wf.weight(Rule.trivial(3)) == 0.0
        assert wf.weight(Rule(["a", STAR, STAR])) == 0.0
        assert wf.weight(Rule(["a", "b", STAR])) == 1.0
        assert wf.weight(Rule(["a", "b", "c"])) == 2.0


class TestParametricWeight:
    def test_size_special_case(self):
        wf = ParametricWeight([1.0, 1.0, 1.0], exponent=1.0)
        for cols in all_column_subsets(3):
            assert wf.weight_of_columns(cols) == len(cols)

    def test_exponent_two(self):
        wf = ParametricWeight([1.0, 2.0], exponent=2.0)
        assert wf.weight(Rule(["a", "b"])) == 9.0
        assert wf.weight(Rule(["a", STAR])) == 1.0

    def test_zero_exponent_is_indicator_of_nonempty(self):
        wf = ParametricWeight([1.0, 1.0], exponent=0.0)
        assert wf.weight(Rule(["a", STAR])) == 1.0
        assert wf.weight(Rule.trivial(2)) == 0.0  # base 0 stays 0

    def test_invalid_parameters(self):
        with pytest.raises(WeightFunctionError):
            ParametricWeight([-1.0])
        with pytest.raises(WeightFunctionError):
            ParametricWeight([1.0], exponent=-1.0)


class TestColumnIndicator:
    def test_indicates_column(self):
        wf = ColumnIndicatorWeight(1)
        assert wf.weight(Rule(["a", "b", STAR])) == 1.0
        assert wf.weight(Rule(["a", STAR, "c"])) == 0.0

    def test_negative_column_rejected(self):
        with pytest.raises(WeightFunctionError):
            ColumnIndicatorWeight(-1)


class TestStarConstrainedWeight:
    def test_zeroes_starred_column(self):
        wf = StarConstrainedWeight(SizeWeight(), 1)
        assert wf.weight(Rule(["a", STAR, "c"])) == 0.0
        assert wf.weight(Rule(["a", "b", STAR])) == 2.0

    def test_monotone(self, tiny_table):
        validate_weight_function(StarConstrainedWeight(SizeWeight(), 0), tiny_table)


class TestMergedWeight:
    def test_scores_merge_with_parent(self):
        parent = Rule(["W", STAR, STAR])
        wf = MergedWeight(SizeWeight(), parent)
        assert wf.weight(Rule.trivial(3)) == 1.0  # merge = parent itself
        assert wf.weight(Rule([STAR, "x", STAR])) == 2.0
        assert wf.weight(Rule(["W", "x", STAR])) == 2.0  # idempotent on parent cols

    def test_conflicting_candidate_falls_back(self):
        parent = Rule(["W", STAR])
        wf = MergedWeight(SizeWeight(), parent)
        assert wf.weight(Rule(["T", STAR])) == 1.0

    def test_monotone(self, tiny_table):
        parent = Rule(["a", STAR, STAR])
        validate_weight_function(MergedWeight(SizeWeight(), parent), tiny_table)


class TestCallableWeight:
    def test_wraps_function(self):
        wf = CallableWeight(lambda r: float(r.size * 2))
        assert wf.weight(Rule(["a", "b"])) == 4.0

    def test_negative_weight_raises(self):
        wf = CallableWeight(lambda r: -1.0)
        with pytest.raises(WeightFunctionError):
            wf.weight(Rule(["a"]))


class TestValidator:
    def test_accepts_all_builtins(self, tiny_table):
        for wf in (
            SizeWeight(),
            BitsWeight.for_table(tiny_table),
            SizeMinusOneWeight(),
            ParametricWeight([1.0, 2.0, 0.5], exponent=1.5),
            ColumnIndicatorWeight(0),
        ):
            validate_weight_function(wf, tiny_table)

    def test_rejects_non_monotone(self, tiny_table):
        # Weight decreasing in size violates monotonicity.
        bad = CallableWeight(lambda r: float(3 - r.size))
        with pytest.raises(WeightFunctionError):
            validate_weight_function(bad, tiny_table, trials=500)

    def test_rejects_negative(self, tiny_table):
        bad = CallableWeight(lambda r: float(r.size - 1))
        with pytest.raises(WeightFunctionError):
            validate_weight_function(bad, tiny_table, trials=500)

    def test_empty_table_passes(self):
        empty = Table.from_rows(["A"], [])
        validate_weight_function(SizeWeight(), empty)


_subset = st.sets(st.integers(0, 4)).map(lambda s: tuple(sorted(s)))


class TestMonotonicityProperties:
    @given(_subset, _subset)
    def test_column_set_monotone(self, s1, s2):
        """W monotone over column-set inclusion for all built-ins."""
        if not set(s1) <= set(s2):
            return
        for wf in (
            SizeWeight(),
            BitsWeight([1.0, 2.0, 3.0, 1.0, 2.0]),
            SizeMinusOneWeight(),
            ParametricWeight([1.0, 0.5, 2.0, 1.0, 0.0], exponent=2.0),
            ColumnIndicatorWeight(2),
        ):
            assert wf.weight_of_columns(s1) <= wf.weight_of_columns(s2) + 1e-12

    @given(_subset)
    def test_non_negative(self, s):
        for wf in (
            SizeWeight(),
            BitsWeight([1.0, 2.0, 3.0, 1.0, 2.0]),
            SizeMinusOneWeight(),
            ParametricWeight([1.0, 0.5, 2.0, 1.0, 0.0], exponent=0.5),
        ):
            assert wf.weight_of_columns(s) >= 0.0


# -- keys: a weighting is identified by its value ------------------------------

_N_COLUMNS = 3


@st.composite
def _tables(draw):
    """A 3-column table with 1–5 distinct values per column."""
    distinct = draw(st.lists(st.integers(1, 5), min_size=_N_COLUMNS, max_size=_N_COLUMNS))
    rows = [tuple(f"v{r % d}" for d in distinct) for r in range(max(distinct))]
    return Table.from_rows(Schema.categorical(["a", "b", "c"]), rows)


_columns = st.integers(0, _N_COLUMNS - 1)
_specs = st.tuples(
    st.sampled_from(["size", "bits", "size_minus_one", "parametric", "column"]),
    st.lists(st.sampled_from([0.0, 1.0, 2.0]), min_size=_N_COLUMNS, max_size=_N_COLUMNS),
    st.sampled_from([0.5, 1.0, 2.0]),
    _columns,
    st.sampled_from([None, "star", "merged"]),
    st.dictionaries(_columns, st.sampled_from(["v0", "v1"])),
)


def _build(spec, table):
    """One built-in weighting over ``table``, drill-down wrappers included."""
    kind, weights, exponent, column, wrapper, parent = spec
    wf = {
        "size": SizeWeight,
        "bits": lambda: BitsWeight.for_table(table),
        "size_minus_one": SizeMinusOneWeight,
        "parametric": lambda: ParametricWeight(weights, exponent),
        "column": lambda: ColumnIndicatorWeight(column),
    }[kind]()
    if wrapper == "star":
        return StarConstrainedWeight(wf, column)
    if wrapper == "merged":
        return MergedWeight(wf, Rule.from_items(_N_COLUMNS, parent))
    return wf


class TestKeys:
    @settings(deadline=None, max_examples=200)
    @given(st.data())
    def test_equal_keys_mean_equal_weights(self, data):
        spec = data.draw(_specs)
        other = data.draw(st.one_of(st.just(spec), _specs))
        a, b = _build(spec, data.draw(_tables())), _build(other, data.draw(_tables()))
        if a.key() != b.key():
            return
        for columns in all_column_subsets(_N_COLUMNS):
            for value in ("v0", "v1"):
                rule = Rule.from_items(_N_COLUMNS, {c: value for c in columns})
                assert a.weight(rule) == b.weight(rule)
            fa, fb = a.column_set_weight(), b.column_set_weight()
            assert fa(columns) == fb(columns)

    def test_fresh_builtins_compare_equal(self, tiny_table):
        for make in (
            SizeWeight,
            SizeMinusOneWeight,
            lambda: BitsWeight.for_table(tiny_table),
            lambda: ParametricWeight([1.0, 2.0, 0.0], exponent=2.0),
            lambda: ColumnIndicatorWeight(1),
            lambda: StarConstrainedWeight(SizeWeight(), 2),
            lambda: MergedWeight(SizeWeight(), Rule(["a", STAR, STAR])),
        ):
            assert make() is not make() and make().key() == make().key()
            assert hash(make().key()) == hash(make().key())
        assert SizeWeight().key() != SizeMinusOneWeight().key()
        assert StarConstrainedWeight(SizeWeight(), 1).key() != StarConstrainedWeight(
            SizeWeight(), 2
        ).key()

    def test_bits_key_changes_when_an_append_crosses_a_power_of_two(self):
        table = Table.from_rows(["A", "B"], [("a", "x"), ("b", "x"), ("a", "y")])
        bits = BitsWeight.for_table(table)
        same = BitsWeight.for_table(table.append_rows([("b", "y")]))
        grown = BitsWeight.for_table(table.append_rows([("c", "y")]))
        assert same.key() == bits.key()
        assert grown.key() != bits.key()
        assert grown.weight_of_columns((0,)) != bits.weight_of_columns((0,))

    def test_callables_over_one_function_stay_distinct(self):
        def fn(rule):
            return float(rule.size)

        a, b = CallableWeight(fn), CallableWeight(fn)
        assert a.key() == a.key() and a.key() != b.key()
        tag = dict(measure=None, mw=3.0)
        root = Rule.trivial(2)
        assert drilldown_tag("rule", root, None, wf=a, **tag) != drilldown_tag(
            "rule", root, None, wf=b, **tag
        )
        assert drilldown_tag("rule", root, None, wf=SizeWeight(), **tag) == drilldown_tag(
            "rule", root, None, wf=SizeWeight(), **tag
        )
