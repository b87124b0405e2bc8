"""The shared counting primitive and its in-process compatibility names.

:func:`~repro.core.parallel.count_parent_extensions` is the one place
Counts and MarginalValues are computed, so both engines and the
first-pick precompute agree bit for bit, and what searches report
through it must match a recount over each pick's cover mask;
``CountingPool`` /
``backend_for`` / ``count_columns`` survive only as names outside
callers bind to, and must return exactly what :func:`count_tasks` does.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    BitsWeight,
    CallableWeight,
    MergedWeight,
    Rule,
    SearchContext,
    SizeMinusOneWeight,
    SizeWeight,
    StarConstrainedWeight,
    brs,
    cover_mask,
    find_best_marginal_rule,
    tuple_measures,
)
from repro.core.marginal import SearchStats
from repro.core.parallel import (
    CountingPool,
    CountTask,
    count_extensions_kernel,
    count_parent_extensions,
    count_tasks,
    nonunit_measures,
)
from repro.table import Schema, Table


# -- the parent-level counting primitive ----------------------------------------


def _kernel_oracle(codes, measures, top, rows, n_values, weight):
    """The per-(parent, column) kernel as it stood before counting was
    batched per parent — a literal copy, kept as the reference."""
    if rows is None:
        c, m, t = codes, measures, top
    else:
        c = codes[rows]
        m = measures[rows]
        t = top[rows]
    counts = np.bincount(c, weights=m, minlength=n_values)
    gains = np.maximum(weight - t, 0.0) * m
    marginals = np.bincount(c, weights=gains, minlength=n_values)
    supported = np.nonzero(counts > 0)[0]
    return supported, counts[supported], marginals[supported]


def _assert_same_arrays(got, want):
    assert len(got) == len(want) == 3
    for g, w in zip(got, want):
        assert g.dtype == w.dtype
        assert g.shape == w.shape
        assert g.tobytes() == w.tobytes()  # bit for bit, not just ==


_WEIGHTS = st.sampled_from([0.0, 0.5, 1.0, 1.7, 2.0, 3.3, 7.25])


@st.composite
def _parent_cases(draw):
    n = draw(st.integers(1, 40))
    n_cols = draw(st.integers(1, 4))
    code_arrays, sizes = [], []
    for _ in range(n_cols):
        used = draw(st.integers(1, 5))
        sizes.append(used + draw(st.integers(0, 3)))  # trailing codes stay unsupported
        code_arrays.append(
            np.array(draw(st.lists(st.integers(0, used - 1), min_size=n, max_size=n)), np.int32)
        )
    kind = draw(st.sampled_from(["unit", "ones", "integer", "fractional"]))
    if kind in ("unit", "ones"):
        measures = np.ones(n)
    elif kind == "integer":
        measures = np.array(draw(st.lists(st.integers(0, 5), min_size=n, max_size=n)), float)
    else:
        measures = np.array(
            draw(st.lists(st.floats(0.0, 9.0, allow_nan=False), min_size=n, max_size=n))
        )
    if draw(st.booleans()):
        top = np.array(draw(st.lists(st.integers(1, 4), min_size=n, max_size=n)), float)
    else:
        top = np.array(draw(st.lists(st.floats(0.0, 4.0, allow_nan=False), min_size=n, max_size=n)))
    rows_kind = draw(st.sampled_from(["none", "empty", "int32", "int64"]))
    if rows_kind == "none":
        rows = None
    elif rows_kind == "empty":
        rows = np.empty(0, dtype=np.int32)
    else:
        rows = np.array(sorted(draw(st.sets(st.integers(0, n - 1)))), dtype=rows_kind)
    positions = draw(st.lists(st.integers(0, n_cols - 1), min_size=1, max_size=5))
    weights = [draw(_WEIGHTS) for _ in positions]
    return code_arrays, sizes, positions, weights, kind, measures, top, rows


class TestParentPrimitive:
    @settings(deadline=None, max_examples=300)
    @given(_parent_cases())
    def test_matches_the_per_column_kernel_bit_for_bit(self, case):
        code_arrays, sizes, positions, weights, kind, measures, top, rows = case
        top_before = top.copy()
        got = count_parent_extensions(
            code_arrays,
            positions,
            [sizes[p] for p in positions],
            weights,
            None if kind == "unit" else measures,
            top,
            rows,
        )
        assert len(got) == len(positions)
        assert top.tobytes() == top_before.tobytes()  # rows=None must not write through
        for pos, weight, result in zip(positions, weights, got):
            want = _kernel_oracle(code_arrays[pos], measures, top, rows, sizes[pos], weight)
            if rows is not None and rows.size == 0:
                # numpy quirk the old kernel leaked: bincount of an empty
                # array ignores ``weights`` and returns intp zeros.
                want = (want[0], want[1].astype(np.float64), want[2].astype(np.float64))
            _assert_same_arrays(result, want)
            _assert_same_arrays(
                count_extensions_kernel(code_arrays[pos], measures, top, rows, sizes[pos], weight),
                want,
            )

    @settings(deadline=None, max_examples=60)
    @given(
        st.lists(
            st.tuples(st.integers(0, 1), st.integers(0, 2), st.integers(0, 4)),
            min_size=1, max_size=40,
        ),
        st.data(),
    )
    def test_refresh_equals_a_counting_pass(self, cells, data):
        """A CELF re-evaluation folds a candidate's gains in the same
        order as the bincount that first counted it: under ``bits``
        weights and fractional tops/measures any other order shows in
        the last ulp."""
        n = len(cells)
        table = Table.from_rows(
            Schema.categorical(["A", "B", "C"]),
            [(f"a{a}", f"b{b}", f"c{c}") for a, b, c in cells],
        )
        fractions = st.lists(st.floats(0.0, 3.0, allow_nan=False), min_size=n, max_size=n)
        measures = 0.25 + np.array(data.draw(fractions)) if data.draw(st.booleans()) else None
        ctx = SearchContext(
            table, BitsWeight.for_table(table), 100.0, measures=measures, prune=False
        )
        ctx.find_best(np.zeros(n))  # prune=False: caches the whole supported lattice
        top = np.array(data.draw(fractions))
        ctx._top = top
        ctx._epoch += 1
        stats = SearchStats()
        assert ctx.cached_candidates > 0
        for key, cand in ctx._cands.items():
            ctx._refresh(cand, stats)
            pos, code = key[-1]
            parent_rows = ctx._rows(ctx._cands[key[:-1]], stats) if len(key) > 1 else None
            [(supported, _counts, marginals)] = count_parent_extensions(
                ctx.codes, [pos], [ctx.distinct[pos]], [cand.weight], measures, top, parent_rows
            )
            [at] = np.nonzero(supported == code)[0]
            assert np.float64(cand.marginal).tobytes() == marginals[at].tobytes()


# -- what the one counting path reports, recounted from cover masks ---------------


def _case(name: str, table):
    """``(table to mine, weight)``; "merged" is the drill-down lifting,
    meaningful on the sub-table its parent covers."""
    if name == "size":
        return table, SizeWeight()
    if name == "bits":
        return table, BitsWeight.for_table(table)
    if name == "size_minus_one":
        return table, SizeMinusOneWeight()
    if name == "merged":
        parent = Rule.from_items(table.n_columns, {0: table.categorical(0).decode(0)})
        return table.filter(cover_mask(parent, table)), MergedWeight(SizeWeight(), parent)
    if name == "star":
        return table, StarConstrainedWeight(SizeWeight(), min(1, table.n_columns - 1))
    raise AssertionError(name)


def _assert_picks_recount(picks, table, wf, measures=None, initial_top=None):
    """Every pick's weight, Count and marginal value equal a recount over
    its cover mask at the ``top`` the earlier picks left, and the greedy
    marginals of the submodular score never grow."""
    m = np.ones(table.n_rows) if measures is None else measures
    top = np.zeros(table.n_rows) if initial_top is None else initial_top.astype(np.float64)
    previous = np.inf
    assert picks
    for pick in picks:
        mask = cover_mask(pick.rule, table)
        assert pick.weight == wf.weight(pick.rule)
        assert pick.count == pytest.approx(m[mask].sum(), rel=1e-12)
        gains = np.maximum(pick.weight - top[mask], 0.0) * m[mask]
        assert pick.marginal == pytest.approx(gains.sum(), rel=1e-12)
        assert 0.0 < pick.marginal <= previous * (1 + 1e-12)
        previous = pick.marginal
        top[mask] = np.maximum(top[mask], pick.weight)


class TestOneCountingPath:
    @pytest.mark.parametrize(
        "weighting", ["size", "bits", "size_minus_one", "merged", "star"]
    )
    def test_weight_functions(self, marketing7, weighting):
        table, wf = _case(weighting, marketing7)
        result = brs(table, wf, 4, 5.0)
        _assert_picks_recount(result.picks, table, wf)
        assert sum(p.marginal for p in result.picks) == pytest.approx(result.score, rel=1e-12)

    def test_census_workload(self, census_small):
        wf = SizeWeight()
        result = brs(census_small, wf, 5, 5.0)
        assert len(result.picks) == 5
        _assert_picks_recount(result.picks, census_small, wf)

    def test_sum_measures(self, measure_table):
        wf = SizeWeight()
        measures = tuple_measures(measure_table, "Sales")
        result = brs(measure_table, wf, 4, 2.0, measures=measures)
        _assert_picks_recount(result.picks, measure_table, wf, measures)
        assert sum(p.marginal for p in result.picks) == pytest.approx(result.score, rel=1e-12)

    def test_fractional_initial_top(self, marketing7):
        """Drill-down seeds ``top`` with the parent's weight; gains are
        only the weight above it, row by row."""
        wf = BitsWeight.for_table(marketing7)
        seed = np.random.default_rng(7).uniform(0.0, 3.0, marketing7.n_rows)
        result = brs(marketing7, wf, 4, 20.0, initial_top=seed)
        _assert_picks_recount(result.picks, marketing7, wf, initial_top=seed)

    def test_value_dependent_weight(self, tiny_table):
        """A weight no column set determines takes the per-rule path."""
        wf = CallableWeight(lambda rule: rule.size + (0.5 if rule.values[0] == "a" else 0.0))
        result = brs(tiny_table, wf, 3, 3.0)
        _assert_picks_recount(result.picks, tiny_table, wf)

    def test_single_search_normalises_a_float32_top(self, marketing7):
        wf = SizeWeight()
        top = np.zeros(marketing7.n_rows, dtype=np.float32)
        top[: marketing7.n_rows // 2] = 1.5
        narrow = find_best_marginal_rule(marketing7, wf, top, 5.0)
        wide = find_best_marginal_rule(marketing7, wf, top.astype(np.float64), 5.0)
        assert (narrow.rule, narrow.weight, narrow.count, narrow.marginal) == (
            wide.rule,
            wide.weight,
            wide.count,
            wide.marginal,
        )
        _assert_picks_recount([wide], marketing7, wf, initial_top=top)

    def test_interleaved_contexts_keep_their_own_top(self, marketing7):
        """Alternating searches from two contexts over one table each see
        their own ``top``, not the other search's."""
        wf = SizeWeight()
        contexts = [SearchContext(marketing7, wf, 5.0) for _ in range(2)]
        tops = [np.zeros(marketing7.n_rows), np.zeros(marketing7.n_rows)]
        picks = [[], []]
        for _ in range(3):
            for i, ctx in enumerate(contexts):
                result = ctx.find_best(tops[i].copy())
                picks[i].append(result)
                rows = ctx.last_rows
                tops[i][rows] = np.maximum(tops[i][rows], result.weight)
        assert [p.rule for p in picks[0]] == [p.rule for p in picks[1]]
        assert [p.rule for p in brs(marketing7, wf, 3, 5.0).picks] == [p.rule for p in picks[0]]
        _assert_picks_recount(picks[1], marketing7, wf)


class TestCompatibilityShim:
    @pytest.mark.parametrize("measure", [None, "Sales"])
    def test_count_columns_equals_count_tasks(self, measure_table, measure):
        """``CountingPool(n).backend_for(t).count_columns(specs)`` — the
        surface the e2e benchmark's ``layers`` pass binds to — is
        :func:`count_tasks` over the same specs, bit for bit."""
        table = measure_table
        measures = tuple_measures(table, measure)
        codes = table.categorical_code_arrays()
        sizes = [table.categorical(i).distinct_count for i in table.schema.categorical_indexes]
        top = np.linspace(0.0, 2.0, table.n_rows)
        specs = [(pos, n, w) for pos, (n, w) in enumerate(zip(sizes, (1.0, 2.5, 0.5)))]
        with CountingPool(2) as pool:
            backend = pool.backend_for(table, None if measure is None else measures)
            backend.set_top(top)
            got = backend.count_columns(specs)
        want = count_tasks(
            codes,
            nonunit_measures(measures),
            top,
            [CountTask(pos, pos, n, w, None) for pos, n, w in specs],
        )
        assert sorted(got) == sorted(want) == [pos for pos, _, _ in specs]
        for pos in want:
            _assert_same_arrays(got[pos], want[pos])

    def test_count_batch_groups_tasks_by_parent(self, marketing7):
        """Tasks sharing one ``rows`` array are one parent: ``count_batch``
        answers each task as a per-column kernel call on that parent."""
        codes = marketing7.categorical_code_arrays()
        sizes = [
            marketing7.categorical(i).distinct_count
            for i in marketing7.schema.categorical_indexes
        ]
        top = np.random.default_rng(3).uniform(0.0, 2.0, marketing7.n_rows)
        parent_rows = np.flatnonzero(codes[0] == 0)
        tasks = [
            CountTask(0, 1, sizes[1], 2.0, parent_rows),
            CountTask(1, 2, sizes[2], 2.0, parent_rows),
            CountTask(2, 3, sizes[3], 1.0, None),
        ]
        backend = CountingPool(2).backend_for(marketing7)
        backend.set_top(top)
        got = backend.count_batch(tasks)
        assert sorted(got) == [0, 1, 2]
        ones = np.ones(marketing7.n_rows)
        for task in tasks:
            want = count_extensions_kernel(
                codes[task.pos], ones, top, task.rows, task.n_values, task.weight
            )
            _assert_same_arrays(got[task.task_id], want)

    def test_close_is_a_no_op(self, marketing7):
        """``close()`` releases nothing, so a closed name still counts."""
        pool = CountingPool(4)
        pool.close()
        backend = pool.backend_for(marketing7)
        backend.set_top(np.zeros(marketing7.n_rows))
        spec = (0, marketing7.categorical(0).distinct_count, 1.0)
        [(supported, counts, _)] = backend.count_columns([spec]).values()
        assert counts.sum() == marketing7.n_rows
        assert supported.size == np.unique(marketing7.categorical_code_arrays()[0]).size
