"""Equivalence + lifecycle tests for the shared-memory counting pool.

The parallel backend (:mod:`repro.core.parallel`) must produce
*bit-identical* rule lists, weights, counts, and marginals to the
serial engines across weight functions, engines, and worker counts —
a task is one whole (parent, column) bincount pair, so not even float
accumulation order may differ.  The lifecycle half covers the serial
fallbacks (``n_workers=1``, small tables, slow-path weights, closed
pools) and shared-memory cleanup on pool/session close.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    BitsWeight,
    CallableWeight,
    CountingPool,
    MergedWeight,
    Rule,
    SearchContext,
    SizeMinusOneWeight,
    SizeWeight,
    StarConstrainedWeight,
    brs,
    cover_mask,
    default_pool,
    find_best_marginal_rule,
    resolve_pool,
    rule_drilldown,
    star_drilldown,
    tuple_measures,
)
from repro.core.marginal import SearchStats
from repro.core.parallel import count_extensions_kernel, count_parent_extensions
from repro.session import DrillDownSession
from repro.table import Schema, Table

try:
    from multiprocessing import shared_memory
except ImportError:  # pragma: no cover
    shared_memory = None


@pytest.fixture(scope="module")
def pool2():
    """A two-worker pool with thresholds zeroed so tiny tables dispatch."""
    with CountingPool(2, min_table_rows=0, min_task_rows=0) as pool:
        yield pool


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


def _assert_identical(a, b):
    """Byte-identical pick sequences: rules, weights, counts, marginals."""
    assert [p.rule for p in a.picks] == [p.rule for p in b.picks]
    assert [p.weight for p in a.picks] == [p.weight for p in b.picks]
    assert [p.count for p in a.picks] == [p.count for p in b.picks]
    assert [p.marginal for p in a.picks] == [p.marginal for p in b.picks]
    assert a.rules == b.rules
    assert a.score == b.score


class TestParallelEquivalence:
    @pytest.mark.parametrize(
        "weighting", ["size", "bits", "size_minus_one", "merged", "star"]
    )
    def test_weight_functions(self, marketing7, weighting, pool2):
        table, wf = _case(weighting, marketing7)
        serial = brs(table, wf, 4, 5.0)
        parallel = brs(table, wf, 4, 5.0, pool=pool2)
        _assert_identical(serial, parallel)

    @pytest.mark.parametrize("n_workers", [2, 3])
    def test_worker_counts(self, marketing7, n_workers):
        wf = SizeWeight()
        serial = brs(marketing7, wf, 4, 5.0)
        with CountingPool(n_workers, min_table_rows=0, min_task_rows=0) as pool:
            parallel = brs(marketing7, wf, 4, 5.0, pool=pool)
        _assert_identical(serial, parallel)

    def test_scratch_engine(self, marketing7, pool2):
        wf = SizeWeight()
        serial = brs(marketing7, wf, 4, 5.0, engine="scratch")
        parallel = brs(marketing7, wf, 4, 5.0, engine="scratch", pool=pool2)
        _assert_identical(serial, parallel)

    def test_census_workload_dispatches(self, census_small, pool2):
        wf = SizeWeight()
        serial = brs(census_small, wf, 5, 5.0)
        ctx = SearchContext(census_small, wf, 5.0, pool=pool2)
        parallel = brs(census_small, wf, 5, 5.0, context=ctx)
        _assert_identical(serial, parallel)
        assert ctx.backend is not None
        assert ctx.backend.tasks_dispatched > 0  # workers really ran

    def test_sum_measures(self, measure_table, pool2):
        wf = SizeWeight()
        measures = tuple_measures(measure_table, "Sales")
        serial = brs(measure_table, wf, 4, 2.0, measures=measures)
        parallel = brs(measure_table, wf, 4, 2.0, measures=measures, pool=pool2)
        _assert_identical(serial, parallel)

    def test_single_search(self, marketing7, pool2):
        wf = SizeWeight()
        top = np.zeros(marketing7.n_rows)
        cold = find_best_marginal_rule(marketing7, wf, top, 5.0)
        warm = find_best_marginal_rule(marketing7, wf, top, 5.0, pool=pool2)
        assert (warm.rule, warm.weight, warm.count, warm.marginal) == (
            cold.rule,
            cold.weight,
            cold.count,
            cold.marginal,
        )

    def test_rule_drilldown(self, marketing7, pool2):
        wf = SizeWeight()
        parent = Rule.from_items(
            marketing7.n_columns, {0: marketing7.categorical(0).decode(0)}
        )
        serial = rule_drilldown(marketing7, parent, wf, 3, 5.0)
        parallel = rule_drilldown(marketing7, parent, wf, 3, 5.0, pool=pool2)
        assert serial.rules == parallel.rules
        assert [e.mcount for e in serial.rule_list] == [
            e.mcount for e in parallel.rule_list
        ]

    def test_star_drilldown(self, marketing7, pool2):
        wf = SizeWeight()
        parent = Rule.trivial(marketing7.n_columns)
        serial = star_drilldown(marketing7, parent, 1, wf, 3, 5.0)
        parallel = star_drilldown(marketing7, parent, 1, wf, 3, 5.0, pool=pool2)
        assert serial.rules == parallel.rules

    def test_interleaved_contexts_share_one_export(self, marketing7, pool2):
        """Alternating searches from two contexts over one shared export
        must each see their own ``top`` (the segment is re-published on
        ownership change), not the other search's."""
        wf = SizeWeight()
        c1 = SearchContext(marketing7, wf, 5.0, pool=pool2)
        c2 = SearchContext(marketing7, wf, 5.0, pool=pool2)
        assert c1.backend.export is c2.backend.export
        tops = [np.zeros(marketing7.n_rows), np.zeros(marketing7.n_rows)]
        picks = [[], []]
        for _ in range(3):
            for i, ctx in enumerate((c1, c2)):
                result = ctx.find_best(tops[i].copy())
                picks[i].append((result.rule, result.marginal))
                rows = ctx.last_rows
                tops[i][rows] = np.maximum(tops[i][rows], result.weight)
        assert picks[0] == picks[1]
        reference = brs(marketing7, wf, 3, 5.0)
        assert [p.rule for p in reference.picks] == [r for r, _ in picks[0]]

    def test_float_top_normalised(self, marketing7, pool2):
        """A non-float64 top is normalised identically on the serial and
        parallel paths (local fallback vs shared segment)."""
        wf = SizeWeight()
        top = np.zeros(marketing7.n_rows, dtype=np.float32)
        top[: marketing7.n_rows // 2] = 1.5
        cold = find_best_marginal_rule(marketing7, wf, top, 5.0)
        warm = find_best_marginal_rule(marketing7, wf, top, 5.0, pool=pool2)
        assert (cold.rule, cold.marginal, cold.count) == (
            warm.rule,
            warm.marginal,
            warm.count,
        )

    def test_session_expansions(self, marketing7, pool2):
        serial = DrillDownSession(marketing7, k=3, mw=5.0)
        serial.expand(serial.root.rule)
        with DrillDownSession(marketing7, k=3, mw=5.0, pool=pool2) as parallel:
            parallel.expand(parallel.root.rule)
            assert [n.rule for n in serial.displayed()] == [
                n.rule for n in parallel.displayed()
            ]


class TestSerialFallbacks:
    def test_n_workers_one_is_serial(self, marketing7):
        assert resolve_pool(None, None) is None
        assert resolve_pool(None, 1) is None
        ctx = SearchContext(marketing7, SizeWeight(), 5.0, n_workers=1)
        assert ctx.backend is None
        result = brs(marketing7, SizeWeight(), 3, 5.0, n_workers=1)
        _assert_identical(result, brs(marketing7, SizeWeight(), 3, 5.0))

    def test_n_workers_zero_means_all_cores(self):
        import os

        pool = resolve_pool(None, 0)
        if (os.cpu_count() or 1) > 1:
            assert pool is not None and pool.n_workers == os.cpu_count()
        else:
            assert pool is None

    def test_small_table_not_exported(self, tiny_table, pool2):
        with CountingPool(2) as strict:  # default min_table_rows
            assert strict.backend_for(tiny_table) is None
        # zeroed thresholds do export it, and results still agree
        serial = brs(tiny_table, SizeWeight(), 3, 3.0)
        parallel = brs(tiny_table, SizeWeight(), 3, 3.0, pool=pool2)
        _assert_identical(serial, parallel)

    def test_slow_path_weight_falls_back(self, tiny_table, pool2):
        wf = CallableWeight(lambda rule: float(rule.size))
        ctx = SearchContext(tiny_table, wf, 3.0, pool=pool2)
        assert ctx.backend is None  # value-dependent weights stay serial
        serial = brs(tiny_table, wf, 3, 3.0)
        parallel = brs(tiny_table, wf, 3, 3.0, pool=pool2)
        _assert_identical(serial, parallel)

    def test_pool_of_one_never_dispatches(self, marketing7):
        pool = CountingPool(1, min_table_rows=0, min_task_rows=0)
        assert not pool.usable
        assert pool.backend_for(marketing7) is None
        pool.close()

    def test_tasks_below_threshold_run_locally(self, marketing7):
        wf = SizeWeight()
        with CountingPool(2, min_table_rows=0, min_task_rows=10**9) as pool:
            ctx = SearchContext(marketing7, wf, 5.0, pool=pool)
            result = brs(marketing7, wf, 3, 5.0, context=ctx)
            assert ctx.backend is not None
            assert ctx.backend.tasks_dispatched == 0
            assert ctx.backend.tasks_local > 0
        _assert_identical(result, brs(marketing7, SizeWeight(), 3, 5.0))

    def test_closed_pool_is_serial(self, marketing7):
        pool = CountingPool(2, min_table_rows=0)
        pool.close()
        assert pool.backend_for(marketing7) is None
        result = brs(marketing7, SizeWeight(), 3, 5.0, pool=pool)
        _assert_identical(result, brs(marketing7, SizeWeight(), 3, 5.0))


@pytest.mark.skipif(shared_memory is None, reason="no shared_memory support")
class TestLifecycle:
    def test_export_reused_across_searches(self, marketing7, pool2):
        a = pool2.backend_for(marketing7)
        b = pool2.backend_for(marketing7)
        assert a is not b and a.export is b.export

    def test_pool_close_unlinks_segments(self, marketing7):
        pool = CountingPool(2, min_table_rows=0, min_task_rows=0)
        backend = pool.backend_for(marketing7)
        data_name, top_name = backend.export.meta[0], backend.export.meta[1]
        probe = shared_memory.SharedMemory(name=data_name)
        probe.close()
        pool.close()
        for name in (data_name, top_name):
            with pytest.raises(FileNotFoundError):
                shared_memory.SharedMemory(name=name)

    def test_session_close_releases_owned_pool(self, marketing7):
        session = DrillDownSession(marketing7, k=3, mw=5.0, n_workers=2)
        pool = session.pool
        assert pool is not None and pool.n_workers == 2
        session.expand(session.root.rule)
        session.close()
        assert pool.closed
        assert session.pool is None
        assert not session._search_contexts

    def test_session_close_keeps_shared_pool(self, marketing7, pool2):
        session = DrillDownSession(marketing7, k=3, mw=5.0, pool=pool2)
        session.expand(session.root.rule)
        session.close()
        assert not pool2.closed  # shared pools outlive the session

    def test_session_n_workers_one_owns_no_pool(self, marketing7):
        session = DrillDownSession(marketing7, k=3, mw=5.0, n_workers=1)
        assert session.pool is None
        session.expand(session.root.rule)
        session.close()

    def test_default_pool_cached_and_reopened(self):
        a = default_pool(2)
        assert default_pool(2) is a
        a.close()
        b = default_pool(2)
        assert b is not a and not b.closed
        b.close()


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
