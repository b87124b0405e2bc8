"""Cross-pick candidate cache + CELF lazy greedy — the incremental engine.

The BRS greedy (:mod:`repro.core.brs`) runs ``k`` best-marginal-rule
searches over the *same* table under the *same* weight function; the
only thing that changes between picks is the per-tuple ``top`` array.
A from-scratch search therefore regenerates, recounts, and rescans a
candidate lattice whose keys, weights, Counts, and covered-row sets
are identical every time.  :class:`SearchContext` persists exactly that
invariant state across picks:

* **Candidate cache** — every eligible candidate ever counted is kept
  with its weight, (measure-weighted) Count, and covered-row index
  array.  Rows materialise lazily from the parent's propagated rows
  (vertical row propagation, as in :mod:`repro.core.marginal`) the first
  time a candidate is re-evaluated or extended, and are pick-invariant
  from then on.  Re-evaluating a cached candidate's marginal under a
  new ``top`` therefore costs O(support), with no table pass and no
  candidate regeneration.
* **CELF lazy greedy** — ``Score`` is submodular (paper Lemma 3), so a
  candidate's marginal value only *decreases* as the selected set
  grows: a marginal computed in an earlier pick is a valid upper bound
  now.  Candidates live in a max-heap keyed by their stale marginal
  (ties: smaller size, then key order — exactly the reference search's
  order); a search repeatedly re-evaluates the top entry under the
  current ``top`` until the top entry is fresh.  Every entry below a
  fresh top is provably no better, so it is never touched (counted in
  ``SearchStats.lazy_skips``).
* **Expansion frontier** — the cache only holds candidates some earlier
  search *generated*; the a-priori bound of Section 3.5 pruned the
  rest.  That bound depends on the current ``top``, so a subtree pruned
  in pick 1 can contain pick 2's winner.  The context keeps every
  counted-but-never-extended candidate in a second max-heap keyed by
  its (stale) bound ``MarginalVal(R) + Count(R) · (mw − W(R))``, which
  upper-bounds every descendant's marginal.  After the lazy loop
  settles on a best cached candidate ``H``, any frontier entry whose
  *fresh* bound still reaches ``H`` is expanded (one counting pass over
  its cached rows — never the full table), its children join the cache,
  and the lazy loop resumes.  A search ends only when no frontier bound
  reaches the settled best.
* **Free columns only** — under a drill-down's ``MergedWeight`` the
  lattice skips the clicked rule's own columns: single-valued on the
  filtered table, they only duplicate candidates at a larger size,
  which lose every tie (:func:`_free_positions`).

**Correctness.**  The reference search (:mod:`repro.core.marginal`,
one cold Algorithm 2 run) returns the maximum over all supported
candidates of weight ≤ ``mw`` under the total order
(marginal desc, size asc, key asc) — pruning provably never removes
the argmax, and the order does not depend on exploration order.  The
incremental search returns the maximum of the same order over cached
candidates (heap order is the same total order), and the frontier-bound
loop guarantees no uncounted candidate can beat (or tie) the settled
best: every uncounted candidate is a descendant of some frontier entry,
whose fresh bound dominates the descendant's marginal.  Ties are
expanded (``bound >= best``), not skipped, so tie-breaking by size/key
also agrees.  Every marginal, here and in the reference, is a left fold
in row order (how ``np.bincount`` accumulates), so the engine and the
reference produce identical rule sequences, bit for bit — the
equivalence tests in ``tests/core/test_incremental.py`` assert this
across weight functions, measures, pruning, and size caps.

**Lifecycle and ownership.**  A context is bound to one (table, weight
function, ``mw``, measures, ``max_rule_size``, ``prune``)
configuration — it validates compatibility and refuses anything else.
It is cheap when idle (it holds int32 row arrays totalling the rows
scanned by the generating passes) and can be dropped at any time; the
next search simply rebuilds from scratch.  The drill-down layer
(:mod:`repro.core.drilldown`) tags contexts with their originating
(source table, parent rule, …) so an interactive session can reuse the
context when the same node is expanded again, e.g. after a collapse.

A context is owned by exactly one caller at a time — its heaps and
epoch counters mutate on every search, so it must never be shared
between concurrently searching sessions.  Cross-session reuse goes
through :meth:`SearchContext.clone` instead (the seam the multi-tenant
:class:`~repro.serving.ContextStore` is built on): a clone copies the
per-candidate mutable state but shares the immutable payload — the
table, code arrays, measures, and every materialised covered-row
array, none of which is ever written in place — so cloning costs
O(candidates) with no table pass, and the clone's searches cannot
corrupt (or be corrupted by) the original.  The clone inherits the
prototype's ``_last_top`` watermark, so its first search correctly
resets the CELF bounds when its seed ``top`` is lower than the top the
prototype last searched under.
"""

from __future__ import annotations

import heapq
from bisect import bisect_right
from dataclasses import dataclass, replace
from typing import Any, Sequence

import numpy as np

from repro.errors import RuleError
from repro.core.marginal import MarginalResult, SearchStats
from repro.core.parallel import count_parent_extensions, nonunit_measures
from repro.core.rule import Rule
from repro.core.weights import MergedWeight, StarConstrainedWeight, WeightFunction
from repro.table.column import CategoricalColumn
from repro.table.table import Table

__all__ = ["SearchContext"]

# Candidate key, as in repro.core.marginal: ((cat_position, code), ...).
_Key = tuple[tuple[int, int], ...]


def _free_positions(
    wf: WeightFunction, cat_positions: Sequence[int], codes: Sequence[np.ndarray]
) -> list[int]:
    """Categorical positions a search under ``wf`` enumerates, ascending.

    A drill-down mines ``T_r'`` under ``MergedWeight(wf, r')`` (possibly
    star-constrained), where every column of ``r'`` is single-valued:
    a candidate ``K ∧ c`` with ``c`` on those columns covers the rows
    of ``K`` at the weight and marginal of ``K`` but is larger, so it
    loses the (marginal desc, size asc, key asc) order to ``K`` and can
    never be the best rule.  The engine therefore skips the parent's
    columns; under any other weight function every position is free.
    ``codes[pos]`` is the code array at ``pos``: a skipped column that
    holds two codes means the table was not filtered by the parent.
    """
    if isinstance(wf, StarConstrainedWeight):
        wf = wf.base
    if not isinstance(wf, MergedWeight):
        return list(range(len(cat_positions)))
    parent_columns = wf.parent.instantiated_indexes
    free = []
    for pos, idx in enumerate(cat_positions):
        if idx not in parent_columns:
            free.append(pos)
        elif codes[pos].size and codes[pos].min() != codes[pos].max():
            raise RuleError(
                f"MergedWeight parent instantiates column {idx}, which is not "
                "single-valued here: mine the table filtered by the parent"
            )
    return free


def _free_after(free: Sequence[int], pos: int) -> Sequence[int]:
    """The free positions after ``pos`` — where a key ending at ``pos`` extends."""
    return free[bisect_right(free, pos):]


@dataclass(slots=True)
class _Candidate:
    """One cached candidate with its pick-invariant statistics.

    ``weight`` and ``count`` never change once counted; ``rows`` holds
    the covered-row indexes, materialised lazily from ``parent_rows``
    (a borrowed reference to the parent's covered rows, shared between
    siblings and dropped after materialisation).  ``marginal`` is the
    value under the ``top`` of epoch ``epoch`` and is a valid upper
    bound for every later epoch (submodularity).  ``heap_m``/``heap_ub``
    mirror the live entries in the value and expansion heaps (stale
    heap entries are dropped lazily on pop).
    """

    key: _Key
    weight: float
    count: float
    marginal: float
    epoch: int
    heap_m: float
    heap_ub: float
    expandable: bool
    rows: np.ndarray | None = None
    parent_rows: np.ndarray | None = None
    expanded: bool = False


class SearchContext:
    """Persistent incremental-search state for one BRS configuration.

    Parameters mirror the reference search's (:mod:`repro.core.marginal`)
    minus ``top``, which is supplied per search via :meth:`find_best`.
    ``prune=False`` reproduces the exploration of the unpruned ablation:
    the first search expands the full supported lattice (once — later
    searches reuse it).
    """

    def __init__(
        self,
        table: Table,
        wf: WeightFunction,
        mw: float,
        *,
        measures: np.ndarray | None = None,
        max_rule_size: int | None = None,
        prune: bool = True,
    ):
        self.table = table
        self.wf = wf
        self.mw = float(mw)
        self.prune = prune
        n = table.n_rows
        self._measures_given = measures is not None
        self.measures = (
            np.ones(n, dtype=np.float64) if measures is None else measures.astype(np.float64)
        )
        # None for unit measures (every Count search): the counting
        # primitive and _refresh then skip gathering and multiplying 1.0.
        self._count_measures = None if measures is None else nonunit_measures(self.measures)
        self.cat_positions = table.schema.categorical_indexes
        self.codes: list[np.ndarray] = []
        self.distinct: list[int] = []
        for idx in self.cat_positions:
            col = table.column(idx)
            assert isinstance(col, CategoricalColumn)
            self.codes.append(col.codes)
            self.distinct.append(col.distinct_count)
        # Positions the lattice enumerates: all of them, minus the columns
        # a drill-down parent already instantiates (see _free_positions).
        self._free = _free_positions(wf, self.cat_positions, self.codes)
        limit = len(self._free)
        self.max_rule_size = limit if max_rule_size is None else min(max_rule_size, limit)
        self._requested_max_rule_size = max_rule_size
        self.fast_weight = wf.column_set_weight()
        self._row_dtype = np.int32 if n < 2**31 else np.int64
        self._cands: dict[_Key, _Candidate] = {}
        # Value heap: (-marginal, size, key); expansion heap: (-bound, size, key).
        self._vheap: list[tuple[float, int, _Key]] = []
        self._xheap: list[tuple[float, int, _Key]] = []
        self._built = False
        self._epoch = 0
        self._refreshed = 0
        self._generated_this_epoch = 0
        self._top: np.ndarray | None = None
        self._last_top: np.ndarray | None = None
        #: Lifetime totals across every search run through this context.
        self.total_stats = SearchStats()
        #: Covered-row indexes of the last returned rule (None if none);
        #: lets the greedy update ``top`` without a cover_mask pass.
        self.last_rows: np.ndarray | None = None
        # Set by the drill-down layer to identify the originating node.
        self.source: Any = None
        self.tag: Any = None

    # -- compatibility ---------------------------------------------------------

    def check_compatible(
        self,
        table: Table,
        wf: WeightFunction,
        mw: float,
        measures: np.ndarray | None,
        max_rule_size: int | None,
        prune: bool,
    ) -> None:
        """Raise :class:`RuleError` unless this context serves the given search."""
        if table is not self.table:
            raise RuleError("search context was built for a different table")
        if wf.key() != self.wf.key():
            raise RuleError("search context was built for a different weight function")
        if float(mw) != self.mw:
            raise RuleError("search context was built for a different mw")
        if prune != self.prune:
            raise RuleError("search context was built with a different prune setting")
        n_free = len(self._free)
        limit = n_free if max_rule_size is None else min(max_rule_size, n_free)
        if limit != self.max_rule_size:
            raise RuleError("search context was built with a different max_rule_size")
        if measures is None:
            if self._measures_given:
                raise RuleError("search context was built with different measures")
        elif measures is not self.measures and not np.array_equal(
            np.asarray(measures, dtype=np.float64), self.measures
        ):
            raise RuleError("search context was built with different measures")

    # -- cloning (cross-session sharing seam) ----------------------------------

    def clone(self) -> "SearchContext":
        """Return an independent context sharing this one's cached lattice.

        The clone is safe to search concurrently with (and mutate
        independently of) the original: per-candidate mutable state
        (marginals, epochs, heap mirrors, expansion flags) is copied,
        while the immutable payload — the table, code arrays, measures,
        and every covered-row index array, none of which is ever
        written in place — is shared by reference.  Cloning therefore
        costs O(cached candidates) and *no* table pass: a clone starts
        with ``_built`` state, so its first search skips the full-table
        size-1 passes and only lazily re-tightens the CELF bounds
        (:meth:`_reset_bounds` fires automatically when the clone's
        seed ``top`` is below the prototype's last-searched ``top``,
        which the clone inherits as its monotonicity watermark).

        This is the seam :class:`repro.serving.ContextStore` shares
        read-compatible contexts across tenant sessions on: the store
        keeps a frozen clone as the prototype and leases a fresh clone
        per session (copy-on-first-expand), so tenants can never
        corrupt each other's search state.
        """
        new = object.__new__(SearchContext)
        # Immutable configuration and payload: shared by reference.
        new.table = self.table
        new.wf = self.wf
        new.mw = self.mw
        new.prune = self.prune
        new._measures_given = self._measures_given
        new.measures = self.measures
        new._count_measures = self._count_measures
        new.cat_positions = self.cat_positions
        new.codes = self.codes
        new.distinct = self.distinct
        new._free = self._free
        new.max_rule_size = self.max_rule_size
        new._requested_max_rule_size = self._requested_max_rule_size
        new.fast_weight = self.fast_weight
        new._row_dtype = self._row_dtype
        # Mutable per-candidate state: copied (row arrays shared — they
        # are only ever replaced, never mutated in place).
        new._cands = {key: replace(cand) for key, cand in self._cands.items()}
        new._vheap = list(self._vheap)
        new._xheap = list(self._xheap)
        new._built = self._built
        new._epoch = self._epoch
        new._refreshed = 0
        new._generated_this_epoch = 0
        new._top = None
        # The monotonicity watermark: find_best compares its top against
        # this and resets the CELF bounds when the new top is lower —
        # exactly what a fresh greedy run through a leased clone needs.
        new._last_top = self._last_top
        new.total_stats = SearchStats()
        new.last_rows = None
        new.source = self.source
        new.tag = self.tag
        return new

    # -- weights / rules -------------------------------------------------------

    def _rule_of(self, key: _Key) -> Rule:
        """Decode a candidate key into a :class:`Rule` over the table."""
        items: dict[int, Any] = {}
        for pos, code in key:
            idx = self.cat_positions[pos]
            col = self.table.column(idx)
            assert isinstance(col, CategoricalColumn)
            items[idx] = col.decode(code)
        return Rule.from_items(self.table.n_columns, items)

    def _bound(self, cand: _Candidate) -> float:
        """The Section 3.5 bound on any descendant's current marginal."""
        return cand.marginal + cand.count * max(self.mw - cand.weight, 0.0)

    def _rows(self, cand: _Candidate, stats: SearchStats) -> np.ndarray:
        """The candidate's covered rows, materialised on first use.

        Vertical row propagation: one O(parent support) filter on the
        candidate's own ``(column, code)`` extension.  The borrowed
        parent reference is dropped afterwards; siblings share it until
        each materialises (or never does — most candidates are pruned
        before their rows are ever needed).
        """
        if cand.rows is None:
            parent_rows = cand.parent_rows
            assert parent_rows is not None
            pos, code = cand.key[-1]
            codes = self.codes[pos]
            if parent_rows.size == codes.size:  # trivial parent: avoid the gather
                cand.rows = np.nonzero(codes == code)[0]
            else:
                cand.rows = parent_rows[np.take(codes, parent_rows) == code]
            cand.parent_rows = None
            stats.rows_scanned += parent_rows.size
        return cand.rows

    # -- lattice generation ----------------------------------------------------

    def _ext_weight(self, parent_key: _Key, pos: int) -> float:
        """Fast-path weight shared by every value extension of a task."""
        columns = [self.cat_positions[p] for p, _ in parent_key]
        columns.append(self.cat_positions[pos])
        return self.fast_weight(tuple(sorted(columns)))

    def _insert_children(
        self,
        parent_key: _Key,
        parent_rows: np.ndarray,
        pos: int,
        weight: float,
        supported: np.ndarray,
        counts: np.ndarray,
        marginals: np.ndarray,
        stats: SearchStats,
    ) -> None:
        """Cache one counted (parent, column) task's candidates (fast path).

        Children heavier than ``mw`` are discarded outright — they can
        never be a best rule and (by monotonicity) neither can any
        super-rule, so the reference never extends them either.  Every
        child of a task shares the task's weight.
        """
        stats.candidates_generated += supported.size
        if weight > self.mw:
            return
        stats.candidates_eligible += supported.size
        self._generated_this_epoch += supported.size
        size = len(parent_key) + 1
        expandable = size < self.max_rule_size and bool(_free_after(self._free, pos))
        slack = max(self.mw - weight, 0.0)  # the Section 3.5 bound, as in _bound
        epoch, cands, vheap, xheap = self._epoch, self._cands, self._vheap, self._xheap
        for code, count, marginal in zip(
            supported.tolist(), counts.tolist(), marginals.tolist()
        ):
            key = parent_key + ((pos, code),)
            bound = marginal + count * slack if expandable else 0.0
            cands[key] = _Candidate(
                key, weight, count, marginal, epoch, marginal, bound, expandable,
                None, parent_rows,
            )
            heapq.heappush(vheap, (-marginal, size, key))
            if expandable:
                heapq.heappush(xheap, (-bound, size, key))

    def _generate(
        self, parent_key: _Key, parent_rows: np.ndarray, positions: list[int], stats: SearchStats
    ) -> None:
        """Count and cache all value extensions of a parent on ``positions``.

        Children keep a borrowed reference to the parent's rows instead
        of materialising their own (see :meth:`_rows`).  On the fast
        path the parent's per-column tasks are counted by one
        :func:`~repro.core.parallel.count_parent_extensions` call.
        """
        if self.fast_weight is None:
            for pos in positions:
                self._generate_slow(parent_key, parent_rows, pos, stats)
            return
        if not positions:
            return
        weights = [self._ext_weight(parent_key, pos) for pos in positions]
        counted = count_parent_extensions(
            self.codes,
            positions,
            [self.distinct[pos] for pos in positions],
            weights,
            self._count_measures,
            self._top,
            None if parent_rows.size == self.table.n_rows else parent_rows,
        )
        stats.rows_scanned += parent_rows.size * len(positions)
        for pos, weight, result in zip(positions, weights, counted):
            self._insert_children(parent_key, parent_rows, pos, weight, *result, stats)

    def _generate_slow(
        self, parent_key: _Key, parent_rows: np.ndarray, pos: int, stats: SearchStats
    ) -> None:
        """:meth:`_generate` for value-dependent weights, one column at a time.

        Each child is weighed from its rule; the per-value weights,
        gathered per row, feed one weighted bincount, so every
        MarginalValue is a left fold in row order as on the fast path.
        """
        n_values = self.distinct[pos]
        stats.rows_scanned += parent_rows.size
        if parent_rows.size == self.table.n_rows:  # trivial parent: skip the gathers
            codes = self.codes[pos]
            measures = self.measures
            top = self._top
        else:
            codes = self.codes[pos][parent_rows]
            measures = self.measures[parent_rows]
            top = self._top[parent_rows]
        counts = np.bincount(codes, weights=measures, minlength=n_values)
        supported = np.nonzero(counts > 0)[0]
        weights = np.zeros(n_values)
        weights[supported] = [
            self.wf.weight(self._rule_of(parent_key + ((pos, int(code)),)))
            for code in supported
        ]
        gains = np.maximum(weights[codes] - top, 0.0) * measures
        marginals = np.bincount(codes, weights=gains, minlength=n_values)
        for i, code in enumerate(supported):
            self._insert_children(
                parent_key, parent_rows, pos, float(weights[code]), supported[i : i + 1],
                counts[code : code + 1], marginals[code : code + 1], stats,
            )

    def _build(self, stats: SearchStats) -> None:
        """Generate the size-1 level (the only full-table passes ever made)."""
        all_rows = np.arange(self.table.n_rows, dtype=self._row_dtype)
        self._generate((), all_rows, self._free, stats)
        stats.passes += 1
        self._built = True

    def _expand(self, cand: _Candidate, stats: SearchStats) -> None:
        """Generate all extensions of a cached candidate from its rows."""
        stats.parents_extended += 1
        rows = self._rows(cand, stats)
        self._generate(cand.key, rows, _free_after(self._free, cand.key[-1][0]), stats)
        cand.expanded = True

    # -- per-pick search -------------------------------------------------------

    def _reset_bounds(self) -> None:
        """Restore the CELF invariant after ``top`` moved *down*.

        Stale marginals are upper bounds only while ``top`` grows (the
        greedy case).  When a context is reused for a fresh greedy run
        that restarts from its seed ``top`` — e.g. re-expanding a
        drill-down node — every cached marginal is reset to the
        coarser bound ``W(R) · Count(R)``, which is valid for *any*
        non-negative ``top`` (each covered tuple gains at most the full
        weight).  No rows are scanned: the lazy loop tightens exactly
        the bounds that reach the top of the heap.
        """
        vheap: list[tuple[float, int, _Key]] = []
        xheap: list[tuple[float, int, _Key]] = []
        for cand in self._cands.values():
            cand.marginal = cand.weight * cand.count
            cand.heap_m = cand.marginal
            cand.epoch = 0  # stale: must be re-evaluated before acceptance
            size = len(cand.key)
            vheap.append((-cand.marginal, size, cand.key))
            if cand.expandable and not cand.expanded:
                cand.heap_ub = self._bound(cand)
                xheap.append((-cand.heap_ub, size, cand.key))
        heapq.heapify(vheap)
        heapq.heapify(xheap)
        self._vheap = vheap
        self._xheap = xheap

    def _refresh(self, cand: _Candidate, stats: SearchStats) -> None:
        """Re-evaluate a cached candidate's marginal under the current top."""
        if cand.weight <= 0.0:
            cand.marginal = 0.0  # max(W - top, 0) is identically zero
        else:
            rows = self._rows(cand, stats)
            gains = np.take(self._top, rows)
            np.subtract(cand.weight, gains, out=gains)
            np.maximum(gains, 0.0, out=gains)
            if self._count_measures is not None:
                np.multiply(gains, np.take(self._count_measures, rows), out=gains)
            # A left fold in row order — the order in which a counting
            # pass's bincount fills this candidate's bin, so a marginal
            # computed here equals, bit for bit, the one a counting pass
            # (this context's, a sibling clone's, or the reference's)
            # produces.  numpy's pairwise .sum() differs in the last
            # ulp, enough to flip near-ties.
            cand.marginal = float(np.add.accumulate(gains, out=gains)[-1])
            stats.rows_scanned += rows.size
        stats.cache_hits += 1
        cand.epoch = self._epoch
        self._refreshed += 1
        if cand.marginal != cand.heap_m:
            cand.heap_m = cand.marginal
            heapq.heappush(self._vheap, (-cand.marginal, len(cand.key), cand.key))

    def _settle(self, stats: SearchStats) -> _Candidate | None:
        """CELF loop: re-evaluate the heap top until it is fresh.

        The heap orders by (stale marginal desc, size asc, key asc);
        stale values upper-bound fresh ones, so a fresh top dominates
        everything below it under the searcher's ``_better`` order.
        """
        heap = self._vheap
        while heap:
            negm, _size, key = heap[0]
            cand = self._cands[key]
            if -negm != cand.heap_m:
                heapq.heappop(heap)  # superseded by a fresher entry
                continue
            if cand.epoch == self._epoch:
                return cand if cand.marginal > 0.0 else None
            self._refresh(cand, stats)
            if cand.heap_m != -negm:
                heapq.heappop(heap)  # value dropped; fresh entry was pushed
        return None

    def _expand_due(self, best: _Candidate | None, stats: SearchStats) -> bool:
        """Expand one frontier candidate whose bound reaches the best.

        Returns True when an expansion happened (the caller re-settles
        the value heap).  With ``prune`` off, every frontier candidate
        is expanded unconditionally, mirroring the unpruned ablation.
        """
        heap = self._xheap
        while heap:
            negub, size, key = heap[0]
            cand = self._cands[key]
            if cand.expanded or -negub != cand.heap_ub:
                heapq.heappop(heap)
                continue
            if self.prune:
                ub = -negub
                if best is None:
                    if ub <= 0.0:
                        return False
                elif ub < best.marginal:
                    return False
                if cand.epoch != self._epoch:
                    self._refresh(cand, stats)
                    fresh_ub = self._bound(cand)
                    if fresh_ub != cand.heap_ub:
                        heapq.heappop(heap)
                        cand.heap_ub = fresh_ub
                        heapq.heappush(heap, (-fresh_ub, size, key))
                    continue
            heapq.heappop(heap)
            self._expand(cand, stats)
            return True
        return False

    def find_best(self, top: np.ndarray) -> MarginalResult | None:
        """Return the best marginal rule under ``top`` — Algorithm 2,
        served from the cache.

        Provably identical to the reference search
        (:mod:`repro.core.marginal`) on the same configuration (see
        the module docstring's correctness argument).
        The returned ``stats`` cover this search only;
        :attr:`total_stats` accumulates across searches.

        Successive ``top`` arrays may move up freely (the greedy case —
        served lazily) or down (a fresh greedy run reusing the context —
        cached bounds reset to ``W·Count`` and re-tighten lazily).
        Mutating a previously passed array *downward in place* is the
        one unsupported pattern: pass a new array instead.
        """
        if top.shape != (self.table.n_rows,):
            raise RuleError("top-weight array length must equal table rows")
        # Normalised once so every counting call sees the same float64
        # values (no-op for float64 input, preserving the identity
        # comparison against _last_top below).
        top = np.asarray(top, dtype=np.float64)
        stats = SearchStats()
        stats.passes += 1
        monotone = (
            self._last_top is None
            or top is self._last_top
            or bool((top >= self._last_top).all())
        )
        self._top = top
        self._last_top = top
        self._epoch += 1
        self._refreshed = 0
        self._generated_this_epoch = 0
        if not self._built:
            self._build(stats)
        elif not monotone:
            self._reset_bounds()
        best = self._settle(stats)
        while self._expand_due(best, stats):
            best = self._settle(stats)
        stats.lazy_skips += max(
            0, len(self._cands) - self._refreshed - self._generated_this_epoch
        )
        if best is None:
            self.last_rows = None
            self.total_stats.merge(stats)
            return None
        self.last_rows = self._rows(best, stats)
        self.total_stats.merge(stats)
        return MarginalResult(
            rule=self._rule_of(best.key),
            weight=best.weight,
            count=best.count,
            marginal=best.marginal,
            stats=stats,
        )

    # -- introspection ---------------------------------------------------------

    @property
    def cached_candidates(self) -> int:
        """Number of candidates currently held in the cache."""
        return len(self._cands)

    def __repr__(self) -> str:
        return (
            f"SearchContext(rows={self.table.n_rows}, mw={self.mw:g}, "
            f"candidates={len(self._cands)}, searches={self._epoch})"
        )
