"""Find-best-marginal-rule — the paper's Algorithm 2 (Section 3.5).

Given the current solution set ``S`` (summarised by a per-tuple array of
``W(TOP(t, S))`` weights), the search finds the rule of weight ≤ ``mw``
with the highest *marginal value*

    MarginalValue(r) = Σ_{t ∈ r} m(t) · ( W(r) − min(W(r), W(TOP(t, S))) )

where ``m(t)`` is the tuple measure (1 for Count, the measure column for
Sum, Section 6.3).  The search enumerates candidates level-wise by rule
size, a-priori style: size-``j`` candidates are generated only from
surviving size-``j−1`` rules, extended on columns strictly after their
last instantiated column (so each rule is generated exactly once), with
values drawn from actual co-occurrence in the data.  A candidate's
descendants are pruned with the paper's upper bound

    MarginalVal(R') + Count(R') · (mw − W(R'))   for sub-rules R' of R,

compared against the best marginal value ``H`` found so far.

Implementation note: the per-level "pass over the table" is vectorised —
for one surviving parent and one extension column, the counts and
marginal values of *all* value extensions are two ``np.bincount`` calls
over the parent's covered rows.  Pruning therefore pays off by skipping
parents (the paper's ``Cn`` deletions), which is where the exponential
blow-up lives; the returned rule is identical to the paper's.

**Vertical row-index propagation.**  Each surviving candidate carries a
reference to its parent's covered row-index array plus its own
``(column, code)`` extension, so when (and only when) the candidate is
itself extended, its covered rows materialise as
``parent_rows[codes[parent_rows] == code]`` — O(parent support), never
the O(table size) full-table rescan (the old ``_mask_of``) that the
extended version of the paper (arXiv:1412.0364) identifies as the
dominant per-pass cost.  Materialisation is lazy because the a-priori
bound prunes the vast majority of generated candidates before they are
ever extended; partitioning rows eagerly for all of them costs more
than the rescans it avoids.

The same propagated row sets power the *incremental* engine in
:mod:`repro.core.search_cache`, which persists them across the ``k``
greedy searches of one BRS run (counts, weights, and coverage never
change between picks — only ``top`` does) and lazily re-evaluates
marginals CELF-style.  :class:`SearchStats` carries two counters for
it: ``cache_hits`` (marginal re-evaluations served from cached row
sets) and ``lazy_skips`` (cached candidates a search never had to
touch, the CELF saving).

**The counting primitive.**  The per-parent bincount pairs are
factored into :func:`repro.core.parallel.count_parent_extensions`,
the one counting primitive shared by this module, the incremental
engine and the first-pick precompute.  Each surviving parent is
counted as soon as it is reached, so ``H`` tightens before the next
parent's prune check.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Any, Callable, Sequence

import numpy as np

from repro.errors import RuleError
from repro.core.parallel import count_parent_extensions, nonunit_measures
from repro.core.rule import Rule
from repro.core.weights import (
    ColumnSetWeight,
    MergedWeight,
    StarConstrainedWeight,
    WeightFunction,
)
from repro.table.column import CategoricalColumn
from repro.table.table import Table

__all__ = ["MarginalResult", "SearchStats", "find_best_marginal_rule"]

# Internal candidate key: ((cat_position, code), ...) sorted by position.
_Key = tuple[tuple[int, int], ...]


def _key_columns(key: _Key, cat_positions: Sequence[int]) -> tuple[int, ...]:
    """Table-column indexes instantiated by a candidate key."""
    return tuple(cat_positions[pos] for pos, _ in key)


def _extension_weight(
    fast_weight: Callable[[tuple[int, ...]], float],
    cat_positions: Sequence[int],
    parent_key: _Key,
    pos: int,
) -> float:
    """Fast-path weight shared by every value extension of one task.

    One definition for both engines' task construction — the
    bit-identical guarantee requires the weight fed to
    :func:`repro.core.parallel.count_parent_extensions` to be computed
    identically everywhere.
    """
    columns = _key_columns(parent_key, cat_positions) + (cat_positions[pos],)
    return fast_weight(tuple(sorted(columns)))


def _key_rule(key: _Key, table: Table, cat_positions: Sequence[int]) -> Rule:
    """Decode a candidate key into a :class:`Rule` over ``table``.

    Shared by the from-scratch searcher and the incremental engine
    (:mod:`repro.core.search_cache`) so both decode keys identically.
    """
    items: dict[int, Any] = {}
    for pos, code in key:
        table_idx = cat_positions[pos]
        col = table.column(table_idx)
        assert isinstance(col, CategoricalColumn)
        items[table_idx] = col.decode(code)
    return Rule.from_items(table.n_columns, items)


@dataclass
class SearchStats:
    """Work counters for one best-marginal-rule search.

    ``rows_scanned`` counts tuple visits across all bincount passes and
    is the vectorised analogue of the paper's "passes over the table";
    ``parents_pruned`` counts surviving-rule extensions skipped by the
    upper bound.

    The incremental engine (:mod:`repro.core.search_cache`) adds two
    counters: ``cache_hits`` is the number of candidate marginals
    re-evaluated from cached row sets instead of regenerated by a
    counting pass, and ``lazy_skips`` is the number of cached candidates
    whose re-evaluation a CELF lazy-greedy search avoided entirely
    (their stale marginal — an upper bound, by submodularity — never
    reached the top of the heap).  Both are zero for from-scratch
    searches.
    """

    passes: int = 0
    candidates_generated: int = 0
    candidates_eligible: int = 0
    parents_extended: int = 0
    parents_pruned: int = 0
    rows_scanned: int = 0
    cache_hits: int = 0
    lazy_skips: int = 0

    def merge(self, other: "SearchStats") -> None:
        """Accumulate another search's counters into this one."""
        self.passes += other.passes
        self.candidates_generated += other.candidates_generated
        self.candidates_eligible += other.candidates_eligible
        self.parents_extended += other.parents_extended
        self.parents_pruned += other.parents_pruned
        self.rows_scanned += other.rows_scanned
        self.cache_hits += other.cache_hits
        self.lazy_skips += other.lazy_skips


@dataclass(frozen=True)
class MarginalResult:
    """The best marginal rule plus its statistics."""

    rule: Rule
    weight: float
    count: float
    marginal: float
    stats: SearchStats


@dataclass
class _Entry:
    """Counted candidate bookkeeping: the ``C`` map of Algorithm 2."""

    weight: float
    count: float
    marginal: float
    extendable: bool  # False once pruned (or weight > mw): never extended


def _column_set_weight(
    wf: WeightFunction,
) -> Callable[[tuple[int, ...]], float] | None:
    """Fast path: a ``column-index-set -> weight`` callable, when valid.

    All built-in weight functions depend only on the instantiated
    column set; star-constrained wrappers around such functions do too.
    Returns ``None`` for value-dependent callables (slow path).
    """
    if isinstance(wf, ColumnSetWeight):
        return wf.weight_of_columns
    if isinstance(wf, StarConstrainedWeight):
        inner = _column_set_weight(wf.base)
        if inner is None:
            return None
        star_col = wf.column

        def constrained(columns: tuple[int, ...]) -> float:
            if star_col not in columns:
                return 0.0
            return inner(columns)

        return constrained
    if isinstance(wf, MergedWeight):
        inner = _column_set_weight(wf.base)
        if inner is None:
            return None
        parent_columns = frozenset(wf.parent.instantiated_indexes)

        def merged(columns: tuple[int, ...]) -> float:
            return inner(tuple(sorted(parent_columns.union(columns))))

        return merged
    return None


def _free_positions(
    wf: WeightFunction, cat_positions: Sequence[int], codes: Sequence[np.ndarray]
) -> list[int]:
    """Categorical positions a search under ``wf`` enumerates, ascending.

    A drill-down mines ``T_r'`` under ``MergedWeight(wf, r')`` (possibly
    star-constrained), where every column of ``r'`` is single-valued:
    a candidate ``K ∧ c`` with ``c`` on those columns covers the rows
    of ``K`` at the weight and marginal of ``K`` but is larger, so it
    loses the (marginal desc, size asc, key asc) order to ``K`` and can
    never be the best rule.  Both engines therefore skip the parent's
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


class _Searcher:
    """State for one invocation of Algorithm 2 over a table."""

    def __init__(
        self,
        table: Table,
        wf: WeightFunction,
        top: np.ndarray,
        mw: float,
        measures: np.ndarray | None,
        max_rule_size: int | None,
        prune: bool,
        first_pick=None,
    ):
        self.table = table
        self.wf = wf
        self.mw = float(mw)
        self.prune = prune
        n = table.n_rows
        if top.shape != (n,):
            raise RuleError("top-weight array length must equal table rows")
        # Normalised once so every counting call sees the same float64
        # values (no-op for float64 input).
        self.top = np.asarray(top, dtype=np.float64)
        self.measures = (
            np.ones(n, dtype=np.float64) if measures is None else measures.astype(np.float64)
        )
        # None for unit measures (every Count search): the counting
        # primitive then skips gathering and multiplying 1.0.
        self._count_measures = None if measures is None else nonunit_measures(self.measures)
        self.cat_positions = table.schema.categorical_indexes
        self.codes: list[np.ndarray] = []
        self.distinct: list[int] = []
        for idx in self.cat_positions:
            col = table.column(idx)
            assert isinstance(col, CategoricalColumn)
            self.codes.append(col.codes)
            self.distinct.append(col.distinct_count)
        # Positions the level passes enumerate: all of them, minus the
        # columns a drill-down parent already instantiates.
        self._free = _free_positions(wf, self.cat_positions, self.codes)
        limit = len(self._free)
        self.max_rule_size = limit if max_rule_size is None else min(max_rule_size, limit)
        self.fast_weight = _column_set_weight(wf)
        # Registration-time level-1 marginal cache (repro.core.first_pick):
        # valid only for a Count search over exactly this (table, wf, mw)
        # at the base top (all zeros) — the cold first pick.  Anything
        # else falls back to the normal scan.
        usable = (
            first_pick is not None
            and self.fast_weight is not None
            and first_pick.matches(table, wf, self.mw)
            # Cache arrays were built with all-ones measures (Count);
            # an explicit all-ones array feeds the kernel identical inputs.
            and self._count_measures is None
            and not self.top.any()
        )
        self.first_pick = first_pick if usable else None
        if first_pick is not None and not usable:
            first_pick.misses += 1
        self.stats = SearchStats()
        # C of Algorithm 2: every counted candidate, keyed canonically.
        self.counted: dict[_Key, _Entry] = {}
        self.best_key: _Key | None = None
        self.best_entry: _Entry | None = None
        self.threshold = 0.0  # H of Algorithm 2

    # -- weights ---------------------------------------------------------------

    def _table_columns(self, key: _Key) -> tuple[int, ...]:
        return _key_columns(key, self.cat_positions)

    def _rule_of(self, key: _Key) -> Rule:
        return _key_rule(key, self.table, self.cat_positions)

    def _weight_of(self, key: _Key) -> float:
        if self.fast_weight is not None:
            return self.fast_weight(self._table_columns(key))
        return self.wf.weight(self._rule_of(key))

    # -- bookkeeping -----------------------------------------------------------

    def _offer(self, key: _Key, entry: _Entry) -> None:
        """Record a counted candidate and update the running best (H).

        Candidates with weight above ``mw`` are ineligible, and — by
        monotonicity — so is every super-rule, so they are never
        extended either.
        """
        self.counted[key] = entry
        self.stats.candidates_generated += 1
        if entry.count <= 0:
            entry.extendable = False
            return
        if entry.weight > self.mw:
            entry.extendable = False
            return
        self.stats.candidates_eligible += 1
        if self._better(entry, key):
            self.best_entry = entry
            self.best_key = key
            self.threshold = max(self.threshold, entry.marginal)

    def _better(self, entry: _Entry, key: _Key) -> bool:
        """Deterministic comparison: marginal, then size, then key order."""
        if self.best_entry is None:
            return entry.marginal > 0
        if entry.marginal != self.best_entry.marginal:
            return entry.marginal > self.best_entry.marginal
        assert self.best_key is not None
        if len(key) != len(self.best_key):
            return len(key) < len(self.best_key)
        return key < self.best_key

    def _upper_bound(self, key: _Key) -> float:
        """min over counted immediate sub-rules of the paper's bound.

        A missing sub-rule means an ancestor was pruned, which already
        proves every super-rule suboptimal, so the bound is −inf.
        """
        bound = np.inf
        for drop in range(len(key)):
            sub = key[:drop] + key[drop + 1 :]
            if not sub:
                continue
            entry = self.counted.get(sub)
            if entry is None:
                return -np.inf
            slack = entry.marginal + entry.count * max(self.mw - entry.weight, 0.0)
            bound = min(bound, slack)
        return bound

    # -- passes -----------------------------------------------------------------

    def _ext_weight(self, parent_key: _Key, pos: int) -> float:
        """Fast-path weight shared by every value extension of a task."""
        return _extension_weight(self.fast_weight, self.cat_positions, parent_key, pos)

    def _entries_of(
        self,
        parent_key: _Key,
        pos: int,
        weight: float,
        supported: np.ndarray,
        counts: np.ndarray,
        marginals: np.ndarray,
    ) -> list[tuple[_Key, _Entry]]:
        """Decode one counted (parent, column) task into candidate entries."""
        return [
            (parent_key + ((pos, code),), _Entry(weight, count, marginal, True))
            for code, count, marginal in zip(
                supported.tolist(), counts.tolist(), marginals.tolist()
            )
        ]

    def _count_extensions(
        self, parent_key: _Key, parent_rows: np.ndarray, positions: Sequence[int]
    ) -> list[tuple[_Key, _Entry]]:
        """Count all value extensions of one parent on ``positions``.

        Two bincounts per column over the parent's covered rows yield the
        Count and MarginalValue of every candidate ``parent ∧ (pos=v)``,
        returned in (column, value) order.  The fast path is one call of
        the shared :func:`~repro.core.parallel.count_parent_extensions`.
        """
        self.stats.rows_scanned += parent_rows.size * len(positions)
        if self.fast_weight is None:
            return [
                pair
                for pos in positions
                for pair in self._count_extensions_slow(parent_key, parent_rows, pos)
            ]
        weights = [self._ext_weight(parent_key, pos) for pos in positions]
        counted = count_parent_extensions(
            self.codes,
            positions,
            [self.distinct[pos] for pos in positions],
            weights,
            self._count_measures,
            self.top,
            None if parent_rows.size == self.table.n_rows else parent_rows,
        )
        return [
            pair
            for pos, weight, result in zip(positions, weights, counted)
            for pair in self._entries_of(parent_key, pos, weight, *result)
        ]

    def _count_extensions_slow(
        self, parent_key: _Key, parent_rows: np.ndarray, pos: int
    ) -> list[tuple[_Key, _Entry]]:
        """One column of :meth:`_count_extensions` under a value-dependent weight."""
        n_values = self.distinct[pos]
        if parent_rows.size == self.table.n_rows:  # trivial parent: skip the gathers
            codes = self.codes[pos]
            measures = self.measures
            top = self.top
        else:
            codes = self.codes[pos][parent_rows]
            measures = self.measures[parent_rows]
            top = self.top[parent_rows]
        counts = np.bincount(codes, weights=measures, minlength=n_values)
        out: list[tuple[_Key, _Entry]] = []
        for code in np.nonzero(counts > 0)[0]:
            key = parent_key + ((pos, int(code)),)
            weight = self._weight_of(key)
            covered = codes == code
            marginal = float(
                (np.maximum(weight - top[covered], 0.0) * measures[covered]).sum()
            )
            out.append((key, _Entry(weight, float(counts[code]), marginal, True)))
        return out

    def _first_pass(self) -> list[tuple[_Key, np.ndarray]]:
        """Count every size-1 rule (``Cn = all rules of size 1``).

        Survivors carry the row array of their (trivial) parent — the
        full-table arange — from which their own covered rows derive
        lazily if they are ever extended.
        """
        self.stats.passes += 1
        empty: _Key = ()
        dtype = np.int32 if self.table.n_rows < 2**31 else np.int64
        all_rows = np.arange(self.table.n_rows, dtype=dtype)
        positions = self._free
        if self.first_pick is not None:
            # Heap-build over the registration-time cache: the arrays
            # are the counting primitive's own output at this exact
            # (table, weight, base top), so _entries_of sees
            # bit-identical inputs to a cold scan — no rows are touched.
            self.first_pick.hits += 1
            counted = [
                pair
                for pos in positions
                for pair in self._entries_of(empty, pos, *self.first_pick.level1(pos))
            ]
        else:
            counted = self._count_extensions(empty, all_rows, positions)
        for key, entry in counted:
            self._offer(key, entry)
        return [(key, all_rows) for key, _entry in counted]

    def _rows_of(self, key: _Key, parent_rows: np.ndarray) -> np.ndarray:
        """Materialise a candidate's covered rows from its parent's rows.

        Vertical row-index propagation: one O(parent support) filter on
        the candidate's own ``(column, code)`` extension, instead of an
        O(table size) conjunction over every instantiated column.
        """
        pos, code = key[-1]
        codes = self.codes[pos]
        if parent_rows.size == codes.size:  # trivial parent: avoid the gather
            return np.nonzero(codes == code)[0]
        return parent_rows[codes[parent_rows] == code]

    def _next_pass(
        self, frontier: list[tuple[_Key, np.ndarray]], size: int
    ) -> list[tuple[_Key, np.ndarray]]:
        """Generate, count, and prune size-``size`` candidates.

        A parent whose bound ``MarginalVal + Count·(mw − W)`` falls
        below the threshold ``H`` has its whole extension subtree cut
        (the paper's ``Cn`` deletion).  Surviving parents have every
        value extension counted exactly; a fresh candidate is offered
        as a potential best rule first (tightening ``H``) and then
        bound-checked to decide whether *it* will be extended.  A parent
        that does get extended materialises its covered rows from the
        rows its own parent propagated down (see :meth:`_rows_of`) —
        pruned parents never pay for theirs.
        """
        self.stats.passes += 1
        survivors: list[tuple[_Key, np.ndarray]] = []
        for parent_key, grandparent_rows in frontier:
            entry = self.counted[parent_key]
            if not entry.extendable:
                continue
            if self.prune:
                parent_bound = entry.marginal + entry.count * max(self.mw - entry.weight, 0.0)
                if parent_bound < self.threshold:
                    entry.extendable = False
                    self.stats.parents_pruned += 1
                    continue
            positions = _free_after(self._free, parent_key[-1][0])
            if not positions:
                continue
            parent_rows = self._rows_of(parent_key, grandparent_rows)
            self.stats.parents_extended += 1
            # Counted and offered before the next parent's prune check,
            # so H is as tight as it can be when that check runs.
            for key, child in self._count_extensions(parent_key, parent_rows, positions):
                self._offer(key, child)
                if child.extendable and self.prune:
                    if self._upper_bound(key) < self.threshold:
                        child.extendable = False
                        self.stats.parents_pruned += 1
                if child.extendable:
                    survivors.append((key, parent_rows))
        return survivors

    def run(self) -> MarginalResult | None:
        frontier = self._first_pass()
        size = 1
        while frontier and size < self.max_rule_size:
            size += 1
            frontier = self._next_pass(frontier, size)
        if self.best_key is None or self.best_entry is None:
            return None
        if self.best_entry.marginal <= 0:
            return None
        return MarginalResult(
            rule=self._rule_of(self.best_key),
            weight=self.best_entry.weight,
            count=self.best_entry.count,
            marginal=self.best_entry.marginal,
            stats=self.stats,
        )


def find_best_marginal_rule(
    table: Table,
    wf: WeightFunction,
    top: np.ndarray,
    mw: float,
    *,
    measures: np.ndarray | None = None,
    max_rule_size: int | None = None,
    prune: bool = True,
    first_pick=None,
) -> MarginalResult | None:
    """Return the rule of weight ≤ ``mw`` with highest marginal value.

    Parameters
    ----------
    table:
        The (possibly filtered or sampled) table to mine.
    wf:
        Monotonic non-negative weight function.
    top:
        Per-tuple ``W(TOP(t, S))`` of the already-selected set ``S``
        (zeros for the first iteration); see
        :func:`repro.core.scoring.top_weights`.
    mw:
        Max-weight parameter: the search only considers rules with
        ``W(r) <= mw`` and uses ``mw`` in its pruning bound.  Smaller
        values run faster; values below the optimal rule's weight may
        return a sub-optimal rule (Section 3.5's approximation-ratio
        analysis).
    measures:
        Optional per-tuple measure array (Sum aggregation); defaults to
        all-ones (Count).
    max_rule_size:
        Optional cap on rule size (number of passes).
    prune:
        Disable to measure the value of the a-priori bound (ablation);
        the result is unchanged, only more candidates are explored.
    first_pick:
        Optional :class:`~repro.core.first_pick.FirstPickCache` built
        for exactly ``(table, wf, mw)``: when ``top`` is the base
        vector (all zeros) the first pass becomes a heap-build over the
        cached level-1 marginals instead of a scan.  Provably identical
        result either way; a non-matching cache is ignored.

    Returns ``None`` when no rule adds positive marginal value.
    """
    searcher = _Searcher(
        table, wf, top, mw, measures, max_rule_size, prune, first_pick=first_pick
    )
    return searcher.run()
