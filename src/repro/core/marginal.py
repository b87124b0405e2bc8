"""Find-best-marginal-rule — the paper's Algorithm 2 (Section 3.5), as a reference.

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

compared against the best marginal value ``H`` found so far; a rule
whose sub-rule is not in ``C`` (pruned, too heavy, or unsupported) is
never extended.  The best rule is the maximum of the total order
(marginal desc, size asc, key asc), which pruning never cuts and
exploration order does not change.

This module is the *reference*: short and literal, it weighs every
counted candidate with ``wf.weight(rule)``, enumerates every
categorical column, and counts each (parent, column) pair with one
gather and two ``np.bincount`` calls over the parent's covered rows.
Covered rows propagate vertically — a candidate's rows derive from its
parent's only when it is extended — so no pass rescans the whole table.
Every interactive search runs the incremental engine
(:class:`repro.core.search_cache.SearchContext`) instead, which the
equivalence tests hold to this reference bit for bit: every marginal
in both is a left fold in row order, as ``np.bincount`` accumulates.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import RuleError
from repro.core.rule import Rule, cover_mask
from repro.core.weights import WeightFunction
from repro.table.table import Table

__all__ = ["MarginalResult", "SearchStats", "find_best_marginal_rule", "reference_brs"]

# Candidate key: ((categorical position, code), ...) sorted by position.
_Key = tuple[tuple[int, int], ...]


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
    reached the top of the heap).  Both are zero for the reference.
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


# Kept for benchmarks/e2e (its core.marginal.find_best_ms witness times
# the reference); no served path calls it.
def find_best_marginal_rule(
    table: Table,
    wf: WeightFunction,
    top: np.ndarray,
    mw: float,
    *,
    measures: np.ndarray | None = None,
    max_rule_size: int | None = None,
    prune: bool = True,
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
        Optional cap on rule size (number of passes; at least one).
    prune:
        Disable to measure the value of the a-priori bound (ablation);
        the result is unchanged, only more candidates are explored.

    Returns ``None`` when no rule adds positive marginal value.
    """
    n = table.n_rows
    if top.shape != (n,):
        raise RuleError("top-weight array length must equal table rows")
    top = np.asarray(top, dtype=np.float64)
    m = np.ones(n) if measures is None else np.asarray(measures, dtype=np.float64)
    positions = table.schema.categorical_indexes
    columns = [table.categorical(idx) for idx in positions]
    limit = len(positions) if max_rule_size is None else max_rule_size
    mw = float(mw)
    stats = SearchStats()
    counted: dict[_Key, tuple[float, float, float]] = {}  # C: key -> (W, Count, MarginalValue)
    best: _Key | None = None

    def rule_of(key: _Key) -> Rule:
        items = {positions[pos]: columns[pos].decode(code) for pos, code in key}
        return Rule.from_items(table.n_columns, items)

    def bound(key: _Key) -> float:
        """The §3.5 bound on every super-rule of ``key``'s marginal value."""
        if not key:
            return np.inf
        if key not in counted:
            return -np.inf
        weight, count, marginal = counted[key]
        return marginal + count * max(mw - weight, 0.0)

    # Level j's candidates, each with its parent's covered rows (None: all).
    frontier: list[tuple[_Key, np.ndarray | None]] = [((), None)]
    size = 0
    while frontier:
        size += 1
        stats.passes += 1
        survivors: list[tuple[_Key, np.ndarray | None]] = []
        for parent, parent_rows in frontier:
            rows = parent_rows
            if parent:
                H = counted[best][2] if best is not None else 0.0
                subs = [parent] + [parent[:i] + parent[i + 1:] for i in range(len(parent))]
                if prune and min(map(bound, subs)) < H:
                    stats.parents_pruned += 1
                    continue
                pos, code = parent[-1]
                codes = columns[pos].codes
                if rows is None:
                    rows = np.nonzero(codes == code)[0]
                else:
                    rows = rows[codes[rows] == code]
                stats.parents_extended += 1
            t = top if rows is None else top[rows]
            mm = m if rows is None else m[rows]
            for pos in range(parent[-1][0] + 1 if parent else 0, len(positions)):
                n_values = columns[pos].distinct_count
                c = columns[pos].codes if rows is None else columns[pos].codes[rows]
                stats.rows_scanned += c.size
                counts = np.bincount(c, weights=mm, minlength=n_values)
                supported = np.nonzero(counts > 0)[0]
                keys = [parent + ((pos, int(v)),) for v in supported]
                w = np.zeros(n_values)
                w[supported] = [wf.weight(rule_of(key)) for key in keys]
                gains = np.maximum(w[c] - t, 0.0) * mm
                marginals = np.bincount(c, weights=gains, minlength=n_values)
                for v, key in zip(supported, keys):
                    stats.candidates_generated += 1
                    if w[v] > mw:
                        continue
                    stats.candidates_eligible += 1
                    entry = counted[key] = (float(w[v]), float(counts[v]), float(marginals[v]))
                    if entry[2] > 0 and (
                        best is None
                        or (-entry[2], len(key), key) < (-counted[best][2], len(best), best)
                    ):
                        best = key
                    if size < limit:
                        survivors.append((key, rows))
        frontier = survivors
    if best is None:
        return None
    weight, count, marginal = counted[best]
    return MarginalResult(rule_of(best), weight, count, marginal, stats)


def reference_brs(
    table: Table, wf: WeightFunction, k: int, mw: float, *, measures: np.ndarray | None = None,
    max_rule_size: int | None = None, prune: bool = True, initial_top: np.ndarray | None = None,
) -> list[MarginalResult]:
    """Algorithm 1 over the reference search: up to ``k`` greedy picks.

    The oracle :func:`repro.core.brs.brs` is held to; ``initial_top``
    seeds ``W(TOP(t, S))`` as there.
    """
    top = np.zeros(table.n_rows) if initial_top is None else initial_top.astype(np.float64)
    picks: list[MarginalResult] = []
    while len(picks) < k:
        pick = find_best_marginal_rule(
            table, wf, top, mw, measures=measures, max_rule_size=max_rule_size, prune=prune
        )
        if pick is None:
            break
        picks.append(pick)
        mask = cover_mask(pick.rule, table)
        top[mask] = np.maximum(top[mask], pick.weight)
    return picks
