"""BRS — Best Rule Set, the paper's Algorithm 1 (Section 3.4).

``Score`` is submodular over rule sets (Lemma 3), so the greedy
procedure — start empty, add the best marginal rule ``k`` times — is a
``1 − (1 − 1/k)^k ≥ 1 − 1/e`` approximation of the optimal set, provided
``mw`` upper-bounds the weight of every rule in the optimum.  BRS is
*incremental*: the best rule-list of size ``k`` is a prefix of the best
rule-list of size ``k+1`` as produced by the greedy, which Section 6.1
exploits to stream rules to the user; :func:`brs_iter` exposes exactly
that stream.

**The engine.**  The ``k`` marginal searches run through one
:class:`~repro.core.search_cache.SearchContext`, which persists
candidate counts, weights, and covered-row sets across picks and
re-evaluates marginals CELF-style (Leskovec et al.'s lazy greedy):
submodularity makes any previously computed marginal an upper bound on
the current one, so picks after the first only touch the few heap-top
candidates whose stale bound is still competitive, instead of
re-running the whole a-priori search.  The selected rules are provably
identical to one cold Algorithm 2 search per pick
(:func:`~repro.core.marginal.reference_brs`, the test oracle) — the
lazy heap settles on the same argmax under the same tie-breaking order,
and pruned-subtree bounds are re-checked against the current ``top``
before a search concludes (see :mod:`repro.core.search_cache` for the
full argument).  Callers may pass an existing ``context`` to amortise
the cache across multiple BRS runs — the interactive session layer does
this for repeated expansions of the same drill-down node.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterator

import numpy as np

from repro.core.marginal import MarginalResult, SearchStats
from repro.core.rule import Rule
from repro.core.scoring import RuleList, sort_rules_by_weight
from repro.core.search_cache import SearchContext
from repro.core.weights import WeightFunction
from repro.errors import EngineError
from repro.table.table import Table

__all__ = ["BRSResult", "brs", "brs_iter", "brs_time_limited"]


@dataclass(frozen=True)
class BRSResult:
    """Outcome of one BRS invocation.

    ``picks`` records the greedy selection order with the marginal
    value each rule added; ``stats`` aggregates search work across all
    ``k`` marginal-rule searches.  ``rule_list`` carries the
    weight-sorted display order with per-rule Count/MCount; it costs
    one cover-mask pass per rule over the mined table, so it is built
    on first access — the drill-downs, which display the *merged* rules
    instead, never pay for it.
    """

    picks: tuple[MarginalResult, ...]
    stats: SearchStats
    _table: Table = field(repr=False, compare=False)
    _wf: WeightFunction = field(repr=False, compare=False)
    _measures: np.ndarray | None = field(repr=False, compare=False)

    @cached_property
    def rule_list(self) -> RuleList:
        return RuleList((p.rule for p in self.picks), self._table, self._wf, self._measures)

    @property
    def rules(self) -> tuple[Rule, ...]:
        """``rule_list.rules``, without the cover-mask passes."""
        return tuple(sort_rules_by_weight((p.rule for p in self.picks), self._wf))

    @property
    def score(self) -> float:
        return self.rule_list.score


def brs_iter(
    table: Table,
    wf: WeightFunction,
    mw: float,
    *,
    measures: np.ndarray | None = None,
    max_rule_size: int | None = None,
    prune: bool = True,
    initial_top: np.ndarray | None = None,
    context: SearchContext | None = None,
) -> Iterator[MarginalResult]:
    """Yield greedy picks one at a time (the Section 6.1 streaming mode).

    Stops when no rule adds positive marginal value.  The caller owns
    the stopping condition otherwise — take ``k`` items for a fixed-size
    summary, or consume under a time budget.

    ``initial_top`` seeds the per-tuple ``W(TOP(t, S))`` state, which
    drill-down uses to model "the clicked rule already covers this
    sub-table": children then only earn credit for weight *above* the
    parent's (this is what makes the Table 3 expansion produce
    cookies/CA-1/WA-5 rather than re-listing the Walmart rule itself).

    ``context`` supplies an existing
    :class:`~repro.core.search_cache.SearchContext` to reuse across
    runs; it must have been built for the same table, weight function,
    and search parameters.  An incompatible context raises here, not
    at first iteration.
    """
    if context is not None:
        context.check_compatible(table, wf, mw, measures, max_rule_size, prune)
    else:
        context = SearchContext(
            table,
            wf,
            mw,
            measures=measures,
            max_rule_size=max_rule_size,
            prune=prune,
        )

    def picks() -> Iterator[MarginalResult]:
        top = (
            np.zeros(table.n_rows, dtype=np.float64)
            if initial_top is None
            else initial_top.astype(np.float64).copy()
        )
        while True:
            result = context.find_best(top)
            if result is None:
                return
            rows = context.last_rows
            top[rows] = np.maximum(top[rows], result.weight)
            yield result

    return picks()


def brs(
    table: Table,
    wf: WeightFunction,
    k: int,
    mw: float,
    *,
    measures: np.ndarray | None = None,
    max_rule_size: int | None = None,
    prune: bool = True,
    initial_top: np.ndarray | None = None,
    context: SearchContext | None = None,
) -> BRSResult:
    """Greedily select up to ``k`` rules maximising ``Score`` (Problem 3).

    Parameters
    ----------
    table:
        Table (or sample) to summarise.
    wf:
        Monotonic non-negative weight function.
    k:
        Number of rules requested; fewer are returned when no rule adds
        positive marginal value.
    mw:
        Max-weight search parameter (see :mod:`repro.core.marginal`);
        the greedy guarantee holds when ``mw`` ≥ the heaviest rule in the
        optimal set.
    measures:
        Optional per-tuple measures for Sum aggregation (Section 6.3).
    max_rule_size, prune:
        Passed through to the marginal search.
    initial_top:
        Optional seed for the per-tuple selected-weight state (see
        :func:`brs_iter`).
    context:
        An existing search context to reuse (see :func:`brs_iter`).
    """
    picks: list[MarginalResult] = []
    stats = SearchStats()
    if k <= 0:
        return BRSResult((), stats, table, wf, measures)
    for result in brs_iter(
        table,
        wf,
        mw,
        measures=measures,
        max_rule_size=max_rule_size,
        prune=prune,
        initial_top=initial_top,
        context=context,
    ):
        picks.append(result)
        stats.merge(result.stats)
        if len(picks) >= k:
            break
    return BRSResult(tuple(picks), stats, table, wf, measures)


def brs_time_limited(
    table: Table,
    wf: WeightFunction,
    mw: float,
    time_limit_seconds: float,
    *,
    max_rules: int | None = None,
    measures: np.ndarray | None = None,
    max_rule_size: int | None = None,
    prune: bool = True,
    initial_top: np.ndarray | None = None,
    context: SearchContext | None = None,
) -> BRSResult:
    """Keep adding rules until a wall-clock budget runs out (§6.1).

    The paper's alternative to a fixed ``k``: "set a time limit (of say
    5 seconds) and display as many rules as we can find within that
    time limit".  BRS is incremental, so the rules found within the
    budget are exactly the prefix a larger ``k`` would have produced.
    At least one search is always attempted (a summary with zero rules
    helps nobody); ``max_rules`` optionally caps the count as well.
    The incremental engine stretches the budget: later searches cost a
    few heap re-evaluations instead of full table passes.
    """
    if time_limit_seconds <= 0:
        raise EngineError("time_limit_seconds must be positive")
    picks: list[MarginalResult] = []
    stats = SearchStats()
    deadline = time.perf_counter() + time_limit_seconds
    for result in brs_iter(
        table,
        wf,
        mw,
        measures=measures,
        max_rule_size=max_rule_size,
        prune=prune,
        initial_top=initial_top,
        context=context,
    ):
        picks.append(result)
        stats.merge(result.stats)
        if max_rules is not None and len(picks) >= max_rules:
            break
        if time.perf_counter() >= deadline:
            break
    return BRSResult(tuple(picks), stats, table, wf, measures)
