"""The smart drill-down operators (paper Sections 2.3 and 3.1).

Three user-facing operations, each reduced to Problem 2 exactly as in
Section 3.1:

* **Rule drill-down** — clicking rule ``r'`` filters the table to the
  tuples covered by ``r'`` and mines that sub-table with the weight
  function lifted through :class:`~repro.core.weights.MergedWeight`
  (a candidate scores as its merge with ``r'``), so every displayed
  rule is a super-rule of ``r'``.
* **Star drill-down** — clicking a ``?`` in column ``c`` additionally
  wraps the weight function in
  :class:`~repro.core.weights.StarConstrainedWeight`, zeroing any rule
  that leaves ``c`` starred; all displayed rules instantiate ``c``.
* **Traditional drill-down** — the classic OLAP operator, expressed as
  the Section 5.1 special case (indicator weight on one column,
  ``k`` = number of distinct values) and also provided as a direct
  group-by fast path; the two produce the same rule multiset.

The engine reads the clicked rule back out of the lifted weight and
mines only the columns it leaves starred: its own columns are
single-valued on ``T_r'`` and could only duplicate candidates at a
larger size, which lose every tie.

The functions operate on whatever :class:`~repro.table.Table` they are
given — the interactive session layer passes in samples and rescales
counts.

Each drill-down accepts (and returns, via
:attr:`DrillDownResult.context`) a
:class:`~repro.core.search_cache.SearchContext` so repeated expansions
of the same node — e.g. expand, collapse, expand again in a session —
reuse the cached candidate lattice instead of re-filtering the table
and re-running the search from scratch.  A supplied context is reused
only when its tag (operation kind, parent rule, column, measure,
weight function, and search parameters) and source table match;
otherwise a fresh one is built, so callers may pass a stale context
safely.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.brs import BRSResult, brs
from repro.errors import RuleError
from repro.core.marginal import SearchStats
from repro.core.rule import Rule, cover_mask
from repro.core.scoring import RuleList, tuple_measures
from repro.core.search_cache import SearchContext
from repro.core.weights import (
    ColumnIndicatorWeight,
    MergedWeight,
    StarConstrainedWeight,
    WeightFunction,
)
from repro.table.table import Table

__all__ = [
    "DrillDownResult",
    "drilldown_tag",
    "rule_drilldown",
    "star_drilldown",
    "traditional_drilldown",
]


def drilldown_tag(
    kind: str,
    parent: Rule,
    column: int | None,
    *,
    measure: str | None,
    wf: WeightFunction,
    mw: float,
    max_rule_size: int | None = None,
    prune: bool = True,
) -> tuple:
    """The identity key of one drill-down configuration.

    Two drill-downs whose tags compare equal are served by the same
    :class:`~repro.core.search_cache.SearchContext` (given the same
    mined table).  The weight function participates by value, through
    :meth:`~repro.core.weights.WeightFunction.key`: two ``SizeWeight()``
    objects are one weighting.  The drill-down functions build their
    internal tags through this helper, so external keying (the
    session's cache, the serving tier's
    :class:`~repro.serving.ContextStore`) cannot drift from them.
    """
    return (kind, parent, column, measure, wf.key(), float(mw), max_rule_size, prune)


@dataclass(frozen=True)
class DrillDownResult:
    """A drill-down's displayable outcome.

    ``rule_list`` holds the weight-sorted super-rules of the clicked
    rule with their Count/MCount on the mined table; ``subtable_rows``
    is ``|T_{r'}|``; ``stats`` aggregates the BRS search work.
    ``context`` is the search state the two mining drill-downs used —
    pass it back to the same drill-down call to reuse the cached
    candidate lattice (None for a traditional drill-down, which does
    not search).
    """

    parent: Rule
    rule_list: RuleList
    subtable_rows: int
    stats: SearchStats
    context: SearchContext | None = None

    @property
    def rules(self) -> tuple[Rule, ...]:
        return self.rule_list.rules


def _merge_with_parent(rules: tuple[Rule, ...], parent: Rule) -> list[Rule]:
    """Merge each mined rule with the clicked parent rule.

    Every mined rule has positive support on the filtered table, so the
    merge cannot conflict; the merge makes the Problem 1 super-rule
    constraint explicit in the displayed rules.
    """
    merged: list[Rule] = []
    for rule in rules:
        combined = rule.merge(parent)
        if combined is None:  # pragma: no cover - impossible for supported rules
            raise RuleError(f"mined rule {rule} conflicts with parent {parent}")
        if combined not in merged:
            merged.append(combined)
    return merged


def _context_reusable(context: SearchContext | None, table: Table, tag: tuple) -> bool:
    """True when ``context`` was built for exactly this drill-down.

    ``tag`` equality compares the operation kind, parent rule, column,
    measure, weight function (by value), and search parameters;
    ``source`` identity ties the context to the mined table object, so
    a sampled session whose sample was swapped rebuilds automatically.
    """
    return context is not None and context.source is table and context.tag == tag


def rule_drilldown(
    table: Table,
    parent: Rule,
    wf: WeightFunction,
    k: int,
    mw: float,
    *,
    measure: str | None = None,
    max_rule_size: int | None = None,
    prune: bool = True,
    context: SearchContext | None = None,
) -> DrillDownResult:
    """Expand ``parent`` into its best rule-list of ``k`` super-rules.

    Implements the [Rule drill down] reduction of Section 3.1: filter
    ``table`` to ``T_parent``, solve Problem 2 there under the
    parent-merged weight function, then display the merged rules.

    Parameters mirror :func:`repro.core.brs.brs`; ``measure`` selects
    Sum aggregation over a numeric column instead of Count.  Passing
    the ``context`` from a previous identical call (any ``k``) skips
    the sub-table filtering and reuses the cached candidate lattice.
    """
    if len(parent) != table.n_columns:
        raise RuleError("parent rule arity does not match the table")
    tag = drilldown_tag(
        "rule", parent, None, measure=measure, wf=wf, mw=mw,
        max_rule_size=max_rule_size, prune=prune,
    )
    if _context_reusable(context, table, tag):
        subtable = context.table
        lifted = context.wf
        measures = context.measures
    else:
        subtable = table.filter(cover_mask(parent, table)) if not parent.is_trivial else table
        lifted = MergedWeight(wf, parent) if not parent.is_trivial else wf
        measures = tuple_measures(subtable, measure)
        context = SearchContext(
            subtable, lifted, mw, measures=measures,
            max_rule_size=max_rule_size, prune=prune,
        )
        context.source = table
        context.tag = tag
    # Seed the greedy with the parent already covering the sub-table at
    # its own weight: children earn credit only for the weight they add
    # beyond the parent, which is what the paper's Table 3 expansion
    # exhibits (and prevents the parent re-appearing as its own child).
    seed = np.full(subtable.n_rows, wf.weight(parent), dtype=np.float64)
    result: BRSResult = brs(
        subtable,
        lifted,
        k,
        mw,
        measures=measures,
        max_rule_size=max_rule_size,
        prune=prune,
        initial_top=seed,
        context=context,
    )
    merged = _merge_with_parent(result.rules, parent)
    rule_list = RuleList(merged, subtable, wf, measures)
    return DrillDownResult(
        parent=parent,
        rule_list=rule_list,
        subtable_rows=subtable.n_rows,
        stats=result.stats,
        context=context,
    )


def star_drilldown(
    table: Table,
    parent: Rule,
    column: int | str,
    wf: WeightFunction,
    k: int,
    mw: float,
    *,
    measure: str | None = None,
    max_rule_size: int | None = None,
    prune: bool = True,
    context: SearchContext | None = None,
) -> DrillDownResult:
    """Expand the ``?`` in ``column`` of ``parent`` (Section 2.3).

    Implements the [Star drill down] reduction: like a rule drill-down,
    but the weight function zeroes rules leaving ``column`` starred, so
    every returned rule instantiates it.  ``context`` reuse works as in
    :func:`rule_drilldown`.
    """
    if isinstance(column, str):
        column = table.schema.index_of(column)
    if column not in table.schema.categorical_indexes:
        raise RuleError(
            f"column {table.schema[column].name!r} is numeric; bucketize it "
            "before star drill-down (Section 6.2)"
        )
    if not parent.is_star(column):
        raise RuleError(f"parent rule already instantiates column {column}")
    tag = drilldown_tag(
        "star", parent, column, measure=measure, wf=wf, mw=mw,
        max_rule_size=max_rule_size, prune=prune,
    )
    if _context_reusable(context, table, tag):
        subtable = context.table
        constrained = context.wf
        measures = context.measures
    else:
        subtable = table.filter(cover_mask(parent, table)) if not parent.is_trivial else table
        lifted: WeightFunction = MergedWeight(wf, parent) if not parent.is_trivial else wf
        constrained = StarConstrainedWeight(lifted, column)
        measures = tuple_measures(subtable, measure)
        context = SearchContext(
            subtable, constrained, mw, measures=measures,
            max_rule_size=max_rule_size, prune=prune,
        )
        context.source = table
        context.tag = tag
    result = brs(
        subtable,
        constrained,
        k,
        mw,
        measures=measures,
        max_rule_size=max_rule_size,
        prune=prune,
        context=context,
    )
    merged = _merge_with_parent(result.rules, parent)
    rule_list = RuleList(merged, subtable, wf, measures)
    return DrillDownResult(
        parent=parent,
        rule_list=rule_list,
        subtable_rows=subtable.n_rows,
        stats=result.stats,
        context=context,
    )


def traditional_drilldown(
    table: Table,
    parent: Rule,
    column: int | str,
    *,
    measure: str | None = None,
    k: int | None = None,
    via_brs: bool = False,
    wf: WeightFunction | None = None,
) -> DrillDownResult:
    """Classic OLAP drill-down on one column (Section 5.1, Figure 4).

    Lists one super-rule of ``parent`` per distinct value of
    ``column`` among the covered tuples, ordered by descending count.
    ``k`` optionally truncates the list (the paper's point is precisely
    that traditional drill-down has no good truncation).

    With ``via_brs=True`` the result is computed through BRS with a
    :class:`~repro.core.weights.ColumnIndicatorWeight` — the Section
    5.1 equivalence — which tests use to cross-validate the fast path.
    """
    if isinstance(column, str):
        column = table.schema.index_of(column)
    if not parent.is_star(column):
        raise RuleError(f"parent rule already instantiates column {column}")
    subtable = table.filter(cover_mask(parent, table)) if not parent.is_trivial else table
    col = subtable.categorical(column)
    n_values = int((col.counts() > 0).sum())
    limit = n_values if k is None else min(k, n_values)

    if via_brs:
        indicator = ColumnIndicatorWeight(column)
        measures = tuple_measures(subtable, measure)
        result = brs(subtable, indicator, limit, 1.0, measures=measures, max_rule_size=1)
        merged = _merge_with_parent(result.rules, parent)
        rule_list = RuleList(merged, subtable, wf or indicator, measures)
        return DrillDownResult(parent, rule_list, subtable.n_rows, result.stats)

    measures = tuple_measures(subtable, measure)
    weights = np.bincount(col.codes, weights=measures, minlength=col.distinct_count)
    order = np.argsort(-weights, kind="stable")
    rules = [
        parent.with_value(column, col.decode(int(code)))
        for code in order[:limit]
        if weights[code] > 0
    ]
    display_wf = wf or ColumnIndicatorWeight(column)
    rule_list = RuleList(rules, subtable, display_wf, measures)
    return DrillDownResult(parent, rule_list, subtable.n_rows, SearchStats())
