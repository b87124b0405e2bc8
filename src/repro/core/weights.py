"""Weighting functions ``W(r)`` for rules (paper Sections 2.2 and 6.1).

A weighting function scores how *descriptive* a rule is, independently
of how many tuples it covers.  The paper requires two properties, which
:func:`validate_weight_function` checks empirically:

* **Non-negativity** — ``W(r) >= 0`` for all rules;
* **Monotonicity** — if ``r1`` is a sub-rule of ``r2`` then
  ``W(r1) <= W(r2)``.

All built-in functions depend only on *which* columns a rule
instantiates (not on the values), which the class hierarchy encodes via
:class:`ColumnSetWeight`; the search engine exploits this (through
:meth:`WeightFunction.column_set_weight`, which the drill-down wrappers
lift) to evaluate weights per candidate column set instead of per rule.

Built-ins:

* :class:`SizeWeight` — ``W(r) = size(r)``;
* :class:`BitsWeight` — ``W(r) = Σ_c ceil(log2 |c|)`` over instantiated
  columns;
* :class:`SizeMinusOneWeight` — ``W(r) = max(0, size(r) − 1)``
  (the paper's Figure 7 weighting; the text's ``Min`` is a typo, as a
  ``Min`` would be non-positive and constant-0 only at sizes 0–1);
* :class:`ParametricWeight` — the Section 6.1 family
  ``W(r) = (Σ_c o_{r,c} · w_c)^k``;
* :class:`ColumnIndicatorWeight` — 1 iff a designated column is
  instantiated (turns smart drill-down into *traditional* drill-down,
  Section 5.1);
* :class:`StarConstrainedWeight` — zeroes any rule leaving a designated
  column starred (the star drill-down reduction of Section 3.1);
* :class:`CallableWeight` — adapter for user lambdas.
"""

from __future__ import annotations

import itertools
import math
from abc import ABC, abstractmethod
from typing import Callable, Hashable, Iterable, Sequence

import numpy as np

from repro.errors import WeightFunctionError
from repro.core.rule import Rule, STAR
from repro.table.table import Table

__all__ = [
    "WeightFunction",
    "ColumnSetWeight",
    "SizeWeight",
    "BitsWeight",
    "SizeMinusOneWeight",
    "ParametricWeight",
    "ColumnIndicatorWeight",
    "StarConstrainedWeight",
    "CallableWeight",
    "MergedWeight",
    "adjust_column_preference",
    "bits_per_column",
    "validate_weight_function",
]


class WeightFunction(ABC):
    """Abstract base: assigns a non-negative, monotonic weight to rules."""

    @abstractmethod
    def weight(self, rule: Rule) -> float:
        """Return ``W(rule)``."""

    def __call__(self, rule: Rule) -> float:
        return self.weight(rule)

    def key(self) -> Hashable:
        """A hashable value identifying this weighting as a function.

        Equal keys mean equal weights on every rule, so searches under
        key-equal weightings can share one candidate lattice
        (:func:`~repro.core.drilldown.drilldown_tag`).  The default is
        the instance itself, so an arbitrary weighting equals only
        itself; the built-ins return their class tag and parameters.
        """
        return self

    def max_weight(self, n_columns: int) -> float | None:
        """Largest weight any rule over ``n_columns`` columns can attain.

        Used to sanity-check user-chosen ``mw``.  ``None`` when no
        finite bound is known (arbitrary callables).
        """
        return None

    def column_set_weight(self) -> Callable[[tuple[int, ...]], float] | None:
        """``W`` as a function of the instantiated column set, when it is one.

        The callable takes the table-column indexes in ascending order.
        ``None`` (the default) means the weight depends on values, and
        the search engine weighs every candidate rule on its own.
        """
        return None


class ColumnSetWeight(WeightFunction):
    """A weight function that depends only on the instantiated column set.

    Subclasses implement :meth:`weight_of_columns`; the rule-level
    weight delegates to it.  Monotonicity then reduces to set
    monotonicity of ``weight_of_columns``.
    """

    @abstractmethod
    def weight_of_columns(self, columns: tuple[int, ...]) -> float:
        """Return the weight of any rule instantiating exactly ``columns``."""

    def weight(self, rule: Rule) -> float:
        return self.weight_of_columns(rule.instantiated_indexes)

    def column_set_weight(self) -> Callable[[tuple[int, ...]], float]:
        return self.weight_of_columns


class SizeWeight(ColumnSetWeight):
    """``W(r) = size(r)`` — the paper's default Size weighting.

    The score of a rule-list under Size weighting equals the number of
    table cells "pre-filled" when reconstructing the table from the
    rules (Section 2.2).
    """

    def key(self) -> Hashable:
        return ("size",)

    def weight_of_columns(self, columns: tuple[int, ...]) -> float:
        return float(len(columns))

    def max_weight(self, n_columns: int) -> float:
        return float(n_columns)

    def __repr__(self) -> str:
        return "SizeWeight()"


def bits_per_column(table: Table) -> tuple[float, ...]:
    """``ceil(log2 |c|)`` for every column of ``table``.

    Numeric (measure) columns get weight 0 — they are never
    instantiated by the miner.
    """
    bits: list[float] = []
    for idx in range(table.n_columns):
        if idx in table.schema.categorical_indexes:
            distinct = table.categorical(idx).distinct_count
            bits.append(float(math.ceil(math.log2(distinct))) if distinct > 1 else 0.0)
        else:
            bits.append(0.0)
    return tuple(bits)


class BitsWeight(ColumnSetWeight):
    """``W(r) = Σ_{c instantiated} ceil(log2 |c|)`` (paper Section 2.2).

    Weighs each column by its inherent complexity: instantiating a
    column with many distinct values conveys more information than a
    binary column.  Construct via :meth:`for_table` or with explicit
    per-column bit counts.
    """

    def __init__(self, column_bits: Sequence[float]):
        bits = tuple(float(b) for b in column_bits)
        if any(b < 0 for b in bits):
            raise WeightFunctionError("column bit weights must be non-negative")
        self._bits = bits

    @classmethod
    def for_table(cls, table: Table) -> "BitsWeight":
        """Derive per-column bits from the table's dictionary sizes."""
        return cls(bits_per_column(table))

    @property
    def column_bits(self) -> tuple[float, ...]:
        return self._bits

    def key(self) -> Hashable:
        return ("bits", self._bits)

    def weight_of_columns(self, columns: tuple[int, ...]) -> float:
        return float(sum(self._bits[c] for c in columns))

    def max_weight(self, n_columns: int) -> float:
        return float(sum(self._bits))

    def __repr__(self) -> str:
        return f"BitsWeight({list(self._bits)})"


class SizeMinusOneWeight(ColumnSetWeight):
    """``W(r) = max(0, size(r) − 1)`` (the Figure 7 weighting).

    Gives zero weight to single-column rules, forcing the optimiser to
    surface rules instantiating at least two columns.
    """

    def key(self) -> Hashable:
        return ("size_minus_one",)

    def weight_of_columns(self, columns: tuple[int, ...]) -> float:
        return float(max(0, len(columns) - 1))

    def max_weight(self, n_columns: int) -> float:
        return float(max(0, n_columns - 1))

    def __repr__(self) -> str:
        return "SizeMinusOneWeight()"


class ParametricWeight(ColumnSetWeight):
    """The Section 6.1 family ``W(r) = (Σ_c o_{r,c} · w_c)^k``.

    ``w_c`` are non-negative per-column weights and ``k >= 0`` an
    exponent.  ``Size`` is ``w_c = 1, k = 1``; ``Bits`` is
    ``w_c = ceil(log2 |c|), k = 1``.  Larger ``k`` favours rules that
    instantiate more columns (Section 6.1 shows how to pick ``k`` for a
    target instantiated fraction).
    """

    def __init__(self, column_weights: Sequence[float], exponent: float = 1.0):
        weights = tuple(float(w) for w in column_weights)
        if any(w < 0 for w in weights):
            raise WeightFunctionError("column weights must be non-negative")
        if exponent < 0:
            raise WeightFunctionError("exponent must be non-negative")
        self._weights = weights
        self._exponent = float(exponent)

    @property
    def column_weights(self) -> tuple[float, ...]:
        return self._weights

    @property
    def exponent(self) -> float:
        return self._exponent

    def key(self) -> Hashable:
        return ("parametric", self._weights, self._exponent)

    def weight_of_columns(self, columns: tuple[int, ...]) -> float:
        base = sum(self._weights[c] for c in columns)
        return float(base**self._exponent) if base > 0 else 0.0

    def max_weight(self, n_columns: int) -> float:
        return float(sum(self._weights) ** self._exponent)

    def __repr__(self) -> str:
        return f"ParametricWeight({list(self._weights)}, k={self._exponent})"


class ColumnIndicatorWeight(ColumnSetWeight):
    """``W(r) = 1`` iff column ``column`` is instantiated, else 0.

    With ``k`` set to the column's distinct count, BRS under this
    weighting reproduces a *traditional* drill-down on the column
    (Section 5.1): every displayed rule instantiates the column with a
    distinct value.
    """

    def __init__(self, column: int):
        if column < 0:
            raise WeightFunctionError("column index must be non-negative")
        self._column = column

    @property
    def column(self) -> int:
        return self._column

    def key(self) -> Hashable:
        return ("column", self._column)

    def weight_of_columns(self, columns: tuple[int, ...]) -> float:
        return 1.0 if self._column in columns else 0.0

    def max_weight(self, n_columns: int) -> float:
        return 1.0

    def __repr__(self) -> str:
        return f"ColumnIndicatorWeight(column={self._column})"


class StarConstrainedWeight(WeightFunction):
    """Zero out rules that leave ``column`` starred (Section 3.1).

    Star drill-down on column ``c`` of rule ``r`` reduces to an
    unconstrained drill-down with the weight function ``W'`` where
    ``W'(r') = 0`` if ``r'`` stars ``c`` and ``W'(r') = W(r')``
    otherwise.  ``W'`` inherits monotonicity from ``W``.
    """

    def __init__(self, base: WeightFunction, column: int):
        if column < 0:
            raise WeightFunctionError("column index must be non-negative")
        self._base = base
        self._column = column

    @property
    def base(self) -> WeightFunction:
        return self._base

    @property
    def column(self) -> int:
        return self._column

    def key(self) -> Hashable:
        return ("star", self._base.key(), self._column)

    def weight(self, rule: Rule) -> float:
        if rule.is_star(self._column):
            return 0.0
        return self._base.weight(rule)

    def column_set_weight(self) -> Callable[[tuple[int, ...]], float] | None:
        inner = self._base.column_set_weight()
        if inner is None:
            return None
        column = self._column
        return lambda columns: inner(columns) if column in columns else 0.0

    def max_weight(self, n_columns: int) -> float | None:
        return self._base.max_weight(n_columns)

    def __repr__(self) -> str:
        return f"StarConstrainedWeight({self._base!r}, column={self._column})"


class MergedWeight(WeightFunction):
    """Score a rule as its merge with a fixed parent rule (Section 3.1).

    Rule drill-down on ``r'`` filters the table to ``T_{r'}`` and then
    solves Problem 2 — but the displayed rules are super-rules of
    ``r'``.  On the filtered table, instantiating ``r'``'s columns is
    free (every tuple matches), so the faithful reduction scores each
    candidate ``r`` as ``W(merge(r, r'))``.  Monotone in ``r`` whenever
    ``W`` is monotone, and a column-set function whenever ``W`` is
    (the merged column set is the union with the parent's).

    Only meaningful on ``T_{r'}``: the search engines do not enumerate
    the parent's columns, and raise :class:`~repro.errors.RuleError`
    if one of them holds two values in the mined table.
    """

    def __init__(self, base: WeightFunction, parent: Rule):
        self._base = base
        self._parent = parent

    @property
    def base(self) -> WeightFunction:
        return self._base

    @property
    def parent(self) -> Rule:
        return self._parent

    def key(self) -> Hashable:
        return ("merged", self._base.key(), self._parent)

    def weight(self, rule: Rule) -> float:
        merged = rule.merge(self._parent)
        if merged is None:
            # A candidate conflicting with the parent covers nothing on
            # the filtered table; weight it as the candidate alone.
            return self._base.weight(rule)
        return self._base.weight(merged)

    def column_set_weight(self) -> Callable[[tuple[int, ...]], float] | None:
        inner = self._base.column_set_weight()
        if inner is None:
            return None
        parent = frozenset(self._parent.instantiated_indexes)
        return lambda columns: inner(tuple(sorted(parent.union(columns))))

    def max_weight(self, n_columns: int) -> float | None:
        return self._base.max_weight(n_columns)

    def __repr__(self) -> str:
        return f"MergedWeight({self._base!r}, parent={self._parent!r})"


class CallableWeight(WeightFunction):
    """Adapter wrapping an arbitrary ``rule -> float`` callable.

    The callable must satisfy the non-negativity and monotonicity
    contracts; use :func:`validate_weight_function` to spot-check.
    """

    def __init__(self, fn: Callable[[Rule], float], *, name: str = "user"):
        self._fn = fn
        self._name = name

    def weight(self, rule: Rule) -> float:
        value = float(self._fn(rule))
        if value < 0:
            raise WeightFunctionError(
                f"weight function {self._name!r} returned negative weight {value} for {rule}"
            )
        return value

    def __repr__(self) -> str:
        return f"CallableWeight({self._name!r})"


def adjust_column_preference(
    wf: WeightFunction, column: int, factor: float, n_columns: int
) -> WeightFunction:
    """Scale one column's weight contribution by ``factor`` (§6.1).

    The paper's UI lets the user "express interest or disinterest in
    certain columns by telling the system to favor or ignore those
    columns"; internally the weight given to rules instantiating the
    column is raised or lowered.  ``factor = 0`` ignores the column
    entirely; ``factor > 1`` favours it.

    Supported bases: Size (promoted to the parametric family), Bits,
    and Parametric weightings.  Raises
    :class:`~repro.errors.WeightFunctionError` for other weight
    functions, whose column contributions are not separable.
    """
    if factor < 0:
        raise WeightFunctionError("preference factor must be non-negative")
    if not 0 <= column < n_columns:
        raise WeightFunctionError(f"column index {column} out of range")
    if isinstance(wf, SizeWeight):
        weights = [1.0] * n_columns
        weights[column] = factor
        return ParametricWeight(weights, exponent=1.0)
    if isinstance(wf, BitsWeight):
        bits = list(wf.column_bits)
        bits[column] *= factor
        return BitsWeight(bits)
    if isinstance(wf, ParametricWeight):
        weights = list(wf.column_weights)
        weights[column] *= factor
        return ParametricWeight(weights, exponent=wf.exponent)
    raise WeightFunctionError(
        f"column preferences are not supported for {type(wf).__name__}"
    )


def validate_weight_function(
    wf: WeightFunction,
    table: Table,
    *,
    trials: int = 200,
    rng: np.random.Generator | None = None,
) -> None:
    """Empirically check non-negativity and monotonicity of ``wf``.

    Draws random rules from the table's value domains and compares each
    against random sub-rules.  Raises
    :class:`~repro.errors.WeightFunctionError` on the first
    counter-example found.  Passing is necessary but (being sampled)
    not sufficient for correctness.
    """
    rng = rng or np.random.default_rng(0)
    cat_idx = table.schema.categorical_indexes
    if not cat_idx or table.n_rows == 0:
        return
    for _ in range(trials):
        n_fixed = int(rng.integers(0, len(cat_idx) + 1))
        fixed = list(rng.choice(cat_idx, size=n_fixed, replace=False)) if n_fixed else []
        values: dict[int, object] = {}
        for idx in fixed:
            col = table.categorical(int(idx))
            values[int(idx)] = col.decode(int(rng.integers(col.distinct_count)))
        rule = Rule.from_items(table.n_columns, values)
        w = wf.weight(rule)
        if w < 0:
            raise WeightFunctionError(f"negative weight {w} for rule {rule}")
        # Compare against every immediate sub-rule (one column re-starred).
        for idx in rule.instantiated_indexes:
            sub = rule.with_star(idx)
            w_sub = wf.weight(sub)
            if w_sub > w + 1e-12:
                raise WeightFunctionError(
                    f"monotonicity violated: W({sub}) = {w_sub} > W({rule}) = {w}"
                )


def all_column_subsets(n_columns: int, max_size: int | None = None) -> Iterable[tuple[int, ...]]:
    """Yield all instantiated-column subsets up to ``max_size`` (testing aid)."""
    upper = n_columns if max_size is None else min(max_size, n_columns)
    for size in range(upper + 1):
        yield from itertools.combinations(range(n_columns), size)
