"""Shared first-pick marginal cache: registration-time level-1 precompute.

Every fresh :class:`~repro.core.search_cache.SearchContext` pays a full
level-wise scan for its *first* pick even though picks 2..k are nearly
free.  Tables in the serving catalog are registered once and shared by
every tenant, so the level-1 (single-column) count/marginal vectors are
the same for every cold session over the same ``(table, weighting,
mw)``.  This module precomputes them once and serves them read-only.

Bit-identity is the design constraint: the greedy operator must return
*provably identical* rule lists with or without the cache, and IEEE
floats are not distributive — ``weight * count`` is not always the same
float as the kernel's per-row gain accumulation.  So the cache stores
the *actual output* of :func:`~repro.core.parallel
.count_parent_extensions` run at the fixed base vector ``top == 0.0``,
and consumers use it only when their own ``top`` is elementwise equal
to that base (the cold first build; warmed searches fall back to the
normal scan).  Accumulation order matches too: ``np.bincount`` adds
weights in ascending row order, exactly like the cold pass.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.core.parallel import count_parent_extensions

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.core.weights import WeightFunction
    from repro.table.table import Table

__all__ = [
    "FirstPickCache",
    "build_first_pick_cache",
    "extend_first_pick_cache",
    "level1_weights",
]


def level1_weights(table: "Table", wf: "WeightFunction") -> list[float] | None:
    """The weight of a single-column rule at each categorical position.

    ``None`` when there is nothing to cache: a weighting outside the
    column-set family (its weight depends on values), or a table with
    no categorical columns.
    """
    fast_weight = wf.column_set_weight()
    cat_positions = table.schema.categorical_indexes
    if fast_weight is None or not cat_positions:
        return None
    return [fast_weight((idx,)) for idx in cat_positions]


class FirstPickCache:
    """Read-only level-1 marginals for one ``(table, weighting, mw)``.

    ``entries[pos]`` holds ``(weight, supported, counts, marginals)``
    for categorical position ``pos`` — the exact kernel output of the
    cold first pass at ``top == 0.0``.  Consumers key the cache by
    *identity* (``matches``): the same ``Table`` object and the same
    ``WeightFunction`` instance, so a re-registered (changed) table or
    a per-call derived weighting can never alias into stale marginals.

    Instances are shared across sessions and threads; the entries are
    immutable after construction and the counters are best-effort
    statistics.
    """

    def __init__(self, table: "Table", wf: "WeightFunction", mw: float, entries):
        self.table = table
        self.wf = wf
        self.mw = float(mw)
        self.entries = tuple(entries)
        # Best-effort counters, surfaced through catalog /stats.
        self.hits = 0
        self.misses = 0

    def matches(self, table: "Table", wf: "WeightFunction", mw: float) -> bool:
        """True when this cache is valid for a search over exactly
        ``(table, wf, mw)`` — identity on the objects, equality on mw."""
        return table is self.table and wf is self.wf and float(mw) == self.mw

    def level1(self, pos: int):
        """``(weight, supported, counts, marginals)`` for categorical
        position ``pos`` at the base ``top``."""
        return self.entries[pos]

    # -- statistics -------------------------------------------------------------

    def describe(self) -> dict:
        """Counter snapshot for the serving ``/stats`` surface."""
        return {
            "columns": len(self.entries),
            "mw": self.mw,
            "hits": self.hits,
            "misses": self.misses,
        }


def build_first_pick_cache(
    table: "Table", wf: "WeightFunction", mw: float
) -> FirstPickCache | None:
    """Build the level-1 cache for ``(table, wf, mw)``, or ``None``.

    ``None`` means the combination has nothing to cache (see
    :func:`level1_weights`).  The arrays come from the same
    :func:`~repro.core.parallel.count_parent_extensions` the engine's
    cold first pass calls (unit measures — the cache serves only
    Count searches — and ``top == 0.0``), so serving them is
    bit-identical to re-running the scan.
    """
    weights = level1_weights(table, wf)
    if weights is None:
        return None
    cat_positions = table.schema.categorical_indexes
    positions = range(len(cat_positions))
    counted = count_parent_extensions(
        table.categorical_code_arrays(),
        positions,
        [table.categorical(idx).distinct_count for idx in cat_positions],
        weights,
        None,
        np.zeros(table.n_rows, dtype=np.float64),
        None,
    )
    return FirstPickCache(
        table, wf, mw, [(weight, *result) for weight, result in zip(weights, counted)]
    )


def extend_first_pick_cache(
    cache: FirstPickCache,
    table: "Table",
    wf: "WeightFunction",
) -> FirstPickCache | None:
    """Delta-maintain ``cache`` onto ``table``, an appended version of
    the cache's table, in O(appended rows).

    The level-1 vectors are per-bin fold-left sums in ascending row
    order (that is how ``np.bincount`` accumulates).  The old entry
    already holds the fold over the prefix rows, and ``np.add.at``
    applies its updates unbuffered in index order, so folding only the
    appended rows on top reproduces the cold pass's IEEE accumulation
    order exactly — the returned cache's entries are bit-identical to
    ``build_first_pick_cache(table, wf, cache.mw)``.

    Returns ``None`` whenever the delta cannot be maintained and the
    caller must rebuild cold: a weighting outside the scalar
    column-set family, a per-position weight that changed between
    versions (e.g. a ``bits`` weighting over a dictionary that grew),
    or tables that do not stand in the dictionary-prefix append
    relation.
    """
    old = cache.table
    n_old = old.n_rows
    if table.n_rows < n_old or table.schema != old.schema:
        return None
    weights = level1_weights(table, wf)
    if weights is None or len(cache.entries) != len(weights):
        return None
    cat_positions = table.schema.categorical_indexes
    codes = table.categorical_code_arrays()
    old_codes = old.categorical_code_arrays()
    for pos, idx in enumerate(cat_positions):
        old_col = old.categorical(idx)
        if table.categorical(idx).values[: old_col.distinct_count] != old_col.values:
            return None
        if not np.array_equal(codes[pos][:n_old], old_codes[pos]):
            return None
    entries = []
    for pos, (idx, weight) in enumerate(zip(cat_positions, weights)):
        old_entry = cache.entries[pos]
        if old_entry is None or old_entry[0] != weight:
            return None
        _weight, old_supported, old_counts, old_marginals = old_entry
        n_values = table.categorical(idx).distinct_count
        counts = np.zeros(n_values, dtype=np.float64)
        marginals = np.zeros(n_values, dtype=np.float64)
        counts[old_supported] = old_counts
        marginals[old_supported] = old_marginals
        tail = codes[pos][n_old:]
        # Cold per-row values at the base vector: measures are all-ones
        # and top == 0.0, so every appended row adds 1.0 to its count
        # bin and max(weight - 0.0, 0.0) * 1.0 to its marginal bin.
        np.add.at(counts, tail, np.ones(tail.size, dtype=np.float64))
        gain = float(np.maximum(weight - 0.0, 0.0) * 1.0)
        np.add.at(marginals, tail, np.full(tail.size, gain, dtype=np.float64))
        supported = np.nonzero(counts > 0)[0]
        entries.append((weight, supported, counts[supported], marginals[supported]))
    return FirstPickCache(table, wf, cache.mw, entries)
