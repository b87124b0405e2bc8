"""Kept for benchmarks/e2e (its layers pass times both names): the
level-1 counting pass a cold root search pays.

A cold :class:`~repro.core.search_cache.SearchContext` builds its size-1
level with one :func:`~repro.core.parallel.count_parent_extensions` call
over the whole table at ``top == 0``.  These functions run exactly that
call, so the benchmark can time it apart from the search around it.
Nothing in the tier caches the result: the context store is the one
cross-session search cache.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.core.parallel import count_parent_extensions

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.core.weights import WeightFunction
    from repro.table.table import Table

__all__ = ["build_first_pick_cache", "extend_first_pick_cache"]


def build_first_pick_cache(table: "Table", wf: "WeightFunction", mw: float) -> list | None:
    """The level-1 ``(supported, counts, marginals)`` per categorical
    position at ``top == 0``, or ``None`` for a weighting outside the
    column-set family or a table with no categorical columns."""
    fast_weight = wf.column_set_weight()
    cat_positions = table.schema.categorical_indexes
    if fast_weight is None or not cat_positions:
        return None
    return count_parent_extensions(
        table.categorical_code_arrays(),
        range(len(cat_positions)),
        [table.categorical(idx).distinct_count for idx in cat_positions],
        [fast_weight((idx,)) for idx in cat_positions],
        None,
        np.zeros(table.n_rows, dtype=np.float64),
        None,
    )


def extend_first_pick_cache(cache, table: "Table", wf: "WeightFunction") -> list | None:
    """The same level-1 pass over ``table`` (an appended version); ``cache``
    is ignored."""
    return build_first_pick_cache(table, wf, 0.0)
