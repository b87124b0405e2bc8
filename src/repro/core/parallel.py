"""The counting primitive every search engine shares.

Interactive latency is dominated by the level-wise a-priori counting of
a search: for every surviving parent, two ``np.bincount`` passes per
extension column over the parent's covered rows.  This module holds the
one primitive that does that counting (:func:`count_parent_extensions`)
for every engine.

The counting primitive
----------------------

:func:`count_parent_extensions` counts one parent on any number of
columns.  Everything that depends on the parent alone is done once per
call: ``top`` (and, for Sum, the measures) is gathered over the
parent's rows once, and the gain vector ``m · max(W − top, 0)`` is
computed once per *distinct* extension weight, in place.  A column then
costs one gather of its codes plus the two bincounts.  For Count
(``measures=None``) there is no measure gather or multiply at all and
Counts come from an unweighted integer bincount.
:func:`count_extensions_kernel` is its one-column case and
:func:`count_tasks` regroups per-column :class:`CountTask` lists by
parent for it; both are kept for the callers outside the engines.

Clients
-------

* :class:`~repro.core.marginal._Searcher` counts each surviving parent
  as soon as it reaches it, so the pruning threshold tightens before
  the next parent's bound check.
* :class:`~repro.core.search_cache.SearchContext` counts its size-1
  build and every frontier expansion, one call per parent.
* The serving catalog's first-pick marginal cache
  (:mod:`repro.core.first_pick`) runs the level-1 pass once per
  ``(table, weighting, mw)`` at registration and serves that output
  read-only; shard workers rebuild the identical cache from their
  wire-decoded table copies — same primitive, same arrays, bit for bit.

Counting is never parallelised.  The paper's answer to a table too big
to mine exactly is §4 sampling, which the serving tier offers as
approximate expansions; a multi-process pool over shared memory was
measured at 0.59–1.07× serial on two cores and removed
(``docs/EXPERIMENTS.md``).  :class:`CountingPool` survives only as an
in-process compatibility name.

Bit-identical results
---------------------

Counts/MarginalValues do not depend on how columns are grouped into
calls, and equal the per-(parent, column) kernel this primitive
replaced, because nothing that rounds differs: the element-wise
operations are the same IEEE operations on the same operands
(multiplying by 1.0 is the identity), every bincount bin folds its rows
left to right in row order, a row range is never split, and integer
Counts are exact in float64 below 2^53.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids an import cycle
    from repro.table.table import Table

__all__ = [
    "CountTask",
    "CountingBackend",
    "CountingPool",
    "count_extensions_kernel",
    "count_parent_extensions",
    "count_tasks",
    "nonunit_measures",
]


_Counted = tuple[np.ndarray, np.ndarray, np.ndarray]


def nonunit_measures(measures: np.ndarray) -> np.ndarray | None:
    """``measures``, or ``None`` when every tuple's measure is 1 (Count)
    — the form :func:`count_parent_extensions` takes them in."""
    return None if bool((measures == 1.0).all()) else measures


def count_parent_extensions(
    code_arrays: Sequence[np.ndarray],
    positions: Sequence[int],
    n_values: Sequence[int],
    weights: Sequence[float],
    measures: np.ndarray | None,
    top: np.ndarray,
    rows: np.ndarray | None,
) -> list[_Counted]:
    """Count all value extensions of one parent on several columns.

    The counting primitive shared by both engines and the first-pick
    precompute — keeping it in one place is what makes them
    bit-identical to one another (see the module docstring).  For the
    parent covering ``rows`` (``None`` means the whole table) and each
    column ``code_arrays[positions[i]]`` extended under the scalar
    fast-path weight ``weights[i]``, two bincounts over the parent's
    rows yield every value extension's

        Count(v)        = Σ_{t ∈ parent, t.c = v} m(t)
        MarginalVal(v)  = Σ_{t ∈ parent, t.c = v} m(t) · max(W − top(t), 0)

    ``measures=None`` means unit measures (Count).  Returns one
    ``(supported, counts, marginals)`` per position, where ``supported``
    holds the codes with positive Count and the other two arrays
    (float64) align to it.
    """
    if rows is None:
        t, m = top, measures
    else:
        t = np.take(top, rows)
        m = None if measures is None else np.take(measures, rows)
    out: list = [None] * len(positions)
    gains = current = None
    for i in sorted(range(len(positions)), key=weights.__getitem__):
        codes = code_arrays[positions[i]]
        c = codes if rows is None else np.take(codes, rows)
        if weights[i] != current:
            current = weights[i]
            if gains is None:  # one buffer per call; a scalar ``top`` broadcasts into it
                gains = np.empty(c.shape, dtype=np.float64)
            np.subtract(current, t, out=gains)
            np.maximum(gains, 0.0, out=gains)
            if m is not None:
                np.multiply(gains, m, out=gains)
        if m is None:
            counts = np.bincount(c, minlength=n_values[i])
        else:
            counts = np.bincount(c, weights=m, minlength=n_values[i])
        marginals = np.bincount(c, weights=gains, minlength=n_values[i])
        supported = np.nonzero(counts > 0)[0]
        # astype: integer Counts, and numpy's all-intp bincount of no rows.
        out[i] = (
            supported,
            counts[supported].astype(np.float64, copy=False),
            marginals[supported].astype(np.float64, copy=False),
        )
    return out


def count_extensions_kernel(
    codes: np.ndarray,
    measures: np.ndarray,
    top: np.ndarray,
    rows: np.ndarray | None,
    n_values: int,
    weight: float,
) -> _Counted:
    """Count all value extensions of one parent on one column.

    The one-column case of :func:`count_parent_extensions`, under its
    original name and signature.
    """
    return count_parent_extensions(
        (codes,), (0,), (n_values,), (weight,), measures, top, rows
    )[0]


@dataclass(frozen=True)
class CountTask:
    """One (parent, extension-column) counting unit.

    ``rows`` is the parent's covered-row index array, or ``None`` for
    the trivial (whole-table) parent; ``weight`` is the scalar fast-path
    weight shared by every value extension of this task.  ``task_id``
    is caller-chosen and echoed back so results can be matched to their
    tasks.
    """

    task_id: int
    pos: int
    n_values: int
    weight: float
    rows: np.ndarray | None


def count_tasks(
    code_arrays: Sequence[np.ndarray],
    measures: np.ndarray | None,
    top: np.ndarray,
    tasks: Sequence[CountTask],
) -> dict[int, _Counted]:
    """Count ``tasks``, one primitive call per distinct parent.

    Tasks extend the same parent when they share one ``rows`` array
    (compared by identity; ``None`` is the whole table).
    """
    parents: dict[int | None, list[CountTask]] = {}
    for task in tasks:
        parents.setdefault(None if task.rows is None else id(task.rows), []).append(task)
    results: dict[int, _Counted] = {}
    for group in parents.values():
        counted = count_parent_extensions(
            code_arrays,
            [t.pos for t in group],
            [t.n_values for t in group],
            [t.weight for t in group],
            measures,
            top,
            group[0].rows,
        )
        for task, result in zip(group, counted):
            results[task.task_id] = result
    return results


# -- compatibility names -----------------------------------------------------------


@dataclass
class CountingBackend:
    """What :meth:`CountingPool.backend_for` returns: :func:`count_tasks`
    over one table, in the calling thread, at the ``top`` of :meth:`set_top`."""

    codes: list[np.ndarray]
    measures: np.ndarray | None
    top: np.ndarray | None = None

    def set_top(self, top: np.ndarray) -> None:
        self.top = np.asarray(top, dtype=np.float64)

    def count_batch(self, tasks: Sequence[CountTask]) -> dict[int, _Counted]:
        return count_tasks(self.codes, self.measures, self.top, tasks)

    def count_columns(self, specs: Sequence[tuple[int, int, float]]) -> dict[int, _Counted]:
        """Whole-table extensions for ``(pos, n_values, weight)`` specs, keyed by ``pos``."""
        return self.count_batch([CountTask(pos, pos, n, w, None) for pos, n, w in specs])


class CountingPool:
    """A compatibility name, not a pool: ``n_workers`` is ignored and
    every backend counts in the calling process."""

    def __init__(self, n_workers: int | None = None):
        pass

    def backend_for(self, table: "Table", measures: np.ndarray | None = None) -> CountingBackend:
        if measures is not None:
            measures = nonunit_measures(np.asarray(measures, dtype=np.float64))
        return CountingBackend(list(table.categorical_code_arrays()), measures)

    def close(self) -> None:
        pass

    def __enter__(self) -> "CountingPool":
        return self

    def __exit__(self, *exc) -> None:
        pass
