"""Row arrays are stored in the context's row dtype, and counted in bytes.

``SearchContext`` holds one covered-row index array per materialised
candidate; those arrays are most of what a search lattice (and the
serving tier's context store) holds.  They are ``int32`` for any table
under 2**31 rows, at every depth and on every path that makes one, and
:meth:`SearchContext.nbytes` counts each distinct array once.  The
assertions are on dtypes, counts and bytes only.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import BitsWeight, CallableWeight, SizeWeight, brs, rule_drilldown
from repro.core.search_cache import CANDIDATE_NBYTES, SearchContext
from repro.datasets import generate_census


@pytest.fixture(scope="module")
def census():
    return generate_census(20_000, n_columns=6, seed=1990)


def _arrays(context: SearchContext) -> dict[int, np.ndarray]:
    """Every distinct row array the context references, by identity."""
    arrays = {}
    for cand in context._cands.values():
        for rows in (cand.rows, cand.parent_rows):
            if rows is not None:
                arrays[id(rows)] = rows
    return arrays


def _materialised_depths(context: SearchContext) -> dict[int, set[str]]:
    """Rule size -> dtype names of the candidates' materialised rows."""
    depths: dict[int, set[str]] = {}
    for key, cand in context._cands.items():
        if cand.rows is not None:
            depths.setdefault(len(key), set()).add(cand.rows.dtype.name)
    return depths


def _assert_row_dtype(context: SearchContext) -> None:
    assert context._row_dtype == np.int32
    assert {a.dtype.name for a in _arrays(context).values()} == {"int32"}
    if context.last_rows is not None:
        assert context.last_rows.dtype == np.int32


class TestRowDtype:
    def test_every_depth_of_a_root_lattice(self, census):
        context = SearchContext(census, SizeWeight(), 5.0)
        brs(census, SizeWeight(), 4, 5.0, context=context)
        _assert_row_dtype(context)
        depths = _materialised_depths(context)
        # Level 1 (from the trivial parent) and the deeper filters.
        assert {1, 2, 3} <= set(depths)
        assert all(names == {"int32"} for names in depths.values())

    def test_leased_clone_after_it_expands(self, census):
        prototype = SearchContext(census, SizeWeight(), 5.0)
        brs(census, SizeWeight(), 1, 5.0, context=prototype)
        before = len(_arrays(prototype))
        clone = prototype.clone()
        brs(census, SizeWeight(), 5, 5.0, context=clone)
        assert clone.total_stats.parents_extended > 0
        assert len(_arrays(clone)) > before
        _assert_row_dtype(clone)
        _assert_row_dtype(prototype)

    def test_value_dependent_path_under_bits(self, census):
        bits = BitsWeight.for_table(census)
        wf = CallableWeight(bits.weight, name="bits")
        context = SearchContext(census, wf, 8.0)
        assert context.fast_weight is None  # _generate_slow counts every level
        brs(census, wf, 3, 8.0, context=context)
        _assert_row_dtype(context)
        assert set(_materialised_depths(context)) >= {1, 2}

    def test_drill_down_lattice(self, census):
        root = brs(census, SizeWeight(), 2, 5.0)
        child = rule_drilldown(census, root.rules[-1], SizeWeight(), 3, 5.0)
        _assert_row_dtype(child.context)


class TestNbytes:
    def test_root_lattice_row_bytes_are_pinned(self, census):
        context = SearchContext(census, SizeWeight(), 5.0)
        brs(census, SizeWeight(), 4, 5.0, context=context)
        arrays = _arrays(context)
        lengths = sum(a.size for a in arrays.values())
        # 127 distinct arrays, the trivial parent's 20 000 rows among them.
        assert (len(arrays), lengths, context.cached_candidates) == (127, 269_295, 1_561)
        assert context.nbytes() == 4 * lengths + CANDIDATE_NBYTES * context.cached_candidates

    def test_clone_holds_the_same_bytes(self, census):
        context = SearchContext(census, SizeWeight(), 5.0)
        brs(census, SizeWeight(), 3, 5.0, context=context)
        clone = context.clone()
        assert clone.nbytes() == context.nbytes()
        assert _arrays(clone).keys() == _arrays(context).keys()  # shared, not copied

    def test_empty_context(self, census):
        assert SearchContext(census, SizeWeight(), 5.0).nbytes() == 0
