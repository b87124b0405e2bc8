"""Pinned exploration counts of the incremental engine.

The e2e benchmark's ``core.search.*`` per-layer counts (``cache_hits``,
``lazy_skips``, ``rows_scanned``) are compared across commits, so a
change that makes counting *cheaper* must not quietly make the search
explore *differently*.  The literals below are what the engine
produced before counting was batched per parent (PR 16); a change that
moves them on purpose re-pins them and says so in CHANGES.md.
PR 19 moved ``CHILD_TOTALS`` (and only those): a drill-down's lattice
no longer enumerates the clicked rule's own, single-valued columns.
"""

from __future__ import annotations

import pytest

from repro.core import BitsWeight, SizeWeight, brs, rule_drilldown
from repro.datasets import generate_census

FIELDS = ("rows_scanned", "candidates_generated", "parents_extended", "cache_hits", "lazy_skips")

ROOT_PICKS = {
    "size": [
        (680035, 445, 21, 0, 0),
        (705973, 565, 31, 48, 397),
        (465383, 473, 30, 70, 940),
        (104768, 78, 6, 27, 1456),
    ],
    "bits": [
        (380312, 177, 8, 0, 0),
        (402763, 181, 8, 21, 126),
        (603007, 329, 16, 46, 272),
        (122067, 105, 5, 18, 523),
    ],
}
#: Totals of drilling into the last displayed root rule with k=3.
CHILD_TOTALS = {
    "size": (302702, 814, 39, 56, 894),
    "bits": (327702, 251, 13, 27, 72),
}


@pytest.fixture(scope="module")
def census():
    return generate_census(20_000, n_columns=6, seed=1990)


def _counts(stats):
    return tuple(getattr(stats, name) for name in FIELDS)


@pytest.mark.parametrize("weighting, mw", [("size", 5.0), ("bits", 8.0)])
def test_exploration_counts_are_pinned(census, weighting, mw):
    wf = SizeWeight() if weighting == "size" else BitsWeight.for_table(census)
    root = brs(census, wf, 4, mw)
    assert [_counts(pick.stats) for pick in root.picks] == ROOT_PICKS[weighting]
    child = rule_drilldown(census, root.rules[-1], wf, 3, mw)
    assert _counts(child.stats) == CHILD_TOTALS[weighting]
