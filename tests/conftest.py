"""Shared fixtures: small deterministic tables and cached paper datasets."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import (
    MergedWeight,
    RuleList,
    StarConstrainedWeight,
    cover_mask,
    reference_brs,
    sort_rules_by_weight,
    tuple_measures,
)
from repro.datasets import generate_census, generate_marketing, generate_retail
from repro.table import Schema, Table


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(0)


@pytest.fixture
def tiny_table() -> Table:
    """A hand-written 8-row, 3-column table with known counts.

    Value layout (a appears 5×, b 4×, x 4×, (a, x) 3×, (a, x, p) 2×):

        A  B  C
        a  x  p
        a  x  p
        a  x  q
        a  y  q
        a  z  q
        b  x  p
        b  y  q
        b  z  r
    """
    rows = [
        ("a", "x", "p"),
        ("a", "x", "p"),
        ("a", "x", "q"),
        ("a", "y", "q"),
        ("a", "z", "q"),
        ("b", "x", "p"),
        ("b", "y", "q"),
        ("b", "z", "r"),
    ]
    return Table.from_rows(Schema.categorical(["A", "B", "C"]), rows)


@pytest.fixture
def measure_table() -> Table:
    """A table with a numeric Sales measure for Sum-aggregate tests."""
    data = {
        "Store": ["W", "W", "T", "T", "T", "C"],
        "Item": ["x", "y", "x", "x", "y", "z"],
        "Sales": [10.0, 20.0, 5.0, 5.0, 30.0, 1.0],
    }
    return Table.from_dict(data)


@pytest.fixture(scope="session")
def retail() -> Table:
    return generate_retail()


@pytest.fixture(scope="session")
def marketing() -> Table:
    return generate_marketing()


@pytest.fixture(scope="session")
def marketing7(marketing: Table) -> Table:
    return marketing.select(
        ["Income", "Sex", "MaritalStatus", "Age", "Education", "Occupation", "TimeInBayArea"]
    )


@pytest.fixture(scope="session")
def census_small() -> Table:
    """A small synthetic Census slice (fast enough for unit tests)."""
    return generate_census(20_000, n_columns=7)


def random_table(
    rng: np.random.Generator,
    n_rows: int = 30,
    n_columns: int = 3,
    domain: int = 3,
) -> Table:
    """A uniform random categorical table (helper for property tests)."""
    names = [f"c{i}" for i in range(n_columns)]
    rows = [
        tuple(f"v{rng.integers(domain)}" for _ in range(n_columns)) for _ in range(n_rows)
    ]
    return Table.from_rows(Schema.categorical(names), rows)


def reference_drilldown(
    table, parent, wf, k, mw, *, column=None, measure=None, max_rule_size=None
):
    """A drill-down computed by the reference search.

    :func:`reference_brs` on ``T_parent`` under the lifted weight, from
    the drill-down's seed ``top`` (the parent's weight for a rule
    drill-down, nothing for a star drill-down on ``column``).  Returns
    ``(picks, rule_list, seed)``: the reference's picks, the merged,
    deduplicated and weight-sorted rule list a drill-down displays, and
    the seed it started from.
    """
    subtable = table.filter(cover_mask(parent, table)) if not parent.is_trivial else table
    lifted = MergedWeight(wf, parent) if not parent.is_trivial else wf
    seed = np.full(subtable.n_rows, wf.weight(parent))
    if column is not None:
        lifted, seed = StarConstrainedWeight(lifted, column), None
    measures = tuple_measures(subtable, measure)
    picks = reference_brs(
        subtable, lifted, k, mw, measures=measures, max_rule_size=max_rule_size,
        initial_top=seed,
    )
    merged = []
    for rule in sort_rules_by_weight([p.rule for p in picks], lifted):
        if rule.merge(parent) not in merged:
            merged.append(rule.merge(parent))
    return picks, RuleList(merged, subtable, wf, measures), seed
