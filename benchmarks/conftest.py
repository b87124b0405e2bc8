"""Shared benchmark fixtures: paper datasets cached per session.

The benchmark suite regenerates every table and figure of the paper's
evaluation (Section 5); dataset sizes are laptop-scaled (DESIGN.md §3)
but every curve's *shape* matches the paper, which the benchmarks
assert alongside timing.

Smoke mode — ``pytest benchmarks/bench_*.py -m smoke`` — selects the
fast subset that emits the committed ``BENCH_*.json`` perf records.
That covers the engine bench (incremental search) *and* the serving
tier, e.g. ``bench_persistence.py`` (checkpoint/warm restart).  The
``smoke`` marker is registered in the repo-root ``pytest.ini``; the
registration below keeps ``pytest`` runs rooted inside ``benchmarks/``
warning-free too.
"""

from __future__ import annotations

import pytest

from repro.datasets import generate_census, generate_marketing, generate_retail
from repro.experiments import MARKETING_7_COLUMNS


def pytest_configure(config):
    config.addinivalue_line(
        "markers",
        "smoke: fast benchmark subset (<60 s): the bench_*.py members (run by name) "
        "emit BENCH_*.json perf records; benchmarks/e2e/test_e2e_smoke.py is part of "
        "the tier-1 run",
    )

#: Census rows used by the benchmark suite (full paper scale is 2.5M;
#: this keeps a full benchmark run in minutes while preserving shapes).
CENSUS_BENCH_ROWS = 100_000


@pytest.fixture(scope="session")
def retail():
    return generate_retail()


@pytest.fixture(scope="session")
def marketing7():
    return generate_marketing().select(list(MARKETING_7_COLUMNS))


@pytest.fixture(scope="session")
def census():
    return generate_census(CENSUS_BENCH_ROWS, n_columns=7)
