"""Append-a-batch latency: incremental version maintenance vs re-register.

Before versioned tables the only way to grow a registered table was
``unregister`` + ``register`` with a freshly built table — a cold
rebuild of everything the catalog maintains per table: the
registration-time first-pick marginal cache and the §4.3 sample set.
``append_rows`` instead creates a new version whose level-1 marginals
are delta-folded in O(appended rows) and whose sample set rebuilds
lazily once.

This benchmark drives both maintenance strategies over the same
append schedule — a seeded categorical table growing by fixed batches
— and records per-batch latency for each arm.

Asserted (structurally — absolute numbers are machine-dependent):

* after every batch both arms hold **bit-identical first-pick
  vectors** (the incremental cache equals a cold build over the same
  rows) and identical sample sets;
* the incremental arm's marginals really took the delta path
  (``marginals_delta`` covers every batch);
* mean incremental append latency beats the full re-register arm.

A JSON perf record is written next to this file
(``BENCH_append_tables.json``).  Run via pytest
(``pytest benchmarks/bench_append_tables.py -m smoke``) or directly::

    PYTHONPATH=src python benchmarks/bench_append_tables.py [--smoke]

``--smoke`` shrinks the base table and the append schedule.
"""

from __future__ import annotations

import argparse
import json
import os
import time
from pathlib import Path

import numpy as np
import pytest

from repro.serving import TableCatalog
from repro.table import Schema, Table

RECORD_PATH = Path(__file__).resolve().parent / "BENCH_append_tables.json"
BASE_ROWS = 200_000
SMOKE_BASE_ROWS = 40_000
BATCH_ROWS = 2_000
SMOKE_BATCH_ROWS = 500
N_BATCHES = 8
SMOKE_BATCHES = 4
N_COLUMNS = 5
DOMAIN = 40
SAMPLE_BUDGET = 256
MW = 5.0
SEED = 7


def _make_rows(rng: np.random.Generator, n_rows: int) -> list:
    codes = rng.integers(DOMAIN, size=(n_rows, N_COLUMNS))
    return [tuple(f"v{c}" for c in row) for row in codes]


def _first_pick_vectors(catalog: TableCatalog, name: str) -> tuple:
    cache = catalog.marginals_for(name, "size", MW)
    assert cache is not None, "the size-weighting first-pick cache must exist"
    return tuple(
        None
        if entry is None
        else (entry[1].tobytes(), entry[2].tobytes(), entry[3].tobytes())
        for entry in cache.entries
    )


def _sample_key(catalog: TableCatalog, name: str) -> tuple:
    samples = catalog.samples_for(name)
    assert samples is not None
    return tuple(np.asarray(s.row_ids).tobytes() for s in samples.samples)


def run_benchmark(base_rows: int, batch_rows: int, n_batches: int) -> dict:
    rng = np.random.default_rng(SEED)
    schema = Schema.categorical([f"c{i}" for i in range(N_COLUMNS)])
    all_rows = _make_rows(rng, base_rows)
    batches = [_make_rows(rng, batch_rows) for _ in range(n_batches)]
    base = Table.from_rows(schema, all_rows)

    incremental = TableCatalog(sample_budget=SAMPLE_BUDGET, marginal_mw=MW)
    full = TableCatalog(sample_budget=SAMPLE_BUDGET, marginal_mw=MW)
    incremental_latencies: list[float] = []
    full_latencies: list[float] = []
    vectors_identical = samples_identical = True
    try:
        incremental.register("t", base)
        full.register("t", Table.from_rows(schema, all_rows))
        for batch in batches:
            start = time.perf_counter()
            incremental.append_rows("t", batch)
            incremental.samples_for("t")  # lazy rebuild is part of the cost
            incremental_latencies.append(time.perf_counter() - start)

            all_rows = all_rows + batch
            start = time.perf_counter()
            full.unregister("t")
            full.register("t", Table.from_rows(schema, all_rows))
            full.samples_for("t")
            full_latencies.append(time.perf_counter() - start)

            vectors_identical = vectors_identical and (
                _first_pick_vectors(incremental, "t")
                == _first_pick_vectors(full, "t")
            )
            samples_identical = samples_identical and (
                _sample_key(incremental, "t") == _sample_key(full, "t")
            )
        version_stats = incremental.version_stats()
    finally:
        incremental.close()
        full.close()

    def _arm(latencies: list[float]) -> dict:
        ordered = sorted(latencies)
        return {
            "batches": len(ordered),
            "mean_seconds": round(sum(ordered) / len(ordered), 6),
            "median_seconds": round(ordered[len(ordered) // 2], 6),
            "max_seconds": round(ordered[-1], 6),
        }

    mean_inc = sum(incremental_latencies) / len(incremental_latencies)
    mean_full = sum(full_latencies) / len(full_latencies)
    return {
        "workload": {
            "base_rows": base_rows,
            "batch_rows": batch_rows,
            "batches": n_batches,
            "columns": N_COLUMNS,
            "domain": DOMAIN,
            "sample_budget": SAMPLE_BUDGET,
            "marginal_mw": MW,
            "weighting": "size",
        },
        "cpu_count": os.cpu_count() or 1,
        "incremental_append": _arm(incremental_latencies),
        "full_reregister": _arm(full_latencies),
        "speedup": round(mean_full / mean_inc, 3),
        "marginals_delta": version_stats["marginals_delta"],
        "samples_lazy_rebuilt": version_stats["samples_lazy_rebuilt"],
        "identical_first_pick_vectors": vectors_identical,
        "identical_sample_sets": samples_identical,
        "recorded_at": time.strftime("%Y-%m-%dT%H:%M:%S"),
    }


def write_record(record: dict) -> None:
    RECORD_PATH.write_text(json.dumps(record, indent=2) + "\n")


def check_record(record: dict) -> None:
    n_batches = record["workload"]["batches"]
    assert record["identical_first_pick_vectors"], (
        "incremental first-pick vectors diverged from the cold build"
    )
    assert record["identical_sample_sets"], (
        "incrementally maintained sample sets diverged from the cold build"
    )
    assert record["marginals_delta"] == n_batches, (
        f"only {record['marginals_delta']}/{n_batches} appends took the "
        "marginal delta path"
    )
    mean_inc = record["incremental_append"]["mean_seconds"]
    mean_full = record["full_reregister"]["mean_seconds"]
    assert mean_inc < mean_full, (
        f"incremental append ({mean_inc * 1000:.2f} ms/batch) did not beat "
        f"full re-registration ({mean_full * 1000:.2f} ms/batch)"
    )


@pytest.mark.smoke
def test_append_tables_bench():
    """Smoke: small base table, short append schedule."""
    record = run_benchmark(SMOKE_BASE_ROWS, SMOKE_BATCH_ROWS, SMOKE_BATCHES)
    write_record(record)
    print()
    print(
        f"BX append {record['workload']['batch_rows']} rows onto "
        f"{record['workload']['base_rows']}: incremental "
        f"{record['incremental_append']['mean_seconds'] * 1000:.2f} ms/batch "
        f"vs re-register "
        f"{record['full_reregister']['mean_seconds'] * 1000:.2f} ms/batch "
        f"({record['speedup']}x)"
    )
    check_record(record)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke", action="store_true",
        help="smaller base table and append schedule (fast CI smoke run)",
    )
    args = parser.parse_args()
    record = run_benchmark(
        SMOKE_BASE_ROWS if args.smoke else BASE_ROWS,
        SMOKE_BATCH_ROWS if args.smoke else BATCH_ROWS,
        SMOKE_BATCHES if args.smoke else N_BATCHES,
    )
    write_record(record)
    print(json.dumps(record, indent=2))
    check_record(record)
    print(f"\nperf record written to {RECORD_PATH}")


if __name__ == "__main__":
    main()
