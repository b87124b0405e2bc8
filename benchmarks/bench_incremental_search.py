"""Incremental search engine: first-pick vs later-pick latency + speedup.

The §6.1 interactivity claim ("display as many rules as we can find
within a 5-second limit") depends on the latency of repeated
best-marginal-rule searches.  This benchmark times the k=10 greedy on
the census workload and records:

* per-pick latency for the incremental engine — the first pick builds
  the candidate cache, later picks are CELF heap re-evaluations;
* the speedup of one context kept across the greedy over the
  from-scratch greedy (a cold ``SearchContext`` per pick), asserted ≥ 3×;
* exact equality of both greedies' picks with ``reference_brs``.

A JSON perf record is written next to this file
(``BENCH_incremental_search.json``) so future changes can track the
latency trajectory.  Run via pytest (the ``smoke`` marker selects it:
``pytest benchmarks/bench_incremental_search.py -m smoke``) or
directly::

    PYTHONPATH=src python benchmarks/bench_incremental_search.py [--smoke]

Both modes finish well under a minute; ``--smoke`` runs one repeat
instead of three.
"""

from __future__ import annotations

import argparse
import json
import time
from pathlib import Path

import numpy as np
import pytest

from repro.core import SearchContext, SizeWeight, brs, brs_iter, reference_brs
from repro.datasets import generate_census

RECORD_PATH = Path(__file__).resolve().parent / "BENCH_incremental_search.json"
CENSUS_ROWS = 100_000
N_COLUMNS = 7
K = 10
MW = 5.0
MIN_SPEEDUP = 3.0


def _cold_greedy(table) -> list:
    """The from-scratch greedy: a cold :class:`SearchContext` per pick."""
    top, picks = np.zeros(table.n_rows), []
    while len(picks) < K:
        context = SearchContext(table, SizeWeight(), MW)
        if (pick := context.find_best(top)) is None:
            break
        picks.append(pick)
        top[context.last_rows] = np.maximum(top[context.last_rows], pick.weight)
    return picks


def _time(run) -> float:
    start = time.perf_counter()
    run()
    return time.perf_counter() - start


def _per_pick_times(table) -> list[float]:
    """Latency of each greedy pick, streamed through :func:`brs_iter`."""
    times: list[float] = []
    stream = brs_iter(table, SizeWeight(), MW)
    while len(times) < K:
        start = time.perf_counter()
        result = next(stream, None)
        times.append(time.perf_counter() - start)
        if result is None:
            times.pop()
            break
    return times


def _tuples(picks) -> list[tuple]:
    return [(p.rule, p.weight, p.count, p.marginal) for p in picks]


def run_benchmark(table, repeats: int = 3) -> dict:
    """Time both greedies, check them against the reference, build the record."""
    cold = min(_time(lambda: _cold_greedy(table)) for _ in range(repeats))
    incremental = min(_time(lambda: brs(table, SizeWeight(), K, MW)) for _ in range(repeats))
    picks_cold = _cold_greedy(table)
    picks_lazy = brs(table, SizeWeight(), K, MW)
    reference = _tuples(reference_brs(table, SizeWeight(), K, MW))
    identical = _tuples(picks_cold) == reference == _tuples(picks_lazy.picks)
    per_pick = _per_pick_times(table)
    later = per_pick[1:] or [0.0]
    stats = ("rows_scanned", "candidates_generated", "cache_hits", "lazy_skips")
    return {
        "workload": dict(
            dataset="census", rows=table.n_rows, columns=N_COLUMNS, k=K, mw=MW,
            weighting="size", repeats=repeats,
        ),
        "cold_context_per_pick_seconds": round(cold, 6),
        "incremental_engine_seconds": round(incremental, 6),
        "speedup": round(cold / incremental, 3),
        "first_pick_seconds": round(per_pick[0], 6),
        "later_pick_mean_seconds": round(sum(later) / len(later), 6),
        "later_vs_first_ratio": round((sum(later) / len(later)) / per_pick[0], 4),
        "identical_to_reference": identical,
        "incremental_stats": {name: getattr(picks_lazy.stats, name) for name in stats},
        "cold_context_stats": {
            name: sum(getattr(p.stats, name) for p in picks_cold) for name in stats[:2]
        },
        "recorded_at": time.strftime("%Y-%m-%dT%H:%M:%S"),
    }


def write_record(record: dict) -> None:
    RECORD_PATH.write_text(json.dumps(record, indent=2) + "\n")


def check_record(record: dict) -> None:
    assert record["identical_to_reference"], "a greedy disagreed with the reference"
    assert record["speedup"] >= MIN_SPEEDUP, (
        f"incremental engine speedup {record['speedup']:.2f}x is below the {MIN_SPEEDUP}x "
        f"floor ({record['cold_context_per_pick_seconds']:.3f}s vs "
        f"{record['incremental_engine_seconds']:.3f}s)"
    )
    # Later picks must be much cheaper than the cache-building first pick.
    assert record["later_pick_mean_seconds"] < record["first_pick_seconds"]


@pytest.mark.smoke
def test_incremental_engine_speedup(census):
    """Smoke target: ≥3× on brs(k=10), identical rules, record emitted."""
    record = run_benchmark(census, repeats=1)
    write_record(record)
    print()
    print(
        f"BX incremental search: cold {record['cold_context_per_pick_seconds']*1000:.0f} ms, "
        f"incremental {record['incremental_engine_seconds']*1000:.0f} ms "
        f"({record['speedup']:.1f}x); first pick "
        f"{record['first_pick_seconds']*1000:.1f} ms, later picks "
        f"{record['later_pick_mean_seconds']*1000:.2f} ms"
    )
    check_record(record)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true", help="single repeat (fast CI smoke run)")
    args = parser.parse_args()
    table = generate_census(CENSUS_ROWS, n_columns=N_COLUMNS)
    record = run_benchmark(table, repeats=1 if args.smoke else 3)
    write_record(record)
    print(json.dumps(record, indent=2))
    check_record(record)
    print(f"\nperf record written to {RECORD_PATH}")


if __name__ == "__main__":
    main()
