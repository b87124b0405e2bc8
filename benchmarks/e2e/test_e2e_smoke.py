"""Tier-1 smoke test of the end-to-end benchmark.

Runs the real command with ``--smoke`` (tiny tables, sub-second
windows) over all four workloads and both passes, so a renamed facade
method, handler verb or wrapped layer function breaks here, loudly,
instead of in the next performance PR.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import metrics  # noqa: E402
import procs  # noqa: E402
import workloads  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_benchmark_json_matches_the_code():
    assert BENCHMARK["paths"] == ["benchmarks/e2e"]
    assert BENCHMARK["command"] == ["python3", "benchmarks/e2e/run.py"]
    assert BENCHMARK["workloads"] == [
        {"name": w.name, "why": w.why} for w in workloads.WORKLOADS.values()
    ]
    assert BENCHMARK["end_to_end"] == [
        {"name": name, "unit": unit, "better": better, "bound": bound}
        for name, (unit, better, bound) in metrics.END_TO_END.items()
    ]
    assert BENCHMARK["per_layer"] == [
        {"name": name, "unit": unit, "better": better}
        for name, (unit, better) in metrics.PER_LAYER.items()
    ]


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_siblings_rounds_play_the_same_clicks_on_every_seed(seed):
    """What the first version was refused for: a free draw of expands
    of unequal cost.  Every round must expand each child exactly twice."""
    workload = workloads.WORKLOADS["cold_mining"]
    k = workload.session["k"]
    source = workloads.ScriptSource(random.Random(seed), workload)
    source.next()  # a warm-up session leaves a round half dealt
    source.start_round()
    for _ in range(3):
        picks = [step[1] for _ in range(k) for step in source.next()["steps"]
                 if step[0] == "child"]
        assert sorted(picks) == sorted(2 * list(range(k)))


@pytest.mark.smoke
@pytest.mark.slow  # nine tier launches at ~1.7 s of imports each
def test_smoke_run_emits_every_metric_and_leaves_nothing_behind(tmp_path):
    before = set(procs.descendants(os.getpid()))
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke", "--seed", "3",
         "--out", str(tmp_path / "records")],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert done.returncode == 0, done.stdout[-4000:] + done.stderr[-4000:]
    assert set(procs.descendants(os.getpid())) <= before, "a benchmark process survived"

    records = {}
    for path in (tmp_path / "records").glob("*.json"):
        record = json.loads(path.read_text())
        records[record["workload"]["name"]] = record
    assert sorted(records) == sorted(w["name"] for w in BENCHMARK["workloads"])
    for name, record in records.items():
        passes = record["passes"]
        assert list(passes["e2e"]["metrics"]) == [m["name"] for m in BENCHMARK["end_to_end"]]
        assert list(passes["trace"]["metrics"]) == [m["name"] for m in BENCHMARK["per_layer"]]
        assert all(value > 0 for value in passes["e2e"]["metrics"].values()), name
        assert passes["trace"]["detail"]["spans"] > 0
        assert passes["trace"]["detail"]["nesting_errors"] == 0
        assert record["oracle_checked"] > 0
        for phase, counts in record["phases"].items():
            assert counts["sent"] > 0 and counts["failed"] == 0, (name, phase, counts)
