"""Alternating parent/change pairs of the end-to-end benchmark.

    python3 benchmarks/compare_pairs.py PARENT CHANGE --workload cold_mining \
        --seeds 7 11 13 17 19 23 29 31 37 41

``PARENT`` and ``CHANGE`` are two checkouts of this repository (a
``git clone`` or ``git archive`` export of each commit).  Per workload
(``--workload`` takes several) and seed it runs
``benchmarks/e2e/run.py --trace 0`` once in each, the side that goes
first alternating from pair to pair, and prints the table
``docs/EXPERIMENTS.md`` records for a performance claim: median
[quartiles] per side, change / parent ratio of the medians, pairs won
by the change (ties count for neither side), and the metric's bound,
marked **over** when the change's median is worse than the parent's by
more than that bound.  ``--trace 1`` runs the per-layer pass instead
and pairs its witnesses (e.g. ``serving.catalog.register_ms``) the same
way; they have no bound.  The metric names, their better-direction and
bounds come from the parent's ``BENCHMARK.json``; this script edits
nothing and keeps no record of its own.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def run_once(checkout: Path, workload: str, seed: int, trace: int = 0) -> dict:
    """One run of pass ``trace`` in ``checkout``: ``{metric name: value}``."""
    cmd = [sys.executable, "benchmarks/e2e/run.py", "--workload", workload,
           "--seed", str(seed), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"{checkout}: run.py exited {proc.returncode}\n{proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        sys.exit(f"{checkout} seed {seed}: correct={result['correct']} failed={result['failed']}")
    return {name: metric["value"] for name, metric in result["metrics"].items()}


def spread(values: list[float]) -> str:
    if len(values) < 2:
        return f"{values[0]:.4g}"
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return f"{statistics.median(values):.4g} [{q1:.4g}, {q3:.4g}]"


def table(metrics: list[dict], parent: list[dict], change: list[dict]) -> list[str]:
    """The EXPERIMENTS.md rows for paired runs ``parent[i]`` / ``change[i]``."""
    rows = ["| metric | parent | change | ratio | pairs won | bound |",
            "|---|---|---|---|---|---|"]
    for metric in metrics:
        name, sign = metric["name"], 1 if metric["better"] == "higher" else -1
        pairs = [(p[name], c[name]) for p, c in zip(parent, change)
                 if p.get(name) is not None and c.get(name) is not None]
        if not pairs:
            continue
        before, after = [p for p, _ in pairs], [c for _, c in pairs]
        won = sum(1 for p, c in pairs if sign * (c - p) > 0)
        base, median = statistics.median(before), statistics.median(after)
        ratio = f"{median / base:.3f}" if base else "n/a"
        bound = metric.get("bound")
        if bound is None:
            mark = "—"
        else:  # over: worse than the parent's median by more than bound × that median
            over = sign * (base - median) > bound * abs(base)
            mark = f"**over** {bound:g}" if over else f"{bound:g}"
        rows.append(f"| `{name}` | {spread(before)} | {spread(after)} | {ratio} "
                    f"| {won} / {len(pairs)} | {mark} |")
    return rows


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path, help="checkout of the parent commit")
    parser.add_argument("change", type=Path, help="checkout of the change")
    parser.add_argument("--workload", nargs="+", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="0 = end-to-end metrics, 1 = per-layer metrics")
    args = parser.parse_args(argv)
    declared = json.loads((args.parent / "BENCHMARK.json").read_text())
    metrics = declared["per_layer" if args.trace else "end_to_end"]
    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    for workload in args.workload:
        runs: dict[str, list[dict]] = {"parent": [], "change": []}
        for i, seed in enumerate(args.seeds):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            for side in order:
                latest = run_once(sides[side], workload, seed, args.trace)
                runs[side].append(latest)
                print(f"# {workload} pair {i + 1}/{len(args.seeds)} seed {seed} {side}: "
                      f"{json.dumps(latest)}", file=sys.stderr, flush=True)
        print(f"`{workload}` {('end-to-end', 'per-layer')[args.trace]}, "
              f"{len(args.seeds)} alternating pairs, seeds "
              f"{' '.join(map(str, args.seeds))}, median [quartiles]:\n")
        print("\n".join(table(metrics, runs["parent"], runs["change"])) + "\n", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
