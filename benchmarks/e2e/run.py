"""End-to-end HTTP benchmark of the serving tier — the repo's benchmark.

Driver form (BENCHMARK.json)::

    python3 benchmarks/e2e/run.py --workload NAME --seed N --seconds S --trace 0|1

prints every metric by name and unit, then one JSON result line
(``correct``/``attempted``/``failed``/``metrics``): the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.

Without ``--workload`` it runs all four workloads, both passes each.
``--aa`` runs the end-to-end pass twice on one seed and fails if any
metric moves by more than its own bound.  ``--smoke`` shrinks tables
and windows (what the tier-1 smoke test runs).  See README.md.
"""

from __future__ import annotations

import argparse
import dataclasses
import http.client
import json
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

# Siblings and the system under test; where ``src/`` is missing this
# raises, so the command fails without printing a result.
import numpy  # noqa: E402
from repro.errors import ReproError  # noqa: E402

import layers  # noqa: E402
import loadgen  # noqa: E402
import metrics  # noqa: E402
import oracle  # noqa: E402
import procs  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

#: Launches per end-to-end run; ``setup_s`` is their median.
SETUP_REPEATS = 3
#: How a traced run splits ``--seconds``: untraced prefix, traced
#: replay of the same prefix, in-process ladder (router tiers only).
TRACE_SPLIT = (0.3, 0.5, 0.2)


def _phase_counts(logs: list[dict]) -> dict:
    sent = sum(len(log["samples"]) for log in logs)
    failed = sum(1 for log in logs for s in log["samples"] if not s[2])
    return {"sent": sent, "succeeded": sent - failed, "failed": failed}


class Run:
    """One workload on one seed: owns the work dir, tables and oracle."""

    def __init__(self, workload, seed: int, *, smoke: bool, workdir: Path):
        self.workload = workload
        self.seed = seed
        self.smoke = smoke
        self.workdir = workdir
        self.specs = workloads.table_specs(workload, smoke=smoke)
        # A smoke window holds two or three sessions per client.
        self.append_every = 2 if smoke else workloads.APPEND_EVERY
        self.bases = {spec["name"]: workloads.build_table(spec) for spec in self.specs}
        self.oracle = oracle.Oracle(workload, seed, self.bases)
        self.phases: dict[str, dict] = {}
        #: Per phase, every request as (kind, latency_ms, ok, click): kept
        #: in the record so another statistic can be tried on old runs.
        self.samples: dict[str, list] = {}
        self.failures: list[str] = []
        self.oracle_s = 0.0

    def launcher(self, *, trace: bool = False, in_process: bool = False):
        tier = self.workload.tier
        if in_process and tier["kind"] == "router":
            kwargs = {k: v for k, v in tier["kwargs"].items() if k != "n_shards"}
            tier = {"kind": "server", "kwargs": kwargs}
        config = {"tier": tier, "tables": self.specs, "trace": trace}
        if trace:
            config["spans_out"] = str(self.workdir / f"spans-{time.monotonic_ns()}.json")
        return procs.Launcher(config, self.workdir)

    def drive(self, launcher, seconds: float, label: str, *, before=None, after=None,
              n_clients: int | None = None):
        """Warm up, then run one window against a started launcher.

        ``before``/``after`` run around the measured window only.  The
        launcher is stopped on the way out, wedged or not.
        """
        clients = [
            loadgen.Client(i, launcher.port, self.workload, self.seed, self.bases,
                           self.workload.clients, self.append_every)
            for i in range(n_clients or self.workload.clients)
        ]
        try:
            warm = loadgen.run_phase(clients, max(0.2 if self.smoke else 1.0, seconds * 0.1))
            for client in clients:
                client.scripts.start_round()
            if before is not None:
                before()
            logs = loadgen.run_phase(clients, seconds)
            if after is not None:
                after()
        finally:
            # On a failed run the client threads may still be mid-request:
            # tell them to stop, take the tier away (their reads fail
            # over), and only then close the sockets.
            for client in clients:
                client.stopped = True
            launcher.stop()
            for client in clients:
                client.conn.close()
        started = time.perf_counter()
        self._verify(f"{label}.warmup", warm)
        self._verify(label, logs)
        self.oracle_s += time.perf_counter() - started
        return logs

    def _verify(self, label: str, logs: list[dict]) -> None:
        counts = _phase_counts(logs)
        self.samples[label] = [(s[0], s[1], s[2], s[6]) for log in logs for s in log["samples"]]
        for log in logs:
            self.failures.extend(log["failures"])
            for session in log["sessions"]:
                try:
                    counts["failed"] += self.oracle.check_session(session)
                except ReproError as exc:  # a reply the oracle cannot even follow
                    counts["failed"] += 1
                    self.oracle.mismatches.append(f"{session['table']}: oracle raised {exc!r}")
            for append in log["appends"]:
                counts["failed"] += self.oracle.check_append(append)
        counts["succeeded"] = counts["sent"] - counts["failed"]
        self.phases[label] = counts

    def result(self, metrics: dict, units: dict) -> dict:
        attempted = sum(p["sent"] for p in self.phases.values())
        failed = sum(p["failed"] for p in self.phases.values())
        return {
            "correct": failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": {name: {"value": value, "unit": units[name][0]}
                        for name, value in metrics.items()},
        }


def untraced_window(run: Run, seconds: float, label: str, setups: list[float]):
    """One untraced window with ``/proc`` accounting around it."""
    launcher = run.launcher().start()
    setups.append(launcher.setup_s)
    usage = {}

    def before():
        usage["pids"] = launcher.pids()
        usage["cpu0"] = procs.cpu_seconds(usage["pids"])

    def after():
        usage["cpu1"] = procs.cpu_seconds(usage["pids"])
        usage["rss"] = procs.peak_rss_mb(usage["pids"])

    logs = run.drive(launcher, seconds, label, before=before, after=after)
    return metrics.end_to_end(
        logs,
        setup_s=statistics.median(setups),
        cpu_s=usage["cpu1"] - usage["cpu0"],
        rss_mb=usage["rss"],
    )


def end_to_end_pass(run: Run, seconds: float):
    """Untraced window: the bounded, client-observed metrics."""
    setups = []
    for _ in range(0 if run.smoke else SETUP_REPEATS - 1):
        probe = run.launcher().start()
        setups.append(probe.setup_s)
        probe.stop()
    values, extras, detail = untraced_window(run, seconds, "measure", setups)
    detail["setup_s_samples"] = setups
    detail.update(extras)
    return values, extras, detail


def trace_pass(run: Run, seconds: float, untraced: tuple[float, dict] | None = None):
    """Traced replay + ladder + direct calls: the per-layer metrics.

    ``untraced`` is ``(expand_mean_ms, unbounded extras)`` of an untraced
    window on the same seed; without it the first share of ``seconds``
    is spent measuring them.
    """
    workload = run.workload
    is_router = workload.tier["kind"] == "router"
    share_a, share_b, share_c = TRACE_SPLIT
    if untraced is None:
        values, extras, _ = untraced_window(run, seconds * share_a, "untraced", [])
        untraced = (values["expand_mean_ms"], extras)
    untraced_expand_mean, extras = untraced

    launcher = run.launcher(trace=True).start()
    spans_path = launcher.config["spans_out"]
    port, stats = launcher.port, {}

    def get_stats(key):
        conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30.0)
        conn.request("GET", "/stats")
        stats[key] = json.loads(conn.getresponse().read())
        conn.close()

    logs = run.drive(launcher, seconds * share_b, "traced",
                     before=lambda: get_stats("before"), after=lambda: get_stats("after"))
    spans = tracing.load(spans_path)
    tree = metrics.SpanTree(spans)
    nesting = tracing.nesting_errors(spans)
    client_of = {s[5]: s for log in logs for s in log["samples"]}
    for handler in tree.named("http.handler"):
        client = client_of.get(handler[5])
        # The handler may stamp its end a scheduling delay after the
        # client read the last byte, so only its start is pinned.
        if client is not None and not client[3] <= handler[3] <= client[4]:
            nesting.append(f"http.handler {handler[5]} starts outside its client span")
    run.failures.extend(nesting)

    traced_expand_mean = metrics.mean(metrics.latencies(logs, metrics.EXPAND_KINDS))
    out = dict.fromkeys(metrics.PER_LAYER, 0.0)
    out.update(extras)
    out.update(metrics.stats_metrics(stats["before"], stats["after"]))
    out.update(metrics.http_metrics(tree, logs))
    out.update(metrics.approx_metrics(logs))
    out["serving.catalog.register_ms"] = sum(
        ms for label, ms in launcher.ready["timings"].items() if label.startswith("register_ms.")
    )
    out["trace.overhead_pct"] = 100.0 * (traced_expand_mean / untraced_expand_mean - 1.0)

    inner_tree, inner_logs = tree, logs
    if is_router:
        # The ladder: shard workers cannot be wrapped from here, so the
        # same transcript runs on an in-process tier; the difference of
        # facade spans is the router → pipe → shard hop.
        ladder = run.launcher(trace=True, in_process=True).start()
        ladder_path = ladder.config["spans_out"]
        # One client: in-process service time without the GIL queueing
        # two analysts would add, which is not the router's doing.
        inner_logs = run.drive(ladder, seconds * share_c, "ladder", n_clients=1)
        ladder_spans = tracing.load(ladder_path)
        run.failures.extend(tracing.nesting_errors(ladder_spans))
        inner_tree = metrics.SpanTree(ladder_spans)
        out["serving.router.hop_ms"] = metrics.hop_ms(tree, inner_tree)
    out.update(metrics.inner_metrics(inner_tree, inner_logs))
    if workload.expand_extra.get("approx"):
        out["sampling.approx_expand_ms"] = metrics.p50(
            [(s[4] - s[3]) * 1e3 for s in inner_tree.named("session.expand")]
        )
    name = workload.session_tables[0]
    out.update(layers.layer_metrics(workload, run.seed, name, run.bases[name]))
    detail = {"spans": len(spans), "nesting_errors": len(nesting),
              "traced_expand_mean_ms": traced_expand_mean,
              "untraced_expand_mean_ms": untraced_expand_mean}
    return out, detail


# -- reporting ------------------------------------------------------------------------


def _git_sha() -> str:
    try:
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def envelope(run: Run, seconds: float, passes: dict) -> dict:
    return {
        "git_sha": _git_sha(),
        "cpu_count": workloads.CPU_COUNT,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "seed": run.seed,
        "seconds": seconds,
        "smoke": run.smoke,
        "workload": dataclasses.asdict(run.workload),
        "tables": run.specs,
        "phases": run.phases,
        "oracle_checked": run.oracle.checked,
        "oracle_seconds": run.oracle_s,
        "passes": passes,
        "samples": run.samples,
    }


def report(name: str, values: dict, units: dict, detail: dict) -> None:
    print(f"== {name}")
    for metric, value in values.items():
        print(f"{metric:42s} {value:14.4f} {units[metric][0]}")
    for key, value in detail.items():
        print(f"   {key}: {value}")


def run_workload(name: str, args, workdir: Path, *, passes=("e2e", "trace")) -> dict:
    """Run the requested passes of one workload; returns results by pass."""
    run = Run(workloads.WORKLOADS[name], args.seed, smoke=args.smoke, workdir=workdir)
    results, recorded = {}, {}
    try:
        untraced = None
        if "e2e" in passes:
            values, extras, detail = end_to_end_pass(run, args.seconds)
            report(f"{name} end-to-end (tracing off)", values, metrics.END_TO_END, detail)
            results["e2e"] = run.result(values, metrics.END_TO_END)
            recorded["e2e"] = {"metrics": values, "detail": detail}
            untraced = (values["expand_mean_ms"], extras)
        if "trace" in passes:
            values, detail = trace_pass(run, args.seconds, untraced)
            report(f"{name} per-layer (traced pass + layers pass)", values,
                   metrics.PER_LAYER, detail)
            results["trace"] = run.result(values, metrics.PER_LAYER)
            recorded["trace"] = {"metrics": values, "detail": detail}
    finally:
        run.oracle.close()
    for line in (run.failures + run.oracle.mismatches)[:20]:
        print(f"FAILED: {line}")
    print(f"   phases: {run.phases}")
    print(f"   oracle: {run.oracle.checked} replies checked in {run.oracle_s:.1f} s")
    if run.failures:  # nesting or transport errors make the run incorrect too
        for result in results.values():
            result["correct"] = False
    args.out.mkdir(parents=True, exist_ok=True)
    record = args.out / f"{name}-seed{args.seed}-{int(time.time())}.json"
    record.write_text(json.dumps(envelope(run, args.seconds, recorded), indent=1, default=str))
    print(f"   record: {record}")
    return results


def run_aa(names: list[str], args, workdir: Path) -> bool:
    """Two end-to-end runs of the same code and seed, judged by the bounds."""
    ok = True
    for name in names:
        first = run_workload(name, args, workdir, passes=("e2e",))["e2e"]
        second = run_workload(name, args, workdir, passes=("e2e",))["e2e"]
        ok = ok and first["correct"] and second["correct"]
        print(f"== A/A {name} (seed {args.seed})")
        for metric, (unit, better, bound) in metrics.END_TO_END.items():
            a, b = first["metrics"][metric]["value"], second["metrics"][metric]["value"]
            diff = abs(b - a) / a
            verdict = "ok" if diff <= bound else "OUTSIDE"
            ok = ok and diff <= bound
            print(f"{metric:28s} {a:12.4f} {b:12.4f} {unit:6s} "
                  f"diff {diff:7.2%} bound {bound:.0%} {verdict}")
    return ok


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default=None, help="one workload (default: all four)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured window (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="with --workload: 0 = end-to-end pass, 1 = per-layer pass")
    parser.add_argument("--smoke", action="store_true", help="tiny tables and windows")
    parser.add_argument("--aa", action="store_true", help="run twice, compare to the bounds")
    parser.add_argument("--out", type=Path, default=None, help="directory for run records")
    args = parser.parse_args(argv)

    if args.workload is not None and args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}")
    if args.seconds is None:
        declared = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
        args.seconds = 0.5 if args.smoke else float(declared)
    scratch = Path.cwd() / ".e2e_bench"
    if args.out is None:
        args.out = scratch / "records"
    workdir = scratch / f"work-{time.time_ns()}"
    names = [args.workload] if args.workload else list(workloads.WORKLOADS)
    shm_before = procs.shm_segments()
    last, ok = None, True
    # A killed benchmark must still take its launcher down with it.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        if args.aa:
            ok = run_aa(names, args, workdir)
        else:
            passes = ("e2e", "trace") if args.trace is None else (("e2e", "trace")[args.trace],)
            for name in names:
                results = run_workload(name, args, workdir, passes=passes)
                ok = ok and all(r["correct"] for r in results.values())
                last = results[passes[-1]]
    finally:
        leaks = procs.leak_check(shm_before)
        shutil.rmtree(workdir, ignore_errors=True)
        if scratch.is_dir() and not any(scratch.iterdir()):
            scratch.rmdir()
    if leaks:
        print("left running or linked: " + ", ".join(leaks), file=sys.stderr)
        return 3
    if last is not None and args.workload is not None:
        print(json.dumps(last))
    return 0 if ok or (args.workload is not None and not args.aa) else 1


if __name__ == "__main__":
    sys.exit(main())
