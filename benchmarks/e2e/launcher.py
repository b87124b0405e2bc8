"""The serving tier as a child process of the benchmark.

``python launcher.py CONFIG.json`` builds the tier named in the config,
registers the generated tables, binds ``repro.serving.http.serve`` on
an ephemeral port and prints one JSON ready line (port, pid, timed
set-up steps).  SIGTERM/SIGINT → ``httpd.shutdown()`` →
``tier.close()`` → span dump (traced runs) → exit 0.

Config keys: ``tier`` (``{"kind": "server"|"router", "kwargs"}``),
``tables`` (specs for :func:`workloads.build_table`), ``trace``
(bool), ``spans_out`` (path, traced runs).
"""

from __future__ import annotations

import json
import os
import signal
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent.parent / "src")]

from repro.serving import DrillDownServer, ShardRouter  # noqa: E402
from repro.serving.http import serve  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402


def main(config_path: str) -> int:
    config = json.loads(Path(config_path).read_text())
    stop = threading.Event()
    for signum in (signal.SIGTERM, signal.SIGINT):
        signal.signal(signum, lambda *_: stop.set())

    timings: dict[str, float] = {}

    def timed(label: str, fn, *args):
        start = time.perf_counter()
        result = fn(*args)
        timings[label] = (time.perf_counter() - start) * 1000.0
        return result

    kind, kwargs = config["tier"]["kind"], dict(config["tier"]["kwargs"])
    # reaper_interval stays None: no background thread may outlive a run.
    if kind == "router":
        tier = timed("tier_ms", lambda: ShardRouter(kwargs.pop("n_shards"), **kwargs))
    else:
        tier = timed("tier_ms", lambda: DrillDownServer(**kwargs))
    httpd = None
    tracer = None
    try:
        for spec in config["tables"]:
            table = timed(f"generate_ms.{spec['name']}", workloads.build_table, spec)
            timed(f"register_ms.{spec['name']}", tier.register_table, spec["name"], table)
        facade = tier
        if config.get("trace"):
            tracer = tracing.Tracer()
            tracing.install(tracer)
            facade = tracing.TimedFacade(tier, tracer)
        httpd = serve(facade, port=0, request_timeout=30.0)
        if tracer is not None:
            httpd.RequestHandlerClass = tracing.traced_handler(
                httpd.RequestHandlerClass, tracer
            )
        server_thread = threading.Thread(target=httpd.serve_forever, name="e2e-http")
        server_thread.start()
        print(json.dumps({"port": httpd.server_address[1], "pid": os.getpid(),
                          "timings": timings}), flush=True)
        stop.wait()
        httpd.shutdown()
        server_thread.join()
    finally:
        if httpd is not None:
            httpd.server_close()
        tier.close()
        if tracer is not None:
            tracer.dump(config["spans_out"])
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
