"""The ``layers`` pass: single-thread direct calls into each layer.

Some layers have no span in a served request — registration-time
builds, the reference search engine, the counting pool the tier leaves
off by default, the codecs as pure functions.  They are timed here by
calling their public functions on the workload's own first table, in
the benchmark process, after the launcher is gone.  Everything opened
here (one :class:`CountingPool`) is closed in ``finally``.
"""

from __future__ import annotations

import json
import time

import numpy as np

from repro.core.first_pick import build_first_pick_cache, extend_first_pick_cache
from repro.core.marginal import find_best_marginal_rule
from repro.core.parallel import CountingPool, count_extensions_kernel
from repro.serving.catalog import WEIGHT_FUNCTIONS
from repro.serving.http import node_to_wire
from repro.serving.samples import build_sample_set, derive_seed
from repro.serving.shard import decode_node, encode_node
from repro.session.session import DrillDownSession
from repro.table.table import Table

from workloads import CPU_COUNT, Workload, append_batch

#: Rows of the table re-encoded for ``table.encode_ms`` (``to_rows`` on
#: 500k rows would cost more than the whole pass).
ENCODE_ROWS = 20_000


def median_ms(fn, *, reps: int = 5, budget_s: float = 0.6) -> float:
    """Median wall time of ``fn()`` over up to ``reps`` calls within ``budget_s``."""
    times = []
    give_up = time.perf_counter() + budget_s
    while len(times) < reps:
        start = time.perf_counter()
        fn()
        end = time.perf_counter()
        times.append((end - start) * 1e3)
        if end > give_up:
            break
    return float(np.median(times))


def _stop_resource_tracker() -> None:
    """End the helper process shared memory made multiprocessing start.

    It would otherwise live until this interpreter exits, and the
    benchmark promises that none of its descendants outlives the
    command.  Every segment is already unlinked, so it has nothing
    left to track.
    """
    from multiprocessing import resource_tracker

    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


def _count_nodes(node) -> int:
    return 1 + sum(_count_nodes(child) for child in node.children)


def layer_metrics(workload: Workload, seed: int, name: str, table: Table) -> dict:
    """Direct-call metrics on ``table`` (the workload's first session table)."""
    knobs = workload.session
    wf = WEIGHT_FUNCTIONS[knobs["wf"]](table)
    out: dict[str, float] = {}

    # -- table: dictionary encoding and the append path's copy -----------------
    head_rows = table.head(ENCODE_ROWS).to_rows()
    out["table.encode_ms"] = median_ms(lambda: Table.from_rows(table.schema, head_rows), reps=3)
    batch = append_batch(table, name, seed, 1)
    out["table.append_rows_ms"] = median_ms(lambda: table.append_rows(batch))
    appended = table.append_rows(batch)

    # -- first-pick marginals: registration build and append delta-fold --------
    out["core.first_pick.build_ms"] = median_ms(
        lambda: build_first_pick_cache(table, wf, knobs["mw"])
    )
    cache = build_first_pick_cache(table, wf, knobs["mw"])
    out["core.first_pick.extend_ms"] = (
        0.0 if cache is None
        else median_ms(lambda: extend_first_pick_cache(cache, appended, wf))
    )

    # -- samples (approximate tiers only) -----------------------------------------
    budget = workload.tier["kwargs"].get("sample_budget")
    out["serving.samples.build_ms"] = (
        0.0 if budget is None
        else median_ms(
            lambda: build_sample_set(table, budget=budget, seed=derive_seed(name, 0)), reps=3
        )
    )

    # -- the reference (scratch) engine's first pick --------------------------------
    top = np.zeros(table.n_rows, dtype=np.float64)
    out["core.marginal.find_best_ms"] = median_ms(
        lambda: find_best_marginal_rule(table, wf, top, knobs["mw"]), reps=3, budget_s=1.0
    )

    # -- one level of counting: serial kernel vs CountingPool(nproc) ------------
    codes = table.categorical_code_arrays()
    measures = np.ones(table.n_rows, dtype=np.float64)
    sizes = [table.categorical(i).distinct_count for i in table.schema.categorical_indexes]

    def serial() -> None:
        for column, n_values in zip(codes, sizes):
            count_extensions_kernel(column, measures, top, None, n_values, 1.0)

    out["core.parallel.serial_batch_ms"] = median_ms(serial)
    out["core.parallel.pool_batch_ms"] = out["core.parallel.serial_batch_ms"]
    if CPU_COUNT >= 2:
        pool = CountingPool(CPU_COUNT)
        try:
            # Default thresholds: a table the pool would decline is
            # served serially by a pooled tier too (backend None).
            backend = pool.backend_for(table)
            if backend is not None:
                backend.set_top(top)
                specs = [(pos, n_values, 1.0) for pos, n_values in enumerate(sizes)]
                backend.count_columns(specs)  # start workers, attach segments
                out["core.parallel.pool_batch_ms"] = median_ms(
                    lambda: backend.count_columns(specs)
                )
        finally:
            pool.close()
            _stop_resource_tracker()
    out["core.parallel.pool_speedup"] = (
        out["core.parallel.serial_batch_ms"] / out["core.parallel.pool_batch_ms"]
    )

    # -- codecs on a displayed tree (root, children, grandchildren) -------------
    with DrillDownSession(table, wf=wf, k=knobs["k"], mw=knobs["mw"]) as session:
        for child in session.expand(session.root.rule):
            session.expand(child.rule)
        root, nodes = session.root, _count_nodes(session.root)
        out["serving.http.encode_us_per_node"] = 1e3 / nodes * median_ms(
            lambda: json.dumps({"tree": node_to_wire(root, deep=True)}, default=str)
        )
        out["serving.shard.codec_us_per_node"] = 1e3 / nodes * median_ms(
            lambda: decode_node(json.loads(json.dumps(encode_node(root))))
        )
    return out
