"""Metric definitions and their computation from logs, spans and /stats.

The names and units here are the ones BENCHMARK.json lists; a test
keeps the two in step.  End-to-end metrics are what the analyst's
client observes with tracing off; per-layer metrics come from the
traced pass (spans, /stats differences) and the direct-call layers
pass, and carry no bound.
"""

from __future__ import annotations

from collections import defaultdict

import numpy as np

#: name -> (unit, better, bound).  On the 2-core VM this was written on,
#: identical CPU-bound work drifts by 10-25 % between runs minutes apart
#: (README, "Noise"), so only the metrics the network floor dominates
#: can hold a tight bound; the rest get the widest the contract allows.
END_TO_END = {
    "setup_s": ("s", "lower", 0.25),
    # A mean where the other latencies are medians: non-root expands are
    # a mix of cost classes, and on ``cold_mining`` (60 % of clicks near
    # 130 ms, 20 % near 230, 20 % near 290) the population median falls
    # on a class boundary, where no estimator of it holds still at ~30
    # samples.  The mean of a fixed multiset of clicks does (README).
    "expand_mean_ms": ("ms", "lower", 0.25),
    "first_expand_p50_ms": ("ms", "lower", 0.25),
    "request_p50_ms": ("ms", "lower", 0.10),
    "append_p50_ms": ("ms", "lower", 0.25),
    "ops_per_s": ("1/s", "higher", 0.25),
    "peak_rss_mb": ("MiB", "lower", 0.15),
}

#: name -> (unit, better).
PER_LAYER = {
    # Client-observed but unbounded: a median with a gap under it (p50),
    # too few samples (the tail) or too exposed to host noise (CPU time)
    # to gate a PR at 15 s windows.
    "client.expand_p50_ms": ("ms", "lower"),
    "client.expand_p95_ms": ("ms", "lower"),
    "tier.cpu_ms_per_op": ("ms", "lower"),
    "serving.http.overhead_ms": ("ms", "lower"),
    "serving.http.encode_us_per_node": ("us", "lower"),
    "serving.router.hop_ms": ("ms", "lower"),
    "serving.shard.codec_us_per_node": ("us", "lower"),
    "serving.router.restarts": ("count", "lower"),
    "serving.router.placement_skew": ("ratio", "lower"),
    "serving.server.overhead_ms": ("ms", "lower"),
    "serving.contexts.hit_rate": ("ratio", "higher"),
    "serving.contexts.lease_ms": ("ms", "lower"),
    "serving.scheduler.wait_ms": ("ms", "lower"),
    "serving.scheduler.throttled": ("count", "lower"),
    "serving.marginals.hit_rate": ("ratio", "higher"),
    "core.first_pick.build_ms": ("ms", "lower"),
    "core.first_pick.extend_ms": ("ms", "lower"),
    "serving.catalog.register_ms": ("ms", "lower"),
    "serving.catalog.append_ms": ("ms", "lower"),
    "serving.catalog.exports_grown": ("count", "lower"),
    "serving.catalog.marginals_delta": ("count", "higher"),
    "serving.catalog.marginals_rebuilt": ("count", "lower"),
    "serving.samples.build_ms": ("ms", "lower"),
    "sampling.approx_expand_ms": ("ms", "lower"),
    "sampling.escalation_rate": ("ratio", "lower"),
    "sampling.mean_rel_halfwidth": ("ratio", "lower"),
    "session.expand_self_ms": ("ms", "lower"),
    "core.search.first_pick_ms": ("ms", "lower"),
    "core.search.next_pick_ms": ("ms", "lower"),
    "core.search.picks": ("count", "lower"),
    "core.search.cache_hits": ("count", "higher"),
    "core.search.lazy_skips": ("count", "higher"),
    "core.search.expand_share_pct": ("%", "lower"),
    "core.marginal.find_best_ms": ("ms", "lower"),
    "core.parallel.kernel_ms_per_expand": ("ms", "lower"),
    "core.parallel.kernel_calls": ("count", "lower"),
    "core.parallel.kernel_rows_scanned": ("count", "lower"),
    "core.parallel.kernel_ns_per_row": ("ns", "lower"),
    "core.parallel.serial_batch_ms": ("ms", "lower"),
    "core.parallel.pool_batch_ms": ("ms", "lower"),
    "core.parallel.pool_speedup": ("ratio", "higher"),
    "table.encode_ms": ("ms", "lower"),
    "table.append_rows_ms": ("ms", "lower"),
    "trace.overhead_pct": ("%", "lower"),
}

#: Sample kinds.  Root expansions of a fresh session are their own
#: population (``first_expand``): mixing them into ``expand_*`` puts the
#: median in the gap between two clusters, where it jumps between runs.
EXPAND_KINDS = ("expand",)
REQUEST_KINDS = ("create", "render", "tree", "collapse", "delete")


def summary(values) -> dict:
    """Mean, median, quartiles, p95 and sample count of one latency series."""
    if len(values) == 0:
        return {"n": 0, "mean": 0.0, "p25": 0.0, "p50": 0.0, "p75": 0.0, "p95": 0.0}
    p25, p50, p75, p95 = np.percentile(np.asarray(values, dtype=float), [25, 50, 75, 95])
    return {"n": len(values), "mean": mean(values), "p25": float(p25), "p50": float(p50),
            "p75": float(p75), "p95": float(p95)}


def p50(values) -> float:
    return float(np.median(values)) if len(values) else 0.0


def mean(values) -> float:
    return float(np.mean(values)) if len(values) else 0.0


def latencies(logs: list[dict], kinds: tuple) -> list[float]:
    return [s[1] for log in logs for s in log["samples"] if s[0] in kinds and s[2]]


def end_to_end(logs: list[dict], *, setup_s: float, cpu_s: float, rss_mb: float):
    """One untraced window: ``(bounded metrics, unbounded extras, detail)``."""
    detail = {
        "expand": summary(latencies(logs, EXPAND_KINDS)),
        "first_expand": summary(latencies(logs, ("first_expand",))),
        "request": summary(latencies(logs, REQUEST_KINDS)),
        "append": summary(latencies(logs, ("append",))),
    }
    requests = sum(len(log["samples"]) for log in logs)
    # Closed loop: each client's own rate, summed, so the last
    # session's straggler tail does not read as idle capacity.
    ops_per_s = sum(len(log["samples"]) / log["elapsed"] for log in logs if log["elapsed"])
    values = {
        "setup_s": setup_s,
        "expand_mean_ms": detail["expand"]["mean"],
        "first_expand_p50_ms": detail["first_expand"]["p50"],
        "request_p50_ms": detail["request"]["p50"],
        "append_p50_ms": detail["append"]["p50"],
        "ops_per_s": ops_per_s,
        "peak_rss_mb": rss_mb,
    }
    extras = {
        "client.expand_p50_ms": detail["expand"]["p50"],
        "client.expand_p95_ms": detail["expand"]["p95"],
        "tier.cpu_ms_per_op": cpu_s * 1e3 / max(requests, 1),
    }
    return values, extras, detail


# -- /stats ---------------------------------------------------------------------------


def server_stats(stats: dict) -> list[dict]:
    """Per-process ``DrillDownServer.stats()`` dicts, tier-agnostic."""
    if "shards" in stats:
        return [shard["server"] for shard in stats["shards"] if "server" in shard]
    return [stats]


def _counters(stats: dict) -> dict:
    """Summed counters, plus per-cache marginal (hits, misses) pairs."""
    out = dict.fromkeys(
        ("ctx_hits", "ctx_misses", "marg_built", "marg_delta", "exports_grown",
         "throttled"), 0.0)
    caches = {}
    for index, server in enumerate(server_stats(stats)):
        contexts = server.get("contexts") or {}
        out["ctx_hits"] += contexts.get("hits", 0)
        out["ctx_misses"] += contexts.get("misses", 0)
        for table, per_table in server["marginals"]["tables"].items():
            for weighting, cache in per_table.items():
                caches[(index, table, weighting)] = (cache["hits"], cache["misses"])
        out["marg_built"] += server["marginals"]["built"]
        out["marg_delta"] += server["versions"]["marginals_delta"]
        out["exports_grown"] += server["versions"]["exports_grown"]
        for tenant in server["scheduler"]["tenants"].values():
            out["throttled"] += tenant.get("throttled", 0)
    return out, caches


def _ratio(hits: float, misses: float) -> float:
    return hits / (hits + misses) if hits + misses else 0.0


def stats_metrics(before: dict, after: dict) -> dict:
    """Counter metrics from the /stats difference across the traced window."""
    (a, caches_a), (b, caches_b) = _counters(before), _counters(after)
    delta = {key: b[key] - a[key] for key in b}
    hits = misses = 0
    for key, (hit, miss) in caches_b.items():
        hit0, miss0 = caches_a.get(key, (0, 0))
        if hit < hit0 or miss < miss0:
            # An append swapped in a fresh cache: its counters restarted.
            hit0 = miss0 = 0
        hits, misses = hits + hit - hit0, misses + miss - miss0
    out = {
        "serving.contexts.hit_rate": _ratio(delta["ctx_hits"], delta["ctx_misses"]),
        "serving.marginals.hit_rate": _ratio(hits, misses),
        "serving.scheduler.throttled": delta["throttled"],
        "serving.catalog.exports_grown": delta["exports_grown"],
        "serving.catalog.marginals_delta": delta["marg_delta"],
        "serving.catalog.marginals_rebuilt": delta["marg_built"],
        "serving.router.restarts": 0.0,
        "serving.router.placement_skew": 0.0,
    }
    router = after.get("router")
    if router is not None:
        out["serving.router.restarts"] = float(router["restarts"] - before["router"]["restarts"])
        per_shard = [0] * router["n_shards"]
        for shard in router["placement"].values():
            per_shard[shard] += 1
        out["serving.router.placement_skew"] = max(per_shard) * len(per_shard) / sum(per_shard)
    return out


# -- spans ----------------------------------------------------------------------------


class SpanTree:
    """Launcher spans indexed by parent and by request."""

    def __init__(self, spans: list[tuple]):
        self.spans = spans
        self.children: dict[int, list[tuple]] = defaultdict(list)
        for span in spans:
            self.children[span[1]].append(span)

    def named(self, name: str) -> list[tuple]:
        return [s for s in self.spans if s[2] == name]

    def under(self, span: tuple, name: str) -> list[tuple]:
        """Descendants of ``span`` called ``name``, in start order."""
        found, frontier = [], [span]
        while frontier:
            for child in self.children[frontier.pop()[0]]:
                frontier.append(child)
                if child[2] == name:
                    found.append(child)
        return sorted(found, key=lambda s: s[3])

    def self_ms(self, span: tuple) -> float:
        covered = sum(c[4] - c[3] for c in self.children[span[0]])
        return (span[4] - span[3] - covered) * 1e3


def _ms(span: tuple) -> float:
    return (span[4] - span[3]) * 1e3


#: Facade ops that cross the pipe but whose work does not depend on
#: what the context store or the marginal caches hold, so the same
#: request costs the same in process on any run and the remainder is
#: the hop itself.  (``session_columns`` is answered by the router.)
_HOP_OPS = ("facade.render", "facade.tree", "facade.collapse", "facade.close_session")


def _hop_spans(tree: SpanTree) -> dict[tuple, float]:
    return {(s[5], s[2]): _ms(s) for s in tree.spans if s[2] in _HOP_OPS}


def hop_ms(router_tree: SpanTree, ladder_tree: SpanTree) -> float:
    """Median extra time of a ``ShardRouter`` op over the same request
    (same client, same request number, hence same op on the same tree)
    served in process: router bookkeeping + pipe codec + shard hop."""
    router, ladder = _hop_spans(router_tree), _hop_spans(ladder_tree)
    return p50([router[key] - ladder[key] for key in router.keys() & ladder.keys()])


def http_metrics(tree: SpanTree, logs: list[dict]) -> dict:
    """What sits between the client's stopwatch and the facade call."""
    facade_by_request: dict[str, float] = defaultdict(float)
    for handler in tree.named("http.handler"):
        facade_by_request[handler[5]] += sum(
            _ms(c) for c in tree.children[handler[0]] if c[2].startswith("facade.")
        )
    overhead = [
        s[1] - facade_by_request[s[5]]
        for log in logs for s in log["samples"] if s[2] and s[5] in facade_by_request
    ]
    appends = [_ms(s) for s in tree.named("facade.append_rows")]
    return {"serving.http.overhead_ms": p50(overhead),
            "serving.catalog.append_ms": p50(appends)}


def inner_metrics(tree: SpanTree, logs: list[dict]) -> dict:
    """Layers below the facade, from an in-process tier's spans.

    ``logs`` are the client logs of the same window: the search share is
    taken of the latency the analyst saw, network floor included.
    """
    client_ms = {s[5]: s[1] for log in logs for s in log["samples"]}
    server_over, session_self, first_pick, next_pick = [], [], [], []
    picks, cache_hits, lazy_skips = [], [], []
    kernel_ms, kernel_calls, kernel_rows, sched = [], [], [], []
    lease = [_ms(s) for s in tree.named("contexts.lease")]
    search_total = expand_total = 0.0
    for facade in tree.spans:
        if facade[2] not in ("facade.expand", "facade.expand_star"):
            continue
        sessions = tree.under(facade, "session.expand")
        if not sessions:
            continue
        session = sessions[0]
        server_over.append(_ms(facade) - _ms(session))
        session_self.append(tree.self_ms(session))
        searches = tree.under(session, "search.find_best")
        if searches:
            first_pick.append(_ms(searches[0]))
            next_pick.extend(_ms(s) for s in searches[1:])
        picks.append(len(searches))
        cache_hits.append(sum(s[6].get("cache_hits", 0) for s in searches))
        lazy_skips.append(sum(s[6].get("lazy_skips", 0) for s in searches))
        kernels = tree.under(session, "parallel.kernel")
        kernel_ms.append(sum(_ms(k) for k in kernels))
        kernel_calls.append(len(kernels))
        kernel_rows.append(sum(k[6].get("rows", 0) for k in kernels))
        sched.append(sum(_ms(s) for name in ("scheduler.charge", "scheduler.wait")
                         for s in tree.under(facade, name)))
        if facade[5] in client_ms:
            search_total += sum(_ms(s) for s in searches)
            expand_total += client_ms[facade[5]]
    total_rows = sum(kernel_rows)
    return {
        "serving.server.overhead_ms": p50(server_over),
        "serving.contexts.lease_ms": p50(lease),
        "serving.scheduler.wait_ms": p50(sched),
        "session.expand_self_ms": p50(session_self),
        "core.search.first_pick_ms": p50(first_pick),
        "core.search.next_pick_ms": p50(next_pick),
        "core.search.picks": mean(picks),
        "core.search.cache_hits": mean(cache_hits),
        "core.search.lazy_skips": mean(lazy_skips),
        "core.search.expand_share_pct": 100.0 * search_total / expand_total if expand_total else 0.0,
        "core.parallel.kernel_ms_per_expand": mean(kernel_ms),
        "core.parallel.kernel_calls": mean(kernel_calls),
        "core.parallel.kernel_rows_scanned": mean(kernel_rows),
        "core.parallel.kernel_ns_per_row": sum(kernel_ms) * 1e6 / total_rows if total_rows else 0.0,
    }


def approx_metrics(logs: list[dict]) -> dict:
    """Escalation share and interval width, from reply estimate metadata."""
    escalated, widths, expands = 0, [], 0
    for log in logs:
        for session in log["sessions"]:
            for op in session["ops"]:
                estimates = [c["estimate"] for c in op["reply"].get("children", ())
                             if "estimate" in c]
                if not estimates:
                    continue
                expands += 1
                if any(e["escalated"] for e in estimates):
                    escalated += 1
                    continue
                widths.extend(
                    (e["high"] - e["low"]) / 2.0 / max(e["estimate"], 1.0) for e in estimates
                )
    return {"sampling.escalation_rate": escalated / expands if expands else 0.0,
            "sampling.mean_rel_halfwidth": mean(widths)}
