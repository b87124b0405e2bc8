"""Spans recorded from outside: wrappers around each layer's public calls.

No file under ``src/`` is edited.  :func:`install` rebinds, in the
process it is called in, the boundary functions of every layer to
timing wrappers; a span is ``(id, parent, name, start, end,
request_id, attrs)`` on the ``perf_counter`` clock (system-wide
monotonic on Linux, so client and launcher spans share a time axis).
Spans stay in memory and are dumped once, on shutdown.

A request is handled on one thread from socket to kernel (the measured
tiers count serially), so the parent of a span is simply the span open
on the same thread.  Shard workers are separate processes and stay
unwrapped: a router workload's inner layers are read from the same
transcript replayed on an in-process tier (see README, "ladder").
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from contextlib import contextmanager


class Tracer:
    """In-memory span sink with a per-thread open-span stack."""

    def __init__(self):
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    @contextmanager
    def span(self, name: str, *, request_id: str | None = None):
        """Record one span; yields a dict the caller may fill with attrs."""
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        if request_id is None and stack:
            request_id = stack[-1][1]
        span_id = next(self._ids)
        parent = stack[-1][0] if stack else 0
        stack.append((span_id, request_id))
        attrs: dict = {}
        start = time.perf_counter()
        try:
            yield attrs
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append((span_id, parent, name, start, end, request_id, attrs))

    def wrap(self, fn, name: str, attrs_of=None):
        """``fn`` timed as span ``name``; ``attrs_of(args, result)`` adds attrs."""
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name) as attrs:
                result = fn(*args, **kwargs)
                if attrs_of is not None:
                    attrs.update(attrs_of(args, result))
                return result
        return wrapper

    def dump(self, path) -> None:
        with open(path, "w") as handle:
            json.dump(self.spans, handle)


class TimedFacade:
    """The tier facade with every public call recorded as ``facade.<op>``."""

    def __init__(self, tier, tracer: Tracer):
        self._tier = tier
        self._tracer = tracer

    def __getattr__(self, name: str):
        target = getattr(self._tier, name)
        if not callable(target) or name.startswith("_"):
            return target
        wrapped = self._tracer.wrap(target, f"facade.{name}")
        setattr(self, name, wrapped)  # resolve once per op
        return wrapped


def traced_handler(handler_cls: type, tracer: Tracer) -> type:
    """``handler_cls`` with each verb under a root span named after the
    verb, carrying the client's ``X-Request-Id``."""
    def rooted(verb: str):
        inner = getattr(handler_cls, verb)

        def method(self):
            with tracer.span("http.handler", request_id=self.headers.get("X-Request-Id")):
                inner(self)
        return method

    return type(
        "TracedHandler",
        (handler_cls,),
        {verb: rooted(verb) for verb in ("do_GET", "do_POST", "do_DELETE")},
    )


def _search_attrs(args, result) -> dict:
    if result is None:
        return {}
    stats = result.stats
    return {
        "cache_hits": stats.cache_hits,
        "lazy_skips": stats.lazy_skips,
        "rows_scanned": stats.rows_scanned,
    }


def _kernel_attrs(args, result) -> dict:
    codes, rows = args[0], args[3]
    return {"rows": int(codes.size if rows is None else rows.size)}


def install(tracer: Tracer) -> None:
    """Rebind every in-process layer boundary to a timing wrapper.

    Call after the tier is built: forked shard workers must inherit
    the unwrapped functions (their spans could never be collected).
    """
    from repro.core import first_pick, marginal, parallel, search_cache
    from repro.serving.contexts import ContextStore
    from repro.serving.scheduler import FairScheduler
    from repro.session.session import DrillDownSession

    for method in ("expand", "expand_star"):
        setattr(
            DrillDownSession, method,
            tracer.wrap(getattr(DrillDownSession, method), "session.expand"),
        )
    ContextStore.lease = tracer.wrap(ContextStore.lease, "contexts.lease")
    FairScheduler.charge = tracer.wrap(FairScheduler.charge, "scheduler.charge")

    dispatch_turn = FairScheduler.dispatch_turn

    @contextmanager
    def timed_turn(self, tenant, **kwargs):
        # The span covers the wait for the turn, not the time it is held.
        turn = dispatch_turn(self, tenant, **kwargs)
        with tracer.span("scheduler.wait"):
            turn.__enter__()
        try:
            yield
        finally:
            turn.__exit__(None, None, None)

    FairScheduler.dispatch_turn = timed_turn
    search_cache.SearchContext.find_best = tracer.wrap(
        search_cache.SearchContext.find_best, "search.find_best", _search_attrs
    )
    kernel = tracer.wrap(parallel.count_extensions_kernel, "parallel.kernel", _kernel_attrs)
    for module in (parallel, search_cache, marginal, first_pick):
        module.count_extensions_kernel = kernel


# -- reading spans back -------------------------------------------------------------


def load(path) -> list[tuple]:
    with open(path) as handle:
        return [tuple(span) for span in json.load(handle)]


def nesting_errors(spans: list[tuple]) -> list[str]:
    """Spans that do not lie within their parent's interval."""
    by_id = {span[0]: span for span in spans}
    errors = []
    for span_id, parent, name, start, end, _rid, _attrs in spans:
        if end < start:
            errors.append(f"{name}#{span_id} ends before it starts")
        outer = by_id.get(parent)
        if outer is not None and not (outer[3] <= start and end <= outer[4]):
            errors.append(f"{name}#{span_id} escapes parent {outer[2]}#{parent}")
    return errors
