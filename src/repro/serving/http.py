"""Stdlib-only HTTP front end for the multi-tenant serving tier.

A thin JSON shim over :class:`~repro.serving.DrillDownServer` built on
``http.server`` — zero dependencies beyond the standard library, good
enough for interactive exploration and integration tests, and honest
about it (see docs/SERVING.md for when to put a real ASGI gateway in
front instead).  The handler is threaded
(:class:`http.server.ThreadingHTTPServer`), which is exactly the
concurrency the tier is built for: per-session locks serialise one
tenant's clicks while different tenants' requests run side by side.

Endpoints (all bodies JSON)::

    GET    /healthz                      liveness probe
    GET    /stats                        tier-wide counters
    GET    /tables                       registered table names
    POST   /tables                       {"name", "dataset"} or
                                         {"name", "columns", "rows"[, "numeric"]}
    POST   /tables/<name>/rows           {"rows": [[...], ...]} — append rows
                                         as a new table version (docs/SERVING.md,
                                         "Versioned tables")
    POST   /sessions                     {"table"[, "tenant", "wf", "k", "mw",
                                         "measure"]} -> {"session_id", ...}
    GET    /sessions/<id>                displayed tree as nested JSON
    DELETE /sessions/<id>                close the session
    POST   /sessions/<id>/expand         {"rule"[, "k", "approx", "error_target"]}
                                         -> {"children": [...]}
    POST   /sessions/<id>/expand_star    {"rule", "column"[, "k", "approx",
                                         "error_target"]}
    POST   /sessions/<id>/collapse       {"rule"}
    GET    /sessions/<id>/render         {"text": dotted table}

Rules travel as one JSON array entry per column with ``null`` for the
``?`` wildcard — ``["Walmart", null, null]`` — so a table whose data
contains JSON ``null`` values is not addressable over the wire (use
the programmatic facade for that).

Error mapping: unknown table/session -> 404, closed session or a
conflicting re-registration (``TableConflictError`` — the name already
holds different data; append or replace instead) -> 409, exhausted
tenant budget -> 429 (with ``Retry-After`` when the bucket
refills), a dead/wedged/circuit-open shard or an exceeded deadline ->
503 with ``Retry-After``, a client whose socket stalls mid-request ->
408 (see ``request_timeout``), any other
:class:`~repro.errors.ReproError` or malformed body (bad JSON, a
non-JSON ``Content-Type``, out-of-range column, ...) -> 400,
everything else -> 500.  Requests may carry an ``X-Deadline`` header
(seconds): work still queued or running at the deadline is abandoned
and answered 503 (docs/SERVING.md, "Fault tolerance").  The body always carries
``{"error": <exception class>, "message": ...}`` — including for
stdlib-generated failures like an unsupported method (501), which
would otherwise answer HTML to a JSON API.

Run it::

    PYTHONPATH=src python -m repro.serving.http --port 8080 --shards 2

and walk through docs/SERVING.md with curl.  Add
``--persist-dir <dir>`` for durable sessions: trees are checkpointed
in the background (``--checkpoint-interval``), idle sessions are
expired by the background reaper (``--reaper-interval``) instead of on
request traffic, shutdown checkpoints everything dirty, and a restart
over the same directory restores every session under its original id
(``/stats`` reports the ``persistence`` counters).

``--shards N`` serves through a :class:`~repro.serving.ShardRouter`
instead of an in-process :class:`~repro.serving.DrillDownServer`: N
worker processes, consistent-hash table placement, sticky sessions,
automatic restart of crashed shards (with warm restore when
``--persist-dir`` is set — each shard owns a subdirectory).  The API
and every response byte are identical; ``/stats`` gains a per-shard
breakdown.
"""

from __future__ import annotations

import argparse
import json
import re
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any

from repro.core.rule import STAR, Rule, Wildcard
from repro.datasets import generate_census, generate_marketing, generate_retail
from repro.errors import (
    DeadlineExceededError,
    ReproError,
    SessionClosedError,
    ShardError,
    TableConflictError,
    TenantBudgetError,
    UnknownSessionError,
    UnknownTableError,
)
from repro.serving.router import ShardRouter
from repro.serving.server import DrillDownServer
from repro.session.session import SessionNode
from repro.table.schema import ColumnKind, ColumnSchema, Schema
from repro.table.table import Table

__all__ = [
    "make_handler",
    "node_to_wire",
    "rule_from_wire",
    "rule_to_wire",
    "serve",
]

#: Datasets registrable by name over the wire (generated server-side,
#: so the walkthrough needs no data upload).
_DATASETS = {
    "retail": generate_retail,
    "marketing": generate_marketing,
    "census": lambda: generate_census(50_000, n_columns=7),
}


# -- wire format ----------------------------------------------------------------


def rule_to_wire(rule: Rule) -> list:
    """One JSON entry per column; ``?`` becomes ``null``."""
    return [None if isinstance(v, Wildcard) else v for v in rule]


def rule_from_wire(values: Any, n_columns: int) -> Rule:
    """Decode a wire rule (``null`` = wildcard) against a column count."""
    if not isinstance(values, list) or len(values) != n_columns:
        raise ReproError(
            f"rule must be a JSON array of {n_columns} values (null = wildcard)"
        )
    return Rule([STAR if v is None else v for v in values])


def node_to_wire(node: SessionNode, *, deep: bool = False) -> dict:
    """A displayed node (optionally its whole subtree) as plain JSON.

    ``estimate`` — the approximate-expansion confidence metadata — is
    emitted only when the node carries one, so exact responses keep
    their pre-approx bytes.
    """
    out = {
        "rule": rule_to_wire(node.rule),
        "count": node.count,
        "weight": node.weight,
        "depth": node.depth,
        "expanded": node.is_expanded,
        "expanded_via": node.expanded_via,
    }
    if node.estimate is not None:
        out["estimate"] = dict(node.estimate)
    if deep:
        out["children"] = [node_to_wire(c, deep=True) for c in node.children]
    return out


def _table_from_body(body: dict) -> Table:
    dataset = body.get("dataset")
    if dataset is not None:
        try:
            factory = _DATASETS[dataset]
        except KeyError:
            raise ReproError(
                f"unknown dataset {dataset!r}; one of {sorted(_DATASETS)}"
            ) from None
        return factory()
    columns = body.get("columns")
    rows = body.get("rows")
    if not columns or rows is None:
        raise ReproError(
            'register a table with {"name", "dataset"} or {"name", "columns", "rows"}'
        )
    if not isinstance(columns, list) or not isinstance(rows, list):
        raise ReproError('"columns" and "rows" must be JSON arrays')
    numeric = set(body.get("numeric", ()))
    schema = Schema(
        [
            ColumnSchema(
                name, ColumnKind.NUMERIC if name in numeric else ColumnKind.CATEGORICAL
            )
            for name in columns
        ]
    )
    return Table.from_rows(schema, rows)


# -- the handler ----------------------------------------------------------------

_SESSION_PATH = re.compile(r"^/sessions/([^/]+)(?:/(expand|expand_star|collapse|render))?$")
_TABLE_ROWS_PATH = re.compile(r"^/tables/([^/]+)/rows$")


def make_handler(
    server: "DrillDownServer | ShardRouter",
    *,
    quiet: bool = True,
    request_timeout: float | None = None,
    default_deadline: float | None = None,
) -> type:
    """A request-handler class bound to one serving facade.

    The facade may be an in-process :class:`DrillDownServer` or a
    :class:`~repro.serving.ShardRouter` — the handler only speaks the
    shared surface (``create_session`` / ``expand`` / ``render`` /
    ``tree`` / ``session_columns`` / ...), so the wire behaviour is
    identical either way.

    ``request_timeout`` bounds every socket read: a client that opens a
    connection and trickles (or never sends) its request — the classic
    slowloris — gets a 408 (when enough of the request arrived to
    answer) or a plain close, instead of parking a handler thread
    forever.  ``default_deadline`` is the deadline (seconds) forwarded
    to the tier for requests that carry no ``X-Deadline`` header; a
    header value always wins.
    """

    class Handler(BaseHTTPRequestHandler):
        protocol_version = "HTTP/1.1"
        tier = server
        # socketserver applies this to the connection via settimeout(),
        # so the request line, headers, *and* body reads are all
        # bounded.  None = no limit (the pre-hardening behaviour).
        timeout = request_timeout

        # -- plumbing -----------------------------------------------------------

        def log_message(self, fmt: str, *args) -> None:  # noqa: D102
            if not quiet:
                super().log_message(fmt, *args)

        def _json(
            self, status: int, payload: dict, headers: dict | None = None
        ) -> None:
            body = json.dumps(payload, default=str).encode()
            self.send_response(status)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(body)))
            for key, value in (headers or {}).items():
                self.send_header(key, value)
            self.end_headers()
            self.wfile.write(body)

        def _body(self) -> dict:
            length = int(self.headers.get("Content-Length") or 0)
            if length == 0:
                return {}
            # A declared non-JSON body is a client bug worth a clear
            # 400 now, not a JSON parse error (or worse, a silently
            # misinterpreted payload) later.  An *absent* header stays
            # accepted — the documented curl walkthrough relies on it.
            declared = (self.headers.get("Content-Type") or "").split(";", 1)[0].strip()
            if declared and declared.lower() not in (
                "application/json",
                # curl -d's default; the docs' walkthrough bodies are
                # JSON text sent under this label.
                "application/x-www-form-urlencoded",
            ):
                raise ReproError(
                    f"Content-Type {declared!r} is not supported; "
                    "send application/json"
                )
            try:
                parsed = json.loads(self.rfile.read(length))
            except json.JSONDecodeError as exc:
                raise ReproError(f"request body is not valid JSON: {exc}") from None
            if not isinstance(parsed, dict):
                raise ReproError("request body must be a JSON object")
            return parsed

        def send_error(  # noqa: D102 - stdlib hook
            self, code: int, message: str | None = None, explain: str | None = None
        ) -> None:
            # The stdlib answers protocol-level failures (unsupported
            # method -> 501, malformed request line -> 400) with an
            # HTML page; a JSON API must stay JSON on every path.
            self._json(
                code,
                {
                    "error": "HTTPError",
                    "message": message or self.responses.get(code, ("", ""))[0] or str(code),
                },
            )

        def _fail(self, exc: Exception) -> None:
            if isinstance(exc, (UnknownTableError, UnknownSessionError)):
                status = 404
            elif isinstance(exc, (SessionClosedError, TableConflictError)):
                # A closed session or a name already registered with
                # different data: the request conflicts with live state
                # (the conflict message names the remedies —
                # append_rows / replace_table).
                status = 409
            elif isinstance(exc, TenantBudgetError):
                status = 429
            elif isinstance(exc, (ShardError, DeadlineExceededError)):
                # Shard died/wedged (restarted with warm restore),
                # circuit open, or the deadline ran out: the tier is
                # degraded or saturated, not the request wrong — 503
                # with a Retry-After the client can honour.
                status = 503
            elif isinstance(exc, TimeoutError):
                # The *client's* socket stalled mid-request (slowloris
                # or a dead peer): answer 408 and drop the connection —
                # this handler thread is not parked on it any longer.
                status = 408
                self.close_connection = True
            elif isinstance(exc, (ReproError, KeyError, TypeError, ValueError, IndexError)):
                status = 400
            else:  # pragma: no cover - defensive
                status = 500
            payload = {"error": type(exc).__name__, "message": str(exc)}
            headers = None
            retry_after = getattr(exc, "retry_after", None)
            if isinstance(exc, TenantBudgetError):
                payload["retry_after"] = retry_after
            if status == 503 and retry_after is None:
                retry_after = 1.0  # degraded tiers always hint a backoff
            if status in (429, 503) and retry_after is not None:
                payload.setdefault("retry_after", retry_after)
                headers = {"Retry-After": str(max(1, int(retry_after + 1)))}
            try:
                self._json(status, payload, headers)
            except OSError:  # pragma: no cover - peer already gone
                self.close_connection = True

        def _deadline(self) -> float | None:
            """Per-request deadline: ``X-Deadline`` header (seconds),
            else the handler's configured default, else ``None`` (the
            tier's own ``default_deadline`` still applies)."""
            raw = self.headers.get("X-Deadline")
            if raw is None:
                return default_deadline
            try:
                value = float(raw)
            except ValueError:
                raise ReproError(
                    f"X-Deadline must be a number of seconds, got {raw!r}"
                ) from None
            if value <= 0:
                raise ReproError("X-Deadline must be > 0 seconds")
            return value

        def _session_rule(
            self, session_id: str, body: dict, deadline: float | None = None
        ) -> Rule:
            n_columns = len(
                self.tier.session_columns(session_id, deadline=deadline)
            )
            return rule_from_wire(body.get("rule"), n_columns)

        # -- verbs --------------------------------------------------------------

        def do_GET(self) -> None:  # noqa: N802
            try:
                if self.path == "/healthz":
                    return self._json(200, {"ok": True})
                if self.path == "/stats":
                    return self._json(200, self.tier.stats())
                if self.path == "/tables":
                    return self._json(200, {"tables": list(self.tier.tables())})
                match = _SESSION_PATH.match(self.path)
                if match and match.group(2) == "render":
                    text = self.tier.render(match.group(1), deadline=self._deadline())
                    return self._json(200, {"text": text})
                if match and match.group(2) is None:
                    root = self.tier.tree(match.group(1), deadline=self._deadline())
                    return self._json(200, {"tree": node_to_wire(root, deep=True)})
                return self._json(404, {"error": "NotFound", "message": self.path})
            except Exception as exc:
                self._fail(exc)

        def do_POST(self) -> None:  # noqa: N802
            try:
                body = self._body()
                if self.path == "/tables":
                    name = body.get("name")
                    if not name:
                        raise ReproError('table registration needs a "name"')
                    table = self.tier.register_table(name, _table_from_body(body))
                    return self._json(
                        201,
                        {"name": name, "rows": table.n_rows,
                         "columns": list(table.column_names)},
                    )
                table_match = _TABLE_ROWS_PATH.match(self.path)
                if table_match:
                    rows = body.get("rows")
                    if not isinstance(rows, list) or not rows:
                        raise ReproError(
                            '"rows" must be a non-empty JSON array of row arrays'
                        )
                    record = self.tier.append_rows(table_match.group(1), rows)
                    return self._json(200, {"name": table_match.group(1), **record})
                if self.path == "/sessions":
                    deadline = self._deadline()
                    session_id = self.tier.create_session(
                        body["table"],
                        tenant=body.get("tenant", "default"),
                        wf=body.get("wf", "size"),
                        k=int(body.get("k", 3)),
                        mw=float(body.get("mw", 5.0)),
                        measure=body.get("measure"),
                        deadline=deadline,
                    )
                    return self._json(
                        201,
                        {
                            "session_id": session_id,
                            "table": body["table"],
                            "columns": list(
                                self.tier.session_columns(session_id, deadline=deadline)
                            ),
                            "root": node_to_wire(
                                self.tier.tree(session_id, deadline=deadline)
                            ),
                        },
                    )
                match = _SESSION_PATH.match(self.path)
                if match and match.group(2) in ("expand", "expand_star", "collapse"):
                    session_id, op = match.group(1), match.group(2)
                    deadline = self._deadline()
                    rule = self._session_rule(session_id, body, deadline)
                    approx = body.get("approx")
                    if approx is not None and not isinstance(approx, bool):
                        raise ReproError('"approx" must be a JSON boolean')
                    if op == "collapse":
                        self.tier.collapse(session_id, rule, deadline=deadline)
                        return self._json(200, {"collapsed": rule_to_wire(rule)})
                    columns = (body["column"],) if op == "expand_star" else ()
                    children = getattr(self.tier, op)(
                        session_id, rule, *columns, k=body.get("k"), approx=approx,
                        error_target=body.get("error_target"), deadline=deadline,
                    )
                    return self._json(
                        200, {"children": [node_to_wire(c) for c in children]}
                    )
                return self._json(404, {"error": "NotFound", "message": self.path})
            except Exception as exc:
                self._fail(exc)

        def do_DELETE(self) -> None:  # noqa: N802
            try:
                match = _SESSION_PATH.match(self.path)
                if match and match.group(2) is None:
                    closed = self.tier.close_session(match.group(1))
                    return self._json(200, {"closed": closed})
                return self._json(404, {"error": "NotFound", "message": self.path})
            except Exception as exc:
                self._fail(exc)

    return Handler


def serve(
    server: "DrillDownServer | ShardRouter",
    *,
    host: str = "127.0.0.1",
    port: int = 8080,
    quiet: bool = True,
    request_timeout: float | None = 30.0,
    default_deadline: float | None = None,
) -> ThreadingHTTPServer:
    """Bind the HTTP front end; the caller drives ``serve_forever()``.

    ``port=0`` binds an ephemeral port (tests); read it back from
    ``httpd.server_address``.  Shutting down the HTTP layer does *not*
    close the tier — call ``server.close()`` separately.
    ``request_timeout`` (seconds; default 30) bounds socket reads so a
    stalled client cannot park a handler thread; ``default_deadline``
    seeds the per-request deadline for clients that send no
    ``X-Deadline`` header.
    """
    handler = make_handler(
        server,
        quiet=quiet,
        request_timeout=request_timeout,
        default_deadline=default_deadline,
    )
    httpd = ThreadingHTTPServer((host, port), handler)
    httpd.daemon_threads = True
    return httpd


def main(argv: list[str] | None = None) -> None:
    """``python -m repro.serving.http``: stand up a serving tier."""
    parser = argparse.ArgumentParser(description="smart drill-down serving tier")
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=8080)
    parser.add_argument("--shards", type=int, default=0,
                        help="serve through N shard worker processes "
                             "(default 0: one in-process tier)")
    parser.add_argument("--max-sessions", type=int, default=64)
    parser.add_argument("--ttl", type=float, default=900.0,
                        help="idle session TTL in seconds (default 900)")
    parser.add_argument("--budget", type=float, default=None,
                        help="per-tenant token budget in source rows (default: unmetered)")
    parser.add_argument("--refill", type=float, default=0.0,
                        help="budget tokens refilled per second")
    parser.add_argument("--persist-dir", default=None,
                        help="directory for durable session snapshots "
                             "(default: memory-only; sessions die with the process; "
                             "with --shards, each shard owns a subdirectory)")
    parser.add_argument("--persist-max-bytes", type=int, default=None,
                        help="cap on the snapshot directory's total size; "
                             "oldest-recency snapshots are evicted past it "
                             "(default: unbounded; with --shards: per shard)")
    parser.add_argument("--checkpoint-interval", type=float, default=30.0,
                        help="seconds between dirty-session checkpoint sweeps "
                             "(with --persist-dir; default 30)")
    parser.add_argument("--reaper-interval", type=float, default=30.0,
                        help="background TTL-reaper period in seconds; "
                             "0 disables the thread (default 30)")
    parser.add_argument("--sample-budget", type=int, default=None,
                        help="pre-build per-table samples of this many tuples "
                             "at registration, enabling approximate expansions "
                             "(default: exact only)")
    parser.add_argument("--sample-seed", type=int, default=0,
                        help="base seed for the sample draws (default 0)")
    parser.add_argument("--default-approx", action="store_true",
                        help="mine expansions on the samples unless a request "
                             "says approx=false (requires --sample-budget)")
    parser.add_argument("--error-target", type=float, default=0.1,
                        help="relative confidence-interval half-width above "
                             "which an approximate expansion escalates to "
                             "exact counting (default 0.1)")
    parser.add_argument("--request-timeout", type=float, default=30.0,
                        help="socket read timeout in seconds; a stalled "
                             "client gets 408 instead of a parked thread "
                             "(default 30; 0 disables)")
    parser.add_argument("--deadline", type=float, default=None,
                        help="default per-request deadline in seconds; "
                             "clients override per request with the "
                             "X-Deadline header (default: unbounded)")
    parser.add_argument("--watchdog-interval", type=float, default=10.0,
                        help="with --shards: seconds between shard health "
                             "sweeps; 0 disables the watchdog (default 10)")
    parser.add_argument("--breaker-threshold", type=int, default=5,
                        help="with --shards: consecutive shard failures "
                             "before its circuit opens (default 5)")
    parser.add_argument("--breaker-cooldown", type=float, default=1.0,
                        help="with --shards: seconds an open circuit waits "
                             "before probing the shard again (default 1)")
    parser.add_argument("--verbose", action="store_true", help="log requests")
    args = parser.parse_args(argv)

    tier_kwargs = dict(
        max_sessions=args.max_sessions,
        ttl_seconds=args.ttl,
        tenant_budget=args.budget,
        refill_per_second=args.refill,
        persist_dir=args.persist_dir,
        persist_max_bytes=args.persist_max_bytes,
        checkpoint_interval=args.checkpoint_interval,
        reaper_interval=args.reaper_interval or None,
        default_deadline=args.deadline,
        sample_budget=args.sample_budget,
        sample_seed=args.sample_seed,
        default_approx=args.default_approx,
        default_error_target=args.error_target,
    )
    if args.shards and args.shards > 0:
        tier: DrillDownServer | ShardRouter = ShardRouter(
            args.shards,
            watchdog_interval=args.watchdog_interval or None,
            breaker_threshold=args.breaker_threshold,
            breaker_cooldown=args.breaker_cooldown,
            **tier_kwargs,
        )
        topology = f"shards={args.shards}"
    else:
        tier = DrillDownServer(**tier_kwargs)
        topology = "in-process"
    httpd = serve(
        tier,
        host=args.host,
        port=args.port,
        quiet=not args.verbose,
        request_timeout=args.request_timeout or None,
    )
    host, port = httpd.server_address[:2]
    durability = f", persist={args.persist_dir}" if args.persist_dir else ""
    print(f"serving smart drill-down on http://{host}:{port} "
          f"({topology}, ttl={args.ttl}s{durability})")
    try:
        httpd.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        httpd.shutdown()
        # Graceful: tier.close() stops the reaper and checkpoints every
        # dirty session before closing it, so restarting over the same
        # --persist-dir resumes each tenant's tree exactly here.
        tier.close()
        if args.persist_dir:
            print(f"checkpointed sessions to {args.persist_dir}")


if __name__ == "__main__":
    main()
