"""The shard worker: one full serving tier in a child process.

A sharded deployment (:mod:`repro.serving.router`) runs N worker
processes, each hosting its own complete
:class:`~repro.serving.DrillDownServer` — catalog, registry, context
store, scheduler, and (optionally) snapshot store +
reaper.  This module is everything that runs *inside* one such worker
and the protocol both sides speak:

* **Framing** — length-prefixed JSON over a duplex
  :func:`multiprocessing.Pipe` (``send_bytes``/``recv_bytes`` is
  exactly a length prefix followed by the payload).  One request, one
  response, matched by ``id``; the router serialises requests per
  shard, so the pipe never interleaves frames.
* **Value encoding** — rules travel as the snapshot format's tagged
  value arrays (:func:`~repro.serving.persistence.encode_rule`), so
  every value a rule can hold — strings, ints, floats, ``None``,
  bucketized intervals — round-trips exactly; counts and weights
  round-trip bit-exactly through JSON's ``repr``-based float encoding.
  Tables cross the pipe once, at registration, as dictionary +
  codes per categorical column (the dictionary *order* is preserved,
  so the decoded table's integer codes — and therefore every mining
  tie-break — are identical to the original's).
* **Error encoding** — a typed :class:`~repro.errors.ReproError`
  raised by the shard's server is sent back by class name and
  re-raised *as itself* on the router side, so the HTTP error mapping
  (404/409/429/400) is oblivious to sharding.  Unknown classes and
  infrastructure failures surface as
  :class:`~repro.errors.ShardError` (HTTP 503).
* **The loop** — :func:`shard_main`: construct the server, answer
  requests until ``shutdown`` or EOF, then ``server.close()`` — which
  checkpoints every dirty session when the shard is durable, making a
  clean router shutdown a warm-restartable state.

:class:`ShardProcess` is the router-side handle: it forks (or spawns)
the worker, pins the parent end of the pipe, serialises requests under
a lock, and exposes ``kill()`` for fault-injection tests.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import threading
import time
from typing import Any

import numpy as np

from repro import errors as _errors_module
from repro.core.rule import Rule
from repro.errors import ReproError, ShardError, TenantBudgetError
from repro.serving.faults import ChaosPolicy
from repro.serving.persistence import _decode_value, _encode_value, decode_rule, encode_rule
from repro.session.session import SessionNode
from repro.table.column import CategoricalColumn, NumericColumn
from repro.table.schema import ColumnKind, ColumnSchema, Schema
from repro.table.table import Table

__all__ = [
    "ShardBusyError",
    "ShardProcess",
    "ShardWedgedError",
    "decode_error",
    "decode_node",
    "decode_table",
    "encode_error",
    "encode_node",
    "encode_table",
    "shard_main",
]


class ShardWedgedError(TimeoutError):
    """The worker missed its reply window: the request was *sent* but
    no response arrived within the deadline.  The handle is condemned
    (a late reply would answer the *next* request — stream out of
    sync), so the router must kill and restart the worker.  A
    ``TimeoutError`` (hence ``OSError``): existing broken-pipe catches
    see it as a pipe failure."""


class ShardBusyError(TimeoutError):
    """The handle lock could not be acquired within the deadline: the
    shard is saturated serving *other* requests, not proven sick.  The
    pipe was never touched — the handle stays usable and the breaker
    is not charged."""


# -- wire encoding: tables -------------------------------------------------------


def encode_table(table: Table) -> dict:
    """A table as JSON: per-column dictionary + codes (categorical) or
    float data (numeric).  Dictionary order is preserved — decoded
    codes are bit-identical, so mining tie-breaks cannot drift."""
    columns = []
    for col_schema in table.schema:
        if col_schema.is_categorical:
            col = table.categorical(col_schema.name)
            columns.append(
                {
                    "kind": "categorical",
                    "name": col_schema.name,
                    "values": [_encode_value(v) for v in col.values],
                    "codes": col.codes.tolist(),
                }
            )
        else:
            col = table.numeric(col_schema.name)
            columns.append(
                {"kind": "numeric", "name": col_schema.name, "data": col.data.tolist()}
            )
    return {"columns": columns, "rows": table.n_rows}


def decode_table(spec: dict) -> Table:
    """Invert :func:`encode_table`."""
    entries: list[ColumnSchema] = []
    columns: list[CategoricalColumn | NumericColumn] = []
    for col in spec["columns"]:
        if col["kind"] == "categorical":
            entries.append(ColumnSchema(col["name"], ColumnKind.CATEGORICAL))
            columns.append(
                CategoricalColumn(
                    np.asarray(col["codes"], dtype=np.int32),
                    [_decode_value(v) for v in col["values"]],
                )
            )
        else:
            entries.append(ColumnSchema(col["name"], ColumnKind.NUMERIC))
            columns.append(NumericColumn(np.asarray(col["data"], dtype=np.float64)))
    return Table(Schema(entries), columns)


# -- wire encoding: displayed nodes ----------------------------------------------


def encode_node(node: SessionNode) -> dict:
    """A displayed node and its whole subtree as JSON (exact floats).

    ``estimate`` (approximate-expansion metadata, already JSON
    primitives) is written only when present, so exact responses keep
    their pre-approx wire bytes.
    """
    payload = {
        "rule": encode_rule(node.rule),
        "count": float(node.count),
        "weight": float(node.weight),
        "depth": int(node.depth),
        "expanded_via": node.expanded_via,
        "children": [encode_node(c) for c in node.children],
    }
    if node.estimate is not None:
        payload["estimate"] = dict(node.estimate)
    return payload


def decode_node(payload: dict) -> SessionNode:
    """Invert :func:`encode_node`."""
    estimate = payload.get("estimate")
    node = SessionNode(
        rule=decode_rule(payload["rule"]),
        count=float(payload["count"]),
        weight=float(payload["weight"]),
        depth=int(payload["depth"]),
        expanded_via=payload.get("expanded_via"),
        estimate=dict(estimate) if estimate is not None else None,
    )
    node.children = [decode_node(c) for c in payload.get("children", ())]
    return node


# -- wire encoding: errors -------------------------------------------------------

#: Exception classes that re-raise as themselves across the pipe: every
#: typed error in :mod:`repro.errors` plus the builtins the HTTP layer
#: maps to 400 (a shard's ``KeyError`` must stay a 400, not become 503).
_ERROR_CLASSES: dict[str, type] = {
    name: obj
    for name, obj in vars(_errors_module).items()
    if isinstance(obj, type) and issubclass(obj, ReproError)
}
_ERROR_CLASSES.update(
    {cls.__name__: cls for cls in (KeyError, IndexError, TypeError, ValueError)}
)


def encode_error(exc: BaseException) -> dict:
    """An exception as a wire payload (class name + message + extras)."""
    payload: dict[str, Any] = {"error": type(exc).__name__, "message": str(exc)}
    if isinstance(exc, TenantBudgetError):
        payload["budget"] = {
            "tenant": exc.tenant if isinstance(exc.tenant, (str, int, float)) else str(exc.tenant),
            "requested": exc.requested,
            "available": exc.available,
            "retry_after": exc.retry_after,
        }
    else:
        # Back-off hints (DeadlineExceededError, CircuitOpenError, ...)
        # survive the pipe so the HTTP layer's Retry-After header is
        # identical with and without sharding.
        retry_after = getattr(exc, "retry_after", None)
        if isinstance(retry_after, (int, float)):
            payload["retry_after"] = float(retry_after)
    return payload


def decode_error(payload: dict, *, shard: int | None = None) -> BaseException:
    """Rebuild the exception a shard reported.

    Known classes come back as themselves (so ``isinstance``-based
    error mapping — and callers catching :class:`SessionError` etc. —
    behave exactly as in-process); anything else becomes a
    :class:`~repro.errors.ShardError`.
    """
    name = payload.get("error", "ShardError")
    message = payload.get("message", "")
    budget = payload.get("budget")
    if name == "TenantBudgetError" and budget is not None:
        return TenantBudgetError(
            budget.get("tenant"),
            float(budget.get("requested", 0.0)),
            float(budget.get("available", 0.0)),
            budget.get("retry_after"),
        )
    cls = _ERROR_CLASSES.get(name)
    if cls is None:
        where = "shard" if shard is None else f"shard {shard}"
        return ShardError(f"{where} failed: {name}: {message}")
    try:
        exc = cls(message)
    except Exception:  # pragma: no cover - exotic constructor
        return ShardError(f"shard error {name}: {message}")
    retry_after = payload.get("retry_after")
    if isinstance(retry_after, (int, float)):
        exc.retry_after = float(retry_after)
    return exc


# -- the worker loop -------------------------------------------------------------


def _maybe_rule(encoded: Any) -> Rule | None:
    return None if encoded is None else decode_rule(encoded)


def _op_ping(server, args: dict) -> dict:
    return {"pid": os.getpid(), "tables": list(server.tables())}


def _op_register_table(server, args: dict) -> dict:
    table = decode_table(args["table"])
    server.register_table(args["name"], table)
    # Report every live session with its table: after a warm restart
    # the router learns the restored ids (and their routing table)
    # from this list.
    return {
        "rows": table.n_rows,
        "columns": list(table.column_names),
        "version": server.catalog.latest_version(args["name"]),
        "sessions": [
            [e.session_id, e.table, e.table_version]
            for e in server.registry.entries()
        ],
    }


def _op_unregister_table(server, args: dict) -> dict:
    server.unregister_table(args["name"])
    return {}


def _op_append_rows(server, args: dict) -> dict:
    # Rows travel as the snapshot format's tagged value arrays, so every
    # value type a cell can hold round-trips exactly (intervals included).
    rows = [[_decode_value(v) for v in row] for row in args["rows"]]
    return server.append_rows(args["name"], rows)


def _op_replace_table(server, args: dict) -> dict:
    return server.replace_table(args["name"], decode_table(args["table"]))


def _op_tables(server, args: dict) -> dict:
    return {"tables": list(server.tables())}


def _op_create_session(server, args: dict) -> dict:
    session_id = server.create_session(
        args["table"],
        tenant=args.get("tenant", "default"),
        wf=args.get("wf", "size"),
        k=args.get("k", 3),
        mw=args.get("mw", 5.0),
        measure=args.get("measure"),
    )
    entry = server.registry.peek(session_id)
    return {
        "session_id": session_id,
        "table_version": None if entry is None else entry.table_version,
    }


def _op_expand(server, args: dict) -> dict:
    children = server.expand(
        args["session_id"],
        _maybe_rule(args.get("rule")),
        k=args.get("k"),
        approx=args.get("approx"),
        error_target=args.get("error_target"),
    )
    return {"children": [encode_node(c) for c in children]}


def _op_expand_star(server, args: dict) -> dict:
    children = server.expand_star(
        args["session_id"],
        decode_rule(args["rule"]),
        args["column"],
        k=args.get("k"),
        approx=args.get("approx"),
        error_target=args.get("error_target"),
    )
    return {"children": [encode_node(c) for c in children]}


def _op_expand_traditional(server, args: dict) -> dict:
    children = server.expand_traditional(
        args["session_id"],
        decode_rule(args["rule"]),
        args["column"],
        k=args.get("k"),
        approx=args.get("approx"),
        error_target=args.get("error_target"),
    )
    return {"children": [encode_node(c) for c in children]}


def _op_collapse(server, args: dict) -> dict:
    server.collapse(args["session_id"], decode_rule(args["rule"]))
    return {}


def _op_render(server, args: dict) -> dict:
    text = server.render(
        args["session_id"],
        sort_display_by_count=bool(args.get("sort_display_by_count", False)),
    )
    return {"text": text}


def _op_tree(server, args: dict) -> dict:
    return {"root": encode_node(server.tree(args["session_id"]))}


def _op_session_columns(server, args: dict) -> dict:
    return {"columns": list(server.session_columns(args["session_id"]))}


def _op_close_session(server, args: dict) -> dict:
    return {"closed": server.close_session(args["session_id"])}


def _op_stats(server, args: dict) -> dict:
    return server.stats()


def _op_checkpoint_all(server, args: dict) -> dict:
    return {"written": server.checkpoint_all(only_dirty=bool(args.get("only_dirty", True)))}


def _op_reap(server, args: dict) -> dict:
    return {"evicted": server.reap()}


_OP_HANDLERS = {
    "ping": _op_ping,
    "register_table": _op_register_table,
    "unregister_table": _op_unregister_table,
    "append_rows": _op_append_rows,
    "replace_table": _op_replace_table,
    "tables": _op_tables,
    "create_session": _op_create_session,
    "expand": _op_expand,
    "expand_star": _op_expand_star,
    "expand_traditional": _op_expand_traditional,
    "collapse": _op_collapse,
    "render": _op_render,
    "tree": _op_tree,
    "session_columns": _op_session_columns,
    "close_session": _op_close_session,
    "stats": _op_stats,
    "checkpoint_all": _op_checkpoint_all,
    "reap": _op_reap,
}


def shard_main(conn, shard_id: int, server_kwargs: dict) -> None:
    """The worker-process entry point: serve one pipe until shutdown.

    Constructs a full :class:`~repro.serving.DrillDownServer` from
    ``server_kwargs`` (which includes the shard's own ``persist_dir``
    and session-id prefix), then answers one request frame at a time.
    Every exception an operation raises is encoded into the response —
    the loop itself only exits on ``shutdown`` or a closed pipe, and
    always closes the server on the way out (checkpointing dirty
    sessions when durable, so even an EOF-terminated shard leaves a
    warm-restartable directory behind).
    """
    # Imported lazily so the module can be loaded by spawn-method
    # pickling before the server's dependency graph is.
    from repro.serving.server import DrillDownServer

    server = DrillDownServer(**server_kwargs)
    chaos: ChaosPolicy | None = None
    try:
        while True:
            try:
                raw = conn.recv_bytes()
            except (EOFError, OSError):
                break
            try:
                request = json.loads(raw.decode("utf-8"))
            except (UnicodeDecodeError, json.JSONDecodeError):
                break  # unframeable garbage: the pipe is unusable
            request_id = request.get("id")
            op = request.get("op")
            if op == "shutdown":
                try:
                    conn.send_bytes(
                        json.dumps({"id": request_id, "ok": True, "result": {}}).encode()
                    )
                except (BrokenPipeError, OSError):  # pragma: no cover - racing close
                    pass
                break
            if op == "chaos":
                # Fault-injection control plane: install (or clear) a
                # ChaosPolicy applied to every *subsequent* op at this,
                # the protocol level — a "wedge" really blocks the
                # worker loop, a "crash" really kills the process.
                try:
                    args = request.get("args") or {}
                    chaos = ChaosPolicy.decode(args) if args.get("rules") else None
                    response = {
                        "id": request_id,
                        "ok": True,
                        "result": {"rules": 0 if chaos is None else len(chaos.rules)},
                    }
                except Exception as exc:
                    response = {"id": request_id, "ok": False, **encode_error(exc)}
                try:
                    conn.send_bytes(json.dumps(response, default=str).encode("utf-8"))
                except (BrokenPipeError, OSError):  # pragma: no cover - racing close
                    break
                continue
            chaos_rule = None if chaos is None else chaos.fire(op)
            handler = _OP_HANDLERS.get(op)
            try:
                if chaos_rule is not None:
                    if chaos_rule.kind == "crash":
                        os._exit(23)
                    if chaos_rule.kind == "wedge":
                        time.sleep(chaos_rule.seconds)
                    if chaos_rule.kind == "error":
                        raise ShardError(f"chaos: injected failure on {op!r}")
                if handler is None:
                    raise ShardError(f"unknown shard op {op!r}")
                response = {
                    "id": request_id,
                    "ok": True,
                    "result": handler(server, request.get("args") or {}),
                }
            except Exception as exc:
                response = {"id": request_id, "ok": False, **encode_error(exc)}
            if chaos_rule is not None:
                if chaos_rule.kind == "delay":
                    time.sleep(chaos_rule.seconds)
                if chaos_rule.kind == "drop_reply":
                    continue  # the op ran; its reply is lost on the floor
            try:
                conn.send_bytes(json.dumps(response, default=str).encode("utf-8"))
            except (BrokenPipeError, OSError):
                break
    finally:
        server.close()
        try:
            conn.close()
        except OSError:  # pragma: no cover - already gone
            pass


# -- the router-side handle ------------------------------------------------------


def _mp_context(method: str | None = None):
    """The start-method context for shard workers.

    Default: fork where available (cheap, shares the parent's imports —
    safe at router construction, which happens before request threads
    exist), else the platform default.  Pass ``method="spawn"`` for
    respawns triggered *from* a request thread: forking a process that
    is running a threaded HTTP server can capture another thread's held
    locks in the child and hang it; spawn starts clean (pipe ends
    pickle across it)."""
    methods = multiprocessing.get_all_start_methods()
    if method is not None and method in methods:
        return multiprocessing.get_context(method)
    if "fork" in methods:
        return multiprocessing.get_context("fork")
    return multiprocessing.get_context()


class ShardProcess:
    """Router-side handle on one shard worker process.

    Owns the parent end of the pipe and a lock serialising
    request/response pairs; exposes :meth:`request` (typed errors
    re-raised, pipe failures surfaced as ``OSError``/``EOFError`` for
    the router's crash detector), :meth:`stop` (graceful: the worker
    closes its server, checkpointing dirty sessions), and
    :meth:`kill` (SIGKILL, for fault injection).
    """

    def __init__(
        self,
        index: int,
        server_kwargs: dict,
        *,
        start_timeout: float = 60.0,
        start_method: str | None = None,
    ):
        ctx = _mp_context(start_method)
        parent_conn, child_conn = ctx.Pipe(duplex=True)
        self.index = index
        self.server_kwargs = server_kwargs
        self.process = ctx.Process(
            target=shard_main,
            args=(child_conn, index, server_kwargs),
            name=f"drilldown-shard-{index}",
            daemon=True,
        )
        self.process.start()
        #: Snapshot of the worker's pid — still readable after
        #: :meth:`reap` closes the process record.
        self.pid = self.process.pid
        # The child holds its own copy of this end; keeping ours open
        # would defeat EOF-based crash detection.
        child_conn.close()
        self.conn = parent_conn
        self.lock = threading.Lock()
        self._next_request = 0
        self._reaped = False
        #: Set when a request timed out in-pipe: a late reply would
        #: answer the *next* request, so the handle is unusable and
        #: every further request fails fast with ``BrokenPipeError``
        #: until the router replaces the worker.
        self.condemned = False
        #: ``time.monotonic()`` at which the in-flight request (if any)
        #: entered the pipe — the watchdog's wedge heuristic for
        #: deadline-less traffic.  Plain attribute; racy reads are fine.
        self.busy_since: float | None = None
        # First contact doubles as the startup barrier: a worker whose
        # server constructor raised has already exited, and the recv
        # EOFs instead of hanging.
        try:
            self.request("ping", timeout=start_timeout)
        except (OSError, EOFError) as exc:
            self.reap()
            raise ShardError(f"shard {index} failed to start") from exc

    # -- request/response --------------------------------------------------------

    def request(self, op: str, args: dict | None = None, *, timeout: float | None = None):
        """One request/response round trip; returns the ``result``.

        Raises the shard's typed error when the operation failed and
        ``EOFError``/``OSError`` when the pipe broke (the router's
        signal to declare the shard down).  With ``timeout``, the
        whole round trip — *including* waiting for the handle lock
        behind other threads' requests — is bounded:

        * lock not acquired in time → :class:`ShardBusyError` (the
          shard is saturated, not proven sick; the handle stays
          usable),
        * reply not received in time → :class:`ShardWedgedError`, and
          the handle is **condemned** — a late reply would desync the
          request/response stream, so the worker must be killed and
          replaced (the router's recovery spine does both).
        """
        # repro-lint: allow[clock-discipline] reason=pipe deadlines bound real OS waits (lock timeout, poll); no test seam crosses the process boundary
        deadline_at = None if timeout is None else time.monotonic() + max(0.0, timeout)
        if deadline_at is None:
            self.lock.acquire()
        # repro-lint: allow[clock-discipline] reason=pipe deadlines bound real OS waits (lock timeout, poll); no test seam crosses the process boundary
        elif not self.lock.acquire(timeout=max(0.0, deadline_at - time.monotonic())):
            raise ShardBusyError(
                f"shard {self.index} is saturated: {op!r} could not reach the "
                f"pipe within {timeout}s"
            )
        try:
            if self.condemned:
                raise BrokenPipeError(
                    f"shard {self.index} handle was condemned after an earlier "
                    "missed deadline"
                )
            # repro-lint: allow[clock-discipline] reason=busy_since feeds the watchdog's real-time wedge clock across threads
            self.busy_since = time.monotonic()
            self._next_request += 1
            request_id = self._next_request
            frame = json.dumps(
                {"id": request_id, "op": op, "args": args or {}}, default=str
            ).encode("utf-8")
            self.conn.send_bytes(frame)
            if deadline_at is not None and not self.conn.poll(
                # repro-lint: allow[clock-discipline] reason=pipe deadlines bound real OS waits (lock timeout, poll); no test seam crosses the process boundary
                max(0.0, deadline_at - time.monotonic())
            ):
                self.condemned = True
                raise ShardWedgedError(
                    f"shard {self.index} did not answer {op!r} within {timeout}s"
                )
            raw = self.conn.recv_bytes()
        finally:
            self.busy_since = None
            self.lock.release()
        response = json.loads(raw.decode("utf-8"))
        if response.get("id") != request_id:
            self.condemned = True
            raise EOFError(
                f"shard {self.index} answered request {response.get('id')!r} "
                f"to request {request_id} — stream out of sync"
            )
        if response.get("ok"):
            return response.get("result")
        raise decode_error(response, shard=self.index)

    def install_chaos(self, policy: "ChaosPolicy | None") -> int:
        """Install (``ChaosPolicy``) or clear (``None``) worker-side
        fault injection; returns the number of active rules."""
        payload = {"rules": []} if policy is None else policy.encode()
        result = self.request("chaos", payload)
        return int(result["rules"])

    # -- lifecycle ---------------------------------------------------------------

    def alive(self) -> bool:
        return not self._reaped and self.process.is_alive()

    def stop(self, *, timeout: float = 10.0) -> None:
        """Graceful shutdown: ask, wait, then escalate to terminate.
        A no-op on an already-reaped handle (e.g. a shard that died and
        whose respawn failed)."""
        if self._reaped:
            return
        try:
            self.request("shutdown", timeout=timeout)
        except (OSError, EOFError, ReproError):
            pass
        self.process.join(timeout=timeout)
        self.reap()

    def kill(self) -> None:
        """SIGKILL the worker (fault injection); no cleanup runs inside."""
        self.process.kill()
        self.process.join(timeout=10.0)

    def reap(self) -> None:
        """Release the pipe and the process record (idempotent)."""
        if self._reaped:
            return
        self._reaped = True
        try:
            self.conn.close()
        except OSError:  # pragma: no cover - already closed
            pass
        if self.process.is_alive():
            self.process.terminate()
            self.process.join(timeout=10.0)
        if self.process.is_alive():  # pragma: no cover - stuck in kernel
            self.process.kill()
            self.process.join(timeout=10.0)
        self.process.close()

    def __repr__(self) -> str:
        if self._reaped:
            return f"ShardProcess(index={self.index}, pid={self.pid}, reaped)"
        alive = "alive" if self.process.is_alive() else "dead"
        return f"ShardProcess(index={self.index}, pid={self.pid}, {alive})"
