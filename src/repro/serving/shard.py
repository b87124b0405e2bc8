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
* **Value encoding** — one codec for everything a frame carries:
  rules and tables in the tagged-array form of :mod:`repro.codec`,
  displayed nodes via :func:`~repro.session.session.encode_node`
  (the snapshot files' own node form).  Counts and weights round-trip
  bit-exactly, and a decoded table's dictionary codes — hence every
  mining tie-break — match the original's.
* **One verb dispatcher** — an op names a
  :class:`~repro.serving.DrillDownServer` verb from
  :data:`~repro.serving.faults.OPS`;
  the worker decodes a ``rule`` argument, calls the verb with the
  frame's arguments and encodes any :class:`SessionNode` in the
  result.  Only ``ping``, ``register_table``, ``append_rows`` and
  ``replace_table`` have bodies of their own.
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

from repro import errors as _errors_module
from repro.codec import decode_rule, decode_table, decode_value
from repro.errors import ReproError, ShardError, TenantBudgetError
from repro.serving.faults import OPS, ChaosPolicy
from repro.session.session import SessionNode, decode_node, encode_node

__all__ = [
    "ShardBusyError",
    "ShardProcess",
    "ShardWedgedError",
    "decode_error",
    "decode_node",
    "encode_error",
    "encode_node",
    "shard_main",
]


#: Seconds a worker may take to construct its server and answer the
#: start-up ``ping`` before the spawn is declared failed.
START_TIMEOUT = 60.0


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


def _op_append_rows(server, args: dict) -> dict:
    rows = [[decode_value(v) for v in row] for row in args["rows"]]
    return server.append_rows(args["name"], rows)


def _op_replace_table(server, args: dict) -> dict:
    return server.replace_table(args["name"], decode_table(args["table"]))


_OWN_BODY_OPS = {
    "ping": _op_ping,
    "register_table": _op_register_table,
    "append_rows": _op_append_rows,
    "replace_table": _op_replace_table,
}


def _encode_result(value: Any) -> Any:
    if isinstance(value, SessionNode):
        return encode_node(value)
    if isinstance(value, list):
        return [_encode_result(v) for v in value]
    return value


def _dispatch(server, op: str, args: dict) -> Any:
    """Answer one op of :data:`OPS`: its own body, or the server verb it
    names, called with the frame's arguments."""
    if op not in OPS:
        raise ShardError(f"unknown shard op {op!r}")
    own = _OWN_BODY_OPS.get(op)
    if own is not None:
        return own(server, args)
    if args.get("rule") is not None:
        args["rule"] = decode_rule(args["rule"])
    return _encode_result(getattr(server, op)(**args))


def _send(conn, response: dict) -> bool:
    """Send one response frame; ``False`` when the pipe is gone."""
    try:
        conn.send_bytes(json.dumps(response, default=str).encode("utf-8"))
    except (BrokenPipeError, OSError):
        return False
    return True


def _refuse_start(conn, exc: ReproError) -> None:
    """Answer the start-up ``ping`` with the server constructor's typed
    error, so a bad setting reaches the router as itself."""
    try:
        request = json.loads(conn.recv_bytes().decode("utf-8"))
        _send(conn, {"id": request.get("id"), "ok": False, **encode_error(exc)})
    except (EOFError, OSError, ValueError):
        pass
    conn.close()


def shard_main(conn, shard_id: int, server_kwargs: dict) -> None:
    """The worker-process entry point: serve one pipe until shutdown.

    Constructs a full :class:`~repro.serving.DrillDownServer` from
    ``server_kwargs`` (which includes the shard's own ``persist_dir``
    and session-id prefix), then answers one request frame at a time.
    Every exception an operation raises is encoded into the response —
    the loop itself only exits on ``shutdown`` or a closed pipe, and
    always closes the server on the way out (checkpointing dirty
    sessions when durable, so even an EOF-terminated shard leaves a
    warm-restartable directory behind).  A constructor that raises a
    typed error answers the start-up ``ping`` with it and exits.
    """
    # Imported lazily so the module can be loaded by spawn-method
    # pickling before the server's dependency graph is.
    from repro.serving.server import DrillDownServer

    try:
        server = DrillDownServer(**server_kwargs)
    except ReproError as exc:
        _refuse_start(conn, exc)
        return
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
                _send(conn, {"id": request_id, "ok": True, "result": {}})
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
                if not _send(conn, response):  # pragma: no cover - racing close
                    break
                continue
            chaos_rule = None if chaos is None else chaos.fire(op)
            try:
                if chaos_rule is not None:
                    if chaos_rule.kind == "crash":
                        os._exit(23)
                    if chaos_rule.kind == "wedge":
                        time.sleep(chaos_rule.seconds)
                    if chaos_rule.kind == "error":
                        raise ShardError(f"chaos: injected failure on {op!r}")
                response = {
                    "id": request_id,
                    "ok": True,
                    "result": _dispatch(server, op, request.get("args") or {}),
                }
            except Exception as exc:
                response = {"id": request_id, "ok": False, **encode_error(exc)}
            if chaos_rule is not None:
                if chaos_rule.kind == "delay":
                    time.sleep(chaos_rule.seconds)
                if chaos_rule.kind == "drop_reply":
                    continue  # the op ran; its reply is lost on the floor
            if not _send(conn, response):
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
        # server constructor raised a typed error answers with it; one
        # that died otherwise EOFs the recv instead of hanging.
        try:
            self.request("ping", timeout=START_TIMEOUT)
        except (OSError, EOFError, ReproError) as exc:
            self.reap()
            if isinstance(exc, ReproError):
                raise
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
