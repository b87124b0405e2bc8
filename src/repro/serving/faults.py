"""Fault-tolerance primitives for the serving tier.

Three small, independently testable pieces the deadline spine
(:mod:`repro.serving.router`, :mod:`repro.serving.server`) composes:

* :class:`CircuitBreaker` — the classic closed → open → half-open
  state machine, one per shard.  While open, callers are shed with a
  typed :class:`~repro.errors.CircuitOpenError` (HTTP 503 +
  ``Retry-After``) instead of queueing behind a corpse; after the
  cooldown exactly one *probe* request is let through to decide
  whether the shard is healthy again.  The clock is injectable, so
  every transition is drill-testable without real waiting.
* :class:`ShardWatchdog` — a background thread driving periodic health
  probes (:meth:`ShardRouter.probe_shards`), so a wedged or crashed
  shard is detected and restarted even when no request happens to
  observe it.  ``run_once`` drives one tick synchronously for
  deterministic tests; the same exception-isolation discipline as the
  persistence :class:`~repro.serving.persistence.ReaperThread`.
* :class:`ChaosPolicy` / :class:`ChaosRule` — a deterministic
  fault-injection seam.  Rules (wedge-for-T-seconds, delay, drop the
  reply, crash, typed error) match on op name with ``after``/``times``
  occurrence windows, serialise to JSON, and install either
  *worker-side* on a :class:`~repro.serving.shard.ShardProcess` (the
  child really sleeps or dies — the failure is real; only the test's
  *observation* is deterministic) or in-process on a
  :class:`~repro.serving.DrillDownServer`.

None of this changes results — breakers and watchdogs only decide
*whether* a request reaches a shard, never what a healthy shard
answers (pinned by ``tests/serving/test_faults_deadline.py``).
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Any, Callable, Iterable

from repro.errors import CircuitOpenError, ServingError

__all__ = ["OPS", "ChaosPolicy", "ChaosRule", "CircuitBreaker", "ShardWatchdog"]


#: Every op the shard pipe carries, by class — the one declaration the
#: shard dispatcher, the router and :class:`ChaosRule` all read:
#:
#: * ``"read"`` — read-only and idempotent, so the router may retry it
#:   after a shard restart (``read_retries``);
#: * ``"write"`` — mutates a session and is never retried: it may have
#:   been half-applied when the shard died;
#: * ``"control"`` — table lifecycle and maintenance, exempt from the
#:   tier's default deadline (a warm restore may legitimately run long).
#:
#: ``shutdown`` and ``chaos`` are frames of the worker loop, not ops.
OPS: dict[str, str] = {
    **dict.fromkeys(("ping", "tables", "stats", "render", "tree", "session_columns"), "read"),
    **dict.fromkeys(
        ("create_session", "expand", "expand_star", "expand_traditional", "collapse",
         "close_session"),
        "write",
    ),
    **dict.fromkeys(
        ("register_table", "replace_table", "append_rows", "unregister_table",
         "checkpoint_all", "reap"),
        "control",
    ),
}


# -- the circuit breaker ---------------------------------------------------------


class CircuitBreaker:
    """Closed → open after ``threshold`` consecutive failures → half-open probe.

    Thread-safe; all transitions happen under one lock.  The contract
    with the router:

    * :meth:`acquire` before every request.  Closed: proceed.  Open
      with cooldown remaining: raise :class:`CircuitOpenError`
      carrying the remaining cooldown as ``retry_after``.  Open with
      cooldown elapsed: become half-open and admit exactly one caller
      as the *probe*; concurrent callers are shed until the probe
      reports back.
    * :meth:`record_success` — the shard answered (a typed application
      error counts: the *pipe* is healthy).  Resets to closed.
    * :meth:`record_failure` — a pipe-level failure.  In half-open,
      one failure re-opens; otherwise ``threshold`` consecutive
      failures open the breaker.
    * :meth:`cancel_probe` — the probe ended without evidence either
      way (e.g. the handle lock was busy).  Returns to open *without*
      restarting the cooldown, so the next caller re-probes
      immediately.

    Failures are counted only for pipe-level faults (crash, wedge) —
    a saturated-but-healthy shard (handle-lock timeout) never trips
    the breaker.
    """

    def __init__(
        self,
        *,
        threshold: int = 5,
        cooldown: float = 1.0,
        clock: Callable[[], float] = time.monotonic,
        name: str = "",
    ):
        if threshold < 1:
            raise ServingError("breaker threshold must be >= 1 failure")
        if cooldown < 0:
            raise ServingError("breaker cooldown must be >= 0 seconds")
        self.threshold = int(threshold)
        self.cooldown = float(cooldown)
        self.name = name
        self._clock = clock
        self._lock = threading.Lock()
        self._state = "closed"
        self._failures = 0
        self._opened_at = 0.0
        self._probing = False
        self.opens = 0
        self.rejections = 0

    @property
    def state(self) -> str:
        """``"closed"``, ``"open"``, or ``"half_open"`` (cooldown-aware)."""
        with self._lock:
            if self._state == "open" and self._clock() - self._opened_at >= self.cooldown:
                return "half_open"
            return self._state

    def acquire(self) -> None:
        """Admit one request, or shed it with :class:`CircuitOpenError`."""
        with self._lock:
            if self._state == "closed":
                return
            remaining = self._opened_at + self.cooldown - self._clock()
            if self._state == "open" and remaining <= 0.0:
                self._state = "half_open"
            if self._state == "half_open" and not self._probing:
                self._probing = True
                return
            self.rejections += 1
            what = "probing" if self._state == "half_open" else "open"
            raise CircuitOpenError(
                f"circuit {self.name or 'breaker'} is {what} after "
                f"{self._failures} consecutive failures — request shed",
                retry_after=max(0.0, remaining),
            )

    def record_success(self) -> None:
        with self._lock:
            self._state = "closed"
            self._failures = 0
            self._probing = False

    def record_failure(self) -> None:
        with self._lock:
            self._failures += 1
            was_half_open = self._state == "half_open"
            self._probing = False
            if was_half_open or self._failures >= self.threshold:
                if self._state != "open":
                    self.opens += 1
                self._state = "open"
                self._opened_at = self._clock()

    def cancel_probe(self) -> None:
        """Probe inconclusive: back to open, cooldown *not* restarted."""
        with self._lock:
            if self._state == "half_open":
                self._state = "open"
                self._probing = False

    def stats(self) -> dict:
        with self._lock:
            return {
                "state": self._state,
                "failures": self._failures,
                "threshold": self.threshold,
                "cooldown": self.cooldown,
                "opens": self.opens,
                "rejections": self.rejections,
            }

    def __repr__(self) -> str:
        return f"CircuitBreaker({self.name or 'unnamed'}, state={self.state!r})"


# -- the watchdog ----------------------------------------------------------------


class ShardWatchdog(threading.Thread):
    """Periodic shard health probes, independent of request traffic.

    Calls ``probe`` (typically
    :meth:`~repro.serving.ShardRouter.probe_shards`, which pings every
    shard with a bounded timeout and restarts the dead or wedged ones)
    every ``interval`` seconds.  Exception-isolated like the
    persistence reaper: a failing probe sweep is counted in
    :attr:`errors`, never fatal to the thread.  :meth:`run_once`
    drives one tick synchronously for deterministic tests; the thread
    is a daemon and :meth:`stop` shuts it down promptly.
    """

    def __init__(
        self,
        *,
        probe: Callable[[], Any],
        interval: float = 5.0,
        name: str = "drilldown-watchdog",
    ):
        if interval <= 0:
            raise ServingError("watchdog interval must be > 0 seconds")
        super().__init__(name=name, daemon=True)
        self._probe = probe
        self.interval = float(interval)
        self._stop_event = threading.Event()
        self.ticks = 0
        self.recoveries = 0
        self.errors = 0

    def run(self) -> None:  # pragma: no cover - timing loop; run_once is tested
        while not self._stop_event.wait(self.interval):
            self.run_once()

    def run_once(self) -> None:
        """One probe sweep, synchronously (the thread's body; also tests)."""
        self.ticks += 1
        try:
            recovered = self._probe()
            self.recoveries += len(recovered) if recovered is not None else 0
        except Exception:
            self.errors += 1

    def stop(self) -> None:
        self._stop_event.set()
        if self.is_alive():
            self.join(timeout=10.0)

    def stats(self) -> dict:
        return {
            "interval": self.interval,
            "ticks": self.ticks,
            "recoveries": self.recoveries,
            "errors": self.errors,
        }


# -- chaos injection -------------------------------------------------------------

_CHAOS_KINDS = frozenset({"wedge", "delay", "drop_reply", "crash", "error"})


@dataclass
class ChaosRule:
    """One injected fault: *what* happens, on *which* op, *when*.

    ``kind``:

    * ``"wedge"`` — sleep ``seconds`` *before* executing the op (the
      worker is stuck mid-request: callers see a missed deadline, and
      the op has not been applied).
    * ``"delay"`` — execute the op, then sleep ``seconds`` before
      replying (slow shard; the op *was* applied).
    * ``"drop_reply"`` — execute the op but never send the response
      (a lost reply: the op was applied, the caller cannot know).
    * ``"crash"`` — ``os._exit`` the worker before executing the op.
    * ``"error"`` — raise a typed
      :class:`~repro.errors.ShardError` instead of executing the op.

    ``op`` matches an op of :data:`OPS` exactly, or ``"*"`` for any.
    Occurrence window: the rule skips its first ``after`` matching
    calls, then fires for the next ``times`` matches (``None`` =
    forever) — ``after=1, times=1`` is "crash on the second expand".
    """

    kind: str
    op: str = "*"
    seconds: float = 0.0
    after: int = 0
    times: int | None = 1

    def __post_init__(self) -> None:
        if self.kind not in _CHAOS_KINDS:
            raise ServingError(
                f"unknown chaos kind {self.kind!r}; one of {sorted(_CHAOS_KINDS)}"
            )
        if self.op != "*" and self.op not in OPS:
            raise ServingError(f"unknown chaos op {self.op!r}; '*' or one of {sorted(OPS)}")
        if self.seconds < 0:
            raise ServingError("chaos seconds must be >= 0")
        if self.after < 0:
            raise ServingError("chaos after must be >= 0")
        if self.times is not None and self.times < 1:
            raise ServingError("chaos times must be >= 1 (or None for forever)")

    def encode(self) -> dict:
        return {
            "kind": self.kind,
            "op": self.op,
            "seconds": self.seconds,
            "after": self.after,
            "times": self.times,
        }

    @classmethod
    def decode(cls, payload: dict) -> "ChaosRule":
        return cls(
            kind=payload["kind"],
            op=payload.get("op", "*"),
            seconds=float(payload.get("seconds", 0.0)),
            after=int(payload.get("after", 0)),
            times=None if payload.get("times") is None else int(payload["times"]),
        )


class ChaosPolicy:
    """An ordered set of :class:`ChaosRule`\\ s with match counters.

    :meth:`fire` is the injection point: called once per operation, it
    advances every matching rule's occurrence counter and returns the
    first rule whose window is due (or ``None``).  Counters make the
    policy deterministic — the N-th matching call fires, regardless of
    timing or thread interleaving on the caller's side.

    Serialises to JSON (:meth:`encode`/:meth:`decode`) so a policy can
    cross the shard pipe and be applied *inside* the worker process,
    where a ``wedge`` really blocks the worker loop and a ``crash``
    really kills the process.
    """

    def __init__(self, rules: Iterable[ChaosRule] = ()):
        self.rules = [
            rule if isinstance(rule, ChaosRule) else ChaosRule.decode(rule)
            for rule in rules
        ]
        self._lock = threading.Lock()
        self._seen = [0] * len(self.rules)
        self.fired = 0

    def fire(self, op: str) -> ChaosRule | None:
        """The first rule due for ``op`` this call, advancing counters."""
        with self._lock:
            due: ChaosRule | None = None
            for i, rule in enumerate(self.rules):
                if rule.op != "*" and rule.op != op:
                    continue
                seen = self._seen[i]
                self._seen[i] = seen + 1
                if seen < rule.after:
                    continue
                if rule.times is not None and seen >= rule.after + rule.times:
                    continue
                if due is None:
                    due = rule
            if due is not None:
                self.fired += 1
            return due

    def encode(self) -> dict:
        return {"rules": [rule.encode() for rule in self.rules]}

    @classmethod
    def decode(cls, payload: dict | None) -> "ChaosPolicy":
        return cls((payload or {}).get("rules", ()))

    def __repr__(self) -> str:
        return f"ChaosPolicy(rules={len(self.rules)}, fired={self.fired})"
