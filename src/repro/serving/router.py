"""The sharded serving router: one stateless front, N worker tiers.

One :class:`~repro.serving.DrillDownServer` process tops out at what
one address space holds — its tables, its caches, its GIL.  The :class:`ShardRouter` is the ROADMAP's next step
("sharding catalogs across processes behind a router"): it spawns N
worker processes, each a *complete* serving tier
(:mod:`repro.serving.shard`), and routes the same facade API over a
length-prefixed JSON pipe protocol.  The router itself holds no
session state beyond two maps — which is the point:

* **Table placement** is consistent hashing over the table *name*
  (sha1-based, stable across restarts and router instances), so a
  table's catalog entry, samples, context prototypes, and every
  session over it live together on one shard, and re-registering after
  any restart lands on the same shard — which is what lines warm
  restore up with each shard's own ``persist_dir`` subdirectory.
* **Session affinity** is sticky by construction: a session is created
  on its table's shard and addressed there for life.  Shards stamp
  their sessions with per-shard id prefixes (``s0-000001``), so ids
  are globally unique and the affinity map can never alias.
* **Crash handling**: a broken pipe marks the shard down; the router
  restarts it immediately, re-registers its tables (which warm-restores
  every snapshotted session from the shard's own persist directory),
  and raises :class:`~repro.errors.ShardDownError` (HTTP 503) for the
  request that observed the crash — never a silent retry, because the
  observed operation may have been half-applied.

Responses are **bit-identical** to a single-process
:class:`~repro.serving.DrillDownServer` serving the same workload:
the wire format round-trips every rule value, count, and weight
exactly, and each shard *is* an unmodified ``DrillDownServer``
(pinned by ``tests/serving/test_router.py`` and the multi-backend
replay harness in ``tests/integration/test_serving_fuzz.py``).
"""

from __future__ import annotations

import bisect
import hashlib
import os
import random
import threading
import time
from pathlib import Path

from repro.codec import encode_rule, encode_table, encode_value
from repro.core.rule import Rule
from repro.errors import (
    CircuitOpenError,
    DeadlineExceededError,
    ReproError,
    ServingError,
    ShardDownError,
    UnknownSessionError,
    UnknownTableError,
)
from repro.serving.faults import OPS, ChaosPolicy, CircuitBreaker, ShardWatchdog
from repro.serving.persistence import _SNAPSHOT_SUFFIX
from repro.serving.shard import (
    ShardBusyError,
    ShardProcess,
    ShardWedgedError,
    decode_node,
)
from repro.session.session import SessionNode
from repro.table.table import Table

__all__ = ["ShardRouter"]

#: Points per shard on the consistent-hash ring (placement granularity:
#: spreads tables evenly from a handful of names up).
VIRTUAL_NODES = 64

#: Seconds a watchdog health ``ping`` may take.
PROBE_TIMEOUT = 5.0

#: Base of the jittered exponential backoff between ``read_retries``.
RETRY_BACKOFF = 0.05

#: Pipe ops whose server verb takes ``deadline=``: they carry the
#: remaining budget to the shard, whose server applies it.
_BUDGETED_OPS = frozenset(
    ("create_session", "expand", "expand_star", "expand_traditional", "collapse",
     "render", "tree")
)


def _stable_hash(key: str) -> int:
    """64-bit stable hash (``hash()`` is salted per process — useless
    for placement that must survive restarts)."""
    return int.from_bytes(hashlib.sha1(key.encode("utf-8")).digest()[:8], "big")


class ShardRouter:
    """Route the serving facade across N shard worker processes.

    Implements the same surface the HTTP front end is written against
    (``register_table`` / ``create_session`` / ``expand`` /
    ``expand_star`` / ``expand_traditional`` / ``collapse`` /
    ``render`` / ``tree`` / ``close_session`` / ``stats`` / ...), so
    ``serve(ShardRouter(...))`` and ``serve(DrillDownServer(...))``
    are interchangeable.

    Parameters
    ----------
    n_shards:
        Worker-process count.  ``1`` is a legitimate deployment (it
        moves serving out of the caller's process) and the equivalence
        baseline the tests lean on.
    max_sessions, ttl_seconds, tenant_budget,
    refill_per_second, share_contexts, max_context_prototypes,
    sample_budget, sample_seed, default_approx, default_error_target,
    checkpoint_interval, reaper_interval:
        Forwarded to every shard's :class:`DrillDownServer` — i.e.
        *per shard*: budgets meter a tenant per shard, ``max_sessions``
        caps each shard.  Samples (``sample_budget``) are rebuilt by
        each shard from its wire-decoded table with the same derived
        seed, so every shard serves bit-identical samples.
    persist_dir:
        Root of the durable state; each shard owns
        ``<persist_dir>/shard-NN``.  Re-create a router with the same
        directory and shard count, re-register the same tables, and
        every snapshotted session warm-restores on its original shard
        under its original id.  (A *different* shard count re-places
        tables, so snapshots written under the old placement stay
        pending on disk — skipped, never corrupted.)
    default_deadline:
        Per-request deadline (seconds) applied when the caller passes
        none.  Bounds the lock wait on every data-plane op; session
        verbs carry the rest to the shard's server (see :meth:`_request`);
        control-plane ops (table registration's warm restore,
        checkpointing, reaping) are exempt.  ``None`` (default) keeps
        requests unbounded.
    watchdog_interval:
        Start a :class:`~repro.serving.faults.ShardWatchdog` calling
        :meth:`probe_shards` every this-many seconds; ``None``
        (default) runs no watchdog (tests call ``probe_shards``
        directly).
    wedge_timeout:
        Seconds a shard may sit busy on one request before the watchdog,
        or a request with a deadline waiting on it, declares it wedged
        and kills it (a health ``ping`` may take :data:`PROBE_TIMEOUT`).
    breaker_threshold, breaker_cooldown:
        Per-shard circuit breaker: consecutive transport failures
        before the circuit opens, and seconds it stays open before
        admitting a half-open probe.
    read_retries, retry_seed:
        Transparent retry budget for the ``"read"`` ops of
        :data:`~repro.serving.faults.OPS` after a shard restart, behind
        jittered exponential backoff from :data:`RETRY_BACKOFF`.
        Default ``0``: every failure surfaces as its typed error.
    clock:
        Injectable monotonic clock for the breakers (tests drive
        cooldowns deterministically).
    """

    def __init__(
        self,
        n_shards: int = 2,
        *,
        max_sessions: int | None = 64,
        ttl_seconds: float | None = None,
        tenant_budget: float | None = None,
        refill_per_second: float = 0.0,
        share_contexts: bool = True,
        max_context_prototypes: int | None = None,
        sample_budget: int | None = None,
        sample_seed: int = 0,
        default_approx: bool = False,
        default_error_target: float = 0.1,
        persist_dir: str | os.PathLike | None = None,
        persist_max_bytes: int | None = None,
        checkpoint_interval: float | None = None,
        reaper_interval: float | None = None,
        default_deadline: float | None = None,
        watchdog_interval: float | None = None,
        wedge_timeout: float = 30.0,
        breaker_threshold: int = 5,
        breaker_cooldown: float = 1.0,
        read_retries: int = 0,
        retry_seed: int | None = None,
        clock=time.monotonic,
    ):
        if n_shards < 1:
            raise ServingError("a sharded tier needs at least 1 shard")
        if default_deadline is not None and default_deadline <= 0:
            raise ServingError("default_deadline must be > 0 seconds (or None)")
        if read_retries < 0:
            raise ServingError("read_retries must be >= 0")
        self.n_shards = n_shards
        self._persist_dir = None if persist_dir is None else Path(persist_dir)
        self._default_deadline = default_deadline
        self._wedge_timeout = wedge_timeout
        self._read_retries = int(read_retries)
        self._retry_rng = random.Random(retry_seed)
        self._clock = clock
        self._breakers = [
            CircuitBreaker(
                threshold=breaker_threshold,
                cooldown=breaker_cooldown,
                clock=clock,
                name=f"shard-{index}",
            )
            for index in range(n_shards)
        ]
        self.deadline_aborts = 0
        self.wedge_kills = 0
        self.watchdog: ShardWatchdog | None = None
        self._base_kwargs = dict(
            max_sessions=max_sessions,
            ttl_seconds=ttl_seconds,
            tenant_budget=tenant_budget,
            refill_per_second=refill_per_second,
            share_contexts=share_contexts,
            max_context_prototypes=max_context_prototypes,
            sample_budget=sample_budget,
            sample_seed=sample_seed,
            default_approx=default_approx,
            default_error_target=default_error_target,
            persist_max_bytes=persist_max_bytes,
            checkpoint_interval=checkpoint_interval,
            reaper_interval=reaper_interval,
        )
        # The ring: sorted (point, shard) pairs; a table lands on the
        # first point at or after its own hash (wrapping).
        self._ring = sorted(
            (_stable_hash(f"shard-{index}/vnode-{vnode}"), index)
            for index in range(n_shards)
            for vnode in range(VIRTUAL_NODES)
        )
        self._ring_points = [point for point, _ in self._ring]
        # Routing state.  _tables keeps the live Table: identity for idempotent
        # re-registration, the source a respawn re-encodes.  _sessions maps
        # a session to its shard and the columns of the version it pinned.
        self._lock = threading.RLock()
        self._tables: dict[str, Table] = {}
        self._table_versions: dict[str, int] = {}
        self._sessions: dict[str, tuple[int, tuple[str, ...]]] = {}
        self._closed = False
        self.restarts = 0
        # Snapshots written under a *different* shard count live in
        # ``shard-NN`` directories no current slot owns.  They are
        # inert (placement changed, so no shard will ever restore
        # them); with a byte cap configured they are swept here, under
        # the same policy that compacts live snapshot directories.
        self.orphaned_swept = 0
        if self._persist_dir is not None and persist_max_bytes is not None:
            for path in self._orphaned_snapshot_files():
                try:
                    path.unlink()
                    self.orphaned_swept += 1
                except OSError:  # pragma: no cover - unlink race
                    pass
        # Per-slot incarnation counter, baked into the shard's session
        # id prefix: a restarted shard's *fresh* registry must never
        # re-issue an id a client may still hold from before the crash
        # (restored ids keep their original prefix — admit() takes the
        # id verbatim — so warm restore is unaffected).
        self._generations = [0] * n_shards
        # True while a slot's replacement worker is being spawned —
        # requests racing the respawn fail fast instead of piling a
        # second restart (or a 60 s wait) on top of the first.
        self._recovering = [False] * n_shards
        self._shards: list[ShardProcess] = []
        try:
            for index in range(n_shards):
                self._shards.append(self._spawn(index))
        except BaseException:
            self.close()
            raise
        if watchdog_interval is not None:
            self.watchdog = ShardWatchdog(
                probe=self.probe_shards, interval=watchdog_interval
            )
            self.watchdog.start()

    # -- shard lifecycle ---------------------------------------------------------

    def _orphaned_snapshot_files(self) -> list[Path]:
        """Snapshot files under ``shard-NN`` directories no current
        slot owns (``NN >= n_shards`` — leftovers from a run with a
        different shard count).  No shard will ever restore these: the
        tables they name now place on other slots."""
        if self._persist_dir is None or not self._persist_dir.is_dir():
            return []
        orphaned: list[Path] = []
        for child in sorted(self._persist_dir.glob("shard-*")):
            if not child.is_dir():
                continue
            try:
                index = int(child.name.split("-", 1)[1])
            except ValueError:
                continue
            if index >= self.n_shards:
                orphaned.extend(sorted(child.glob(f"*{_SNAPSHOT_SUFFIX}")))
        return orphaned

    def _shard_kwargs(self, index: int) -> dict:
        kwargs = dict(self._base_kwargs)
        generation = self._generations[index]
        kwargs["session_id_prefix"] = (
            f"s{index}" if generation == 0 else f"s{index}r{generation}"
        )
        if self._persist_dir is not None:
            kwargs["persist_dir"] = str(self._persist_dir / f"shard-{index:02d}")
        return kwargs

    def _spawn(self, index: int, *, respawn: bool = False) -> ShardProcess:
        # Respawns run on a request thread of a live (often threaded
        # HTTP) process: fork there can capture another thread's held
        # locks in the child and hang it, so recovery workers start via
        # spawn.  Construction-time workers keep the cheap fork.
        return ShardProcess(
            index, self._shard_kwargs(index), start_method="spawn" if respawn else None
        )

    def _recover_slot(
        self, shard: ShardProcess, generation: int, *, wedged: bool = False
    ) -> bool:
        """Restart a dead or wedged shard slot; first observer wins.

        ``generation`` is the slot generation the caller captured when
        it picked ``shard`` up.  A stale observer — the slot was already
        recovered (or is mid-recovery) since the capture — returns
        ``False`` without touching anything, so one underlying failure
        seen by many request threads (or by a request racing the
        watchdog) can never stack a second restart on the first.  With
        ``wedged=True`` the worker process is still running but
        unresponsive, so it is SIGKILLed before the reap.

        The spawn runs *outside* the router lock so healthy shards keep
        serving; the replacement then re-registers this slot's tables,
        warm-restoring every snapshotted session.  Returns ``True``
        when *this* call performed the restart.  Never raises — each
        caller surfaces its own typed error for the request that
        observed the failure.
        """
        with self._lock:
            first = (
                not self._closed
                and self._shards[shard.index] is shard
                and self._generations[shard.index] == generation
                and not self._recovering[shard.index]
            )
            if first:
                self.restarts += 1
                self._generations[shard.index] += 1
                self._recovering[shard.index] = True
                # Sessions pinned to the dead shard are gone unless the
                # re-registration below restores them from its store.
                for sid in [
                    sid
                    for sid, (index, _columns) in self._sessions.items()
                    if index == shard.index
                ]:
                    del self._sessions[sid]
        if not first:
            return False
        # Reap outside the router lock: a wedged worker is killed first
        # (reap's polite terminate would wait on a process that is busy
        # ignoring us), and join/close may block briefly.
        if wedged:
            shard.kill()
        shard.reap()
        replacement = None
        try:
            replacement = self._spawn(shard.index, respawn=True)
        except Exception:
            pass  # slot keeps the reaped handle; next request retries
        try:
            if replacement is not None:
                with self._lock:
                    if self._closed:
                        replacement, doomed = None, replacement
                    else:
                        self._shards[shard.index] = replacement
                        doomed = None
                if doomed is not None:
                    doomed.stop()
            if replacement is not None:
                self._reregister(replacement)
        finally:
            with self._lock:
                self._recovering[shard.index] = False
        return True

    def _reregister(self, shard: ShardProcess) -> None:
        """Replay the dead shard's table registrations into its
        replacement; adopts every session the shard restored from its
        persist directory.  Runs outside the router lock — the shard's
        own request lock serialises the pipe."""
        with self._lock:
            owned = [
                (name, table)
                for name, table in self._tables.items()
                if self._placement(name) == shard.index
            ]
        for name, table in owned:
            try:
                payload = {"name": name, "table": encode_table(table)}
                result = shard.request("register_table", payload)
            except (OSError, EOFError):  # pragma: no cover - double crash
                return
            except ServingError:  # pragma: no cover - one bad table
                continue  # must not cost the shard its other tables
            self._adopt_sessions(shard, result)

    # -- placement ---------------------------------------------------------------

    def _placement(self, table_name: str) -> int:
        """The shard index owning ``table_name`` (consistent hash)."""
        point = _stable_hash(f"table/{table_name}")
        at = bisect.bisect_left(self._ring_points, point)
        if at == len(self._ring):
            at = 0
        return self._ring[at][1]

    def shard_of_table(self, table_name: str) -> int:
        """Public placement probe (ops tooling, tests)."""
        return self._placement(table_name)

    def shard_of_session(self, session_id: str) -> int:
        """The shard currently pinned for a live session id."""
        return self._session_shard(session_id)[0].index

    def _shard(self, index: int) -> ShardProcess:
        with self._lock:
            if self._closed:
                raise ServingError("router is closed")
            return self._shards[index]

    def _session_shard(self, session_id: str) -> tuple[ShardProcess, tuple[str, ...]]:
        with self._lock:
            if self._closed:
                raise ServingError("router is closed")
            try:
                index, columns = self._sessions[session_id]
            except KeyError:
                raise UnknownSessionError(
                    f"no live session {session_id!r} (unknown, closed, expired, "
                    "or evicted — create a new session)"
                ) from None
            return self._shards[index], columns

    # -- the request spine -------------------------------------------------------

    def _request(
        self,
        shard: ShardProcess,
        op: str,
        args: dict | None = None,
        *,
        deadline: float | None = None,
    ):
        """One breaker-guarded, deadline-bounded pipe round trip.

        The exception ladder is the fault-tolerance contract:

        * circuit open → :class:`~repro.errors.CircuitOpenError`
          immediately (no pipe traffic; ``retry_after`` = remaining
          cooldown);
        * deadline spent before the request was sent (the shard was
          busy, or the budget was already gone) →
          :class:`~repro.errors.DeadlineExceededError`, breaker *not*
          charged and the worker left alone — saturation is not
          sickness;
        * shard wedged (request sent, no reply) → kill + restart, then
          ``DeadlineExceededError``.  A verb of :data:`_BUDGETED_OPS`
          carries its remaining budget to the shard's own server, which
          applies the in-process rule (bounded admission and lock wait,
          then mining runs to the end), so its reply is awaited past the
          deadline, for up to ``wedge_timeout``.  Any other op, or one a
          chaos rule may hold back, is wedged at the deadline;
        * typed application error from the shard → breaker *success*
          (the pipe answered; the worker is healthy) and re-raise;
        * broken pipe / EOF → restart, then
          :class:`~repro.errors.ShardDownError`.

        ``"control"`` ops of :data:`~repro.serving.faults.OPS`
        (``register_table`` warm restore, ``checkpoint_all``, ...) are
        exempt from the tier's default deadline — recovery work must not
        be cut short by a knob sized for interactive requests.
        """
        breaker = self._breakers[shard.index]
        breaker.acquire()
        if deadline is None and OPS[op] != "control":
            deadline = self._default_deadline
        with self._lock:
            generation = self._generations[shard.index]
        budgeted = op in _BUDGETED_OPS and not shard.withholds_reply(op)
        try:
            result = shard.request(
                op, args, timeout=deadline,
                wedge_timeout=self._wedge_timeout if budgeted else None,
            )
        except ShardBusyError as exc:
            # The deadline ran out before the frame was sent (the
            # request lock stayed held, or the budget came in spent):
            # the handle stays usable, and a half-open probe slot (if we
            # held one) is returned rather than spent on an
            # inconclusive outcome.
            breaker.cancel_probe()
            self.deadline_aborts += 1
            raise DeadlineExceededError(
                f"shard {shard.index} could not be sent {op!r} within the "
                f"{deadline}s deadline — the request was never sent",
                retry_after=1.0,
            ) from exc
        except ShardWedgedError as exc:
            breaker.record_failure()
            self.deadline_aborts += 1
            self.wedge_kills += 1
            self._recover_slot(shard, generation, wedged=True)
            raise DeadlineExceededError(
                f"{exc}; the wedged worker was killed and restarted "
                "(snapshotted sessions warm-restored)",
                retry_after=1.0,
            ) from exc
        except ReproError as exc:
            breaker.record_success()  # the pipe answered — shard is healthy
            if isinstance(exc, DeadlineExceededError):
                self.deadline_aborts += 1  # the shard's server spent the budget
            raise
        except (OSError, EOFError) as exc:
            breaker.record_failure()
            self._recover_slot(shard, generation)
            raise ShardDownError(
                f"shard {shard.index} died serving {op!r}; it has been "
                "restarted (snapshotted sessions warm-restored) — retry the "
                "request"
            ) from exc
        breaker.record_success()
        return result

    def _session_request(
        self, session_id: str, op: str, args: dict, *, deadline: float | None = None
    ):
        """Route ``op`` over ``session_id`` to the session's shard,
        optionally retrying.  ``args`` are the verb's other arguments;
        a ``rule`` among them is encoded here.

        Only ``"read"`` ops of :data:`~repro.serving.faults.OPS` are
        ever retried, and only when ``read_retries > 0`` was configured
        — a mutating op may have been half-applied when the shard died,
        so the caller must observe the typed 503 and decide: after a
        :class:`ShardDownError` the loop re-resolves the shard (the
        slot now holds the restarted worker) and retries behind a
        jittered exponential backoff.  Deadline and circuit-open
        failures are never retried — both mean "come back later", and
        retrying would spend the caller's remaining patience on a
        shard that already said no.
        """
        args = {"session_id": session_id, **args}
        if args.get("rule") is not None:
            args["rule"] = encode_rule(args["rule"])
        attempts = 1 + (self._read_retries if OPS[op] == "read" else 0)
        last: ShardDownError | None = None
        for attempt in range(attempts):
            if attempt:
                backoff = RETRY_BACKOFF * (2 ** (attempt - 1))
                time.sleep(backoff * (0.5 + self._retry_rng.random() / 2.0))
            shard, _columns = self._session_shard(session_id)
            try:
                return self._request(shard, op, args, deadline=deadline)
            except (DeadlineExceededError, CircuitOpenError):
                raise
            except UnknownSessionError:
                # The shard expired/evicted it; drop the stale pin so
                # the router's own map cannot grow without bound.
                with self._lock:
                    self._sessions.pop(session_id, None)
                raise
            except ShardDownError as exc:
                last = exc
        assert last is not None
        raise last

    # -- watchdog & chaos --------------------------------------------------------

    def probe_shards(self) -> list[int]:
        """One watchdog sweep: health-probe every shard, recover the sick.

        Detects three failure shapes: a slot left holding a reaped
        handle (an earlier respawn failed — retried here), a worker
        wedged mid-request past ``wedge_timeout`` (killed outright, so
        deadline-less traffic gets coverage too), and a worker whose
        pipe broke or that misses the ``ping`` within
        :data:`PROBE_TIMEOUT`.  A shard that is merely *busy* — request
        lock held, but not past the wedge budget — is skipped: load is
        not sickness.  Returns the indices this sweep recovered.
        Driven periodically by :class:`ShardWatchdog` when the router
        was built with ``watchdog_interval``; callable directly for
        deterministic tests.
        """
        recovered: list[int] = []
        for index in range(self.n_shards):
            with self._lock:
                if self._closed:
                    return recovered
                if self._recovering[index]:
                    continue
                shard = self._shards[index]
                generation = self._generations[index]
            if shard._reaped:
                if self._recover_slot(shard, generation):
                    recovered.append(index)
                continue
            busy_since = shard.busy_since
            if busy_since is not None and (
                # repro-lint: allow[clock-discipline] reason=the watchdog measures real pipe stall time against busy_since stamps from another thread
                time.monotonic() - busy_since > self._wedge_timeout
            ):
                self._breakers[index].record_failure()
                self.wedge_kills += 1
                if self._recover_slot(shard, generation, wedged=True):
                    recovered.append(index)
                continue
            try:
                shard.request("ping", {}, timeout=PROBE_TIMEOUT)
            except ShardBusyError:
                continue  # busy, not sick — the wedge clock above decides
            except ShardWedgedError:
                self._breakers[index].record_failure()
                self.wedge_kills += 1
                if self._recover_slot(shard, generation, wedged=True):
                    recovered.append(index)
            except (OSError, EOFError):
                self._breakers[index].record_failure()
                if self._recover_slot(shard, generation):
                    recovered.append(index)
            else:
                # A live answer is direct evidence of health: reset the
                # breaker so recovery isn't gated on client traffic.
                self._breakers[index].record_success()
        return recovered

    def inject_chaos(self, shard_index: int, rules) -> int:
        """Install chaos rules on one shard worker; ``[]`` clears.

        ``rules`` is a :class:`~repro.serving.faults.ChaosPolicy` or a
        list of :class:`~repro.serving.faults.ChaosRule` / dicts.
        Returns the number of rules now active worker-side.  Test and
        drill tooling only — production traffic never goes near this.
        """
        shard = self._shard(shard_index)
        if isinstance(rules, ChaosPolicy):
            policy: ChaosPolicy | None = rules
        else:
            policy = ChaosPolicy(rules) if rules else None
        return shard.install_chaos(policy)

    # -- tables ------------------------------------------------------------------

    def register_table(self, name: str, table: Table) -> Table:
        """Register ``table`` on its consistent-hash shard.

        Mirrors :meth:`DrillDownServer.register_table`, including the
        warm-restart contract: with ``persist_dir``, registration
        triggers the owning shard's restore of every pending snapshot
        naming ``name``, and the router adopts the restored ids into
        its affinity map.
        """
        with self._lock:
            if self._closed:
                raise ServingError("router is closed")
            if self._tables.get(name) is table:
                return table  # same-object re-registration is a no-op
        self._send_table("register_table", name, table)
        return table

    def _send_table(self, verb: str, name: str, table: Table) -> dict:
        """Ship ``table`` to its shard; keep it (a respawn encodes afresh)."""
        shard = self._shard(self._placement(name))
        result = self._request(shard, verb, {"name": name, "table": encode_table(table)})
        with self._lock:
            self._tables[name] = table
            self._table_versions[name] = int(result.get("version", 1))
        self._adopt_sessions(shard, result)
        return result

    def _adopt_sessions(self, shard: ShardProcess, result: dict) -> None:
        """Learn the sessions a ``register_table`` reply lists (warm
        restores among them), each with its pinned version's columns."""
        with self._lock:
            for sid, columns in result.get("sessions", ()):
                self._sessions.setdefault(sid, (shard.index, tuple(columns)))

    def append_rows(self, name: str, rows) -> dict:
        """Append ``rows`` to ``name`` on its owning shard (a new table
        version; see :meth:`DrillDownServer.append_rows`).

        The router mirrors the append locally with the same
        deterministic :meth:`Table.append_rows`, so the table it would
        replay into a restarted shard stays current at O(batch) per
        append — a crash after an append warm-restores the *appended*
        table, and pre-append snapshots restore pinned to it only if
        their own version was reaped (they re-pin the latest, exactly
        like a single-process restart).

        Deliberately **not** retryable: an append observed by a shard
        crash may have been applied, and re-sending it would
        double-append.
        """
        with self._lock:
            if self._closed:
                raise ServingError("router is closed")
            held = self._tables.get(name)
        if held is None:
            raise UnknownTableError(
                f"no table {name!r} is registered (register it first)"
            )
        normalized = [tuple(row) for row in rows]
        # The local mirror goes first: a row the table cannot hold is
        # refused with the in-process error, before the shard sees it.
        new_table = held.append_rows(normalized)
        encoded_rows = [[encode_value(v) for v in row] for row in normalized]
        shard = self._shard(self._placement(name))
        result = self._request(shard, "append_rows", {"name": name, "rows": encoded_rows})
        with self._lock:
            # Lost-update guard: only advance the mirror if nobody
            # re-registered/replaced the table while the pipe was busy.
            if self._tables.get(name) is held:
                self._tables[name] = new_table
                self._table_versions[name] = int(result["version"])
        return result

    def replace_table(self, name: str, table: Table) -> dict:
        """Swap in ``table`` as a new version of ``name`` (see
        :meth:`DrillDownServer.replace_table`)."""
        with self._lock:
            if self._closed:
                raise ServingError("router is closed")
            same = self._tables.get(name) is table
        if not same:
            return self._send_table("replace_table", name, table)
        # The registered object is a no-op, as in the catalog: the shard
        # would decode a new object and mint a version, so read the
        # latest version's record back instead.
        stats = self._request(self._shard(self._placement(name)), "stats", {})
        entry = stats["versions"]["tables"][name]
        return next(v for v in entry["versions"] if v["version"] == entry["latest"])

    def unregister_table(self, name: str) -> None:
        with self._lock:
            if name not in self._tables:
                return
        shard = self._shard(self._placement(name))
        self._request(shard, "unregister_table", {"name": name})
        with self._lock:
            self._tables.pop(name, None)
            self._table_versions.pop(name, None)

    def tables(self) -> tuple[str, ...]:
        with self._lock:
            return tuple(sorted(self._tables))

    # -- sessions ----------------------------------------------------------------

    def create_session(
        self,
        table: str,
        *,
        tenant: str = "default",
        wf: str = "size",
        k: int = 3,
        mw: float = 5.0,
        measure: str | None = None,
        deadline: float | None = None,
    ) -> str:
        """Open a session on the shard owning ``table``; sticky for life."""
        shard = self._shard(self._placement(table))
        result = self._request(
            shard,
            "create_session",
            {"table": table, "tenant": tenant, "wf": wf, "k": k, "mw": mw, "measure": measure},
            deadline=deadline,
        )
        session_id = result["session_id"]
        with self._lock:
            self._sessions[session_id] = (shard.index, tuple(result["columns"]))
        return session_id

    def session_columns(
        self, session_id: str, *, deadline: float | None = None
    ) -> tuple[str, ...]:
        """Column names of the table version the session pinned —
        answered from the router's own map, no pipe round trip.  A
        spent ``deadline`` fails admission, as in process."""
        deadline = self._default_deadline if deadline is None else deadline
        if deadline is not None and deadline <= 0:
            self.deadline_aborts += 1
            raise DeadlineExceededError(
                f"deadline budget of {deadline:g}s was already spent before "
                "any work ran",
                retry_after=1.0,
            )
        return self._session_shard(session_id)[1]

    def close_session(self, session_id: str) -> bool:
        try:
            shard, _columns = self._session_shard(session_id)
        except UnknownSessionError:
            return False
        try:
            result = self._request(shard, "close_session", {"session_id": session_id})
        except UnknownSessionError:
            return False  # the shard already expired/evicted it
        finally:
            with self._lock:
                self._sessions.pop(session_id, None)
        return bool(result)

    # -- operations --------------------------------------------------------------

    def expand(
        self,
        session_id: str,
        rule: Rule | None = None,
        *,
        k: int | None = None,
        approx: bool | None = None,
        error_target: float | None = None,
        deadline: float | None = None,
    ) -> list[SessionNode]:
        return self._expand("expand", session_id, rule, None, k, approx, error_target, deadline)

    def expand_star(
        self,
        session_id: str,
        rule: Rule,
        column: int | str,
        *,
        k: int | None = None,
        approx: bool | None = None,
        error_target: float | None = None,
        deadline: float | None = None,
    ) -> list[SessionNode]:
        return self._expand(
            "expand_star", session_id, rule, column, k, approx, error_target, deadline
        )

    def expand_traditional(
        self,
        session_id: str,
        rule: Rule,
        column: int | str,
        *,
        k: int | None = None,
        approx: bool | None = None,
        error_target: float | None = None,
        deadline: float | None = None,
    ) -> list[SessionNode]:
        return self._expand(
            "expand_traditional", session_id, rule, column, k, approx, error_target, deadline
        )

    def _expand(
        self,
        op: str,
        session_id: str,
        rule: Rule | None,
        column: int | str | None,
        k: int | None,
        approx: bool | None,
        error_target: float | None,
        deadline: float | None,
    ) -> list[SessionNode]:
        """One expansion verb over the pipe; ``column`` is sent by the
        two column verbs only."""
        args = dict(rule=rule, column=column, k=k, approx=approx, error_target=error_target)
        if op == "expand":
            del args["column"]
        result = self._session_request(session_id, op, args, deadline=deadline)
        return [decode_node(c) for c in result]

    def collapse(
        self, session_id: str, rule: Rule, *, deadline: float | None = None
    ) -> None:
        self._session_request(session_id, "collapse", {"rule": rule}, deadline=deadline)

    def render(
        self,
        session_id: str,
        *,
        sort_display_by_count: bool = False,
        deadline: float | None = None,
    ) -> str:
        args = {"sort_display_by_count": sort_display_by_count}
        return self._session_request(session_id, "render", args, deadline=deadline)

    def tree(self, session_id: str, *, deadline: float | None = None) -> SessionNode:
        return decode_node(self._session_request(session_id, "tree", {}, deadline=deadline))

    # -- maintenance -------------------------------------------------------------

    def checkpoint_all(self, *, only_dirty: bool = True) -> int:
        """Snapshot dirty sessions on every shard; total files written."""
        written = 0
        for index in range(self.n_shards):
            shard = self._shard(index)
            try:
                result = self._request(shard, "checkpoint_all", {"only_dirty": only_dirty})
            except ShardDownError:
                continue  # restarted; its sessions were just restored clean
            written += int(result)
        return written

    def reap(self) -> list[str]:
        """TTL-expire idle sessions on every shard; evicted ids."""
        evicted: list[str] = []
        for index in range(self.n_shards):
            shard = self._shard(index)
            try:
                result = self._request(shard, "reap", {})
            except ShardDownError:
                continue
            evicted.extend(result)
        if evicted:
            with self._lock:
                for sid in evicted:
                    self._sessions.pop(sid, None)
        return evicted

    # -- introspection / lifecycle -----------------------------------------------

    def stats(self) -> dict:
        """Tier-wide stats with a per-shard breakdown.

        Shard entries embed each worker's own
        :meth:`DrillDownServer.stats` untouched; a shard that dies
        while being asked reports ``alive: False`` for this call (and
        has already been restarted by the time the caller reads it).
        """
        with self._lock:
            placement = {name: self._placement(name) for name in self._tables}
            versions = dict(self._table_versions)
            session_count = len(self._sessions)
        shards = []
        for index in range(self.n_shards):
            shard = self._shard(index)
            entry: dict = {"shard": index, "pid": shard.pid, "alive": True}
            try:
                entry["server"] = self._request(shard, "stats", {})
            except (ShardDownError, DeadlineExceededError) as exc:
                entry["alive"] = False
                entry["error"] = str(exc)
            entry["breaker"] = self._breakers[index].stats()
            shards.append(entry)
        return {
            "tables": list(self.tables()),
            "sessions": session_count,
            "router": {
                "n_shards": self.n_shards,
                "restarts": self.restarts,
                "placement": placement,
                "table_versions": versions,
                "orphaned_snapshots": len(self._orphaned_snapshot_files()),
                "orphaned_swept": self.orphaned_swept,
                "default_deadline": self._default_deadline,
                "deadline_aborts": self.deadline_aborts,
                "wedge_kills": self.wedge_kills,
                "watchdog": None if self.watchdog is None else self.watchdog.stats(),
            },
            "shards": shards,
        }

    def close(self) -> None:
        """Shut every shard down gracefully (each worker closes its
        server, checkpointing dirty sessions when durable).  Idempotent."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            shards, self._shards = self._shards, []
            self._sessions.clear()
            self._tables.clear()
            self._table_versions.clear()
        if self.watchdog is not None:
            self.watchdog.stop()
        for shard in shards:
            shard.stop()

    def __enter__(self) -> "ShardRouter":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __repr__(self) -> str:
        with self._lock:
            return (
                f"ShardRouter(shards={self.n_shards}, tables={len(self._tables)}, "
                f"sessions={len(self._sessions)}, restarts={self.restarts}, "
                f"closed={self._closed})"
            )
