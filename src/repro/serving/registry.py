"""The session registry: per-tenant session lifecycle with TTL + LRU.

A long-running drill-down service accumulates sessions faster than
clients close them — browsers navigate away, notebooks die, load
balancers retry.  The :class:`SessionRegistry` bounds that:

* **TTL expiry** — a session idle longer than ``ttl_seconds`` (no
  lookup, no expansion) is closed and forgotten; the next request for
  its id raises :class:`~repro.errors.UnknownSessionError`, telling
  the client to recreate it.  Expiry runs on every registry operation
  and can be forced with :meth:`evict_expired` — which is what the
  serving tier's background
  :class:`~repro.serving.persistence.ReaperThread` calls on its
  interval, so idle sessions die even when no request ever touches the
  registry again.
* **LRU capacity eviction** — ``max_sessions`` caps live sessions;
  admitting one more closes the least-recently-used first.

Eviction calls :meth:`DrillDownSession.close`, which is idempotent and
safe while an expansion is in flight (see
:mod:`repro.session.session`); a closed tenant mid-expand gets its
result back, and the *next* call raises
:class:`~repro.errors.SessionClosedError` / ``UnknownSessionError``.

**Locking discipline.**  Victims are popped from the table under the
registry ``_lock`` but *closed after it is released* — ``close()``
may fire an ``on_close``/:attr:`on_evict` callback that re-enters the
registry; closing under the lock would stall every tenant's lookup
behind one eviction and invites deadlock.  :meth:`close` and
:meth:`close_all` always worked this way; :meth:`add` and TTL expiry
now do too.

**Durability hooks.**  :class:`SessionEntry` carries the metadata the
serving tier's snapshot subsystem needs (``table``, ``wf_spec``, a
``dirty`` flag set on every expansion/collapse), :attr:`on_evict`
notifies the tier when an entry leaves the registry (so its snapshot
can be deleted), and :meth:`admit` re-enters a *restored* session
under its original id, tenant, and recency after a warm restart.
"""

from __future__ import annotations

import re
import threading
import time
from collections import OrderedDict
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Iterator

from repro.errors import DeadlineExceededError, ServingError, UnknownSessionError
from repro.session.session import DrillDownSession

__all__ = ["SessionEntry", "SessionRegistry"]


@dataclass
class SessionEntry:
    """One registered session with its tenancy and recency metadata."""

    session_id: str
    tenant: str
    session: DrillDownSession
    created_at: float
    last_used: float
    expansions: int = 0
    #: Catalog table name the session mines (``None`` outside the
    #: serving facade); part of a snapshot's identity.
    table: str | None = None
    #: Weight-function spec (``"size"``/``"bits"``/...) when the session
    #: was created by name; ``None`` for bring-your-own instances, which
    #: cannot be snapshotted (no way to name the weighting on restore).
    wf_spec: str | None = None
    #: Catalog version of :attr:`table` this session is pinned to
    #: (``None`` outside the serving facade).  A session mines exactly
    #: the version it started on; the serving tier releases the pin —
    #: possibly reaping the version — when the entry leaves the
    #: registry.
    table_version: int | None = None
    #: Set (under :attr:`lock`) whenever an expansion or collapse
    #: mutates the tree; cleared by a successful checkpoint.
    dirty: bool = False
    #: Registry-clock time of the last successful checkpoint (``None``
    #: = never).  A ``last_used`` beyond it means the snapshot's
    #: *recency* is stale even when the tree is clean — read-only
    #: touches (render, lookup) refresh TTL but not ``dirty``, and a
    #: warm restart must not revive an active session as long-idle.
    checkpointed_at: float | None = None
    #: Serialises operations on this session (sessions are not
    #: re-entrant; the HTTP front end is threaded).  Also guards the
    #: ``expansions`` counter and ``dirty`` flag.
    lock: threading.Lock = field(default_factory=threading.Lock)

    @contextmanager
    def hold(
        self,
        deadline_at: float | None = None,
        clock: Callable[[], float] = time.monotonic,
    ) -> Iterator[None]:
        """Acquire :attr:`lock`, bounded by an absolute deadline.

        ``with entry.hold():`` is exactly ``with entry.lock:``; with a
        ``deadline_at`` the acquire times out and raises
        :class:`~repro.errors.DeadlineExceededError` instead — a
        deadline'd request queued behind another long operation on the
        *same* session must fail fast, not inherit the predecessor's
        runtime.  ``clock`` must be the domain ``deadline_at`` was
        computed in (the serving tier passes its injectable clock —
        note a non-realtime test clock makes the underlying real-time
        lock wait conservative, which only ever fails *earlier*).
        """
        if deadline_at is None:
            self.lock.acquire()
        else:
            remaining = deadline_at - clock()
            if remaining <= 0.0 or not self.lock.acquire(timeout=remaining):
                raise DeadlineExceededError(
                    f"session {self.session_id!r} is busy with another request "
                    "and the deadline expired waiting for it",
                    retry_after=1.0,
                )
        try:
            yield
        finally:
            self.lock.release()


class SessionRegistry:
    """Create/lookup/expire :class:`DrillDownSession`s per tenant.

    Parameters
    ----------
    max_sessions:
        Live-session cap; ``None`` is unbounded.  Admission beyond the
        cap closes the least-recently-used session.
    ttl_seconds:
        Idle lifetime; ``None`` disables expiry.
    clock:
        Injectable monotonic clock for deterministic TTL tests.
    id_prefix:
        Prefix of generated session ids (``"sess"`` → ``sess-000001``).
        A sharded tier gives every shard's registry a distinct prefix so
        ids stay unique *across* worker processes — the router keys its
        session-affinity table by bare id.
    """

    def __init__(
        self,
        *,
        max_sessions: int | None = None,
        ttl_seconds: float | None = None,
        clock: Callable[[], float] = time.monotonic,
        id_prefix: str = "sess",
    ):
        if max_sessions is not None and max_sessions < 1:
            raise ServingError("max_sessions must be at least 1")
        if not re.fullmatch(r"[A-Za-z0-9._-]+", id_prefix):
            raise ServingError(f"session id prefix {id_prefix!r} is not filename-safe")
        self.id_prefix = id_prefix
        self._id_pattern = re.compile(re.escape(id_prefix) + r"-(\d+)")
        self.max_sessions = max_sessions
        self.ttl_seconds = ttl_seconds
        self._clock = clock
        self._lock = threading.RLock()
        self._entries: "OrderedDict[str, SessionEntry]" = OrderedDict()
        self._next_id = 1
        self.ttl_evictions = 0
        self.lru_evictions = 0
        #: Fired (outside the registry lock) with ``(entry, reason)``
        #: after a session leaves the registry through TTL expiry
        #: (``"ttl"``), LRU eviction (``"lru"``), or an explicit
        #: :meth:`close` (``"closed"``) — the serving tier's snapshot
        #: orphan-cleanup hook.  Not fired by :meth:`close_all`
        #: (shutdown must keep snapshots for the next warm restart).
        self.on_evict: Callable[[SessionEntry, str], None] | None = None

    # -- admission ---------------------------------------------------------------

    def add(
        self,
        session: DrillDownSession,
        *,
        tenant: str = "default",
        table: str | None = None,
        wf_spec: str | None = None,
        table_version: int | None = None,
    ) -> SessionEntry:
        """Register ``session``; may LRU-evict to make room.

        Returns the entry carrying the generated ``session_id``.
        Victims are closed only after the registry lock is released.
        """
        now = self._clock()
        with self._lock:
            expired = self._pop_expired_locked(now)
            victims = self._pop_lru_victims_locked()
            entry = SessionEntry(
                session_id=f"{self.id_prefix}-{self._next_id:06d}",
                tenant=tenant,
                session=session,
                created_at=now,
                last_used=now,
                table=table,
                wf_spec=wf_spec,
                table_version=table_version,
            )
            self._next_id += 1
            self._entries[entry.session_id] = entry
        self._close_evicted(expired, "ttl")
        self._close_evicted(victims, "lru")
        return entry

    def admit(
        self,
        session: DrillDownSession,
        *,
        session_id: str,
        tenant: str = "default",
        created_at: float | None = None,
        last_used: float | None = None,
        expansions: int = 0,
        table: str | None = None,
        wf_spec: str | None = None,
        table_version: int | None = None,
    ) -> SessionEntry:
        """Re-enter a *restored* session under its original identity.

        The warm-restart path: the session keeps its pre-restart id,
        tenant, recency (``last_used``/``created_at``, in this
        registry's clock domain), and expansion count, so TTL expiry
        and per-session counters carry across the restart.  The id
        generator is advanced past ``session_id`` so freshly created
        sessions can never collide with a restored one.  Admit restored
        sessions least-recent first to keep the LRU order faithful.

        Raises :class:`~repro.errors.ServingError` if the id is
        already live.
        """
        now = self._clock()
        with self._lock:
            if session_id in self._entries:
                raise ServingError(f"session id {session_id!r} is already live")
            self._reserve_id_locked(session_id)
            victims = self._pop_lru_victims_locked()
            entry = SessionEntry(
                session_id=session_id,
                tenant=tenant,
                session=session,
                created_at=now if created_at is None else created_at,
                last_used=now if last_used is None else last_used,
                expansions=expansions,
                table=table,
                wf_spec=wf_spec,
                table_version=table_version,
            )
            self._entries[session_id] = entry
        self._close_evicted(victims, "lru")
        return entry

    def reserve_ids(self, session_ids: "list[str] | tuple[str, ...]") -> None:
        """Advance the id generator past every ``sess-NNNNNN`` given.

        Called with all on-disk snapshot ids before any new session is
        created, so ids stay unique even for snapshots whose table is
        never re-registered (and which are therefore never admitted).
        """
        with self._lock:
            for session_id in session_ids:
                self._reserve_id_locked(session_id)

    def _reserve_id_locked(self, session_id: str) -> None:
        match = self._id_pattern.fullmatch(session_id)
        if match:
            self._next_id = max(self._next_id, int(match.group(1)) + 1)

    # -- lookup ------------------------------------------------------------------

    def entry(self, session_id: str) -> SessionEntry:
        """The live entry for ``session_id``, touched for LRU/TTL.

        Raises :class:`~repro.errors.UnknownSessionError` for ids that
        never existed, were closed, or have expired/been evicted.
        """
        now = self._clock()
        with self._lock:
            expired = self._pop_expired_locked(now)
            entry = self._entries.get(session_id)
            if entry is not None:
                entry.last_used = now
                self._entries.move_to_end(session_id)
        self._close_evicted(expired, "ttl")
        if entry is None:
            raise UnknownSessionError(
                f"no live session {session_id!r} (unknown, closed, expired, "
                "or evicted — create a new session)"
            )
        return entry

    def get(self, session_id: str) -> DrillDownSession:
        """The live session for ``session_id`` (see :meth:`entry`)."""
        return self.entry(session_id).session

    def peek(self, session_id: str) -> SessionEntry | None:
        """The live entry *without* touching TTL/LRU or expiring anyone.

        Maintenance accessor (checkpointing must not refresh recency —
        a checkpoint is not the tenant coming back); ``None`` when not
        live.
        """
        with self._lock:
            return self._entries.get(session_id)

    def session_ids(self, *, tenant: str | None = None) -> tuple[str, ...]:
        with self._lock:
            return tuple(
                sid
                for sid, entry in self._entries.items()
                if tenant is None or entry.tenant == tenant
            )

    def entries(self) -> tuple[SessionEntry, ...]:
        """A stable snapshot of the live entries (checkpoint sweeps)."""
        with self._lock:
            return tuple(self._entries.values())

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, session_id: object) -> bool:
        with self._lock:
            return session_id in self._entries

    # -- expiry / eviction -------------------------------------------------------

    def _pop_expired_locked(self, now: float) -> list[SessionEntry]:
        """Remove TTL-expired entries; the caller closes them unlocked."""
        if self.ttl_seconds is None:
            return []
        expired = [
            sid
            for sid, entry in self._entries.items()
            if now - entry.last_used > self.ttl_seconds
        ]
        popped = []
        for sid in expired:
            popped.append(self._entries.pop(sid))
            self.ttl_evictions += 1
        return popped

    def _pop_lru_victims_locked(self) -> list[SessionEntry]:
        """Remove LRU entries until one more admission fits."""
        victims = []
        while self.max_sessions is not None and len(self._entries) >= self.max_sessions:
            _, victim = self._entries.popitem(last=False)
            self.lru_evictions += 1
            victims.append(victim)
        return victims

    def _close_evicted(self, entries: list[SessionEntry], reason: str) -> None:
        """Close popped entries and fire :attr:`on_evict` — never under
        ``_lock``: ``close()`` can block behind an in-flight expansion
        and callbacks may re-enter the registry."""
        for entry in entries:
            entry.session.close()
            if self.on_evict is not None:
                self.on_evict(entry, reason)

    def evict_expired(self) -> list[str]:
        """Close every TTL-expired session now; returns the evicted ids.

        This is the reaper's entry point: called on a timer, it expires
        idle sessions with zero intervening request traffic.
        """
        with self._lock:
            expired = self._pop_expired_locked(self._clock())
        self._close_evicted(expired, "ttl")
        return [entry.session_id for entry in expired]

    def close(self, session_id: str) -> bool:
        """Close and forget one session; ``False`` if it was not live."""
        with self._lock:
            entry = self._entries.pop(session_id, None)
        if entry is None:
            return False
        self._close_evicted([entry], "closed")
        return True

    def close_all(self) -> None:
        """Close every live session (service shutdown).

        Does **not** fire :attr:`on_evict` — shutdown is not eviction,
        and the serving tier relies on that to keep freshly
        checkpointed snapshots on disk for the next warm restart.
        """
        with self._lock:
            entries = list(self._entries.values())
            self._entries.clear()
        for entry in entries:
            entry.session.close()

    # -- introspection -----------------------------------------------------------

    def stats(self) -> dict:
        with self._lock:
            tenants: dict[str, int] = {}
            expansions = 0
            dirty = 0
            for entry in self._entries.values():
                tenants[entry.tenant] = tenants.get(entry.tenant, 0) + 1
                expansions += entry.expansions
                dirty += entry.dirty
            return {
                "sessions": len(self._entries),
                "per_tenant": tenants,
                "expansions": expansions,
                "dirty": dirty,
                "ttl_evictions": self.ttl_evictions,
                "lru_evictions": self.lru_evictions,
                "max_sessions": self.max_sessions,
                "ttl_seconds": self.ttl_seconds,
            }

    def __repr__(self) -> str:
        return (
            f"SessionRegistry(sessions={len(self._entries)}, "
            f"max={self.max_sessions}, ttl={self.ttl_seconds})"
        )
