"""The multi-tenant serving facade: one object, the whole tier.

:class:`DrillDownServer` composes the serving subsystem —

* a :class:`~repro.serving.TableCatalog` (versioned tables registered
  once, with their samples),
* a :class:`~repro.serving.SessionRegistry` (TTL + LRU session
  lifecycle per tenant),
* a :class:`~repro.serving.ContextStore` (cross-session reuse of
  identical candidate lattices, copy-on-first-expand),
* a :class:`~repro.serving.FairScheduler` (per-tenant token budgets),
* optionally a :class:`~repro.serving.persistence.SnapshotStore` +
  :class:`~repro.serving.persistence.ReaperThread` (``persist_dir=``:
  durable session trees, warm restart, background TTL expiry and
  checkpointing) —

behind a programmatic API mirroring the single-user
:class:`~repro.session.DrillDownSession` (expand / expand_star /
collapse / render), addressed by session id.  The stdlib HTTP front
end (:mod:`repro.serving.http`) is a thin JSON shim over exactly this
facade, so anything reachable over the wire is reachable — and tested —
in process.

Results are identical to standalone sessions: the catalog, store, and
scheduler only change what is shared and who may run, never which
rules win (pinned by ``tests/serving/test_server.py``).

Weight functions are resolved by name (``"size"``, ``"bits"``,
``"size_minus_one"``) and keyed by value, so every tenant asking for
the same weighting on a table version shares its lattices.
"""

from __future__ import annotations

import copy
import os
import threading
import time
from typing import Callable

from repro.core.rule import Rule
from repro.core.weights import WeightFunction
from repro.errors import (
    DeadlineExceededError,
    ReproError,
    ServingError,
    ShardError,
    SnapshotError,
)
from repro.serving.catalog import WEIGHT_FUNCTIONS, TableCatalog, resolve_weight
from repro.serving.contexts import ContextStore
from repro.serving.faults import ChaosPolicy
from repro.serving.persistence import (
    ReaperThread,
    SessionSnapshot,
    SnapshotStore,
)
from repro.serving.registry import SessionEntry, SessionRegistry
from repro.serving.scheduler import FairScheduler
from repro.session.session import DrillDownSession, SessionNode
from repro.table.table import Table

#: Re-exported from :mod:`repro.serving.catalog`, where the weight
#: resolver lives.
__all__ = ["DrillDownServer", "WEIGHT_FUNCTIONS"]


class DrillDownServer:
    """A multi-tenant smart drill-down service in one process.

    Parameters
    ----------
    max_sessions, ttl_seconds:
        Session-registry knobs (LRU capacity, idle expiry).
    tenant_budget, refill_per_second:
        Default per-tenant token budget, denominated in *source rows
        per expansion*; ``None`` never throttles.  Override per tenant
        via ``server.scheduler.set_budget``.
    share_contexts:
        ``True`` (default) shares contexts through a server-owned
        :class:`ContextStore`, bounded by ``max_context_prototypes``;
        a :class:`ContextStore` instance is used as-is (bring your own
        cap); ``False`` gives every session private contexts only (the
        benchmark's ablation knob).
    max_context_prototypes:
        LRU cap on the server-owned context store; ``None`` is
        unbounded (the store is still bounded per table and dropped on
        ``unregister_table``).
    persist_dir:
        Directory for durable session snapshots; ``None`` (default)
        serves memory-only.  With a directory, sessions are
        checkpointed (dirty-only) by the reaper and on :meth:`close`,
        and *warm restart* restores them: construct a new server over
        the same directory, re-register the same tables, and every
        snapshotted session re-enters the registry under its original
        id, tenant, and recency — its rendered tree and subsequent
        expansions bit-identical to a never-restarted session.
    persist_max_bytes:
        Cap on the snapshot directory's total footprint; saves past it
        evict whole snapshots oldest-recency first (see
        :class:`~repro.serving.persistence.SnapshotStore`).  ``None``
        (default) is unbounded.
    checkpoint_interval:
        Seconds between dirty-session checkpoint sweeps (only
        meaningful with ``persist_dir`` and a running reaper); defaults
        to ``reaper_interval``.
    reaper_interval:
        Period of the background :class:`~repro.serving.persistence.\
ReaperThread` enforcing TTL expiry (and checkpointing) without
        piggy-backing on request traffic; ``None`` (default) starts no
        thread — expiry then runs on registry traffic and via explicit
        :meth:`reap` / :meth:`checkpoint_all` calls.
    clock:
        Injectable monotonic clock shared by the registry and
        scheduler (tests).
    wall_clock:
        Injectable *wall* clock (default ``time.time``) for the two
        places a monotonic reading cannot work because it does not
        survive restarts: uptime in :meth:`stats`, and the downtime
        correction applied to restored sessions' recency (snapshots
        store ``saved_at`` as wall time).  Tests freeze it alongside
        ``clock`` to make warm-restart idle math deterministic.
    session_id_prefix:
        Prefix of generated session ids (default ``"sess"``).  The
        sharded router gives each shard's server a distinct prefix so
        ids stay globally unique across worker processes.
    sample_budget:
        When set, every registered table also gets pre-built samples
        (uniform + per-column stratified, this many tuples total — see
        :class:`~repro.serving.TableCatalog`), enabling approximate
        expansions (``approx=True`` on :meth:`expand` /
        :meth:`expand_star` / :meth:`expand_traditional`).  With
        ``persist_dir``, sample row ids persist under
        ``persist_dir/samples`` so warm restarts skip the re-scan.
    sample_seed:
        Base seed for the deterministic sample draws (default 0).
    default_approx:
        Serve expansions approximately unless a call passes
        ``approx=False``.  Requires ``sample_budget``.
    default_error_target:
        Default relative half-width bound for approximate expansions;
        an estimate crossing it escalates the expansion to exact
        mining (see :class:`~repro.session.DrillDownSession`).
    default_deadline:
        Relative per-request deadline in seconds applied when a call
        does not pass its own ``deadline=``; ``None`` (default) never
        bounds.  In process a deadline bounds admission and the wait
        for the per-session entry lock (:meth:`SessionEntry.hold`) and
        nothing else: mining that has started runs to completion.  An
        abort raises :class:`~repro.errors.DeadlineExceededError` (HTTP
        503 + ``Retry-After``) and refunds the expansion's budget charge.
    chaos:
        Optional in-process :class:`~repro.serving.faults.ChaosPolicy`
        applied to expansions (``wedge``/``delay`` sleep, ``error``
        raises a typed :class:`~repro.errors.ShardError`); the
        pipe-level kinds (``crash``, ``drop_reply``) are meaningless in
        process and ignored.  Fault drills only — never set in
        production.
    """

    def __init__(
        self,
        *,
        max_sessions: int | None = 64,
        ttl_seconds: float | None = None,
        tenant_budget: float | None = None,
        refill_per_second: float = 0.0,
        share_contexts: bool | ContextStore = True,
        max_context_prototypes: int | None = None,
        persist_dir: str | os.PathLike | None = None,
        persist_max_bytes: int | None = None,
        checkpoint_interval: float | None = None,
        reaper_interval: float | None = None,
        clock: Callable[[], float] = time.monotonic,
        wall_clock: Callable[[], float] = time.time,
        session_id_prefix: str = "sess",
        default_deadline: float | None = None,
        chaos: ChaosPolicy | None = None,
        sample_budget: int | None = None,
        sample_seed: int = 0,
        default_approx: bool = False,
        default_error_target: float = 0.1,
    ):
        if default_approx and sample_budget is None:
            raise ServingError(
                "default_approx=True requires a sample_budget to mine on"
            )
        self.default_approx = bool(default_approx)
        if not float(default_error_target) > 0:
            raise ServingError("default_error_target must be > 0")
        self.default_error_target = float(default_error_target)
        sample_dir = (
            os.path.join(os.fspath(persist_dir), "samples")
            if (persist_dir is not None and sample_budget is not None)
            else None
        )
        self.catalog = TableCatalog(
            sample_budget=sample_budget,
            sample_seed=sample_seed,
            sample_dir=sample_dir,
        )
        self.registry = SessionRegistry(
            max_sessions=max_sessions,
            ttl_seconds=ttl_seconds,
            clock=clock,
            id_prefix=session_id_prefix,
        )
        if isinstance(share_contexts, ContextStore):
            self.contexts: ContextStore | None = share_contexts
        elif share_contexts:
            self.contexts = ContextStore(max_prototypes=max_context_prototypes)
        else:
            self.contexts = None
        self.scheduler = FairScheduler(
            default_budget=tenant_budget,
            default_refill_per_second=refill_per_second,
            clock=clock,
        )
        self._clock = clock
        self._wall_clock = wall_clock
        self._closed = False
        if default_deadline is not None and default_deadline <= 0:
            raise ServingError("default_deadline must be > 0 seconds (or None)")
        self.default_deadline = default_deadline
        self.chaos = chaos
        self.deadline_aborts = 0
        # -- durability: store, pending restores, reaper -------------------------
        self._persist_lock = threading.Lock()
        self._pending_restore: dict[str, list[SessionSnapshot]] = {}
        self.restored = 0
        self.restore_skipped = 0
        self.checkpoint_errors = 0
        try:
            if persist_dir is not None:
                self.store: SnapshotStore | None = SnapshotStore(
                    persist_dir, max_bytes=persist_max_bytes
                )
                # Warm restart: decode every snapshot now (corrupt/stale
                # files are skipped with a counter inside the store) and
                # hold them pending until their table is re-registered —
                # the snapshot stores no rows, only the table's name.
                for snapshot in self.store.load_all():
                    self._pending_restore.setdefault(snapshot.table, []).append(snapshot)
                self.registry.reserve_ids(self.store.session_ids())
            else:
                self.store = None
            # Always installed (not only with a store): eviction is also
            # the moment a session's table-version pin is released, which
            # may reap the version it held alive.
            self.registry.on_evict = self._on_registry_evict
            self.catalog.on_reap = self._on_version_reaped
            self.reaper: ReaperThread | None = None
            if reaper_interval is not None:
                self.reaper = ReaperThread(
                    reap=self.reap,
                    checkpoint=None if self.store is None else self.checkpoint_all,
                    interval=reaper_interval,
                    checkpoint_interval=checkpoint_interval,
                )
                self.reaper.start()
        except BaseException:
            # The catalog is already live; a half-built server the
            # caller never sees must not leak it.
            self.catalog.close()
            raise
        self.started_at = self._wall_clock()

    # -- tables ------------------------------------------------------------------

    def register_table(self, name: str, table: Table) -> Table:
        """Register a table for every tenant to mine.

        With ``persist_dir``, this is also the warm-restart trigger:
        any on-disk session snapshots naming ``name`` are restored over
        ``table`` now (the snapshot holds the tree, not the rows) and
        re-enter the registry with their original id, tenant, and
        recency.  Snapshots that no longer fit — unknown weighting
        name, mismatched columns, id collision — are skipped and
        counted, never fatal.
        """
        self.catalog.register(name, table)
        self._restore_pending(name, table)
        return table

    def append_rows(self, name: str, rows) -> dict:
        """Append ``rows`` to a served table as a new catalog version.

        Live sessions keep the version they were created on — their
        trees, contexts, and estimates stay bit-identical — while
        sessions created after this call mine the grown table (see
        :meth:`TableCatalog.append_rows`).  Returns the new version's summary (``version``, ``rows``,
        ``appended``).
        """
        if self._closed:
            raise ServingError("server is closed")
        return self.catalog.append_rows(name, rows).describe()

    def replace_table(self, name: str, table: Table) -> dict:
        """Swap a served table's data wholesale as a new catalog version.

        The explicit alternative to the (refused) re-register of a name
        with different data; pinned sessions are unaffected.  Returns
        the new version's summary (the latest one, unchanged, when
        ``table`` is the object already registered).
        """
        if self._closed:
            raise ServingError("server is closed")
        return self.catalog.replace_table(name, table).describe()

    def _restore_pending(self, name: str, table: Table) -> None:
        """Admit every pending snapshot taken over catalog table ``name``."""
        with self._persist_lock:
            pending = self._pending_restore.pop(name, [])
        for snapshot in pending:  # already least-recent first (store order)
            # Restored sessions pin the *current* latest version: the
            # snapshot stores no rows, so it is restored over whatever
            # ``table`` was just registered (its ``table_version`` field
            # is informational provenance, not an address).
            record = self.catalog.pin(name)
            try:
                session = self._open_session(
                    name, table, snapshot.wf_spec, snapshot.tenant, state=snapshot.state
                )
            except ReproError:
                self.catalog.unpin(name, record.version)
                with self._persist_lock:
                    self.restore_skipped += 1
                continue
            # Monotonic clocks do not survive restarts: recency was
            # persisted as idle/age seconds, and the measured downtime
            # (wall clock) is added so TTL keeps counting while the
            # server was down.
            downtime = max(0.0, self._wall_clock() - snapshot.saved_at)
            now = self._clock()
            try:
                self.registry.admit(
                    session,
                    session_id=snapshot.session_id,
                    tenant=snapshot.tenant,
                    created_at=now - (snapshot.age_seconds + downtime),
                    last_used=now - (snapshot.idle_seconds + downtime),
                    expansions=snapshot.expansions,
                    table=name,
                    wf_spec=snapshot.wf_spec,
                    table_version=record.version,
                )
            except ServingError:
                session.close()
                self.catalog.unpin(name, record.version)
                with self._persist_lock:
                    self.restore_skipped += 1
                continue
            with self._persist_lock:
                self.restored += 1

    def unregister_table(self, name: str) -> None:
        """Forget a table; drop its context prototypes."""
        try:
            table = self.catalog.get(name)
        except ServingError:
            return
        self.catalog.unregister(name)
        if self.contexts is not None:
            self.contexts.drop_table(table)

    def tables(self) -> tuple[str, ...]:
        return self.catalog.names()

    # -- sessions ----------------------------------------------------------------

    def create_session(
        self,
        table: str,
        *,
        tenant: str = "default",
        wf: str | WeightFunction = "size",
        k: int = 3,
        mw: float = 5.0,
        measure: str | None = None,
        deadline: float | None = None,
    ) -> str:
        """Open a drill-down session for ``tenant`` over a catalog table.

        The session borrows the catalog's samples and, when enabled, the shared context store.  Returns the
        session id clients address every later call with.
        """
        if self._closed:
            raise ServingError("server is closed")
        self._resolve_deadline(deadline)
        # New sessions pin the latest version; the pin holds the version
        # record alive until the session leaves the
        # registry, even across later appends and unregisters.
        record = self.catalog.pin(table)
        try:
            session = self._open_session(
                table, record.table, wf, tenant, k=k, mw=mw, measure=measure
            )
            return self.registry.add(
                session,
                tenant=tenant,
                table=table,
                wf_spec=wf if isinstance(wf, str) else None,
                table_version=record.version,
            ).session_id
        except BaseException:
            self.catalog.unpin(table, record.version)
            raise

    def _open_session(
        self,
        name: str,
        source: Table,
        wf: str | WeightFunction,
        tenant: str,
        *,
        state: dict | None = None,
        **config,
    ) -> DrillDownSession:
        """A session over catalog table ``name`` wired to the tier's
        shared structures: the one construction site, so a restored
        session (``state=``, a snapshot) cannot be configured differently
        from a fresh one (``k``/``mw``/``measure`` in ``config``)."""
        shared = dict(
            wf=resolve_weight(wf, source),
            tenant=tenant,
            context_store=self.contexts,
            samples=self.catalog.samples_for(name),
            default_approx=self.default_approx,
            error_target=self.default_error_target,
        )
        if state is None:
            return DrillDownSession(source, **shared, **config)
        return DrillDownSession.restore(source, state, **shared)

    def session(self, session_id: str) -> DrillDownSession:
        """The live session for ``session_id`` (touches TTL/LRU)."""
        return self.registry.get(session_id)

    def session_columns(
        self, session_id: str, *, deadline: float | None = None
    ) -> tuple[str, ...]:
        """Column names of the session's source table (touches TTL/LRU).

        Part of the serving facade the HTTP front end is written
        against — :class:`~repro.serving.ShardRouter` implements the
        same method without a live session object in this process.
        """
        self._resolve_deadline(deadline)
        return self.registry.get(session_id).column_names

    def close_session(self, session_id: str) -> bool:
        return self.registry.close(session_id)

    # -- operations --------------------------------------------------------------

    def _resolve_deadline(self, deadline: float | None) -> float | None:
        """The absolute deadline for one request (``None`` = unbounded).

        ``deadline`` is relative seconds (per request, e.g. from the
        HTTP layer's ``X-Deadline`` header), falling back to
        :attr:`default_deadline`.  A non-positive remaining budget —
        the front end passes what is *left* after earlier calls in the
        same request — fails admission immediately.
        """
        deadline = self.default_deadline if deadline is None else deadline
        if deadline is None:
            return None
        if deadline <= 0:
            self.deadline_aborts += 1
            raise DeadlineExceededError(
                f"deadline budget of {deadline:g}s was already spent before "
                "any work ran",
                retry_after=1.0,
            )
        return self._clock() + deadline

    def _apply_chaos(self, op: str) -> None:
        """In-process fault injection (see the ``chaos`` parameter)."""
        policy = self.chaos
        if policy is None:
            return
        rule = policy.fire(op)
        if rule is None:
            return
        if rule.kind in ("wedge", "delay"):
            time.sleep(rule.seconds)
        elif rule.kind == "error":
            raise ShardError(f"chaos: injected failure on {op!r}")

    def _run_expansion(
        self,
        session_id: str,
        operation,
        *,
        op: str = "expand",
        deadline: float | None = None,
    ) -> list[SessionNode]:
        """Meter and serialise one expansion on one session.

        One expansion costs its source's row count in tokens — an upper
        bound on the rows one counting pass scans, charged *before* any
        work runs so throttling can never hang mid-search.  An
        expansion *rejected before any table work* — rule not displayed
        or already expanded, invalid ``k``, unknown column, session
        closed underneath us, a deadline that expired waiting for the
        entry lock: every typed :class:`~repro.errors.ReproError` the
        validation and deadline layers raise pre-mining — refunds the
        charge, so failed and deadline-aborted requests never burn a
        tenant's budget.  An *infrastructure* failure mid-mining (a
        ``MemoryError``: anything non-``ReproError``) keeps the charge:
        the counting pass the budget meters already scanned rows.

        The per-session ``expansions`` counter and ``dirty`` flag are
        updated under ``entry.lock`` — the entry is shared across the
        threaded HTTP front end's request threads, and an unlocked
        read-modify-write loses updates.  A deadline bounds admission and
        the lock acquire (:meth:`SessionEntry.hold`) and nothing else:
        once the lock is held, mining runs to completion.
        """
        deadline_at = self._resolve_deadline(deadline)
        self._apply_chaos(op)
        entry = self.registry.entry(session_id)
        cost = float(entry.session.source_rows)
        self.scheduler.charge(entry.tenant, cost)
        try:
            with entry.hold(deadline_at, self._clock):
                children = operation(entry.session)
                entry.expansions += 1
                entry.dirty = True
        except ReproError as exc:
            # The library's deliberate errors (SessionError, SchemaError
            # for a bad column, RuleError, ...) are all raised by the
            # validation layers before counting starts — a rejection,
            # not half-done mining.
            if isinstance(exc, DeadlineExceededError):
                self.deadline_aborts += 1
            self.scheduler.refund(entry.tenant, cost)
            raise
        return children

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
        """Smart drill-down on ``rule`` (default: the root) for one tenant.

        ``approx=True`` mines on the table's pre-built sample (requires
        a ``sample_budget``); children then carry ``estimate`` metadata
        and an expansion whose interval crosses ``error_target``
        escalates to exact mining.  ``approx``/``error_target`` default
        to the server's ``default_approx``/``default_error_target``.
        """
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
        """Star drill-down on a ``?`` cell for one tenant."""
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
        """Classic OLAP drill-down for one tenant (metered like the others)."""
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
        """Meter the session verb named ``op`` via :meth:`_run_expansion`;
        the verb is looked up per call, so a rebound method is honoured."""

        def operation(session: DrillDownSession) -> list[SessionNode]:
            verb = getattr(session, op)
            if op == "expand":
                target = session.root.rule if rule is None else rule
                return verb(target, k=k, approx=approx, error_target=error_target)
            return verb(rule, column, k=k, approx=approx, error_target=error_target)

        return self._run_expansion(session_id, operation, op=op, deadline=deadline)

    def collapse(self, session_id: str, rule: Rule, *, deadline: float | None = None) -> None:
        """Roll-up: free (no token charge) — it touches no table data."""
        deadline_at = self._resolve_deadline(deadline)
        entry = self.registry.entry(session_id)
        with entry.hold(deadline_at, self._clock):
            entry.session.collapse(rule)
            entry.dirty = True

    def displayed(self, session_id: str) -> list[SessionNode]:
        entry = self.registry.entry(session_id)
        with entry.lock:
            return entry.session.displayed()

    def tree(self, session_id: str, *, deadline: float | None = None) -> SessionNode:
        """A consistent deep snapshot of the session's displayed tree.

        Taken under the per-session lock and deep-copied, so a reader
        polling the tree while another of the tenant's requests is
        mid-expand can never observe (or retain) a half-attached
        subtree.  The HTTP front end serialises this snapshot.
        """
        deadline_at = self._resolve_deadline(deadline)
        entry = self.registry.entry(session_id)
        with entry.hold(deadline_at, self._clock):
            return copy.deepcopy(entry.session.root)

    def render(
        self,
        session_id: str,
        *,
        sort_display_by_count: bool = False,
        deadline: float | None = None,
    ) -> str:
        """The session's displayed tree as the paper's dotted table."""
        deadline_at = self._resolve_deadline(deadline)
        entry = self.registry.entry(session_id)
        with entry.hold(deadline_at, self._clock):
            return entry.session.to_text(sort_display_by_count=sort_display_by_count)

    # -- durability ----------------------------------------------------------------

    def reap(self) -> list[str]:
        """Expire idle sessions now (the reaper's timer target)."""
        return self.registry.evict_expired()

    def checkpoint_all(self, *, only_dirty: bool = True) -> int:
        """Snapshot sessions to the store; returns how many were written.

        ``only_dirty`` (default) skips sessions unchanged since their
        last checkpoint — the reaper's steady-state sweep.  Sessions
        that cannot be snapshotted (created with a bring-your-own
        weight-function instance, so no name to restore by; or holding
        an unserialisable rule value) are skipped and, on error,
        counted in ``checkpoint_errors``.
        """
        if self.store is None:
            return 0
        written = 0
        for entry in self.registry.entries():
            if self._checkpoint_entry(entry, only_dirty=only_dirty):
                written += 1
        return written

    def checkpoint(self, session_id: str) -> bool:
        """Snapshot one session now (even if clean); ``False`` if it
        is not live or not snapshot-able.  Does not touch TTL/LRU —
        a checkpoint is not the tenant coming back."""
        if self.store is None:
            return False
        entry = self.registry.peek(session_id)
        if entry is None:
            return False
        return self._checkpoint_entry(entry, only_dirty=False)

    def _checkpoint_entry(self, entry: SessionEntry, *, only_dirty: bool) -> bool:
        assert self.store is not None
        if entry.wf_spec is None or entry.table is None:
            return False  # bring-your-own wf instance: not restorable by name
        now = self._clock()
        with entry.lock:
            # "Dirty" for a snapshot means tree *or recency*: read-only
            # touches (render, lookup) move last_used without setting
            # the dirty flag, and restoring yesterday's idle_seconds
            # for a session that was active until shutdown would get it
            # reaped as stale on the first post-restart sweep.
            touched = (
                entry.checkpointed_at is None
                or entry.last_used > entry.checkpointed_at
            )
            if only_dirty and not entry.dirty and not touched:
                return False
            # Snapshot under the entry lock (a consistent tree, never
            # half-attached) and clear the flag optimistically; the
            # disk write happens outside the lock so one slow fsync
            # never stalls the session's own requests.
            entry.dirty = False
            try:
                state = entry.session.snapshot()
            except SnapshotError:
                state = None  # an unserialisable rule value
            expansions = entry.expansions
        if state is None:
            self._deterministic_checkpoint_failure(entry, now)
            return False
        snapshot = SessionSnapshot(
            session_id=entry.session_id,
            table=entry.table,
            tenant=entry.tenant,
            wf_spec=entry.wf_spec,
            state=state,
            expansions=expansions,
            table_version=entry.table_version,
            idle_seconds=max(0.0, now - entry.last_used),
            age_seconds=max(0.0, now - entry.created_at),
            saved_at=self._wall_clock(),
        )
        try:
            self.store.save(snapshot)
        except OSError:
            # Transient (disk full, permissions flap): retry next sweep.
            with entry.lock:
                entry.dirty = True
            with self._persist_lock:
                self.checkpoint_errors += 1
            return False
        except SnapshotError:
            self._deterministic_checkpoint_failure(entry, now)
            return False
        # A close/eviction can race the sweep: its on_evict hook may
        # have deleted the snapshot *before* our save re-created it,
        # silently resurrecting a dead session on the next restart.
        # Re-check liveness after the save and undo if the session is
        # gone (any later eviction's own delete is ordered after this).
        if self.registry.peek(entry.session_id) is None:
            self.store.delete(entry.session_id)
            return False
        with entry.lock:
            entry.checkpointed_at = now
        return True

    def _deterministic_checkpoint_failure(self, entry: SessionEntry, now: float) -> None:
        """Re-marking dirty would re-serialise the doomed tree every
        sweep forever.  Stamp the attempt so sweeps stay quiet until
        the next touch or mutation — which may well remove the
        offending node."""
        with entry.lock:
            entry.checkpointed_at = now
        with self._persist_lock:
            self.checkpoint_errors += 1

    def _on_registry_evict(self, entry: SessionEntry, reason: str) -> None:
        """Orphan cleanup: an evicted/closed session's snapshot goes
        too, and its table-version pin is released — when that was the
        last pin on a superseded (or unregistered) version, the version
        is reaped: artifacts purged, context
        prototypes dropped (via :attr:`TableCatalog.on_reap`).

        Fired for TTL expiry, LRU eviction, and explicit closes — but
        not by ``close_all`` (shutdown keeps snapshots for the next
        warm restart; see :meth:`SessionRegistry.close_all`, and the
        catalog's own close releases everything anyway).
        """
        if self.store is not None:
            self.store.delete(entry.session_id)
        if entry.table is not None and entry.table_version is not None:
            self.catalog.unpin(entry.table, entry.table_version)

    def _on_version_reaped(self, name: str, table: Table) -> None:
        """Drop derived per-table state when the catalog reaps a version."""
        if self.contexts is not None:
            self.contexts.drop_table(table)

    # -- introspection / lifecycle -----------------------------------------------

    def _persistence_stats(self) -> dict | None:
        if self.store is None:
            return None
        with self._persist_lock:
            counters = {
                "restored": self.restored,
                "restore_skipped": self.restore_skipped,
                "checkpoint_errors": self.checkpoint_errors,
                "pending_restore": sum(
                    len(v) for v in self._pending_restore.values()
                ),
            }
        return {
            **self.store.stats(),
            **counters,
            "reaper": None if self.reaper is None else self.reaper.stats(),
        }

    def stats(self) -> dict:
        return {
            "uptime_seconds": round(self._wall_clock() - self.started_at, 3),
            "default_deadline": self.default_deadline,
            "deadline_aborts": self.deadline_aborts,
            "default_approx": self.default_approx,
            "default_error_target": self.default_error_target,
            "samples": self.catalog.sample_stats(),
            "marginals": self.catalog.marginal_stats(),
            "versions": self.catalog.version_stats(),
            "tables": list(self.tables()),
            "registry": self.registry.stats(),
            "scheduler": self.scheduler.stats(),
            "contexts": None if self.contexts is None else self.contexts.stats(),
            "persistence": self._persistence_stats(),
        }

    def close(self) -> None:
        """Shut the tier down gracefully: stop the reaper, checkpoint
        every dirty session (so a warm restart over the same
        ``persist_dir`` resumes exactly here), then close every session
        and the catalog.  Idempotent."""
        if self._closed:
            return
        self._closed = True
        if self.reaper is not None:
            self.reaper.stop()
        if self.store is not None:
            self.checkpoint_all(only_dirty=True)
        self.registry.close_all()
        if self.contexts is not None:
            self.contexts.clear()
        self.catalog.close()

    def __enter__(self) -> "DrillDownServer":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __repr__(self) -> str:
        return (
            f"DrillDownServer(tables={len(self.catalog)}, "
            f"sessions={len(self.registry)}, closed={self._closed})"
        )
