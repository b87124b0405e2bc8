"""Session durability: snapshot files, the store, and the reaper.

The paper's smart drill-down is a *stateful* operator — the displayed
rule tree **U** (§2.3) *is* the user's exploration.  A serving tier
that loses every tree on restart forces each tenant to re-click (and
the engine to re-mine) their way back; this module makes the tree
durable server state instead:

* a **versioned JSON-lines snapshot format** (:data:`SNAPSHOT_VERSION`)
  carrying the tree, the expansion history, the ``wf``/``k``/``mw``/
  ``measure`` configuration, the tenant, and recency metadata —
  deliberately *not* search contexts, which are rebuilt (or re-leased
  from the :class:`~repro.serving.ContextStore`) on the first expansion
  after restore, with bit-identical results either way;
* a :class:`SnapshotStore` — one file per session in a flat directory,
  with corrupt and stale-version files *skipped and counted*, never
  fatal;
* :func:`atomic_write` and :func:`sweep_tmp` — the one write path and
  the one temp-litter sweep for every file the serving tier persists
  (snapshots here, sample sets in :mod:`repro.serving.samples`);
* a :class:`ReaperThread` — the background loop the ROADMAP queued:
  TTL expiry enforced on a timer instead of piggy-backing on request
  traffic, plus periodic checkpointing of dirty sessions.

The subsystem is wired together by
:class:`~repro.serving.DrillDownServer` (``persist_dir=``,
``checkpoint_interval=``, ``reaper_interval=``); see docs/SERVING.md
§Durability for the operator's view.

**Wire format.**  One ``<session-id>.jsonl`` file per session:

.. code-block:: text

    {"record": "meta", "version": 1, "session_id": ..., "table": ...,
     "tenant": ..., "wf": "size", "k": 3, "mw": 5.0, "measure": null,
     "columns": [...], "expansions": 2, "idle_seconds": 1.5,
     "age_seconds": 40.2, "saved_at": <wall clock>}
    {"record": "expansion", "rule": [...], "kind": "rule", ...}   # 0+
    {"record": "tree", "root": {"rule": [...], "count": ..., ...}}

The ``tree`` record is written last and doubles as the completeness
terminator: a torn or truncated file has no tree and is skipped as
corrupt.  The tree and the expansion records are the session's own
JSON form (:func:`~repro.session.session.encode_node`,
:func:`~repro.session.session.encode_record`), whose rule values are
the tagged arrays of :mod:`repro.codec`; this module only adds the
envelope.

Recency is persisted as *idle seconds* plus a wall-clock ``saved_at``
(monotonic clocks do not survive a restart): on restore the idle age
becomes ``idle_seconds`` plus the measured downtime, so a session that
out-sleeps the TTL across a restart is reaped, not resurrected fresh.
"""

from __future__ import annotations

import json
import os
import re
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

from repro.errors import SnapshotError
from repro.session.session import decode_node, decode_record

__all__ = [
    "SNAPSHOT_VERSION",
    "ReaperThread",
    "SessionSnapshot",
    "SnapshotStore",
    "atomic_write",
    "sweep_tmp",
]

#: Version stamped into every snapshot's meta record.  Readers skip
#: (and count) any other version — old snapshots after a format change
#: are stale data, not a crash.
SNAPSHOT_VERSION = 1

_SNAPSHOT_SUFFIX = ".jsonl"

#: Session ids become file names; anything outside this alphabet is
#: refused rather than escaped (ids are registry-generated anyway).
_SAFE_ID = re.compile(r"[A-Za-z0-9._-]+")


# -- the one durable write -------------------------------------------------------


def atomic_write(path: str | os.PathLike, text: str) -> int:
    """Publish ``text`` at ``path`` atomically; returns the bytes written.

    The serving tier's only writer of persisted files.  The data goes
    to a unique sibling ``<name>.tmp-<pid>-<tid>``, is flushed and
    fsynced, then ``os.replace``\\ d over the real name, and the
    directory is fsynced (best effort) so the rename itself survives
    power loss.  A crash therefore leaves the previous file or none,
    never a torn one under the real name.  On any failure the temp
    file is unlinked and the error re-raised; only a SIGKILL can leave
    one behind, and :func:`sweep_tmp` removes that.
    """
    path = Path(path)
    data = text.encode("utf-8")
    tmp = path.with_name(f"{path.name}.tmp-{os.getpid()}-{threading.get_ident()}")
    try:
        with open(tmp, "wb") as handle:
            handle.write(data)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)
    except BaseException:
        try:
            tmp.unlink()
        except OSError:
            pass
        raise
    try:
        dir_fd = os.open(path.parent, os.O_RDONLY)
        try:
            os.fsync(dir_fd)
        finally:
            os.close(dir_fd)
    except OSError:  # pragma: no cover - platform-dependent
        pass
    return len(data)


def sweep_tmp(directory: str | os.PathLike | None) -> int:
    """Delete temp-file litter in ``directory``; returns how many went.

    Matches :func:`atomic_write`'s ``*.tmp-*`` siblings and the older
    ``<file>.tmp`` form.  Both are unpublished garbage by definition:
    the rename that would have made them real never happened.  A
    missing directory (or ``None``) sweeps nothing.
    """
    if directory is None:
        return 0
    removed = 0
    for pattern in ("*.tmp", "*.tmp-*"):
        for leftover in Path(directory).glob(pattern):
            try:
                leftover.unlink()
            except OSError:  # pragma: no cover - racing cleanup
                continue
            removed += 1
    return removed


# -- the snapshot ----------------------------------------------------------------


@dataclass
class SessionSnapshot:
    """One session's durable state, ready to write or just read.

    ``state`` is exactly what
    :meth:`~repro.session.DrillDownSession.snapshot` returned (already
    JSON-ready).  The remaining fields are the serving-tier envelope:
    identity, configuration name, and recency.
    """

    session_id: str
    table: str
    tenant: str
    wf_spec: str
    state: dict
    expansions: int = 0
    #: Catalog version of ``table`` the session was pinned to when
    #: snapshotted — *provenance*, not an address: restore always pins
    #: the freshly registered table (the snapshot stores no rows), so a
    #: version from a previous run need not exist anymore.
    table_version: int | None = None
    #: Idle/age seconds *at snapshot time*; restore adds measured
    #: downtime (wall clock) on top.
    idle_seconds: float = 0.0
    age_seconds: float = 0.0
    saved_at: float = field(default_factory=time.time)


# -- the store -------------------------------------------------------------------


class SnapshotStore:
    """Directory of per-session snapshot files with atomic replacement.

    Layout: ``<root>/<session-id>.jsonl``, one file per session,
    written with :func:`atomic_write`, so a crash mid-checkpoint leaves
    the previous snapshot intact.  Loading skips — and counts —
    undecodable files (``skipped_corrupt``) and version mismatches
    (``skipped_version``); a bad snapshot can cost one session's
    restore, never the warm restart.

    ``max_bytes`` caps the directory's total snapshot footprint for
    very long-lived tiers: every save that pushes the total past the
    cap evicts whole snapshots, oldest recency (file mtime — the last
    checkpoint touch) first, until the directory fits again.  The file
    just written is never its own eviction victim, so the cap degrades
    to "keep only the most recent session" rather than thrashing.
    Evictions are counted (``cap_evictions``), not fatal — an evicted
    session simply will not warm-restore.

    Temp files a SIGKILL left behind mid-write are removed by
    :func:`sweep_tmp` on construction and counted in ``cleaned_tmp``.
    """

    def __init__(self, root: str | os.PathLike, *, max_bytes: int | None = None):
        if max_bytes is not None and max_bytes < 1:
            raise SnapshotError("max_bytes must be a positive byte count or None")
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.max_bytes = max_bytes
        self._lock = threading.Lock()
        self.saved = 0
        self.deleted = 0
        self.skipped_corrupt = 0
        self.skipped_version = 0
        self.cap_evictions = 0
        self.cleaned_tmp = sweep_tmp(self.root)
        # Running footprint (file name -> bytes), kept in step by
        # save/delete so the cap check is O(1) while under the cap; the
        # eviction pass re-scans the directory authoritatively.
        self._sizes: dict[str, int] = {}
        self._size_total = 0
        for path in self.root.glob(f"*{_SNAPSHOT_SUFFIX}"):
            try:
                size = path.stat().st_size
            except OSError:  # pragma: no cover - racing delete
                continue
            self._sizes[path.name] = size
            self._size_total += size

    # -- paths -------------------------------------------------------------------

    def _path(self, session_id: str) -> Path:
        if not _SAFE_ID.fullmatch(session_id):
            raise SnapshotError(f"unsafe session id for a file name: {session_id!r}")
        return self.root / f"{session_id}{_SNAPSHOT_SUFFIX}"

    def session_ids(self) -> tuple[str, ...]:
        """Ids with a snapshot on disk (sorted; no decoding)."""
        return tuple(
            sorted(p.name[: -len(_SNAPSHOT_SUFFIX)] for p in self.root.glob(f"*{_SNAPSHOT_SUFFIX}"))
        )

    def __len__(self) -> int:
        return len(self.session_ids())

    def __contains__(self, session_id: object) -> bool:
        return isinstance(session_id, str) and session_id in self.session_ids()

    # -- write / delete ----------------------------------------------------------

    def save(self, snapshot: SessionSnapshot) -> Path:
        """Write ``snapshot`` atomically; returns the final path."""
        path = self._path(snapshot.session_id)
        state = snapshot.state
        meta = {
            "record": "meta",
            "version": SNAPSHOT_VERSION,
            "session_id": snapshot.session_id,
            "table": snapshot.table,
            "tenant": snapshot.tenant,
            "wf": snapshot.wf_spec,
            "k": state["k"],
            "mw": state["mw"],
            "measure": state["measure"],
            "columns": list(state["columns"]),
            "expansions": snapshot.expansions,
            "table_version": snapshot.table_version,
            "idle_seconds": snapshot.idle_seconds,
            "age_seconds": snapshot.age_seconds,
            "saved_at": snapshot.saved_at,
        }
        lines = [json.dumps(meta)]
        lines.extend(json.dumps({**r, "record": "expansion"}) for r in state["history"])
        lines.append(json.dumps({"record": "tree", "root": state["tree"]}))
        payload = "\n".join(lines) + "\n"
        size = atomic_write(path, payload)
        with self._lock:
            self.saved += 1
            self._size_total += size - self._sizes.get(path.name, 0)
            self._sizes[path.name] = size
            over_cap = self.max_bytes is not None and self._size_total > self.max_bytes
        if over_cap:
            self._enforce_cap(keep=path)
        return path

    def _enforce_cap(self, *, keep: Path) -> None:
        """Evict oldest-recency snapshots until the directory fits
        ``max_bytes`` again.  ``keep`` (the file just published) is
        exempt — evicting your own write would make the cap a black
        hole.  Re-scans the directory (the running total is only the
        trigger), so races with concurrent deletes are benign: a
        vanished victim already freed its bytes."""
        if self.max_bytes is None:
            return
        entries = []
        total = 0
        sizes: dict[str, int] = {}
        for path in self.root.glob(f"*{_SNAPSHOT_SUFFIX}"):
            try:
                stat = path.stat()
            except OSError:
                continue
            entries.append((stat.st_mtime_ns, path.name, path, stat.st_size))
            total += stat.st_size
            sizes[path.name] = stat.st_size
        entries.sort()  # oldest mtime first; name tie-break for determinism
        for _mtime, name, path, size in entries:
            if total <= self.max_bytes:
                break
            if path == keep:
                continue
            try:
                path.unlink()
            except OSError:
                continue
            total -= size
            sizes.pop(name, None)
            with self._lock:
                self.cap_evictions += 1
        with self._lock:
            self._sizes = sizes
            self._size_total = total

    def total_bytes(self) -> int:
        """Current on-disk footprint of all snapshot files."""
        total = 0
        for path in self.root.glob(f"*{_SNAPSHOT_SUFFIX}"):
            try:
                total += path.stat().st_size
            except OSError:  # pragma: no cover - racing delete
                continue
        return total

    def delete(self, session_id: str) -> bool:
        """Remove one session's snapshot (orphan cleanup on close)."""
        try:
            path = self._path(session_id)
        except SnapshotError:
            return False
        try:
            path.unlink()
        except FileNotFoundError:
            return False
        with self._lock:
            self.deleted += 1
            self._size_total -= self._sizes.pop(path.name, 0)
        return True

    # -- read --------------------------------------------------------------------

    def load(self, session_id: str) -> SessionSnapshot:
        """Decode one snapshot; raises :class:`SnapshotError` on any defect."""
        path = self._path(session_id)
        try:
            return self._decode(path)
        except (AttributeError, KeyError, TypeError, ValueError) as exc:
            raise SnapshotError(f"{path.name}: malformed snapshot: {exc!r}") from None

    def load_all(self) -> list[SessionSnapshot]:
        """Every decodable current-version snapshot, least-recent first.

        Undecodable files bump ``skipped_corrupt``; decodable files
        with a different :data:`SNAPSHOT_VERSION` bump
        ``skipped_version``.  Neither raises — restart must not be
        blockable by one bad file.  The least-recent-first order lets
        the caller admit sessions in faithful LRU order.
        """
        snapshots = []
        for session_id in self.session_ids():
            try:
                snapshots.append(self.load(session_id))
            except _StaleVersion:
                with self._lock:
                    self.skipped_version += 1
            except Exception:
                with self._lock:
                    self.skipped_corrupt += 1
        snapshots.sort(key=lambda s: s.saved_at - s.idle_seconds)
        return snapshots

    def _decode(self, path: Path) -> SessionSnapshot:
        lines = [line for line in path.read_text().splitlines() if line.strip()]
        if not lines:
            raise SnapshotError(f"empty snapshot file {path.name}")
        records = [json.loads(line) for line in lines]
        meta, body = records[0], records[1:]
        if meta.get("record") != "meta":
            raise SnapshotError(f"{path.name}: first record is not the meta header")
        if meta.get("version") != SNAPSHOT_VERSION:
            raise _StaleVersion(
                f"{path.name}: snapshot version {meta.get('version')!r}, "
                f"reader speaks {SNAPSHOT_VERSION}"
            )
        if not body or body[-1].get("record") != "tree":
            raise SnapshotError(f"{path.name}: truncated snapshot (no tree terminator)")
        if any(r.get("record") != "expansion" for r in body[:-1]):
            raise SnapshotError(f"{path.name}: unrecognised record kind in body")
        history = [{k: v for k, v in r.items() if k != "record"} for r in body[:-1]]
        tree = body[-1]["root"]
        # Decode once to check: a defect surfaces here, not at restore.
        decode_node(tree)
        for record in history:
            decode_record(record)
        state = {
            "k": int(meta["k"]),
            "mw": float(meta["mw"]),
            "measure": meta["measure"],
            "tenant": meta["tenant"],
            "columns": list(meta["columns"]),
            "tree": tree,
            "history": history,
        }
        return SessionSnapshot(
            session_id=str(meta["session_id"]),
            table=str(meta["table"]),
            tenant=str(meta["tenant"]),
            wf_spec=str(meta["wf"]),
            state=state,
            expansions=int(meta.get("expansions", 0)),
            table_version=(
                None
                if meta.get("table_version") is None
                else int(meta["table_version"])
            ),
            idle_seconds=float(meta.get("idle_seconds", 0.0)),
            age_seconds=float(meta.get("age_seconds", 0.0)),
            saved_at=float(meta.get("saved_at", 0.0)),
        )

    # -- introspection -----------------------------------------------------------

    def stats(self) -> dict:
        with self._lock:
            return {
                "dir": str(self.root),
                "snapshots": len(self),
                "saved": self.saved,
                "deleted": self.deleted,
                "skipped_corrupt": self.skipped_corrupt,
                "skipped_version": self.skipped_version,
                "max_bytes": self.max_bytes,
                "total_bytes": self.total_bytes(),
                "cap_evictions": self.cap_evictions,
                "cleaned_tmp": self.cleaned_tmp,
            }

    def __repr__(self) -> str:
        return f"SnapshotStore({str(self.root)!r}, snapshots={len(self)})"


class _StaleVersion(SnapshotError):
    """Internal: a decodable snapshot written by another format version."""


# -- the reaper ------------------------------------------------------------------


class ReaperThread(threading.Thread):
    """Background TTL enforcement + periodic checkpointing.

    Before this thread existed, idle sessions were only expired when
    some other request happened to touch the registry — an abandoned
    tier kept every session (and its retained contexts) alive forever.
    The reaper calls ``reap`` (typically
    :meth:`SessionRegistry.evict_expired`) every ``interval`` seconds
    and ``checkpoint`` (typically
    :meth:`DrillDownServer.checkpoint_all`, a dirty-sessions-only
    sweep) every ``checkpoint_interval`` seconds, entirely independent
    of request traffic.

    Both callbacks are exception-isolated: a failing checkpoint (say,
    a full disk) is counted in :attr:`errors` and the loop keeps
    running — a reaper that dies silently is worse than no reaper.
    :meth:`run_once` drives one tick synchronously for deterministic
    tests; :meth:`stop` shuts the thread down promptly (it is also a
    daemon, so it never blocks interpreter exit).

    :class:`~repro.serving.faults.ShardWatchdog` follows the same
    shape (daemon loop, exception isolation, ``run_once``/``stop``)
    one level up: it sweeps shard *processes* for wedge/crash where
    this thread sweeps *sessions* for expiry.
    """

    def __init__(
        self,
        *,
        reap: Callable[[], Any],
        checkpoint: Callable[[], Any] | None = None,
        interval: float = 30.0,
        checkpoint_interval: float | None = None,
        name: str = "drilldown-reaper",
    ):
        super().__init__(name=name, daemon=True)
        if interval <= 0:
            raise SnapshotError("reaper interval must be > 0 seconds")
        self._reap = reap
        self._checkpoint = checkpoint
        self.interval = float(interval)
        self.checkpoint_interval = float(
            interval if checkpoint_interval is None else checkpoint_interval
        )
        if self.checkpoint_interval <= 0:
            raise SnapshotError("checkpoint interval must be > 0 seconds")
        self._stop_event = threading.Event()
        self.ticks = 0
        self.reaped = 0
        self.checkpointed = 0
        self.errors = 0

    def run(self) -> None:  # pragma: no cover - timing loop; run_once is tested
        # The two duties keep independent due times: a
        # checkpoint_interval shorter than the reap interval (the
        # durability-first configuration) must fire at its own cadence,
        # not once per reap tick.
        # repro-lint: allow[clock-discipline] reason=the reaper thread waits real time by design; run_once is the injectable-tested seam
        reap_due = time.monotonic() + self.interval
        # repro-lint: allow[clock-discipline] reason=the reaper thread waits real time by design; run_once is the injectable-tested seam
        checkpoint_due = time.monotonic() + self.checkpoint_interval
        while True:
            # repro-lint: allow[clock-discipline] reason=the reaper thread waits real time by design; run_once is the injectable-tested seam
            wait = min(reap_due, checkpoint_due) - time.monotonic()
            if self._stop_event.wait(max(0.0, wait)):
                return
            # repro-lint: allow[clock-discipline] reason=the reaper thread waits real time by design; run_once is the injectable-tested seam
            now = time.monotonic()
            do_reap = now >= reap_due
            do_checkpoint = now >= checkpoint_due
            self.run_once(reap=do_reap, checkpoint=do_checkpoint)
            if do_reap:
                # repro-lint: allow[clock-discipline] reason=the reaper thread waits real time by design; run_once is the injectable-tested seam
                reap_due = time.monotonic() + self.interval
            if do_checkpoint:
                # repro-lint: allow[clock-discipline] reason=the reaper thread waits real time by design; run_once is the injectable-tested seam
                checkpoint_due = time.monotonic() + self.checkpoint_interval

    def run_once(self, *, reap: bool = True, checkpoint: bool = True) -> None:
        """One reaper tick, synchronously (the thread's body; also tests)."""
        self.ticks += 1
        if reap:
            try:
                reaped = self._reap()
                self.reaped += len(reaped) if reaped is not None else 0
            except Exception:
                self.errors += 1
        if checkpoint and self._checkpoint is not None:
            try:
                done = self._checkpoint()
                self.checkpointed += int(done) if done is not None else 0
            except Exception:
                self.errors += 1

    def stop(self, *, timeout: float | None = 5.0) -> None:
        """Signal the loop to exit and join it (no-op if never started)."""
        self._stop_event.set()
        if self.is_alive():
            self.join(timeout=timeout)

    def stats(self) -> dict:
        return {
            "alive": self.is_alive(),
            "interval": self.interval,
            "checkpoint_interval": self.checkpoint_interval,
            "ticks": self.ticks,
            "reaped": self.reaped,
            "checkpointed": self.checkpointed,
            "errors": self.errors,
        }
