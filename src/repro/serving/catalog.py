"""The table catalog: versioned, append-able tables.

A :class:`TableCatalog` is the serving tier's source of truth for
tables.  Tenants refer to tables by name; the catalog holds the
:class:`~repro.table.Table` objects for as long as they are served.
Every individual ``Table`` object stays immutable (`Table` has no
mutating API), which is what makes one table safe to serve to everyone.

*Names*, however, are versioned (the commits+refs shape of dataset
versioning): :meth:`register` creates version 1 and
:meth:`append_rows` / :meth:`replace_table` create versions 2, 3, ….
An append extends the dictionary-encoded code arrays under the
prefix-preserving invariant (:meth:`repro.table.table.Table.append_rows`),
so the catalog can maintain the expensive per-table structures
incrementally instead of rebuilding them cold: the in-memory first-pick
marginal vectors get delta bincounts over only the appended rows
(:func:`~repro.core.first_pick.extend_first_pick_cache`, bit-identical
to a cold rebuild), and the deterministic sample set — whose delta
cannot be maintained without perturbing seeded draws — is rebuilt
*lazily* on next access.  The sample set is the one artifact the
catalog persists (``sample_dir``); its file carries the table's content
fingerprint, so a stale file is rebuilt, never served.  Sessions pin
the version they started on (they hold the ``Table`` object; nothing
the catalog does ever mutates it), new sessions get the latest version,
and a superseded version is reaped — weight registry purged — when its
last pinned session closes (:meth:`unpin`).
"""

from __future__ import annotations

import hashlib
import os
import re
import threading
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Iterator, Sequence

from repro.core.first_pick import (
    FirstPickCache,
    build_first_pick_cache,
    extend_first_pick_cache,
)
from repro.core.weights import (
    BitsWeight,
    SizeMinusOneWeight,
    SizeWeight,
    WeightFunction,
)
from repro.errors import ServingError, TableConflictError, UnknownTableError
from repro.serving.persistence import sweep_tmp
from repro.serving.samples import (
    TableSampleSet,
    build_sample_set,
    derive_seed,
    load_sample_set,
)
from repro.table.table import Table

__all__ = ["TableCatalog", "TableVersion", "WEIGHT_FUNCTIONS"]

#: Weight functions creatable by name over the wire.  Factories take
#: the served table — Bits weighting derives per-column bit counts
#: from the table's dictionary sizes (§2.2).  Lives on the catalog so
#: registration-time precompute (first-pick marginals) resolves the
#: *same* instances tenant sessions later key contexts on;
#: :mod:`repro.serving.server` re-exports it for compatibility.
WEIGHT_FUNCTIONS: dict[str, Callable[[Table], WeightFunction]] = {
    "size": lambda table: SizeWeight(),
    "bits": BitsWeight.for_table,
    "size_minus_one": lambda table: SizeMinusOneWeight(),
}

#: Weightings the first-pick marginal caches are precomputed for; each
#: costs one level-1 pass over the table at registration.
MARGINAL_WEIGHTINGS = ("size",)

_SAMPLE_FILE_SAFE = re.compile(r"[^A-Za-z0-9._-]")


@dataclass
class TableVersion:
    """One live version of a registered table name.

    ``pins`` counts the live sessions mining exactly this version; a
    superseded version is reaped (weight-registry entries purged) when its last pin is released.  ``appended`` is the
    row count the creating :meth:`TableCatalog.append_rows` added
    (``0`` for register / replace versions).
    """

    version: int
    table: Table
    appended: int = 0
    pins: int = 0

    @property
    def rows(self) -> int:
        return self.table.n_rows

    def describe(self) -> dict:
        """JSON-friendly summary for ``/stats``."""
        return {
            "version": self.version,
            "rows": self.rows,
            "appended": self.appended,
            "pins": self.pins,
        }


class TableCatalog:
    """Named registry of immutable, versioned tables.

    Parameters
    ----------
    sample_budget:
        When set (> 0), :meth:`register` also pre-builds a
        :class:`~repro.serving.TableSampleSet` for the table — uniform
        + per-column stratified samples totalling this many tuples,
        split by the §4.1 allocation DP.  Approximate expansions then
        mine these samples (:meth:`samples_for`).
    sample_seed:
        Base seed for sample draws; each table's effective seed is
        :func:`~repro.serving.samples.derive_seed` of its name, so
        rebuilds in other processes reproduce the same samples.
    sample_dir:
        Directory to persist sample row ids under
        (:func:`~repro.serving.persistence.atomic_write`).  On
        re-registration after a restart the catalog reloads a file
        whose table content fingerprint, budget and seed all match,
        instead of re-scanning and re-drawing; anything else is rebuilt
        and re-persisted.  Temp-file litter is swept at construction.
    marginal_mw:
        When set, :meth:`register` also precomputes the shared
        first-pick marginal cache
        (:class:`~repro.core.first_pick.FirstPickCache`) for each
        :data:`MARGINAL_WEIGHTINGS` entry at this ``mw`` — the level-1
        count/marginal vectors every cold session's first pick scans
        for.  Sessions whose ``(table, weighting, mw)`` matches get the
        cache read-only via :meth:`marginals_for`; everything else
        falls back to the normal scan.  ``None`` (default) disables
        the cache.  The caches live in memory only: a rebuild is
        cheaper than fingerprinting a persisted copy.
    """

    def __init__(
        self,
        *,
        sample_budget: int | None = None,
        sample_seed: int = 0,
        sample_dir: str | os.PathLike | None = None,
        marginal_mw: float | None = None,
    ):
        if sample_budget is not None and sample_budget <= 0:
            raise ServingError("sample_budget must be a positive tuple count")
        if sample_budget is not None:  # start-up, not a click, pays estimate_count's import
            import scipy.special  # noqa: F401
        self._sample_budget = sample_budget
        self._sample_seed = int(sample_seed)
        self._sample_dir = Path(sample_dir) if sample_dir is not None else None
        self._samples: dict[str, TableSampleSet] = {}
        self._samples_built = 0
        self._samples_loaded = 0
        if marginal_mw is not None and not float(marginal_mw) > 0:
            raise ServingError("marginal_mw must be > 0 (or None to disable)")
        self._marginal_mw = None if marginal_mw is None else float(marginal_mw)
        self._marginals: dict[str, dict[str, FirstPickCache]] = {}
        self._marginals_built = 0
        # Weight-instance registry: one shared instance per (name,
        # table), so registration-time caches and tenant contexts key
        # on the same object.  Entries keep a strong table reference —
        # id() keys alone could be recycled by a new table allocated at
        # a dead table's address.
        self._weights: dict[tuple[str, int], tuple[Table, WeightFunction]] = {}
        self._weights_lock = threading.Lock()
        self.cleaned_tmp = sweep_tmp(self._sample_dir)
        self._tables: dict[str, Table] = {}
        # Version records: name -> latest version number, plus one
        # TableVersion per *live* version — the latest, and any
        # superseded version still pinned by an open session.  A record
        # outlives unregister while pinned (reaped on last unpin).
        self._latest: dict[str, int] = {}
        self._records: dict[tuple[str, int], TableVersion] = {}
        self._stale_samples: set[str] = set()
        self._versions_created = 0
        self._versions_reaped = 0
        self._appends = 0
        self._rows_appended = 0
        self._marginals_delta = 0
        self._samples_lazy_rebuilt = 0
        self._artifacts_purged = 0
        # Serialises version transitions (append/replace/unregister):
        # incremental maintenance reads the old version's structures and
        # must not race another writer's install.
        self._version_lock = threading.Lock()
        #: Fired (outside catalog locks) with ``(name, table)`` after a
        #: version is reaped — the serving facade's hook for dropping
        #: per-table derived state (context prototypes).
        self.on_reap: Callable[[str, Table], None] | None = None
        self._lock = threading.Lock()
        self._closed = False

    # -- registration ------------------------------------------------------------

    def register(self, name: str, table: Table) -> Table:
        """Register ``table`` under ``name`` (version 1).

        Idempotent for the same object (re-registering the identical
        table is a no-op returning it); a *different* table under an
        existing name raises
        :class:`~repro.errors.TableConflictError` — the catalog never
        swaps data out from under live sessions implicitly.  Growth is
        explicit: :meth:`append_rows` extends the table as a new
        version, :meth:`replace_table` swaps it wholesale.
        """
        if not name:
            raise ServingError("table name must be non-empty")
        with self._version_lock:
            with self._lock:
                if self._closed:
                    raise ServingError("table catalog is closed")
                existing = self._tables.get(name)
                if existing is not None:
                    if existing is table:
                        return table
                    raise TableConflictError(
                        f"table {name!r} is already registered with different "
                        "data; use append_rows(name, rows) to grow it as a new "
                        "version, or replace_table(name, table) to swap it"
                    )
                # Normally version 1; if pinned records from a previous
                # registration of this name are still alive, continue
                # their numbering so (name, version) keys never collide.
                version = 1 + max(
                    (v for (n, v) in self._records if n == name), default=0
                )
                self._tables[name] = table
                self._latest[name] = version
                self._records[(name, version)] = TableVersion(
                    version=version, table=table
                )
                self._versions_created += 1
            if self._sample_budget is not None:
                samples = self._build_or_load_samples(name, table)
                with self._lock:
                    self._samples[name] = samples
            if self._marginal_mw is not None:
                marginals = self._build_marginals(name, table, None)
                with self._lock:
                    self._marginals[name] = marginals
            return table

    def append_rows(self, name: str, rows: Sequence[Sequence[Any]]) -> TableVersion:
        """Append ``rows`` to ``name`` as a new table version.

        The incremental-maintenance path: the new version's table
        extends the old one under the dictionary-prefix invariant, the
        first-pick marginal vectors get delta bincounts
        over only the appended rows (bit-identical to a cold rebuild;
        any cache whose delta cannot be maintained — e.g. a ``bits``
        weighting over a dictionary that grew — is rebuilt cold), and
        the deterministic sample set is marked stale for lazy rebuild
        (its persisted file is rewritten then).  Sessions already
        open keep mining the old version untouched; the returned record
        is what new sessions will pin.
        """
        rows = [tuple(row) for row in rows]
        if not rows:
            raise ServingError("append_rows needs at least one row")
        with self._version_lock:
            with self._lock:
                if self._closed:
                    raise ServingError("table catalog is closed")
                old = self._tables.get(name)
                if old is None:
                    raise UnknownTableError(f"no table registered as {name!r}")
            new_table = old.append_rows(rows)
            record = self._install_version(name, new_table, old, appended=len(rows))
            self._appends += 1
            self._rows_appended += len(rows)
            return record

    def replace_table(self, name: str, table: Table) -> TableVersion:
        """Swap ``name``'s data wholesale as a new table version.

        No append relation is assumed, so the marginal caches are
        rebuilt cold and the deterministic sample set is marked for
        lazy rebuild.  Pinned sessions keep the version they started
        on, exactly as for :meth:`append_rows`.
        """
        with self._version_lock:
            with self._lock:
                if self._closed:
                    raise ServingError("table catalog is closed")
                old = self._tables.get(name)
                if old is None:
                    raise UnknownTableError(f"no table registered as {name!r}")
                if old is table:
                    latest = self._records[(name, self._latest[name])]
                    return latest
            return self._install_version(name, table, None, appended=0)

    def _install_version(
        self, name: str, table: Table, old: Table | None, *, appended: int
    ) -> TableVersion:
        """Install ``table`` as ``name``'s next version (under
        ``_version_lock``).  ``old`` non-``None`` marks the append
        relation and enables every incremental path."""
        if self._marginal_mw is not None:
            marginals = self._build_marginals(name, table, old)
        with self._lock:
            if self._sample_budget is not None:
                self._stale_samples.add(name)
            previous_v = self._latest[name]
            version = previous_v + 1
            record = TableVersion(version=version, table=table, appended=appended)
            self._tables[name] = table
            self._latest[name] = version
            self._records[(name, version)] = record
            self._versions_created += 1
            if self._marginal_mw is not None:
                self._marginals[name] = marginals
            previous = self._records.get((name, previous_v))
        if previous is not None and previous.pins == 0:
            self._reap(name, previous)
        return record

    def _build_marginals(
        self, name: str, table: Table, old: Table | None
    ) -> dict[str, FirstPickCache]:
        """One first-pick cache per configured weighting: delta-extended
        from the old version's where ``old`` marks the append relation
        and per-position weights are unchanged, built cold otherwise.
        Tables without categorical columns get no cache."""
        assert self._marginal_mw is not None
        with self._lock:
            old_marginals = dict(self._marginals.get(name, {}))
        caches: dict[str, FirstPickCache] = {}
        for weighting in MARGINAL_WEIGHTINGS:
            wf = self.weight(weighting, table)
            cache = None
            old_cache = old_marginals.get(weighting) if old is not None else None
            if old_cache is not None and old_cache.table is old:
                cache = extend_first_pick_cache(old_cache, table, wf)
                if cache is not None:
                    self._marginals_delta += 1
            if cache is None:
                cache = build_first_pick_cache(table, wf, self._marginal_mw)
                if cache is None:  # no categorical columns: nothing to serve
                    continue
                self._marginals_built += 1
            caches[weighting] = cache
        return caches

    def _sample_path(self, name: str) -> Path | None:
        """Persistence path for ``name``'s samples (``None`` = memory only).

        The filename keeps a sanitised human-readable prefix plus a
        short digest of the exact name, so distinct names that sanitise
        identically (``"a/b"`` vs ``"a_b"``) cannot share a file.
        """
        if self._sample_dir is None:
            return None
        digest = hashlib.sha1(name.encode("utf-8")).hexdigest()[:8]
        safe = _SAMPLE_FILE_SAFE.sub("_", name)[:80]
        return self._sample_dir / f"{safe}-{digest}.samples.json"

    def _build_or_load_samples(self, name: str, table: Table) -> TableSampleSet:
        """Load persisted samples when the fingerprint matches, else
        build deterministically and (best-effort) persist."""
        assert self._sample_budget is not None
        seed = derive_seed(name, self._sample_seed)
        path = self._sample_path(name)
        if path is not None:
            loaded = load_sample_set(path, table, budget=self._sample_budget, seed=seed)
            if loaded is not None:
                self._samples_loaded += 1
                return loaded
        samples = build_sample_set(table, budget=self._sample_budget, seed=seed)
        self._samples_built += 1
        if path is not None:
            try:
                samples.save(path)
            except OSError:
                pass  # samples are rebuildable; persistence is an optimisation
        return samples

    def marginals_for(
        self,
        name: str,
        wf: str | WeightFunction = "size",
        mw: float | None = None,
    ) -> FirstPickCache | None:
        """The first-pick cache valid for ``(name, wf, mw)``, or ``None``.

        ``wf`` may be a weighting name or a resolved instance; ``mw``
        of ``None`` skips the mw check (callers that will let the
        search validate).  Strict keying: any mismatch returns ``None``
        — the session then simply runs the cold scan.
        """
        with self._lock:
            per_table = self._marginals.get(name)
        if not per_table:
            return None
        if isinstance(wf, str):
            cache = per_table.get(wf)
        else:
            cache = next((c for c in per_table.values() if c.wf is wf), None)
        if cache is None:
            return None
        if mw is not None and float(mw) != cache.mw:
            return None
        return cache

    def marginal_stats(self) -> dict:
        """First-pick cache counters + per-cache summaries for ``/stats``."""
        with self._lock:
            tables = {
                name: {w: cache.describe() for w, cache in sorted(per.items())}
                for name, per in sorted(self._marginals.items())
            }
        return {
            "mw": self._marginal_mw,
            "weightings": list(MARGINAL_WEIGHTINGS),
            "built": self._marginals_built,
            "tables": tables,
        }

    # -- weight registry ---------------------------------------------------------

    def weight(self, spec: str | WeightFunction, table: Table) -> WeightFunction:
        """Resolve a weighting name to this catalog's shared instance.

        Sharing instances is load-bearing twice over: the
        :class:`~repro.serving.ContextStore` keys weight functions by
        identity, and the first-pick marginal caches are valid only for
        the exact instance they were built with — so ``"size"`` must
        mean the *same* ``SizeWeight`` object for every tenant on a
        table.  Instances are cached per ``(name, table)`` — Bits
        weighting is genuinely table-derived, and neither consumer
        shares across tables anyway.  A :class:`WeightFunction`
        instance passes through unchanged (shared only if the caller
        reuses it).
        """
        if isinstance(spec, WeightFunction):
            return spec
        try:
            factory = WEIGHT_FUNCTIONS[spec]
        except KeyError:
            raise ServingError(
                f"unknown weight function {spec!r}; one of {sorted(WEIGHT_FUNCTIONS)}"
            ) from None
        key = (spec, id(table))
        with self._weights_lock:
            entry = self._weights.get(key)
            if entry is None or entry[0] is not table:
                entry = self._weights[key] = (table, factory(table))
            return entry[1]

    def samples_for(self, name: str) -> TableSampleSet | None:
        """The sample set for ``name``, current for its latest version
        (``None`` when the catalog was built without a
        ``sample_budget`` or the table is unknown).

        Appends mark sample sets *stale* rather than rebuilding them
        inline — the deterministic draw cannot be delta-maintained
        without perturbing the seeded sequence — so the first access
        after an append pays one rebuild here, producing exactly
        ``build_sample_set`` over the new version (the persisted file
        no longer matches the table's content fingerprint, so it is
        rebuilt and rewritten).  Equal to a fresh registration's samples,
        which is what keeps approximate expansions byte-equal across
        backends.
        """
        with self._lock:
            table = self._tables.get(name)
            stale = name in self._stale_samples
            if not stale or table is None:
                return self._samples.get(name)
        samples = self._build_or_load_samples(name, table)
        with self._lock:
            if self._tables.get(name) is table:
                self._samples[name] = samples
                self._stale_samples.discard(name)
                self._samples_lazy_rebuilt += 1
        return samples

    def sample_stats(self) -> dict:
        """Sampling counters + per-table summaries for ``/stats``."""
        with self._lock:
            return {
                "budget": self._sample_budget,
                "built": self._samples_built,
                "loaded": self._samples_loaded,
                "lazy_rebuilt": self._samples_lazy_rebuilt,
                "stale": sorted(self._stale_samples),
                "tables": {name: s.describe() for name, s in sorted(self._samples.items())},
            }

    # -- version lifecycle -------------------------------------------------------

    def latest_version(self, name: str) -> int:
        """The latest version number of ``name`` (what a new session
        pins).  Raises :class:`~repro.errors.UnknownTableError`."""
        with self._lock:
            try:
                return self._latest[name]
            except KeyError:
                raise UnknownTableError(f"no table registered as {name!r}") from None

    def pin(self, name: str, version: int | None = None) -> TableVersion:
        """Pin a version of ``name`` for a session and return its record.

        ``None`` (the common case: session create) pins the latest
        version; an explicit ``version`` (snapshot restore) pins that
        version *if its record is still alive* and raises
        :class:`~repro.errors.UnknownTableError` otherwise — the caller
        then decides whether to fall back to the latest.
        """
        with self._lock:
            if version is None:
                version = self._latest.get(name)
                if version is None:
                    raise UnknownTableError(f"no table registered as {name!r}")
            record = self._records.get((name, version))
            if record is None:
                raise UnknownTableError(
                    f"table {name!r} has no live version {version}"
                )
            record.pins += 1
            return record

    def unpin(self, name: str, version: int) -> Table | None:
        """Release one pin on ``(name, version)``.

        When that was the last pin and the version is dead — superseded
        by a newer one, or its name unregistered — the version is
        reaped: record dropped, weight-registry entries purged, and (once no version of the name survives
        anywhere) persisted artifacts purged.  Returns the reaped
        :class:`~repro.table.Table` so the caller can drop its own
        derived state (e.g. context prototypes), else ``None``.
        """
        with self._lock:
            record = self._records.get((name, version))
            if record is None:
                return None
            if record.pins > 0:
                record.pins -= 1
            if record.pins > 0 or self._latest.get(name) == version:
                return None
        self._reap(name, record)
        return record.table

    def _reap(self, name: str, record: TableVersion) -> None:
        """Reap one dead version: drop its record, purge its
        weight-registry entries; purge persisted artifacts
        once the name has no surviving version at all."""
        table = record.table
        with self._lock:
            self._records.pop((name, record.version), None)
            self._versions_reaped += 1
            purge = name not in self._tables and not any(
                key[0] == name for key in self._records
            )
        with self._weights_lock:
            for key in [
                k for k, (held, _wf) in self._weights.items() if held is table
            ]:
                del self._weights[key]
        if purge:
            self._purge_artifacts(name)
        if self.on_reap is not None:
            self.on_reap(name, table)

    def _purge_artifacts(self, name: str) -> None:
        """Delete ``name``'s persisted sample file.

        Without this, every unregister strands its artifact on disk
        forever: at best fingerprint-rejected litter on a future
        re-register, at worst an unbounded byte leak in long-running
        deployments.
        """
        path = self._sample_path(name)
        if path is None:
            return
        try:
            path.unlink()
        except OSError:  # missing already, or a racing cleaner
            return
        self._artifacts_purged += 1

    def version_stats(self) -> dict:
        """Version-record counters + per-name summaries for ``/stats``."""
        with self._lock:
            tables: dict[str, dict] = {}
            for (name, _version), record in sorted(self._records.items()):
                entry = tables.setdefault(
                    name, {"latest": self._latest.get(name), "versions": []}
                )
                entry["versions"].append(record.describe())
            return {
                "created": self._versions_created,
                "reaped": self._versions_reaped,
                "appends": self._appends,
                "rows_appended": self._rows_appended,
                "marginals_delta": self._marginals_delta,
                "samples_lazy_rebuilt": self._samples_lazy_rebuilt,
                "artifacts_purged": self._artifacts_purged,
                # Kept for benchmarks/e2e (its metrics read it); always 0,
                # since nothing is exported.
                "exports_grown": 0,
                "tables": tables,
            }

    def unregister(self, name: str) -> None:
        """Forget ``name``, reap its unpinned versions, and purge its
        persisted artifacts.

        Versions still pinned by open sessions survive as records — so
        those sessions are unaffected — and are reaped when their last pin is released.  Unpinned
        versions (including the latest) are reaped immediately;
        reaping the last surviving version also deletes the name's
        persisted sample file.
        """
        with self._version_lock:
            with self._lock:
                self._tables.pop(name, None)
                self._samples.pop(name, None)
                self._marginals.pop(name, None)
                self._stale_samples.discard(name)
                self._latest.pop(name, None)
                dead = [
                    record
                    for (n, _v), record in sorted(self._records.items())
                    if n == name and record.pins == 0
                ]
                any_records = any(key[0] == name for key in self._records)
            for record in dead:
                self._reap(name, record)
            if not any_records:
                # Nothing was registered (or everything already reaped):
                # still sweep any stray persisted files, idempotently.
                self._purge_artifacts(name)

    # -- lookup ------------------------------------------------------------------

    def get(self, name: str) -> Table:
        """The table registered under ``name``.

        Raises :class:`~repro.errors.UnknownTableError` otherwise.
        """
        with self._lock:
            try:
                return self._tables[name]
            except KeyError:
                raise UnknownTableError(f"no table registered as {name!r}") from None

    def names(self) -> tuple[str, ...]:
        with self._lock:
            return tuple(sorted(self._tables))

    def __contains__(self, name: object) -> bool:
        with self._lock:
            return name in self._tables

    def __len__(self) -> int:
        with self._lock:
            return len(self._tables)

    def __iter__(self) -> Iterator[str]:
        return iter(self.names())

    # -- lifecycle ---------------------------------------------------------------

    def close(self) -> None:
        """Drop every table.  Idempotent."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            self._tables.clear()
            self._samples.clear()
            self._marginals.clear()
            self._latest.clear()
            self._records.clear()
            self._stale_samples.clear()
        with self._weights_lock:
            self._weights.clear()

    def __enter__(self) -> "TableCatalog":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __repr__(self) -> str:
        state = "closed" if self._closed else "open"
        return f"TableCatalog(tables={len(self._tables)}, {state})"
