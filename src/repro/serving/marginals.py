"""Persisted first-pick marginal caches: the serving tier's disk half.

The catalog builds one :class:`~repro.core.first_pick.FirstPickCache`
per ``(table, weighting, mw)`` at registration
(:mod:`repro.core.first_pick` holds the arrays and the bit-identity
argument); this module persists those caches under
``persist_dir/marginals/`` so warm restarts skip the level-1 scans,
exactly as :mod:`repro.serving.samples` does for sample sets.

Staleness is guarded by a **content fingerprint** of the table's
categorical payload (:func:`table_fingerprint`): dictionary values and
code bytes, column names and kinds, and the row count.  Re-registering
a *changed* table under the same name produces a different fingerprint,
so a stale file can never be served — the loader returns ``None`` and
the catalog rebuilds (and counts the rejection).  Numeric columns are
deliberately outside the fingerprint: level-1 Count marginals do not
read them.

Writes use the snapshot store's atomic tmp + fsync + replace idiom;
interrupted writes leave ``*.tmp`` litter that the catalog sweeps at
construction (the same SIGKILL-litter policy the snapshot store
applies to its ``.jsonl.tmp-*`` files).
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path

import numpy as np

from repro.core.first_pick import FirstPickCache, level1_weights
from repro.core.weights import WeightFunction
from repro.errors import ReproError
from repro.table.table import Table

__all__ = [
    "MARGINALS_VERSION",
    "load_first_pick",
    "save_first_pick",
    "table_fingerprint",
]

MARGINALS_VERSION = 1


def table_fingerprint(table: Table) -> str:
    """Content hash of everything the level-1 marginals depend on.

    Deterministic across processes and restarts: sha1 over the row
    count, each column's name and kind, and — for categoricals — the
    dictionary (in code order) plus the raw code bytes.  Two tables
    with the same fingerprint produce bit-identical level-1 arrays.
    """
    h = hashlib.sha1()
    h.update(f"rows={table.n_rows};cols={table.n_columns};".encode("utf-8"))
    for idx, column in enumerate(table.schema):
        h.update(f"col={idx}:{column.name!r}:{column.kind};".encode("utf-8"))
    for idx in table.schema.categorical_indexes:
        col = table.categorical(idx)
        h.update(repr(col.values).encode("utf-8"))
        h.update(np.ascontiguousarray(col.codes).tobytes())
    return h.hexdigest()


def save_first_pick(
    cache: FirstPickCache,
    path: str | os.PathLike,
    *,
    fingerprint: str,
    weighting: str,
) -> None:
    """Persist one cache atomically (tmp + fsync + replace).

    JSON floats round-trip ``float64`` exactly (``repr`` shortest-
    round-trip), so the reloaded marginals are bit-identical to the
    built ones.
    """
    path = Path(path)
    payload = {
        "version": MARGINALS_VERSION,
        "fingerprint": fingerprint,
        "weighting": weighting,
        "mw": cache.mw,
        "n_rows": cache.table.n_rows,
        "entries": [
            {
                "weight": weight,
                "supported": supported.tolist(),
                "counts": counts.tolist(),
                "marginals": marginals.tolist(),
            }
            for weight, supported, counts, marginals in cache.entries
        ],
    }
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, separators=(",", ":"))
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        try:
            tmp.unlink()
        except OSError:
            pass
        raise
    try:  # directory entry durability, best-effort
        dir_fd = os.open(path.parent, os.O_RDONLY)
        try:
            os.fsync(dir_fd)
        finally:
            os.close(dir_fd)
    except OSError:  # pragma: no cover - platform-dependent
        pass


def load_first_pick(
    path: str | os.PathLike,
    table: Table,
    wf: WeightFunction,
    mw: float,
    *,
    fingerprint: str,
    weighting: str,
) -> FirstPickCache | None:
    """Rebuild a persisted cache against the live ``table``/``wf``.

    Returns ``None`` (never raises) when the file is missing,
    unreadable, or its fingerprint — version, table content hash,
    weighting name, ``mw``, row count — disagrees with the live state;
    the caller rebuilds and re-persists.  Arrays are shape- and
    bounds-checked so a corrupt file cannot smuggle malformed
    candidates into the search, and every position's weight must equal
    the live weighting's single-column weight: the fingerprint names
    the weighting but does not pin its definition.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
        if (
            payload.get("version") != MARGINALS_VERSION
            or payload.get("fingerprint") != fingerprint
            or payload.get("weighting") != weighting
            or payload.get("mw") != float(mw)
            or payload.get("n_rows") != table.n_rows
        ):
            return None
        cat_positions = table.schema.categorical_indexes
        weights = level1_weights(table, wf)
        records = payload["entries"]
        if weights is None or len(records) != len(weights):
            return None
        entries = []
        for pos, (record, weight) in enumerate(zip(records, weights)):
            n_values = table.categorical(cat_positions[pos]).distinct_count
            supported = np.asarray(record["supported"], dtype=np.int64)
            counts = np.asarray(record["counts"], dtype=np.float64)
            marginals = np.asarray(record["marginals"], dtype=np.float64)
            if float(record["weight"]) != weight:
                return None
            if supported.ndim != 1 or not (
                supported.size == counts.size == marginals.size
            ):
                return None
            if supported.size and (
                supported.min() < 0 or supported.max() >= n_values
            ):
                return None
            entries.append((weight, supported, counts, marginals))
        return FirstPickCache(table, wf, mw, entries)
    except (OSError, ValueError, KeyError, TypeError, ReproError):
        return None
