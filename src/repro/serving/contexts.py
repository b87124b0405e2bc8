"""Cross-session sharing of read-compatible search contexts.

Two tenants exploring the same catalog table with the same weighting
and ``mw`` build byte-for-byte identical candidate lattices — the
:class:`~repro.core.search_cache.SearchContext` is a pure function of
``(table, weight function, mw, measures, max_rule_size, prune)`` plus
the drill-down node it serves.  The :class:`ContextStore` makes the
second tenant skip that work:

* after a session finishes an expansion with a freshly built context,
  it **publishes** the context here; the store keeps a frozen
  :meth:`~repro.core.search_cache.SearchContext.clone` as the
  *prototype* for that configuration (first writer wins — later
  publishes of an equal configuration are dropped, the lattices are
  identical anyway);
* before a session builds a context from scratch, it asks for a
  **lease**; on a hit it receives a *fresh clone* of the prototype —
  copy-on-first-expand, so the tenant owns its copy outright and
  concurrent searches can never corrupt each other — with ``_built``
  state, skipping the full-table first-pick passes.

Keys are ``(table identity, drill-down tag)`` where the tag comes from
:func:`repro.core.drilldown.drilldown_tag`; the weight function
participates by identity, which is why the serving facade hands every
tenant the same weight-function instances (see
:class:`~repro.serving.DrillDownServer`).  Prototypes hold strong
references to their table; :meth:`drop_table` releases everything for
an unregistered table, and ``max_prototypes`` (LRU) bounds the store.
Sharing never changes results — the equivalence is pinned by
``tests/serving/test_context_store.py``.
"""

from __future__ import annotations

import threading
from collections import OrderedDict

from repro.core.search_cache import SearchContext
from repro.table.table import Table

__all__ = ["ContextStore"]


class ContextStore:
    """Prototype cache of :class:`SearchContext`s shared across sessions.

    ``max_prototypes`` caps the store (least-recently-leased evicted
    first); ``None`` means unbounded.
    """

    def __init__(self, *, max_prototypes: int | None = None):
        self._lock = threading.Lock()
        self._prototypes: "OrderedDict[tuple, SearchContext]" = OrderedDict()
        self.max_prototypes = max_prototypes
        self.hits = 0
        self.misses = 0
        self.publishes = 0

    @staticmethod
    def _key(table: Table, tag: tuple) -> tuple:
        # Table identity, not equality: served tables are registered
        # objects, and two equal-valued tables still have distinct
        # (incompatible) filtered sub-tables.
        return (id(table), tag)

    def lease(self, table: Table, tag: tuple) -> SearchContext | None:
        """A private clone of the prototype for ``(table, tag)``, or ``None``.

        The clone is exclusively the caller's: mutating it (searching
        through it) never touches the prototype or any other lease.
        """
        with self._lock:
            prototype = self._prototypes.get(self._key(table, tag))
            if prototype is None:
                self.misses += 1
                return None
            self._prototypes.move_to_end(self._key(table, tag))
            self.hits += 1
        # Prototypes are frozen (never searched), so cloning outside the
        # lock is safe even with concurrent leases.
        return prototype.clone()

    def publish(self, table: Table, tag: tuple, context: SearchContext) -> bool:
        """Offer ``context`` as the prototype for ``(table, tag)``.

        Stores a frozen clone (the caller keeps using — and mutating —
        its own context).  First writer wins; returns whether this call
        installed the prototype.
        """
        key = self._key(table, tag)
        with self._lock:
            if key in self._prototypes:
                return False
        snapshot = context.clone()  # detached: fresh stats
        with self._lock:
            if key in self._prototypes:  # lost a publish race: identical anyway
                return False
            self._prototypes[key] = snapshot
            self.publishes += 1
            while (
                self.max_prototypes is not None
                and len(self._prototypes) > self.max_prototypes
            ):
                self._prototypes.popitem(last=False)
        return True

    def drop_table(self, table: Table) -> int:
        """Release every prototype built over ``table``; returns the count."""
        with self._lock:
            doomed = [key for key in self._prototypes if key[0] == id(table)]
            for key in doomed:
                del self._prototypes[key]
            return len(doomed)

    def clear(self) -> None:
        with self._lock:
            self._prototypes.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._prototypes)

    def stats(self) -> dict:
        with self._lock:
            return {
                "prototypes": len(self._prototypes),
                "hits": self.hits,
                "misses": self.misses,
                "publishes": self.publishes,
            }

    def __repr__(self) -> str:
        return (
            f"ContextStore(prototypes={len(self._prototypes)}, "
            f"hits={self.hits}, misses={self.misses})"
        )
