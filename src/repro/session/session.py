"""Interactive drill-down sessions — the paper's prototype tool (§2.3, §4.3).

A :class:`DrillDownSession` owns the displayed rule tree ``U``: it
starts at the trivial rule with the table's total count (the paper's
Table 1), expands rules into rule-lists on click, collapses them on a
second click (the roll-up of Section 2.3), and — when the table lives
on simulated disk — routes every expansion through the
:class:`~repro.sampling.handler.SampleHandler`, scaling displayed
counts by the sample's ``N_s`` and pre-fetching samples for the newly
displayed leaves in the background.

Expansions run on the incremental search engine; an in-memory session
additionally keeps the :class:`~repro.core.search_cache.SearchContext`
of every node it has expanded, so re-expanding a node (say after a
collapse, or with a larger ``k``) reuses the cached candidate lattice
instead of re-filtering and re-mining the sub-table.  Sampled (disk)
sessions do not retain contexts — they would pin evicted sample tables
past the handler's memory budget, and a swapped sample invalidates
them anyway.  :meth:`DrillDownSession.clear_search_cache` drops the
retained ones to reclaim memory.

**Ownership and lifecycle.**

* Search contexts retained by the session (``_search_contexts``) are
  session-owned and dropped on close.  When a ``context_store=`` is
  supplied (the serving tier's
  :class:`~repro.serving.ContextStore`), the session additionally
  *leases* clones of contexts published by other sessions with an
  identical drill-down configuration and publishes its own freshly
  built ones back; leased clones are still private to this session —
  the store only ever hands out copies, so sessions cannot corrupt
  each other.
* :meth:`close` is idempotent and safe to call from another thread —
  e.g. a registry evicting this session — while an expansion is in
  flight: the in-flight operation completes, and every *later*
  mutating call raises :class:`~repro.errors.SessionClosedError`.  ``on_close=``
  registers a callback fired exactly once on the first close, which
  the serving registry uses for eviction bookkeeping.
"""

from __future__ import annotations

import numbers
import threading
import time
from dataclasses import dataclass, field, fields
from typing import Any, Callable, Sequence

import numpy as np

from repro.codec import decode_rule, encode_rule
from repro.core.drilldown import (
    drilldown_tag,
    rule_drilldown,
    star_drilldown,
    traditional_drilldown,
)
from repro.core.rule import Rule
from repro.core.scoring import ScoredRule
from repro.core.search_cache import SearchContext
from repro.core.weights import SizeWeight, WeightFunction
from repro.errors import SessionClosedError, SessionError, SnapshotError
from repro.sampling.estimate import CountEstimate, estimate_count
from repro.sampling.handler import SampleHandler
from repro.storage.disk import DiskTable
from repro.table.table import Table

__all__ = ["ExpansionRecord", "SessionNode", "DrillDownSession"]


def _validated_k(k: Any) -> int:
    """``k`` as a positive int, or :class:`SessionError`.

    ``k=0`` used to fall back to the session default silently (the
    ``k or self.k`` idiom); an explicit zero/negative/fractional ``k``
    is a caller bug and must say so (HTTP maps it to 400).  Integral
    numpy scalars (``np.int64(4)`` from an ``argmax``/count) coerce.
    """
    if isinstance(k, bool) or not isinstance(k, numbers.Integral):
        raise SessionError(f"k must be an integer >= 1, got {k!r}")
    if k < 1:
        raise SessionError(f"k must be >= 1, got {k}")
    return int(k)


def _validated_error_target(value: Any) -> float:
    """``error_target`` as a positive float, or :class:`SessionError`."""
    try:
        target = float(value)
    except (TypeError, ValueError):
        raise SessionError(f"error_target must be a number > 0, got {value!r}") from None
    if not target > 0:
        raise SessionError(f"error_target must be > 0, got {value!r}")
    return target


def _validated_mw(mw: Any) -> float:
    """``mw`` as a positive float, or :class:`SessionError`."""
    try:
        value = float(mw)
    except (TypeError, ValueError):
        raise SessionError(f"mw must be a number > 0, got {mw!r}") from None
    if not value > 0:
        raise SessionError(f"mw must be > 0, got {mw!r}")
    return value


@dataclass
class SessionNode:
    """One displayed rule with its statistics and expansion state.

    ``estimate`` is present only on nodes produced by an *approximate*
    expansion (sample-based mining, §4.3): a plain dict of
    :class:`~repro.sampling.estimate.CountEstimate` metadata —
    ``estimate``/``low``/``high``/``confidence``/``sample_size``/
    ``scale``/``escalated``/``exact`` — that travels verbatim through
    the shard wire, snapshots and the HTTP response.  Exact expansions
    leave it ``None`` and serialise byte-identically to before the
    field existed.
    """

    rule: Rule
    count: float
    weight: float
    depth: int
    children: list["SessionNode"] = field(default_factory=list)
    expanded_via: str | None = None  # "rule" | "star" | "traditional"
    estimate: dict | None = None

    @property
    def is_expanded(self) -> bool:
        return bool(self.children)


@dataclass(frozen=True)
class ExpansionRecord:
    """Telemetry for one expansion (drives the §5.2 experiments)."""

    rule: Rule
    kind: str
    k: int
    wall_seconds: float
    simulated_io_seconds: float
    sample_method: str  # "find" | "combine" | "create" | "direct" | "approx" | "approx-escalated"
    sample_size: int
    scale: float


def encode_node(node: SessionNode) -> dict:
    """A displayed node and its whole subtree in the internal JSON form
    (:mod:`repro.codec`): snapshots and the shard pipe both carry it.

    ``estimate`` is written only when present, so exact nodes keep
    their pre-approx bytes.
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


_RECORD_FIELDS = tuple(f.name for f in fields(ExpansionRecord))


def encode_record(record: ExpansionRecord) -> dict:
    """One history record in the internal JSON form."""
    payload = {name: getattr(record, name) for name in _RECORD_FIELDS}
    payload["rule"] = encode_rule(record.rule)
    return payload


def decode_record(payload: dict) -> ExpansionRecord:
    """Invert :func:`encode_record`."""
    values = {name: payload[name] for name in _RECORD_FIELDS}
    values["rule"] = decode_rule(payload["rule"])
    return ExpansionRecord(**values)


class DrillDownSession:
    """A stateful smart drill-down exploration of one table.

    Parameters
    ----------
    source:
        An in-memory :class:`~repro.table.Table` (expansions run on the
        full data) or a :class:`~repro.storage.DiskTable` (expansions
        run on dynamically maintained samples, Section 4).
    wf:
        Weight function; defaults to Size weighting.
    k:
        Rules per expansion (the paper's default display is 3–4).
    mw:
        Max-weight parameter for the BRS search.
    measure:
        Optional numeric column for Sum aggregation.
    memory_capacity, min_sample_size, allocator, rng:
        SampleHandler settings (disk sources only).
    prefetch:
        Pre-fetch samples for new leaves after each expansion (§4.3).
    context_store:
        Optional cross-session :class:`~repro.serving.ContextStore`.
        In-memory sessions then lease cached candidate lattices built
        by other sessions with an identical (table, weighting, ``mw``,
        measure) configuration — skipping the full-table first-pick
        passes — and publish their own fresh contexts back.  Leases
        are private clones; results are identical with or without a
        store.
    tenant:
        Opaque tenant label, carried in :meth:`snapshot`.
    samples:
        Optional pre-built :class:`~repro.serving.TableSampleSet` over
        the *same* table, enabling approximate expansions
        (``approx=True``, or ``default_approx=``): mining runs on the
        best matching sample, displayed counts are scaled estimates,
        and every child carries :class:`CountEstimate` metadata in
        :attr:`SessionNode.estimate`.  In-memory sources only — a
        :class:`~repro.storage.DiskTable` session already mines on the
        handler's dynamic samples.
    default_approx:
        When true, expansions mine approximately unless the call says
        ``approx=False``.  Requires ``samples``.
    error_target:
        Default relative half-width bound for approximate expansions:
        a child whose confidence interval's half-width exceeds
        ``error_target × max(estimate, 1)`` sits too close to the
        greedy decision boundary, and the whole expansion escalates to
        exact mining.  Tight targets therefore converge to the exact
        rule list.  Overridable per call.
    approx_confidence:
        Confidence level of the per-child intervals (default 0.95).
    on_close:
        Callback invoked exactly once, with this session, when the
        session transitions to closed (explicit :meth:`close`, context
        exit, or registry eviction).
    """

    def __init__(
        self,
        source: Table | DiskTable,
        *,
        wf: WeightFunction | None = None,
        k: int = 3,
        mw: float = 5.0,
        measure: str | None = None,
        memory_capacity: int = 50_000,
        min_sample_size: int = 5_000,
        allocator: str = "dp",
        rng: np.random.Generator | None = None,
        prefetch: bool = True,
        context_store: Any = None,
        tenant: Any = None,
        samples: Any = None,
        marginals: Any = None,
        default_approx: bool = False,
        error_target: float = 0.1,
        approx_confidence: float = 0.95,
        on_close: Callable[["DrillDownSession"], None] | None = None,
    ):
        self.wf = wf or SizeWeight()
        self.k = _validated_k(k)
        self.mw = _validated_mw(mw)
        self.measure = measure
        self.prefetch_enabled = prefetch
        self.tenant = tenant
        if isinstance(source, DiskTable) and samples is not None:
            raise SessionError(
                "samples= applies to in-memory tables only; a DiskTable "
                "session mines on its SampleHandler's dynamic samples"
            )
        if default_approx and samples is None:
            raise SessionError("default_approx=True requires pre-built samples=")
        self._samples = samples
        # Registration-time first-pick marginal cache (read-only,
        # shared across sessions).  Only in-memory sessions can use it:
        # a DiskTable session mines on dynamic sample tables, which the
        # cache's identity keying would never match anyway.
        self._marginals = None if isinstance(source, DiskTable) else marginals
        self.default_approx = bool(default_approx)
        self.error_target = _validated_error_target(error_target)
        if not 0.0 < float(approx_confidence) < 1.0:
            raise SessionError("approx_confidence must be in (0, 1)")
        self.approx_confidence = float(approx_confidence)
        self._context_store = context_store
        self._on_close = on_close
        self._closed = False
        self._state_lock = threading.Lock()
        if isinstance(source, DiskTable):
            self._disk: DiskTable | None = source
            self._table: Table | None = None
            self.handler: SampleHandler | None = SampleHandler(
                source,
                memory_capacity=memory_capacity,
                min_sample_size=min_sample_size,
                allocator=allocator,  # type: ignore[arg-type]
                rng=rng,
            )
            n_columns = source.n_columns
            total = float(source.n_rows)
        else:
            self._disk = None
            self._table = source
            self.handler = None
            n_columns = source.n_columns
            total = float(source.n_rows)
        self._n_columns = n_columns
        self.root = SessionNode(
            rule=Rule.trivial(n_columns), count=total, weight=self.wf.weight(Rule.trivial(n_columns)), depth=0
        )
        self._nodes: dict[Rule, SessionNode] = {self.root.rule: self.root}
        self.history: list[ExpansionRecord] = []
        # Incremental-search state per expanded node, keyed by
        # (kind, rule, column); survives collapse so re-expansion is
        # nearly free (see repro.core.search_cache).  Only in-memory
        # sessions retain contexts: in a sampled session they would pin
        # evicted sample tables and their row caches, bypassing the
        # SampleHandler's memory budget.
        self._search_contexts: dict[tuple, "SearchContext"] = {}

    # -- lookup -----------------------------------------------------------------

    @property
    def column_names(self) -> tuple[str, ...]:
        if self._table is not None:
            return self._table.column_names
        assert self._disk is not None
        return self._disk.schema.names

    def node(self, rule: Rule) -> SessionNode:
        """Return the displayed node for ``rule``."""
        try:
            return self._nodes[rule]
        except KeyError:
            raise SessionError(f"rule {rule} is not displayed") from None

    def displayed(self) -> list[SessionNode]:
        """Pre-order walk of the displayed tree (the rendered rows)."""
        out: list[SessionNode] = []

        def walk(node: SessionNode) -> None:
            out.append(node)
            for child in node.children:
                walk(child)

        walk(self.root)
        return out

    def leaves(self) -> list[SessionNode]:
        """Displayed nodes with no children (drill-down candidates)."""
        return [n for n in self.displayed() if not n.children]

    @property
    def closed(self) -> bool:
        """True once :meth:`close` has run (mutating calls now raise)."""
        return self._closed

    @property
    def source_rows(self) -> int:
        """Rows in the session's source (table or simulated disk).

        The serving tier's :class:`~repro.serving.FairScheduler` uses
        this as the token cost of one expansion.
        """
        if self._table is not None:
            return self._table.n_rows
        assert self._disk is not None
        return self._disk.n_rows

    # -- expansion machinery ------------------------------------------------------

    def _begin_op(self) -> None:
        """Enter a mutating operation; reject it on a closed session."""
        if self._closed:
            raise SessionClosedError("session is closed")

    def _lease_context(
        self, cache_key: tuple, tag: tuple, source: Table | None = None
    ) -> "SearchContext | None":
        """A context for this expansion: session-owned first, then a store lease.

        ``source`` is the table the expansion will actually mine —
        the session's own table by default, a shared sample table for
        approximate expansions (the store keys prototypes by table
        identity, so approx and exact contexts can never collide).
        """
        context = self._search_contexts.get(cache_key)
        if (
            context is None
            and tag is not None
            and self._context_store is not None
            and self.handler is None
        ):
            context = self._context_store.lease(self._table if source is None else source, tag)
        return context

    def _retain_context(
        self,
        cache_key: tuple,
        tag: tuple,
        context: "SearchContext | None",
        source: Table | None = None,
    ) -> None:
        """Keep a fresh context for re-expansion and share it via the store.

        Retention is guarded on ``_closed`` *under the state lock*: a
        concurrent :meth:`close` racing an in-flight expansion runs
        :meth:`clear_search_cache` once, and an unguarded retain landing
        after that clear would pin the table and candidate lattice past
        session death.  Either the retain commits first (and the close's
        clear removes it) or the flag is already set (and we skip) —
        both leave a closed session holding nothing.  (The store's
        prototype is a frozen clone owned by the store itself, so
        publishing is independent of this session's lifetime.)
        """
        if context is None or tag is None or self.handler is not None:
            return
        with self._state_lock:
            if self._closed:
                return
            self._search_contexts[cache_key] = context
        if self._context_store is not None:
            self._context_store.publish(
                self._table if source is None else source, tag, context
            )

    def _acquire(self, rule: Rule) -> tuple[Table, float, str, int]:
        """Table to mine for ``rule``: a sample (scaled) or the full data."""
        if self.handler is None:
            assert self._table is not None
            return self._table, 1.0, "direct", self._table.n_rows
        sample, method = self.handler.get_sample(rule)
        return sample.table, sample.scale, method, sample.size

    def _attach(
        self,
        parent: SessionNode,
        entries: Sequence[ScoredRule],
        scale: float,
        kind: str,
    ) -> list[SessionNode]:
        if parent.children:
            raise SessionError(f"rule {parent.rule} is already expanded; collapse it first")
        children: list[SessionNode] = []
        for entry in entries:
            if entry.rule in self._nodes:
                continue  # a rule is displayed at most once
            child = SessionNode(
                rule=entry.rule,
                count=entry.count * scale,
                weight=entry.weight,
                depth=parent.depth + 1,
            )
            self._nodes[entry.rule] = child
            children.append(child)
        parent.children = children
        parent.expanded_via = kind
        return children

    def _prefetch(self, parent: SessionNode) -> None:
        if self.handler is None or not self.prefetch_enabled or not parent.children:
            return
        self.handler.prefetch(parent.rule, [c.rule for c in parent.children])

    # -- the user-facing operations -------------------------------------------------

    def expand(
        self,
        rule: Rule,
        *,
        k: int | None = None,
        approx: bool | None = None,
        error_target: float | None = None,
    ) -> list[SessionNode]:
        """Smart drill-down on ``rule`` (click on a rule, §2.3).

        ``approx=True`` (or ``default_approx``) mines on the pre-built
        sample instead of the full table, attaching
        :attr:`SessionNode.estimate` metadata to every child and
        escalating to exact mining when an estimate crosses the
        ``error_target`` decision boundary.
        """
        return self._expand("rule", rule, None, k, approx, error_target)

    def expand_star(
        self,
        rule: Rule,
        column: int | str,
        *,
        k: int | None = None,
        approx: bool | None = None,
        error_target: float | None = None,
    ) -> list[SessionNode]:
        """Smart drill-down on a ``?`` cell of ``rule`` (§2.3)."""
        return self._expand("star", rule, column, k, approx, error_target)

    def expand_traditional(
        self,
        rule: Rule,
        column: int | str,
        *,
        k: int | None = None,
        approx: bool | None = None,
        error_target: float | None = None,
    ) -> list[SessionNode]:
        """Classic OLAP drill-down on one column (Figure 4)."""
        return self._expand("traditional", rule, column, k, approx, error_target)

    def _expand(
        self,
        kind: str,
        rule: Rule,
        column: int | str | None,
        k: Any,
        approx: Any,
        error_target: Any,
    ) -> list[SessionNode]:
        """The one expansion pipeline behind the three verbs.

        Everything is validated before any table work — the node is
        displayed and not yet expanded, ``k``, the approx knobs, a
        column name — so a rejected call costs nothing (the serving
        tier refunds its budget charge on that promise).

        Exact mining runs on :meth:`_acquire`'s table with the
        first-pick marginal cache.  Approximate mining runs on the best
        stored sample, stamps per-child :class:`CountEstimate` metadata,
        and escalates the whole expansion to exact mining when any
        child's interval half-width crosses the greedy decision
        boundary (``target × max(estimate, 1)``) — so a tight
        ``error_target`` provably returns the exact rule list.
        Escalation passes no first-pick cache.  A traditional
        drill-down without ``k`` lists every value.
        """
        self._begin_op()
        node = self.node(rule)
        if node.children:
            raise SessionError(f"rule {rule} is already expanded; collapse it first")
        if k is not None:
            k = _validated_k(k)
        elif kind != "traditional":
            k = self.k
        target = (
            self.error_target if error_target is None else _validated_error_target(error_target)
        )
        use_approx = self.default_approx if approx is None else bool(approx)
        if use_approx and self._samples is None:
            raise SessionError(
                "approximate expansion requires pre-built samples "
                "(register the table with a sample_budget, or pass samples=)"
            )
        if isinstance(column, str):
            source = self._table if self._table is not None else self._disk
            column = source.schema.index_of(column)
        cache_key = (kind, rule, column)
        if kind == "traditional":
            # No incremental context: lease/retain degrade to no-ops.
            tag = None

            def mine(table: Table, context: Any, first_pick: Any = None):
                return traditional_drilldown(table, rule, column, measure=self.measure, k=k)
        else:
            tag = drilldown_tag(kind, rule, column, measure=self.measure, wf=self.wf, mw=self.mw)
            if kind == "rule":
                def mine(table: Table, context: Any, first_pick: Any = None):
                    return rule_drilldown(
                        table, rule, self.wf, k, self.mw, measure=self.measure,
                        context=context, first_pick=first_pick,
                    )
            else:
                def mine(table: Table, context: Any, first_pick: Any = None):
                    return star_drilldown(
                        table, rule, column, self.wf, k, self.mw, measure=self.measure,
                        context=context, first_pick=first_pick,
                    )

        io_before = self._disk.io_stats.simulated_seconds if self._disk else 0.0
        start = time.perf_counter()
        if not use_approx:
            mined, scale, method, sample_size = self._acquire(rule)
            result = mine(mined, self._lease_context(cache_key, tag), first_pick=self._marginals)
            self._retain_context(cache_key, tag, result.context)
            children = self._attach(node, result.rule_list.entries, scale, kind)
        else:
            assert self._samples is not None and self._table is not None
            sample = self._samples.sample_for(rule)
            approx_key = (*cache_key, "approx", sample.filter_rule)
            result = mine(sample.table, self._lease_context(approx_key, tag, source=sample.table))
            self._retain_context(approx_key, tag, result.context, source=sample.table)
            estimates = {
                entry.rule: estimate_count(sample, entry.rule, confidence=self.approx_confidence)
                for entry in result.rule_list.entries
            }
            escalated = any(
                est.half_width > target * max(est.estimate, 1.0) for est in estimates.values()
            )
            if escalated:
                result = mine(self._table, self._lease_context(cache_key, tag))
                self._retain_context(cache_key, tag, result.context)
                method, sample_size, scale = "approx-escalated", self._table.n_rows, 1.0
            else:
                method, sample_size, scale = "approx", sample.size, sample.scale
            children = self._attach(node, result.rule_list.entries, scale, kind)
            for child in children:
                est = estimates[child.rule] if not escalated else CountEstimate(
                    child.rule, child.count, child.count, child.count,
                    self.approx_confidence, sample_size,
                )
                child.estimate = {
                    "estimate": est.estimate,
                    "low": est.low,
                    "high": est.high,
                    "confidence": est.confidence,
                    "sample_size": est.sample_size,
                    "scale": scale,
                    "escalated": escalated,
                    "exact": est.half_width == 0.0,
                }
        wall = time.perf_counter() - start
        io_now = self._disk.io_stats.simulated_seconds if self._disk else 0.0
        self.history.append(
            ExpansionRecord(
                rule=rule,
                kind=kind,
                k=k if k is not None else len(children),
                wall_seconds=wall,
                simulated_io_seconds=io_now - io_before,
                sample_method=method,
                sample_size=sample_size,
                scale=scale,
            )
        )
        self._prefetch(node)
        return children

    def collapse(self, rule: Rule) -> None:
        """Undo an expansion — the paper's roll-up equivalent (§2.3)."""
        self._begin_op()
        node = self.node(rule)
        if not node.children:
            raise SessionError(f"rule {rule} is not expanded")

        def forget(n: SessionNode) -> None:
            for child in n.children:
                forget(child)
                self._nodes.pop(child.rule, None)
            n.children = []

        forget(node)
        node.expanded_via = None

    def clear_search_cache(self) -> None:
        """Drop all retained incremental-search contexts.

        Contexts are kept across :meth:`collapse` precisely so that
        re-expanding a node is nearly free; call this to reclaim their
        memory (cached candidate row sets) in a long session.
        """
        self._search_contexts.clear()

    # -- durability (snapshot / replay) --------------------------------------------

    def snapshot(self) -> dict:
        """This session's replayable exploration state, as plain data.

        Everything :meth:`restore` needs to rebuild an equivalent
        session over the same source *without re-mining*: the displayed
        rule tree ``U`` (rules, counts, weights, depths, expansion
        kinds), the expansion history, and the ``k``/``mw``/``measure``
        configuration plus tenant label.  The tree and the history are
        in the internal JSON form (:func:`encode_node`,
        :func:`encode_record`); the versioned file around them is the
        job of :mod:`repro.serving.persistence`.  Raises
        :class:`~repro.errors.SnapshotError` when a rule value has no
        JSON form.

        Deliberately **not** captured: search contexts (rebuilt, or
        re-leased from a :class:`~repro.serving.ContextStore`, on the
        first expansion after restore — the engine is deterministic, so
        results are identical either way) and the sample handler's
        in-memory samples.

        The caller must serialise against concurrent mutation — the
        serving tier snapshots under its per-session entry lock.
        """
        return {
            "k": self.k,
            "mw": self.mw,
            "measure": self.measure,
            "tenant": self.tenant,
            "columns": list(self.column_names),
            "tree": encode_node(self.root),
            "history": [encode_record(record) for record in self.history],
        }

    @classmethod
    def restore(
        cls,
        source: Table | DiskTable,
        state: dict,
        *,
        wf: WeightFunction | None = None,
        tenant: Any = None,
        **kwargs: Any,
    ) -> "DrillDownSession":
        """Rebuild a session from a :meth:`snapshot` state, replaying the
        tree without re-mining.

        ``source`` must hold the same data the snapshot was taken over
        (the snapshot stores no table rows); ``wf`` must be the same
        weighting configuration.  Remaining keyword arguments
        (``context_store=``, ``samples=``, ``on_close=``, ...) are forwarded to the constructor.  The restored session's
        :meth:`to_text` is bit-identical to the snapshotted one, and —
        same engine, contexts rebuilt or store-leased — so are the rule
        lists of every subsequent expansion.

        Raises :class:`~repro.errors.SessionError` when the state does
        not fit ``source`` (column mismatch, malformed tree).
        """
        if tenant is None:
            tenant = state.get("tenant")
        session = cls(
            source,
            wf=wf,
            k=state["k"],
            mw=state["mw"],
            measure=state.get("measure"),
            tenant=tenant,
            **kwargs,
        )
        session._replay(state)
        return session

    def _replay(self, state: dict) -> None:
        """Install a snapshot's tree and history over the fresh root."""
        columns = [str(c) for c in state.get("columns", ())]
        if columns != [str(c) for c in self.column_names]:
            raise SessionError(
                f"snapshot columns {columns} do not match the source's "
                f"{list(self.column_names)} — restore needs the same table"
            )

        try:
            root = decode_node(state["tree"])
            history = [decode_record(record) for record in state.get("history", ())]
        except (KeyError, TypeError, ValueError, SnapshotError) as exc:
            raise SessionError(f"malformed snapshot: {exc!r}") from None
        if root.rule != Rule.trivial(self._n_columns):
            raise SessionError("snapshot tree must be rooted at the trivial rule")
        nodes: dict[Rule, SessionNode] = {}

        def index(node: SessionNode) -> None:
            if node.rule in nodes:
                raise SessionError(f"snapshot displays rule {node.rule} twice")
            nodes[node.rule] = node
            for child in node.children:
                index(child)

        index(root)
        if float(root.count) != float(self.root.count):
            raise SessionError(
                f"snapshot root count {root.count:g} does not match the "
                f"source's {self.root.count:g} rows — the table's data changed"
            )
        self.root = root
        self._nodes = nodes
        self.history = history

    def close(self) -> None:
        """Close the session: idempotent, thread-safe, eviction-safe.

        Releases the retained search contexts.  Safe to call any number
        of times and from any thread, including a registry evicting
        this session while an expansion is in flight on another thread:
        the in-flight operation completes, the ``on_close`` callback
        fires exactly once, and every subsequent
        mutating call raises
        :class:`~repro.errors.SessionClosedError`.  Read-only accessors
        (:meth:`displayed`, :meth:`to_text`, ...) keep working on the
        last displayed tree.
        """
        with self._state_lock:
            if self._closed:
                return
            self._closed = True
        self.clear_search_cache()
        if self._on_close is not None:
            callback, self._on_close = self._on_close, None
            callback(self)

    def __enter__(self) -> "DrillDownSession":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def refresh_exact_counts(self) -> dict[Rule, float]:
        """Replace displayed estimated counts with exact counts (§4.3).

        For sampled sessions this pays one metered pass (the paper runs
        it inside the background pre-fetch pass); for in-memory sessions
        counts are recomputed directly.  Returns the per-rule deltas
        applied, so callers can surface "count corrected" feedback.
        """
        self._begin_op()
        return self._refresh_exact_counts()

    def _refresh_exact_counts(self) -> dict[Rule, float]:
        nodes = [n for n in self.displayed() if not n.rule.is_trivial]
        deltas: dict[Rule, float] = {}
        if self.handler is not None:
            exact = self.handler.exact_counts([n.rule for n in nodes])
            for node in nodes:
                new = float(exact[node.rule])
                if new != node.count:
                    deltas[node.rule] = new - node.count
                    node.count = new
        else:
            assert self._table is not None
            from repro.core.rule import cover_mask

            measures = None
            if self.measure is not None:
                from repro.core.scoring import tuple_measures

                measures = tuple_measures(self._table, self.measure)
            for node in nodes:
                mask = cover_mask(node.rule, self._table)
                new = float(mask.sum()) if measures is None else float(measures[mask].sum())
                if new != node.count:
                    deltas[node.rule] = new - node.count
                    node.count = new
        return deltas

    # -- rendering --------------------------------------------------------------------

    def to_text(self, *, sort_display_by_count: bool = False) -> str:
        """Render the displayed tree as the paper's dotted table."""
        from repro.ui.render import render_session

        return render_session(self, sort_display_by_count=sort_display_by_count)
