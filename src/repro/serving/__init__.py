"""Multi-tenant serving tier: one process, many tenants, shared tables.

The per-session machinery (the incremental
:class:`~repro.core.search_cache.SearchContext`) already lets many
sessions mine one immutable table; this package is the tier that
multiplexes *tenants* on top of it:

* :class:`TableCatalog` — register tables as versioned records
  (:class:`TableVersion`), grow level-1 marginal caches incrementally
  under ``append_rows``, and reap superseded versions when their last
  pinned session closes;
* :class:`SessionRegistry` — create/lookup/expire
  :class:`~repro.session.DrillDownSession`\\ s per tenant (TTL + LRU,
  eviction-safe ``close()``);
* :class:`ContextStore` — share read-compatible search contexts across
  sessions with identical (table, weighting, ``mw``) configurations,
  copy-on-first-expand;
* :class:`FairScheduler` — per-tenant token budgets (and a round-robin
  turn primitive);
* :class:`SnapshotStore` + :class:`ReaperThread`
  (:mod:`repro.serving.persistence`) — durable session trees
  (versioned JSON-lines snapshots, atomic writes, warm restart) and
  background TTL expiry/checkpointing independent of request traffic;
* :class:`DrillDownServer` — the facade composing all of the above,
  with a stdlib HTTP front end in :mod:`repro.serving.http`;
* :class:`ShardRouter` (:mod:`repro.serving.router` +
  :mod:`repro.serving.shard`) — the same facade sharded across N
  worker processes: consistent-hash table placement, sticky session
  affinity, crash detection with automatic restart + warm restore,
  responses bit-identical to one in-process server;
* :class:`TableSampleSet` (:mod:`repro.serving.samples`) — per-table
  uniform + stratified samples pre-built at registration under a
  ``sample_budget`` (§4.1 allocation DP), persisted for warm restarts
  and mined by approximate expansions, which carry per-rule
  confidence-interval metadata and escalate to exact counting when an
  estimate is too loose for the requested ``error_target``;
* :class:`CircuitBreaker`, :class:`ShardWatchdog`,
  :class:`ChaosPolicy` (:mod:`repro.serving.faults`) — the
  fault-tolerance layer: per-shard circuit breaking, background
  health sweeps that kill and restart wedged workers, and the
  deterministic fault-injection seam the chaos drills are built on;
  per-request deadlines thread from the HTTP ``X-Deadline`` header
  to the per-session lock wait and the shard request.

See docs/SERVING.md for topology, tenancy semantics, budget knobs,
durability, fault tolerance, and a curl walkthrough.
"""

from repro.serving.catalog import TableCatalog, TableVersion
from repro.serving.contexts import ContextStore
from repro.serving.faults import ChaosPolicy, ChaosRule, CircuitBreaker, ShardWatchdog
from repro.serving.persistence import (
    SNAPSHOT_VERSION,
    ReaperThread,
    SessionSnapshot,
    SnapshotStore,
)
from repro.serving.registry import SessionEntry, SessionRegistry
from repro.serving.router import ShardRouter
from repro.serving.samples import (
    TableSampleSet,
    build_sample_set,
    derive_seed,
    load_sample_set,
)
from repro.serving.scheduler import FairScheduler, TenantBudget
from repro.serving.server import WEIGHT_FUNCTIONS, DrillDownServer
from repro.serving.shard import ShardProcess

__all__ = [
    "ChaosPolicy",
    "ChaosRule",
    "CircuitBreaker",
    "ContextStore",
    "DrillDownServer",
    "FairScheduler",
    "ReaperThread",
    "SessionEntry",
    "SessionRegistry",
    "SessionSnapshot",
    "ShardProcess",
    "ShardRouter",
    "ShardWatchdog",
    "SnapshotStore",
    "SNAPSHOT_VERSION",
    "TableCatalog",
    "TableSampleSet",
    "TableVersion",
    "TenantBudget",
    "WEIGHT_FUNCTIONS",
    "build_sample_set",
    "derive_seed",
    "load_sample_set",
]
