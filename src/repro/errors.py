"""Exception hierarchy for the ``repro`` library.

Every error raised deliberately by this package derives from
:class:`ReproError`, so callers can catch one base class at an API
boundary.  Sub-classes are fine-grained enough that tests can assert on
the *kind* of misuse detected.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` package."""


class SchemaError(ReproError):
    """A table schema is malformed or used inconsistently.

    Raised for duplicate column names, unknown columns, kind mismatches
    (e.g. asking for categorical codes of a numeric column), and ragged
    row input.
    """


class EncodingError(ReproError):
    """A value could not be encoded against a column dictionary."""


class RuleError(ReproError):
    """A rule is malformed for the schema it is evaluated against."""


class WeightFunctionError(ReproError):
    """A user-supplied weighting function violates its contract.

    The paper requires weighting functions to be non-negative and
    monotonic (sub-rules weigh no more than super-rules); validation
    helpers raise this error when a counter-example is found.
    """


class EngineError(ReproError, ValueError):
    """A search-engine knob is invalid.

    Raised by :func:`repro.core.brs.brs_time_limited` for a
    non-positive time limit.  Dual-inherits :class:`ValueError` so
    pre-existing ``except ValueError`` call sites keep working; the
    HTTP front end maps it (via :class:`ReproError`) to 400.
    """


class ParameterError(ReproError, ValueError):
    """An analysis-parameter value is out of its documented domain.

    Raised by :mod:`repro.core.params` validation (mismatched
    weight/fraction vector lengths, a target fraction outside
    ``[0, 1]``).  Dual-inherits :class:`ValueError` for backward
    compatibility; maps to HTTP 400 on the wire.
    """


class SamplingError(ReproError):
    """Sampling machinery was misused (bad rates, empty reservoirs, ...)."""


class AllocationError(ReproError):
    """Sample-memory allocation inputs are infeasible or malformed."""


class StorageError(ReproError):
    """Simulated disk layer misuse (closed scans, bad page sizes, ...)."""


class DatasetError(ReproError):
    """A dataset generator or loader received invalid parameters."""


class SessionError(ReproError):
    """An interactive-session operation is invalid in the current state.

    Examples: expanding a rule that is not displayed, collapsing a rule
    that has no children, drilling down on a non-star cell.
    """


class SessionClosedError(SessionError):
    """A closed :class:`~repro.session.DrillDownSession` was used.

    Raised by every mutating session operation (expand, collapse,
    refresh) after :meth:`~repro.session.DrillDownSession.close` — which
    the multi-tenant registry may call at any time, including while an
    expansion is in flight on another thread.  Read-only accessors keep
    working so a client can still render the last displayed tree.
    """


class ServingError(ReproError):
    """Base class for multi-tenant serving-tier errors (:mod:`repro.serving`)."""


class UnknownTableError(ServingError):
    """A table name is not registered in the :class:`~repro.serving.TableCatalog`."""


class TableConflictError(ServingError):
    """A table name is already registered with different data.

    Served tables are versioned, not silently mutable: re-registering a
    name with other rows is refused so no client can swap data out from
    under live sessions by accident.  The remedies are explicit —
    ``append_rows(name, rows)`` grows the table in place as a new
    version, ``replace_table(name, table)`` swaps it wholesale (also as
    a new version), and ``unregister`` + ``register`` starts over.
    Maps to HTTP 409 Conflict.
    """


class UnknownSessionError(ServingError):
    """A session id is not (or no longer) in the :class:`~repro.serving.SessionRegistry`.

    Raised both for ids that never existed and for sessions that were
    expired (TTL) or evicted (LRU) — from the client's point of view the
    session is simply gone and must be recreated.
    """


class SnapshotError(ServingError):
    """A session snapshot cannot be written or decoded.

    Raised when a session's state is not representable in the internal
    JSON form of :mod:`repro.codec` (e.g. an unserialisable rule value)
    and when a stored snapshot or an encoded value fails to decode.  The
    :class:`~repro.serving.persistence.SnapshotStore` *skips* undecodable
    and stale-version files with a counter rather than propagating this
    at load time, so one corrupt snapshot can never block a warm
    restart.
    """


class ShardError(ServingError):
    """A shard worker process misbehaved at the protocol level.

    Raised by the :class:`~repro.serving.ShardRouter` when a shard
    returns an unintelligible frame or fails inside infrastructure code
    (as opposed to raising a typed :class:`ReproError`, which travels
    the wire and is re-raised as itself).  Maps to HTTP 503 — the
    request may succeed against a healthy shard after a restart.
    """


class ShardDownError(ShardError):
    """A shard worker process died while (or before) serving a request.

    The router detects the broken pipe, restarts the shard in the
    background (re-registering its tables, which warm-restores any
    snapshotted sessions from the shard's own persist directory), and
    raises this error for the request that observed the crash — it may
    have been half-applied, so the router never retries it silently.
    HTTP 503: the client should retry.
    """


class DeadlineExceededError(ServingError):
    """A request's deadline expired before the serving tier finished it.

    Raised on every layer of the deadline spine: admission (a budget
    already spent by earlier calls), the session-entry lock, and the
    shard pipe (a worker that
    missed its reply window — the router kills and restarts it).  Maps
    to HTTP 503 with a ``Retry-After`` header: the tier is healthy or
    recovering, and the same request may well fit a fresh deadline.
    ``retry_after`` is a back-off hint in seconds (``None`` = retry at
    will).
    """

    def __init__(self, message: str = "deadline exceeded", *, retry_after: float | None = None):
        self.retry_after = retry_after
        super().__init__(message)


class CircuitOpenError(ShardDownError):
    """A shard's circuit breaker is open: the request was shed, not sent.

    After ``threshold`` consecutive pipe-level failures the router
    stops dialing the shard at all; callers get this error immediately
    (no queueing behind the corpse) until the breaker's cooldown admits
    a half-open probe.  Subclasses :class:`ShardDownError`, so existing
    503 mappings and ``except ShardDownError`` maintenance sweeps treat
    it as the shard being unavailable.  ``retry_after`` is the
    remaining cooldown in seconds.
    """

    def __init__(self, message: str = "circuit open", *, retry_after: float | None = None):
        self.retry_after = retry_after
        super().__init__(message)


class TenantBudgetError(ServingError):
    """A tenant's token budget cannot cover a requested expansion.

    The serving tier's typed throttle signal: raised *immediately*
    instead of queueing the work, so an over-budget tenant gets a clear
    retry-able error (HTTP 429 on the wire) rather than a hang.
    ``retry_after`` estimates the seconds until the bucket has refilled
    enough, or is ``None`` when the budget does not refill.
    """

    def __init__(
        self,
        tenant: object,
        requested: float,
        available: float,
        retry_after: float | None = None,
    ):
        self.tenant = tenant
        self.requested = requested
        self.available = available
        self.retry_after = retry_after
        message = (
            f"tenant {tenant!r} requested {requested:g} tokens "
            f"but only {available:g} are available"
        )
        if retry_after is not None:
            message += f" (retry in ~{retry_after:.1f}s)"
        super().__init__(message)
