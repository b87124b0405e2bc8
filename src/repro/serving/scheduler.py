"""Fair scheduling: per-tenant token budgets only.

Every tenant has a token bucket (capacity + optional refill rate).  The
serving facade charges one expansion's estimated cost (the mined
source's row count, see
:attr:`~repro.session.session.DrillDownSession.source_rows`) *before*
running it; an empty bucket raises the typed
:class:`~repro.errors.TenantBudgetError` immediately — a throttled
tenant gets a clear retry-able error, never a queue it silently starves
in.  ``capacity=None`` (the default) means unmetered.

Budgets never change results — only whether work runs.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable, Iterator

from repro.errors import TenantBudgetError

__all__ = ["FairScheduler", "TenantBudget"]


@dataclass
class TenantBudget:
    """One tenant's token bucket plus its lifetime accounting."""

    capacity: float | None
    tokens: float
    refill_per_second: float
    last_refill: float
    charged: float = 0.0
    throttled: int = 0

    def snapshot(self) -> dict:
        return {
            "capacity": self.capacity,
            "tokens": None if self.capacity is None else round(self.tokens, 3),
            "refill_per_second": self.refill_per_second,
            "charged": self.charged,
            "throttled": self.throttled,
        }


class FairScheduler:
    """Per-tenant token budgets.

    Parameters
    ----------
    default_budget:
        Token capacity for tenants without an explicit
        :meth:`set_budget`; ``None`` (default) charges but never
        throttles.  Tokens are denominated in *source rows per
        expansion* by the serving facade.
    default_refill_per_second:
        Tokens regained per second, up to capacity.  ``0`` makes the
        budget a hard cap per tenant lifetime.
    clock:
        Injectable monotonic clock (tests drive refill deterministically).
    """

    def __init__(
        self,
        *,
        default_budget: float | None = None,
        default_refill_per_second: float = 0.0,
        clock: Callable[[], float] = time.monotonic,
    ):
        self._default_budget = default_budget
        self._default_refill = default_refill_per_second
        self._clock = clock
        self._lock = threading.Lock()
        self._budgets: dict[Any, TenantBudget] = {}

    # -- token budgets -----------------------------------------------------------

    def _budget(self, tenant: Any) -> TenantBudget:
        budget = self._budgets.get(tenant)
        if budget is None:
            capacity = self._default_budget
            budget = TenantBudget(
                capacity=capacity,
                tokens=0.0 if capacity is None else float(capacity),
                refill_per_second=self._default_refill,
                last_refill=self._clock(),
            )
            self._budgets[tenant] = budget
        return budget

    def _refill(self, budget: TenantBudget) -> None:
        now = self._clock()
        if budget.capacity is not None and budget.refill_per_second > 0.0:
            gained = (now - budget.last_refill) * budget.refill_per_second
            budget.tokens = min(budget.capacity, budget.tokens + gained)
        budget.last_refill = now

    def set_budget(
        self,
        tenant: Any,
        capacity: float | None,
        *,
        refill_per_second: float | None = None,
    ) -> None:
        """Give ``tenant`` an explicit bucket (full at ``capacity``)."""
        with self._lock:
            self._budgets[tenant] = TenantBudget(
                capacity=capacity,
                tokens=0.0 if capacity is None else float(capacity),
                refill_per_second=(
                    self._default_refill if refill_per_second is None else refill_per_second
                ),
                last_refill=self._clock(),
            )

    def charge(self, tenant: Any, tokens: float) -> None:
        """Deduct ``tokens`` from the tenant's bucket, or throttle.

        Raises :class:`~repro.errors.TenantBudgetError` — immediately,
        never blocking — when the bucket (after refill accrual) cannot
        cover the charge.  Unmetered tenants only accumulate
        accounting.
        """
        with self._lock:
            budget = self._budget(tenant)
            if budget.capacity is None:
                budget.charged += tokens
                return
            self._refill(budget)
            if tokens > budget.tokens:
                budget.throttled += 1
                retry_after = None
                if budget.refill_per_second > 0.0:
                    retry_after = (tokens - budget.tokens) / budget.refill_per_second
                raise TenantBudgetError(tenant, tokens, budget.tokens, retry_after)
            budget.tokens -= tokens
            budget.charged += tokens

    def refund(self, tenant: Any, tokens: float) -> None:
        """Return ``tokens`` to the tenant's bucket (capped at capacity).

        The serving facade refunds an expansion's up-front charge when
        the operation fails before doing table work (bad rule, closed
        session, ...), so rejected requests never burn budget.
        """
        with self._lock:
            budget = self._budget(tenant)
            budget.charged = max(0.0, budget.charged - tokens)
            if budget.capacity is not None:
                budget.tokens = min(budget.capacity, budget.tokens + tokens)

    def balance(self, tenant: Any) -> float | None:
        """Current tokens for ``tenant`` (``None`` = unmetered)."""
        with self._lock:
            budget = self._budget(tenant)
            if budget.capacity is None:
                return None
            self._refill(budget)
            return budget.tokens

    # Kept for benchmarks/e2e (its tracer wraps it to time the wait for
    # a turn).  Nothing serves through turns any more: it waits for
    # nothing and never raises.
    @contextmanager
    def dispatch_turn(
        self, tenant: Any, *, deadline_at: float | None = None
    ) -> Iterator[None]:
        """A no-op block."""
        yield

    # -- introspection -----------------------------------------------------------

    def stats(self) -> dict:
        """Budget accounting, keyed by tenant."""
        with self._lock:
            return {
                "tenants": {
                    repr(tenant): budget.snapshot()
                    for tenant, budget in self._budgets.items()
                },
            }

    def __repr__(self) -> str:
        return f"FairScheduler(tenants={len(self._budgets)})"
