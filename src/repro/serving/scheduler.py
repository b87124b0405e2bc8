"""Fair scheduling: per-tenant token budgets + round-robin turns.

Two independent fairness mechanisms, one class:

* **Token budgets** — every tenant has a token bucket (capacity +
  optional refill rate).  The serving facade charges one expansion's
  estimated cost (the mined source's row count, see
  :attr:`~repro.session.session.DrillDownSession.source_rows`) *before*
  running it; an empty bucket raises the typed
  :class:`~repro.errors.TenantBudgetError` immediately — a throttled
  tenant gets a clear retry-able error, never a queue it silently
  starves in.  ``capacity=None`` (the default) means unmetered.
* **Round-robin turns** — the :meth:`FairScheduler.dispatch_turn`
  context manager hands out one turn at a time, rotating across
  tenants with waiting callers (FIFO within a tenant), with an
  optional deadline on the wait.  The serving tier counts in process
  and no longer calls it; it stays a tested primitive.

Neither mechanism ever changes results — only when, or whether, work
runs.
"""

from __future__ import annotations

import itertools
import threading
import time
from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator

from repro.errors import DeadlineExceededError, TenantBudgetError

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


@dataclass
class _TurnQueue:
    """Tickets of threads waiting for (or holding) a tenant's dispatch turn."""

    waiting: deque = field(default_factory=deque)


class FairScheduler:
    """Per-tenant token budgets and round-robin dispatch turns.

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
        self._cond = threading.Condition(self._lock)
        self._budgets: dict[Any, TenantBudget] = {}
        # Round-robin state: tenants with waiting dispatchers, in turn
        # order; per-tenant FIFO of tickets; the ticket currently
        # holding the (single) dispatch turn.
        self._ring: list[Any] = []
        self._queues: dict[Any, _TurnQueue] = {}
        self._active: int | None = None
        self._active_tenant: Any = None
        self._tickets = itertools.count(1)
        self.dispatches = 0
        self.deadline_aborts = 0

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

    # -- round-robin dispatch ----------------------------------------------------

    def _my_turn(self, tenant: Any, ticket: int) -> bool:
        return (
            self._active is None
            and bool(self._ring)
            and self._ring[0] == tenant
            and self._queues[tenant].waiting[0] == ticket
        )

    def _abandon_locked(self, tenant: Any, ticket: int) -> None:
        """Withdraw a waiting ticket whose deadline expired (lock held).

        Removes the ticket from the tenant's FIFO; when that empties
        the queue *and* no other ticket of this tenant currently holds
        the turn (the holder's own release pops the ring head and
        cleans up), the tenant leaves the ring too — an abandoned wait
        must never leave a ghost tenant blocking rotation.
        """
        queue = self._queues.get(tenant)
        if queue is None:  # pragma: no cover - defensive
            return
        try:
            queue.waiting.remove(ticket)
        except ValueError:  # pragma: no cover - defensive
            return
        if not queue.waiting and self._active_tenant != tenant:
            del self._queues[tenant]
            try:
                self._ring.remove(tenant)
            except ValueError:  # pragma: no cover - defensive
                pass
        self._cond.notify_all()

    @contextmanager
    def dispatch_turn(
        self, tenant: Any, *, deadline_at: float | None = None
    ) -> Iterator[None]:
        """Hold the one dispatch turn for the duration of the block.

        The serving tier no longer calls this (counting runs in the
        request's own thread).  One holder at a time; when several
        tenants contend, turns rotate tenant-by-tenant (FIFO within a
        tenant), so a backlog from one tenant delays its *own* next
        turn, not every other tenant's first.

        ``deadline_at`` (absolute, in this scheduler's clock) bounds
        the queue wait: a ticket still waiting at the deadline is
        withdrawn and :class:`~repro.errors.DeadlineExceededError`
        raised — the serving facade refunds the expansion's budget
        charge on that path.  (With an injectable test clock the wait
        duration is measured in clock units; deterministic tests pass
        an already-expired deadline.)
        """
        ticket = next(self._tickets)
        with self._cond:
            queue = self._queues.setdefault(tenant, _TurnQueue())
            queue.waiting.append(ticket)
            if tenant not in self._ring:
                self._ring.append(tenant)
            while not self._my_turn(tenant, ticket):
                if deadline_at is None:
                    self._cond.wait()
                    continue
                remaining = deadline_at - self._clock()
                if remaining <= 0.0:
                    self._abandon_locked(tenant, ticket)
                    self.deadline_aborts += 1
                    raise DeadlineExceededError(
                        f"tenant {tenant!r} waited past its deadline for a "
                        "dispatch turn",
                        retry_after=1.0,
                    )
                self._cond.wait(timeout=remaining)
            self._active = ticket
            self._active_tenant = tenant
            queue.waiting.popleft()
            self.dispatches += 1
        try:
            yield
        finally:
            with self._cond:
                self._active = None
                self._active_tenant = None
                self._ring.pop(0)
                if self._queues[tenant].waiting:
                    self._ring.append(tenant)  # round-robin: back of the line
                else:
                    del self._queues[tenant]
                self._cond.notify_all()

    # -- introspection -----------------------------------------------------------

    def stats(self) -> dict:
        """Budget and dispatch accounting, keyed by tenant."""
        with self._lock:
            return {
                "dispatches": self.dispatches,
                "deadline_aborts": self.deadline_aborts,
                "tenants": {
                    repr(tenant): budget.snapshot()
                    for tenant, budget in self._budgets.items()
                },
            }

    def __repr__(self) -> str:
        return (
            f"FairScheduler(tenants={len(self._budgets)}, "
            f"dispatches={self.dispatches})"
        )
