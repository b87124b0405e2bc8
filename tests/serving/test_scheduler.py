"""FairScheduler: token budgets throttle typed-and-fast."""

from __future__ import annotations

import time

import pytest

from repro.errors import TenantBudgetError
from repro.serving import FairScheduler


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


class TestBudgets:
    def test_unmetered_by_default(self):
        scheduler = FairScheduler()
        for _ in range(100):
            scheduler.charge("alice", 1e9)
        assert scheduler.balance("alice") is None

    def test_exhaustion_raises_typed_error_immediately(self):
        scheduler = FairScheduler(default_budget=100.0)
        scheduler.charge("alice", 60.0)
        start = time.perf_counter()
        with pytest.raises(TenantBudgetError) as info:
            scheduler.charge("alice", 60.0)
        assert time.perf_counter() - start < 1.0  # throttle, not a hang
        assert info.value.tenant == "alice"
        assert info.value.requested == 60.0
        assert info.value.available == pytest.approx(40.0)
        assert info.value.retry_after is None  # no refill configured

    def test_budgets_are_per_tenant(self):
        scheduler = FairScheduler(default_budget=100.0)
        scheduler.charge("alice", 100.0)
        scheduler.charge("bob", 100.0)  # bob's own bucket
        with pytest.raises(TenantBudgetError):
            scheduler.charge("alice", 1.0)

    def test_refill_over_time(self):
        clock = FakeClock()
        scheduler = FairScheduler(
            default_budget=100.0, default_refill_per_second=10.0, clock=clock
        )
        scheduler.charge("alice", 100.0)
        with pytest.raises(TenantBudgetError) as info:
            scheduler.charge("alice", 50.0)
        assert info.value.retry_after == pytest.approx(5.0)
        clock.advance(5.0)
        scheduler.charge("alice", 50.0)  # refilled
        assert scheduler.balance("alice") == pytest.approx(0.0)

    def test_refill_caps_at_capacity(self):
        clock = FakeClock()
        scheduler = FairScheduler(
            default_budget=100.0, default_refill_per_second=10.0, clock=clock
        )
        clock.advance(1e6)
        assert scheduler.balance("alice") == pytest.approx(100.0)

    def test_explicit_per_tenant_budget(self):
        scheduler = FairScheduler(default_budget=10.0)
        scheduler.set_budget("whale", 1000.0)
        scheduler.charge("whale", 500.0)
        with pytest.raises(TenantBudgetError):
            scheduler.charge("minnow", 500.0)

    def test_refund_restores_tokens_capped(self):
        scheduler = FairScheduler(default_budget=100.0)
        scheduler.charge("alice", 80.0)
        scheduler.refund("alice", 80.0)
        assert scheduler.balance("alice") == pytest.approx(100.0)
        scheduler.refund("alice", 50.0)  # over-refund caps at capacity
        assert scheduler.balance("alice") == pytest.approx(100.0)
        unmetered = FairScheduler()  # no default budget
        unmetered.refund("bob", 10.0)  # accounting only, still unmetered
        assert unmetered.balance("bob") is None

    def test_stats_accounting(self):
        scheduler = FairScheduler(default_budget=100.0)
        scheduler.charge("alice", 30.0)
        with pytest.raises(TenantBudgetError):
            scheduler.charge("alice", 100.0)
        stats = scheduler.stats()["tenants"]["'alice'"]
        assert stats["charged"] == 30.0 and stats["throttled"] == 1



def test_dispatch_turn_is_a_no_op():
    """Kept as a name for the e2e tracer: it neither waits nor counts."""
    scheduler = FairScheduler()
    with scheduler.dispatch_turn("alice", deadline_at=0.0):
        pass
    assert scheduler.stats() == {"tenants": {}}
