"""Deadline-bounded serving: breaker/watchdog/chaos drills (ISSUE 6).

Three layers under test, composed bottom-up:

* unit drills with fake clocks — :class:`CircuitBreaker` transitions,
  :class:`ChaosPolicy` occurrence windows, the in-process server's
  deadline admission and budget refund;
* the contract that the fault layer is *pure overhead on the happy
  path* — a tier with deadlines on answers bit-identically to one
  without (also pinned tier-wide by the replay harness in
  ``tests/integration/test_serving_fuzz.py``);
* multi-process chaos drills against a real :class:`ShardRouter` —
  wedge / drop-reply / crash-on-Nth injected *inside* the worker via
  :class:`ChaosPolicy`, asserting typed errors within the deadline,
  single watchdog-or-observer restarts (the generation guard), and
  bit-identical renders after warm restore.
"""

from __future__ import annotations

import threading
import time

import pytest

from repro.errors import (
    CircuitOpenError,
    DeadlineExceededError,
    ReproError,
    ServingError,
    ShardDownError,
    ShardError,
    UnknownSessionError,
)
from repro.serving import (
    ChaosPolicy,
    ChaosRule,
    CircuitBreaker,
    DrillDownServer,
    ShardRouter,
    ShardWatchdog,
)
from repro.serving.faults import OPS
from repro.serving.shard import decode_error, encode_error

pytestmark = pytest.mark.chaos


class FakeClock:
    def __init__(self, now: float = 100.0):
        self.now = now

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


# -- circuit breaker -------------------------------------------------------------


class TestCircuitBreaker:
    def _open_breaker(self, clock) -> CircuitBreaker:
        breaker = CircuitBreaker(threshold=2, cooldown=5.0, clock=clock, name="s0")
        for _ in range(2):
            breaker.acquire()
            breaker.record_failure()
        assert breaker.state == "open"
        return breaker

    def test_opens_after_threshold_and_sheds_with_retry_after(self):
        clock = FakeClock()
        breaker = CircuitBreaker(threshold=2, cooldown=5.0, clock=clock, name="s0")
        breaker.acquire()
        breaker.record_failure()
        assert breaker.state == "closed"  # one failure is not a pattern
        breaker.acquire()
        breaker.record_failure()
        assert breaker.state == "open" and breaker.opens == 1
        with pytest.raises(CircuitOpenError) as info:
            breaker.acquire()
        assert info.value.retry_after == pytest.approx(5.0)
        assert breaker.rejections == 1

    def test_success_resets_the_consecutive_failure_count(self):
        clock = FakeClock()
        breaker = CircuitBreaker(threshold=2, cooldown=5.0, clock=clock)
        for _ in range(3):  # fail, succeed, fail, succeed, ... never opens
            breaker.acquire()
            breaker.record_failure()
            breaker.acquire()
            breaker.record_success()
        assert breaker.state == "closed" and breaker.opens == 0

    def test_half_open_admits_exactly_one_probe(self):
        clock = FakeClock()
        breaker = self._open_breaker(clock)
        clock.advance(5.0)
        assert breaker.state == "half_open"
        breaker.acquire()  # the single probe
        with pytest.raises(CircuitOpenError):
            breaker.acquire()  # concurrent caller is shed while probing
        breaker.record_success()
        assert breaker.state == "closed"
        breaker.acquire()  # closed again: everyone admitted

    def test_half_open_failure_reopens_and_restarts_cooldown(self):
        clock = FakeClock()
        breaker = self._open_breaker(clock)
        clock.advance(5.0)
        breaker.acquire()
        breaker.record_failure()
        assert breaker.state == "open" and breaker.opens == 2
        with pytest.raises(CircuitOpenError) as info:
            breaker.acquire()
        assert info.value.retry_after == pytest.approx(5.0)  # full cooldown again

    def test_cancel_probe_allows_immediate_reprobe(self):
        clock = FakeClock()
        breaker = self._open_breaker(clock)
        clock.advance(5.0)
        breaker.acquire()
        breaker.cancel_probe()  # probe was inconclusive (e.g. handle busy)
        assert breaker.state == "half_open"  # cooldown NOT restarted
        breaker.acquire()  # the next caller probes right away
        breaker.record_success()
        assert breaker.state == "closed"

    def test_validation(self):
        with pytest.raises(ServingError):
            CircuitBreaker(threshold=0)
        with pytest.raises(ServingError):
            CircuitBreaker(cooldown=-1.0)


# -- chaos policy ----------------------------------------------------------------


class TestChaosPolicy:
    def test_after_times_occurrence_window(self):
        policy = ChaosPolicy([ChaosRule(kind="crash", op="expand", after=1, times=1)])
        assert policy.fire("render") is None  # wrong op never counts
        assert policy.fire("expand") is None  # first match: skipped (after=1)
        rule = policy.fire("expand")  # second match: due
        assert rule is not None and rule.kind == "crash"
        assert policy.fire("expand") is None  # window exhausted
        assert policy.fired == 1

    def test_wildcard_op_and_forever_window(self):
        policy = ChaosPolicy([ChaosRule(kind="delay", seconds=0.0, times=None)])
        assert all(policy.fire(op) is not None for op in ("expand", "render", "ping"))

    def test_json_roundtrip_and_dict_rules(self):
        policy = ChaosPolicy(
            [{"kind": "wedge", "op": "render", "seconds": 2.0, "after": 3, "times": 2}]
        )
        decoded = ChaosPolicy.decode(policy.encode())
        assert [r.encode() for r in decoded.rules] == [r.encode() for r in policy.rules]
        # The decoded policy fires on exactly the same call sequence.
        for original, copy in zip(
            [policy.fire("render") for _ in range(6)],
            [decoded.fire("render") for _ in range(6)],
        ):
            assert (original is None) == (copy is None)

    def test_validation(self):
        with pytest.raises(ServingError):
            ChaosRule(kind="nope")
        with pytest.raises(ServingError):
            ChaosRule(kind="wedge", seconds=-1.0)
        with pytest.raises(ServingError):
            ChaosRule(kind="wedge", times=0)
        with pytest.raises(ServingError):
            ChaosRule(kind="wedge", after=-1)

    def test_op_must_name_a_pipe_op(self):
        """A mistyped op used to be accepted and then never fire."""
        with pytest.raises(ServingError, match="unknown chaos op"):
            ChaosRule(kind="error", op="expnd")
        for op in ("*", *OPS):
            assert ChaosRule(kind="error", op=op).op == op

    def test_router_refuses_a_mistyped_op_before_any_pipe_traffic(self):
        with ShardRouter(1) as router:
            shard = router._shards[0]
            sent = shard._next_request
            with pytest.raises(ServingError, match="unknown chaos op"):
                router.inject_chaos(0, [{"kind": "crash", "op": "expnd"}])
            assert shard._next_request == sent
            assert router.tables() == ()

    def test_retry_after_survives_the_shard_wire(self):
        exc = decode_error(encode_error(DeadlineExceededError("late", retry_after=2.5)))
        assert isinstance(exc, DeadlineExceededError)
        assert exc.retry_after == 2.5


# -- watchdog (unit) -------------------------------------------------------------


class TestShardWatchdog:
    def test_run_once_counts_recoveries(self):
        watchdog = ShardWatchdog(probe=lambda: [0, 1], interval=60.0)
        watchdog.run_once()
        assert watchdog.ticks == 1 and watchdog.recoveries == 2
        assert watchdog.stats()["recoveries"] == 2

    def test_run_once_isolates_probe_exceptions(self):
        def bad_probe():
            raise RuntimeError("sweep blew up")

        watchdog = ShardWatchdog(probe=bad_probe, interval=60.0)
        watchdog.run_once()
        watchdog.run_once()
        assert watchdog.ticks == 2 and watchdog.errors == 2  # still ticking

    def test_validation(self):
        with pytest.raises(ServingError):
            ShardWatchdog(probe=lambda: [], interval=0.0)


# -- the in-process server -------------------------------------------------------


class TestServerDeadlines:
    def test_ctor_rejects_non_positive_default_deadline(self):
        with pytest.raises(ServingError):
            DrillDownServer(default_deadline=0.0)
        with pytest.raises(ServingError):
            ShardRouter(1, default_deadline=-1.0)  # validated before spawning
        with pytest.raises(ServingError):
            ShardRouter(1, read_retries=-1)

    def test_spent_deadline_budget_fails_admission(self, server):
        sid = server.create_session("retail", k=3, mw=3.0)
        with pytest.raises(DeadlineExceededError):
            server.expand(sid, deadline=0.0)
        with pytest.raises(DeadlineExceededError):
            server.render(sid, deadline=-1.0)
        assert server.deadline_aborts == 2
        assert server.expand(sid)  # the tier itself is fine

    def test_deadline_waiting_on_entry_lock_refunds_the_budget(self, retail):
        with DrillDownServer(tenant_budget=20_000.0) as tier:
            tier.register_table("retail", retail)
            sid = tier.create_session("retail", tenant="alice", k=3, mw=3.0)
            assert tier.scheduler.balance("alice") == 20_000.0
            entry = tier.registry.entry(sid)
            with entry.lock:  # another "request" holds the session
                with pytest.raises(DeadlineExceededError) as info:
                    tier.expand(sid, deadline=0.05)
            assert info.value.retry_after is not None
            # The up-front charge was refunded: a deadline abort never
            # burns the tenant's budget.
            assert tier.scheduler.balance("alice") == 20_000.0
            assert tier.deadline_aborts == 1
            assert tier.expand(sid)  # lock free: same op now succeeds
            assert tier.scheduler.balance("alice") == 20_000.0 - 6000.0

    def test_in_process_chaos_error_fires_then_clears(self, retail):
        policy = ChaosPolicy([ChaosRule(kind="error", op="expand", times=1)])
        with DrillDownServer(chaos=policy) as tier:
            tier.register_table("retail", retail)
            sid = tier.create_session("retail", k=3, mw=3.0)
            with pytest.raises(ShardError):
                tier.expand(sid)
            assert policy.fired == 1
            assert tier.expand(sid)  # occurrence window exhausted

    def test_default_deadline_is_pure_overhead_on_the_happy_path(self, retail):
        with DrillDownServer() as plain, DrillDownServer(default_deadline=30.0) as bounded:
            for tier in (plain, bounded):
                tier.register_table("retail", retail)
            a = plain.create_session("retail", k=3, mw=3.0)
            b = bounded.create_session("retail", k=3, mw=3.0)
            plain.expand(a)
            bounded.expand(b)
            assert plain.render(a) == bounded.render(b)
            assert bounded.stats()["default_deadline"] == 30.0
            assert bounded.stats()["deadline_aborts"] == 0


# -- multi-process router drills -------------------------------------------------


@pytest.mark.slow
class TestRouterFaultDrills:
    def _seed_session(self, router, retail, *, checkpoint: bool = True):
        router.register_table("retail", retail)
        sid = router.create_session("retail", tenant="alice", k=3, mw=3.0)
        router.expand(sid)
        expected = router.render(sid)
        if checkpoint:
            assert router.checkpoint_all() >= 1
        return sid, expected

    def test_wedged_shard_typed_error_restart_and_bitwise_warm_restore(
        self, retail, tmp_path
    ):
        """The acceptance drill: wedge a shard mid-request, get the
        typed deadline error (not a hang), the worker killed and
        restarted, and the snapshotted session rendering bit-identically
        to a never-faulted single-process reference after warm restore."""
        with DrillDownServer() as reference:
            reference.register_table("retail", retail)
            ref_sid = reference.create_session("retail", tenant="alice", k=3, mw=3.0)
            reference.expand(ref_sid)
            ref_render = reference.render(ref_sid)
        with ShardRouter(1, persist_dir=tmp_path) as router:
            sid, expected = self._seed_session(router, retail)
            assert expected == ref_render
            router.inject_chaos(
                0, [ChaosRule(kind="wedge", op="render", seconds=60.0)]
            )
            start = time.monotonic()
            with pytest.raises(DeadlineExceededError) as info:
                router.render(sid, deadline=1.0)
            elapsed = time.monotonic() - start
            assert info.value.retry_after is not None
            # Detection is bounded by the deadline; the epsilon covers
            # the kill + spawn + warm restore that run before raising.
            assert elapsed < 1.0 + 15.0
            assert router.restarts == 1
            assert router.wedge_kills == 1
            assert router.deadline_aborts == 1
            assert router.render(sid) == expected  # bit-identical restore

    def test_dropped_reply_is_a_deadline_error_and_recovers(self, retail, tmp_path):
        with ShardRouter(1, persist_dir=tmp_path) as router:
            sid, expected = self._seed_session(router, retail)
            router.inject_chaos(0, [ChaosRule(kind="drop_reply", op="render")])
            with pytest.raises(DeadlineExceededError):
                router.render(sid, deadline=1.0)
            assert router.restarts == 1
            assert router.render(sid) == expected

    def test_crash_on_second_expand_is_typed_and_tier_serves_on(self, retail):
        with ShardRouter(1) as router:
            router.register_table("retail", retail)
            sid = router.create_session("retail", k=3, mw=3.0)
            router.inject_chaos(
                0, [ChaosRule(kind="crash", op="expand", after=1, times=1)]
            )
            children = router.expand(sid)  # first expand survives (after=1)
            assert children
            with pytest.raises(ShardDownError):
                router.expand(sid, children[0].rule)  # the Nth op crashes
            assert router.restarts == 1
            replacement = router.create_session("retail", k=3, mw=3.0)
            assert router.expand(replacement)

    def test_breaker_opens_sheds_half_open_probes_and_closes(self, retail):
        clock = FakeClock(time.monotonic())
        router = ShardRouter(1, breaker_threshold=2, breaker_cooldown=10.0, clock=clock)
        try:
            router.register_table("retail", retail)
            sid = router.create_session("retail", k=3, mw=3.0)
            original_spawn = router._spawn

            def failing_spawn(index, *, respawn=False):
                raise ServingError("injected: respawn refused")

            router._spawn = failing_spawn
            router._shards[0].process.kill()
            # Two consecutive pipe failures (the respawn keeps failing,
            # so the slot keeps a dead handle) open the circuit.
            # create_session always crosses the pipe (render would fail
            # at the router's own map: the crash dropped the pin).
            with pytest.raises(ShardDownError):
                router.create_session("retail", k=3, mw=3.0)
            with pytest.raises(ShardDownError):
                router.create_session("retail", k=3, mw=3.0)
            assert router._breakers[0].stats()["opens"] == 1
            with pytest.raises(CircuitOpenError) as info:
                router.create_session("retail", k=3, mw=3.0)  # shed: no pipe traffic
            assert info.value.retry_after == pytest.approx(10.0, abs=0.5)
            assert router._breakers[0].rejections == 1
            # Cooldown elapses; the half-open probe still finds the dead
            # handle (one more failure -> reopen), but the respawn now
            # succeeds, so the slot holds a healthy worker again.
            router._spawn = original_spawn
            clock.advance(10.0)
            with pytest.raises(ShardDownError):
                router.create_session("retail", k=3, mw=3.0)
            assert router.restarts == 3
            # The next probe reaches the healthy worker and closes the
            # circuit; the crashed session stayed dead (memory-only).
            clock.advance(10.0)
            replacement = router.create_session("retail", k=3, mw=3.0)
            assert router._breakers[0].state == "closed"
            with pytest.raises(UnknownSessionError):
                router.render(sid)
            # A *typed* application error counts as breaker SUCCESS (the
            # pipe answered): shedding never triggers on client mistakes.
            with pytest.raises(ReproError):
                router.create_session("no-such-table", k=3, mw=3.0)
            assert router._breakers[0].state == "closed"
            assert router.expand(replacement)
        finally:
            router.close()

    def test_stale_generation_observer_cannot_double_restart(self, retail):
        """Regression for the double-restart race: when a respawn fails,
        the slot keeps the SAME (reaped) handle object, so the old
        identity-only first-observer check let a thread that captured
        the handle *before* the first recovery trigger a second restart
        for the same underlying failure.  The generation guard makes
        that stale observer a no-op."""
        router = ShardRouter(1)
        try:
            router.register_table("retail", retail)
            sid = router.create_session("retail", k=3, mw=3.0)
            shard = router._shards[0]
            stale_generation = router._generations[0]
            original_spawn = router._spawn
            router._spawn = lambda index, **kwargs: (_ for _ in ()).throw(
                ServingError("injected: respawn refused")
            )
            shard.process.kill()
            with pytest.raises(ShardDownError):
                router.render(sid)
            assert router.restarts == 1
            # The failed respawn left the same handle in the slot: the
            # identity check alone would admit this stale observer.
            assert router._shards[0] is shard
            assert router._recover_slot(shard, stale_generation) is False
            assert router.restarts == 1  # no second restart
            # A current-generation observer is a legitimate retry.
            router._spawn = original_spawn
            assert router._recover_slot(shard, router._generations[0]) is True
            assert router.restarts == 2
            assert router.create_session("retail", k=3, mw=3.0)
        finally:
            router.close()

    def test_concurrent_requests_on_a_wedged_shard_restart_it_once(self, retail):
        with ShardRouter(1) as router:
            router.register_table("retail", retail)
            sid = router.create_session("retail", k=3, mw=3.0)
            router.inject_chaos(
                0, [ChaosRule(kind="wedge", op="render", seconds=60.0)]
            )
            errors: list[Exception] = []

            def hit() -> None:
                try:
                    router.render(sid, deadline=1.0)
                except Exception as exc:  # noqa: BLE001 - collected for assert
                    errors.append(exc)

            threads = [threading.Thread(target=hit) for _ in range(2)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60.0)
            assert not any(thread.is_alive() for thread in threads)
            # Both callers got a typed error (deadline for the wedged
            # holder and the lock-starved waiter; shard-down for a
            # waiter that raced the condemned handle) -- and the two
            # observers produced exactly ONE restart between them.
            assert len(errors) == 2
            assert all(
                isinstance(exc, (DeadlineExceededError, ShardDownError))
                for exc in errors
            )
            assert router.restarts == 1
            assert router.wedge_kills == 1

    def test_read_retries_make_reads_transparent_across_a_crash(
        self, retail, tmp_path
    ):
        with ShardRouter(1, persist_dir=tmp_path, read_retries=1, retry_seed=7) as router:
            sid, expected = self._seed_session(router, retail)
            router._shards[0].process.kill()
            # One transparent retry: the first attempt observes the
            # crash (restarting + warm-restoring the shard), the second
            # lands on the replacement.  Read-only, so safe.
            assert router.render(sid) == expected
            assert router.restarts == 1

    def test_mutating_ops_are_never_retried(self, retail, tmp_path):
        with ShardRouter(1, persist_dir=tmp_path, read_retries=3, retry_seed=7) as router:
            sid, _expected = self._seed_session(router, retail)
            router._shards[0].process.kill()
            with pytest.raises(ShardDownError):
                router.expand(sid)  # may have been half-applied: surface it
            assert router.restarts == 1

    def test_control_ops_are_exempt_from_the_default_deadline(self, retail):
        """A ``"control"`` op (a warm-restoring registration) may run past
        the tier's default deadline; a session op may not."""
        with ShardRouter(1, default_deadline=0.2) as router:
            router.inject_chaos(
                0, [ChaosRule(kind="delay", op="register_table", seconds=0.5)]
            )
            router.register_table("retail", retail)
            router.inject_chaos(
                0, [ChaosRule(kind="delay", op="create_session", seconds=0.5)]
            )
            with pytest.raises(DeadlineExceededError):
                router.create_session("retail", k=3, mw=3.0)

    def test_probe_recovers_a_crashed_shard_without_request_traffic(
        self, retail, tmp_path
    ):
        with ShardRouter(1, persist_dir=tmp_path) as router:
            sid, expected = self._seed_session(router, retail)
            router._shards[0].process.kill()
            assert router.probe_shards() == [0]  # the watchdog's sweep
            assert router.restarts == 1
            assert router.probe_shards() == []  # healthy: sweep is a no-op
            assert router.render(sid) == expected

    def test_probe_kills_a_shard_wedged_on_a_deadline_less_request(
        self, retail, tmp_path
    ):
        with ShardRouter(1, persist_dir=tmp_path, wedge_timeout=0.5) as router:
            sid, expected = self._seed_session(router, retail)
            router.inject_chaos(
                0, [ChaosRule(kind="wedge", op="render", seconds=120.0)]
            )
            caught: list[Exception] = []

            def blocked_render() -> None:
                try:
                    router.render(sid)  # no deadline: would hang forever
                except Exception as exc:  # noqa: BLE001
                    caught.append(exc)

            thread = threading.Thread(target=blocked_render)
            thread.start()
            give_up = time.monotonic() + 30.0
            while router._shards[0].busy_since is None and time.monotonic() < give_up:
                time.sleep(0.01)
            assert router._shards[0].busy_since is not None
            time.sleep(0.6)  # let the wedge budget expire
            assert router.probe_shards() == [0]
            assert router.wedge_kills == 1
            thread.join(timeout=60.0)
            assert not thread.is_alive()
            assert caught and isinstance(caught[0], ShardDownError)
            assert router.render(sid) == expected

    def test_background_watchdog_thread_restarts_on_its_own(self, retail):
        with ShardRouter(1, watchdog_interval=0.2) as router:
            router.register_table("retail", retail)
            assert router.watchdog is not None and router.watchdog.is_alive()
            router._shards[0].process.kill()
            give_up = time.monotonic() + 60.0
            # Wait for the recovery to *finish* (the restart counter
            # increments when recovery begins; the replacement worker is
            # installed and re-registered a moment later).
            while (
                router.restarts < 1 or router._recovering[0]
            ) and time.monotonic() < give_up:
                time.sleep(0.05)
            assert router.restarts == 1  # no request ever observed the crash
            assert router.create_session("retail", k=2, mw=3.0)
            stats = router.stats()
            assert stats["router"]["watchdog"]["ticks"] >= 1
            assert stats["router"]["wedge_kills"] == 0
            assert all("breaker" in entry for entry in stats["shards"])

    def test_stats_surface_the_fault_layer(self, retail):
        with ShardRouter(1, default_deadline=30.0) as router:
            router.register_table("retail", retail)
            stats = router.stats()["router"]
            assert stats["default_deadline"] == 30.0
            assert stats["deadline_aborts"] == 0
            assert stats["wedge_kills"] == 0
            assert stats["watchdog"] is None  # not started by default
