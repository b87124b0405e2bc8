"""SessionRegistry: TTL expiry, LRU eviction, close semantics.

Also covers the session-level satellite: ``close()`` idempotent and
eviction-safe, use-after-close raising ``SessionClosedError``.
"""

from __future__ import annotations

import threading

import pytest

from repro.errors import SessionClosedError, ServingError, UnknownSessionError
from repro.serving import SessionRegistry
from repro.session import DrillDownSession


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


def _session(retail, **kwargs) -> DrillDownSession:
    return DrillDownSession(retail, k=3, mw=3.0, **kwargs)


class TestLookup:
    def test_add_and_get(self, retail):
        registry = SessionRegistry()
        session = _session(retail)
        entry = registry.add(session, tenant="alice")
        assert registry.get(entry.session_id) is session
        assert registry.entry(entry.session_id).tenant == "alice"
        assert len(registry) == 1

    def test_unknown_id(self):
        with pytest.raises(UnknownSessionError):
            SessionRegistry().get("sess-999999")

    def test_session_ids_filter_by_tenant(self, retail):
        registry = SessionRegistry()
        a = registry.add(_session(retail), tenant="alice").session_id
        b = registry.add(_session(retail), tenant="bob").session_id
        assert registry.session_ids(tenant="alice") == (a,)
        assert set(registry.session_ids()) == {a, b}

    def test_invalid_capacity(self):
        with pytest.raises(ServingError):
            SessionRegistry(max_sessions=0)


class TestTTL:
    def test_idle_session_expires(self, retail):
        clock = FakeClock()
        registry = SessionRegistry(ttl_seconds=60.0, clock=clock)
        session = _session(retail)
        sid = registry.add(session, tenant="alice").session_id
        clock.advance(61.0)
        with pytest.raises(UnknownSessionError):
            registry.get(sid)
        assert session.closed and registry.ttl_evictions == 1

    def test_lookup_refreshes_ttl(self, retail):
        clock = FakeClock()
        registry = SessionRegistry(ttl_seconds=60.0, clock=clock)
        sid = registry.add(_session(retail)).session_id
        clock.advance(40.0)
        registry.get(sid)  # touch
        clock.advance(40.0)
        assert registry.get(sid) is not None  # 40s idle, not 80s

    def test_evict_expired_reports_ids(self, retail):
        clock = FakeClock()
        registry = SessionRegistry(ttl_seconds=10.0, clock=clock)
        sid = registry.add(_session(retail)).session_id
        clock.advance(11.0)
        assert registry.evict_expired() == [sid]
        assert len(registry) == 0


class TestLRU:
    def test_capacity_evicts_least_recently_used(self, retail):
        registry = SessionRegistry(max_sessions=2)
        s1, s2, s3 = (_session(retail) for _ in range(3))
        sid1 = registry.add(s1).session_id
        sid2 = registry.add(s2).session_id
        registry.get(sid1)  # sid2 is now the LRU
        registry.add(s3)
        assert s2.closed and not s1.closed and not s3.closed
        assert sid2 not in registry and registry.lru_evictions == 1


class TestCloseSemantics:
    def test_close_is_idempotent(self, retail):
        session = _session(retail)
        session.close()
        session.close()
        assert session.closed

    def test_registry_close_then_unknown(self, retail):
        registry = SessionRegistry()
        sid = registry.add(_session(retail)).session_id
        assert registry.close(sid) is True
        assert registry.close(sid) is False
        with pytest.raises(UnknownSessionError):
            registry.get(sid)

    def test_use_after_close_raises_typed_error(self, retail):
        session = _session(retail)
        session.expand(session.root.rule)
        session.close()
        for operation in (
            lambda: session.expand(session.root.rule),
            lambda: session.expand_star(session.root.rule, "Region"),
            lambda: session.expand_traditional(session.root.rule, "Store"),
            lambda: session.collapse(session.root.rule),
            lambda: session.refresh_exact_counts(),
        ):
            with pytest.raises(SessionClosedError):
                operation()
        # Read-only access keeps working on the last displayed tree.
        assert len(session.displayed()) == 4
        assert session.to_text().strip()

    def test_on_close_fires_exactly_once(self, retail):
        fired = []
        session = _session(retail, on_close=fired.append)
        session.close()
        session.close()
        assert fired == [session]

    def test_close_during_inflight_expand_lets_it_finish(self, retail, monkeypatch):
        """Eviction mid-expand: the expand completes, later calls raise
        SessionClosedError."""
        session = DrillDownSession(retail, k=3, mw=3.0)
        started = threading.Event()
        release = threading.Event()
        original = session._acquire

        def stalled_acquire(rule):
            started.set()
            release.wait(timeout=10.0)
            return original(rule)

        monkeypatch.setattr(session, "_acquire", stalled_acquire)
        results: dict = {}

        def run():
            results["children"] = session.expand(session.root.rule)

        worker = threading.Thread(target=run)
        worker.start()
        assert started.wait(timeout=10.0)
        session.close()  # mid-expand, from another thread
        assert session.closed
        release.set()
        worker.join(timeout=10.0)
        assert not worker.is_alive()
        assert results["children"]  # the in-flight expand completed
        with pytest.raises(SessionClosedError):
            session.expand(session.root.rule)

    def test_close_all(self, retail):
        registry = SessionRegistry()
        sessions = [_session(retail) for _ in range(3)]
        for s in sessions:
            registry.add(s)
        registry.close_all()
        assert len(registry) == 0 and all(s.closed for s in sessions)

    def test_stats(self, retail):
        registry = SessionRegistry(max_sessions=8, ttl_seconds=60.0)
        registry.add(_session(retail), tenant="alice")
        registry.add(_session(retail), tenant="alice")
        registry.add(_session(retail), tenant="bob")
        stats = registry.stats()
        assert stats["sessions"] == 3
        assert stats["per_tenant"] == {"alice": 2, "bob": 1}
