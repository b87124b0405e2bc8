"""Tests for the interactive session (rule tree, expand/collapse, sampling)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import Rule, STAR, SizeWeight
from repro.errors import SchemaError, SessionError
from repro.session import DrillDownSession
from repro.storage import DiskTable


class TestInMemorySession:
    def test_root_shows_total_count(self, retail):
        session = DrillDownSession(retail, k=3, mw=3.0)
        assert session.root.count == 6000
        assert session.root.rule.is_trivial

    def test_expand_adds_children(self, retail):
        session = DrillDownSession(retail, k=3, mw=3.0)
        children = session.expand(session.root.rule)
        assert len(children) == 3
        assert all(c.depth == 1 for c in children)
        assert session.root.is_expanded

    def test_expand_twice_rejected(self, retail):
        session = DrillDownSession(retail, k=3, mw=3.0)
        session.expand(session.root.rule)
        with pytest.raises(SessionError):
            session.expand(session.root.rule)

    def test_expand_unknown_rule_rejected(self, retail):
        session = DrillDownSession(retail, k=3, mw=3.0)
        with pytest.raises(SessionError):
            session.expand(Rule.from_named(retail, Store="Walmart"))

    def test_nested_expansion(self, retail):
        session = DrillDownSession(retail, k=3, mw=3.0)
        session.expand(session.root.rule)
        walmart = session.node(Rule.from_named(retail, Store="Walmart"))
        grandchildren = session.expand(walmart.rule)
        assert all(c.depth == 2 for c in grandchildren)
        assert len(session.displayed()) == 7  # root + 3 + 3

    def test_collapse_removes_subtree(self, retail):
        session = DrillDownSession(retail, k=3, mw=3.0)
        session.expand(session.root.rule)
        walmart = Rule.from_named(retail, Store="Walmart")
        session.expand(walmart)
        session.collapse(walmart)
        assert not session.node(walmart).is_expanded
        assert len(session.displayed()) == 4
        # Collapsing the root removes everything.
        session.collapse(session.root.rule)
        assert len(session.displayed()) == 1

    def test_collapse_unexpanded_rejected(self, retail):
        session = DrillDownSession(retail, k=3, mw=3.0)
        with pytest.raises(SessionError):
            session.collapse(session.root.rule)

    def test_collapse_then_reexpand(self, retail):
        session = DrillDownSession(retail, k=3, mw=3.0)
        first = [c.rule for c in session.expand(session.root.rule)]
        session.collapse(session.root.rule)
        second = [c.rule for c in session.expand(session.root.rule)]
        assert first == second  # deterministic roll-up/drill-down

    def test_star_expansion(self, retail):
        session = DrillDownSession(retail, k=3, mw=3.0)
        children = session.expand_star(session.root.rule, "Region")
        region_idx = retail.schema.index_of("Region")
        assert children
        assert all(not c.rule.is_star(region_idx) for c in children)

    def test_traditional_expansion(self, retail):
        session = DrillDownSession(retail, k=3, mw=3.0)
        children = session.expand_traditional(session.root.rule, "Store")
        stores = {c.rule[0] for c in children}
        assert "Walmart" in stores
        counts = [c.count for c in children]
        assert counts == sorted(counts, reverse=True)

    def test_leaves(self, retail):
        session = DrillDownSession(retail, k=3, mw=3.0)
        assert session.leaves() == [session.root]
        children = session.expand(session.root.rule)
        assert session.leaves() == children

    def test_history_records(self, retail):
        session = DrillDownSession(retail, k=3, mw=3.0)
        session.expand(session.root.rule)
        assert len(session.history) == 1
        record = session.history[0]
        assert record.kind == "rule"
        assert record.sample_method == "direct"
        assert record.wall_seconds > 0

    def test_custom_k_per_expansion(self, retail):
        session = DrillDownSession(retail, k=2, mw=3.0)
        children = session.expand(session.root.rule, k=4)
        assert len(children) == 4

    def test_measure_session(self, measure_table):
        session = DrillDownSession(measure_table, k=2, mw=2.0, measure="Sales")
        children = session.expand(session.root.rule)
        assert children
        # Counts are sums of sales, not tuple counts.
        assert any(c.count > 10 for c in children)


class TestSampledSession:
    @pytest.fixture
    def disk(self):
        from repro.datasets import generate_zipf_table

        table = generate_zipf_table(
            30_000, [4, 6, 8], skew=1.0, seed=3, column_names=["A", "B", "C"]
        )
        return DiskTable(table, page_rows=2048)

    def test_expansion_uses_sampling(self, disk):
        session = DrillDownSession(
            disk,
            k=3,
            mw=3.0,
            memory_capacity=20_000,
            min_sample_size=2_000,
            rng=np.random.default_rng(0),
        )
        children = session.expand(session.root.rule)
        assert children
        assert session.history[0].sample_method == "create"
        assert session.history[0].scale > 1.0

    @pytest.mark.parametrize("verb", ["expand_star", "expand_traditional"])
    def test_unknown_column_rejected_before_any_sample_is_read(self, disk, verb):
        """A mistyped column name fails validation before the handler
        reads or caches a sample: rejection costs no simulated I/O."""
        session = DrillDownSession(
            disk,
            k=3,
            mw=3.0,
            memory_capacity=20_000,
            min_sample_size=2_000,
            rng=np.random.default_rng(0),
        )
        io_before = disk.io_stats.simulated_seconds
        with pytest.raises(SchemaError):
            getattr(session, verb)(session.root.rule, "no_such_column")
        assert disk.io_stats.simulated_seconds == io_before
        assert len(session.handler.samples) == 0
        assert session.history == []

    def test_counts_scaled_to_population(self, disk):
        session = DrillDownSession(
            disk,
            k=3,
            mw=3.0,
            memory_capacity=20_000,
            min_sample_size=2_000,
            rng=np.random.default_rng(0),
        )
        children = session.expand(session.root.rule)
        # Scaled counts are in full-table units: the top rule covers
        # a large share of the 30k rows.
        assert max(c.count for c in children) > 5_000

    def test_prefetch_makes_followups_memory_served(self, disk):
        session = DrillDownSession(
            disk,
            k=3,
            mw=3.0,
            memory_capacity=25_000,
            min_sample_size=2_000,
            rng=np.random.default_rng(0),
            prefetch=True,
        )
        children = session.expand(session.root.rule)
        session.expand(children[0].rule)
        assert session.history[-1].sample_method in ("find", "combine")
        # The follow-up expansion itself needed no disk I/O (any scans
        # after it are the *next* background prefetch).
        assert session.history[-1].simulated_io_seconds == 0.0

    def test_no_prefetch_pays_io_on_followup(self, disk):
        session = DrillDownSession(
            disk,
            k=3,
            mw=3.0,
            memory_capacity=25_000,
            min_sample_size=6_000,
            rng=np.random.default_rng(0),
            prefetch=False,
        )
        children = session.expand(session.root.rule)
        io_before = disk.io_stats.simulated_seconds
        session.expand(children[-1].rule)
        # minSS is large relative to selectivity: the sub-rule needs disk.
        assert disk.io_stats.simulated_seconds > io_before

    def test_history_tracks_io(self, disk):
        session = DrillDownSession(
            disk, k=3, mw=3.0, min_sample_size=2_000, memory_capacity=20_000
        )
        session.expand(session.root.rule)
        assert session.history[0].simulated_io_seconds > 0
