"""Tests for the SampleHandler (§4.3): Find / Combine / Create, eviction."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import Rule, STAR, count
from repro.datasets import generate_zipf_table
from repro.errors import SamplingError
from repro.sampling import SampleHandler
from repro.storage import DiskTable


@pytest.fixture
def table():
    return generate_zipf_table(
        20_000, [4, 6, 8], skew=1.0, seed=3, column_names=["A", "B", "C"]
    )


@pytest.fixture
def disk(table):
    return DiskTable(table, page_rows=1024)


def handler(disk, **kw) -> SampleHandler:
    defaults = dict(
        memory_capacity=6_000, min_sample_size=1_000, rng=np.random.default_rng(0)
    )
    defaults.update(kw)
    return SampleHandler(disk, **defaults)


class TestCreate:
    def test_first_access_creates(self, disk):
        h = handler(disk)
        sample, method = h.get_sample(Rule.trivial(3))
        assert method == "create"
        # Default oversample of 3× gives Combine headroom.
        assert sample.size == 3000
        assert sample.population == 20_000
        assert sample.scale == pytest.approx(20_000 / 3000)
        assert disk.io_stats.scans_completed == 1

    def test_sample_rows_covered_by_filter(self, disk, table):
        h = handler(disk)
        rule = Rule(["A_v0", STAR, STAR])
        sample, method = h.get_sample(rule)
        assert method == "create"
        assert all(row[0] == "A_v0" for row in sample.table.rows())

    def test_scale_reflects_exact_population(self, disk, table):
        h = handler(disk)
        rule = Rule(["A_v0", STAR, STAR])
        sample, _ = h.get_sample(rule)
        assert sample.population == count(rule, table)

    def test_uncoverable_rule_raises(self, disk):
        h = handler(disk)
        with pytest.raises(SamplingError):
            h.get_sample(Rule(["nope", STAR, STAR]))

    def test_co_create_batches_one_pass(self, disk):
        h = handler(disk)
        extra = Rule([STAR, "B_v0", STAR])
        h.get_sample(Rule.trivial(3), co_create={extra: 800})
        assert disk.io_stats.scans_completed == 1
        assert extra in h.samples


class TestFind:
    def test_second_access_is_free(self, disk):
        h = handler(disk)
        h.get_sample(Rule.trivial(3))
        scans = disk.io_stats.scans_completed
        _, method = h.get_sample(Rule.trivial(3))
        assert method == "find"
        assert disk.io_stats.scans_completed == scans

    def test_undersized_sample_not_found(self, disk):
        h = handler(disk)
        # Co-created small sample cannot serve a find.
        small_rule = Rule([STAR, "B_v0", STAR])
        h.get_sample(Rule.trivial(3), co_create={small_rule: 200})
        _, method = h.get_sample(small_rule)
        assert method in ("combine", "create")


class TestCombine:
    def test_combines_from_root_sample(self, disk, table):
        h = handler(disk, min_sample_size=1000, memory_capacity=20_000)
        root, _ = h.get_sample(Rule.trivial(3))
        # Pick a rule covering well over minSS/|root| of the table.
        rule = Rule(["A_v0", STAR, STAR])
        scans = disk.io_stats.scans_completed
        sample, method = h.get_sample(rule)
        assert method == "combine"
        assert disk.io_stats.scans_completed == scans  # no disk pass
        assert sample.size >= 1000
        assert all(row[0] == "A_v0" for row in sample.table.rows())

    def test_combined_scale_estimates_population(self, disk, table):
        h = handler(disk, min_sample_size=1000, memory_capacity=20_000)
        h.get_sample(Rule.trivial(3))
        rule = Rule(["A_v0", STAR, STAR])
        sample, method = h.get_sample(rule)
        assert method == "combine"
        true = count(rule, table)
        assert sample.scale * sample.size == pytest.approx(true, rel=0.15)

    def test_combine_deduplicates_row_ids(self, disk):
        h = handler(disk, min_sample_size=500, memory_capacity=20_000)
        h.get_sample(Rule.trivial(3))
        rule = Rule(["A_v0", STAR, STAR])
        h.get_sample(rule)  # combine, stored
        combined = h.samples[rule]
        assert len(set(combined.row_ids.tolist())) == combined.size

    def test_effective_sample_size(self, disk):
        h = handler(disk)
        h.get_sample(Rule.trivial(3))
        rule = Rule(["A_v0", STAR, STAR])
        ess = h.effective_sample_size(rule)
        restricted = sum(
            1 for row in h.samples[Rule.trivial(3)].table.rows() if row[0] == "A_v0"
        )
        assert ess == restricted


class TestEviction:
    def test_memory_budget_respected(self, disk):
        h = handler(disk, memory_capacity=2_500, min_sample_size=1_000)
        h.get_sample(Rule.trivial(3))
        h.get_sample(Rule(["A_v0", STAR, STAR]))
        h.get_sample(Rule([STAR, "B_v0", STAR]))
        assert h.memory_used() <= 2_500

    @pytest.mark.parametrize("unit, capacity", [("tuples", 4_000), ("cells", 8_000)])
    def test_protected_overshoot_shrinks_to_the_largest_fit(self, disk, unit, capacity):
        # Two protected single-column samples of 2 500 tuples (2 cells a
        # tuple) overshoot the budget by 1 000 tuples / 2 000 cells; the
        # largest is shrunk to 1 500 tuples, which fills it exactly.
        h = handler(disk, memory_capacity=capacity, budget_unit=unit)
        a, b = Rule(["A_v0", STAR, STAR]), Rule([STAR, "B_v0", STAR])
        h._create({a: 2_500, b: 2_500})
        assert h.memory_used() == capacity
        assert sorted(s.size for s in h.samples.values()) == [1_500, 2_500]

    def test_lru_eviction_order(self, disk):
        h = handler(disk, memory_capacity=2_000, min_sample_size=1_000)
        first = Rule.trivial(3)
        second = Rule(["A_v0", STAR, STAR])
        third = Rule([STAR, "B_v0", STAR])
        h.get_sample(first)
        h.get_sample(second)  # evicts nothing yet (2000 budget, 2 x 1000)
        h.get_sample(third)  # evicts the least recently used: first
        assert first not in h.samples
        assert third in h.samples

    def test_events_log(self, disk):
        h = handler(disk)
        h.get_sample(Rule.trivial(3))
        h.get_sample(Rule.trivial(3))
        methods = [e.method for e in h.events]
        assert methods == ["create", "find"]

    def test_invalid_configuration(self, disk):
        with pytest.raises(SamplingError):
            SampleHandler(disk, memory_capacity=100, min_sample_size=1_000)


class TestPrefetch:
    def test_prefetch_enables_memory_service(self, disk):
        h = handler(disk, memory_capacity=20_000, min_sample_size=1_000)
        root = Rule.trivial(3)
        h.get_sample(root)
        leaves = [
            Rule(["A_v0", STAR, STAR]),
            Rule(["A_v1", STAR, STAR]),
            Rule([STAR, "B_v1", STAR]),
        ]
        h.prefetch(root, leaves)
        scans = disk.io_stats.scans_completed
        for leaf in leaves:
            _, method = h.get_sample(leaf)
            assert method in ("find", "combine")
        assert disk.io_stats.scans_completed == scans

    def test_prefetch_skips_already_served(self, disk):
        h = handler(disk, memory_capacity=20_000, min_sample_size=200)
        root = Rule.trivial(3)
        h.get_sample(root)
        # A_v0 is frequent: the root sample already serves it at minSS=200.
        created = h.prefetch(root, [Rule(["A_v0", STAR, STAR])])
        assert created == {}

    def test_prefetch_events_flagged(self, disk):
        h = handler(disk, memory_capacity=20_000, min_sample_size=1_000)
        root = Rule.trivial(3)
        h.get_sample(root)
        h.prefetch(root, [Rule([STAR, STAR, "C_v7"])])
        assert any(e.prefetched for e in h.events)

    def test_bad_probabilities(self, disk):
        h = handler(disk)
        root = Rule.trivial(3)
        h.get_sample(root)
        with pytest.raises(SamplingError):
            h.prefetch(root, [Rule(["A_v0", STAR, STAR])], probabilities=[0.5, 0.5])

    def test_bad_safety(self, disk):
        h = handler(disk)
        root = Rule.trivial(3)
        h.get_sample(root)
        with pytest.raises(SamplingError):
            h.prefetch(root, [Rule([STAR, STAR, "C_v7"])], safety=0.5)


class TestStatisticalQuality:
    def test_created_sample_estimates_are_accurate(self, disk, table):
        """Estimated counts from a Create sample track true counts."""
        h = handler(disk, min_sample_size=2_000, memory_capacity=20_000)
        sample, _ = h.get_sample(Rule.trivial(3))
        for value in ("A_v0", "A_v1"):
            rule = Rule([value, STAR, STAR])
            estimate = sample.estimate_count(rule)
            true = count(rule, table)
            assert estimate == pytest.approx(true, rel=0.2)
