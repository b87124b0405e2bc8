"""Tests for count estimation and confidence intervals (§4.2, §4.3)."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.core import Rule, STAR, count
from repro.errors import SamplingError
from repro.sampling import (
    Sample,
    coverage_fraction_bound,
    estimate_count,
    percent_error,
    required_sample_size,
)
from repro.table import Table
from repro.datasets import generate_zipf_table


def uniform_sample(table: Table, size: int, rng: np.random.Generator) -> Sample:
    idx = np.sort(rng.choice(table.n_rows, size=size, replace=False))
    return Sample(
        filter_rule=Rule.trivial(table.n_columns),
        scale=table.n_rows / size,
        table=table.take(idx),
        row_ids=idx,
        population=table.n_rows,
    )


class TestEstimateCount:
    def test_point_estimate_unbiased_shape(self):
        """Mean of repeated estimates lands near the true count."""
        table = generate_zipf_table(5000, [6, 6], skew=1.0, seed=5)
        rule = Rule(["c0_v0", STAR])
        true = count(rule, table)
        rng = np.random.default_rng(1)
        estimates = [
            estimate_count(uniform_sample(table, 400, rng), rule).estimate
            for _ in range(60)
        ]
        assert abs(np.mean(estimates) - true) < 0.1 * true

    def test_interval_contains_estimate(self, tiny_table, rng):
        s = uniform_sample(tiny_table, 6, rng)
        est = estimate_count(s, Rule(["a", STAR, STAR]))
        assert est.low <= est.estimate <= est.high

    def test_ci_coverage_near_nominal(self):
        """~95% of 95%-CIs should contain the true count."""
        table = generate_zipf_table(5000, [5], skew=0.8, seed=9)
        rule = Rule(["c0_v0"])
        true = count(rule, table)
        rng = np.random.default_rng(2)
        hits = sum(
            estimate_count(uniform_sample(table, 500, rng), rule).contains(true)
            for _ in range(200)
        )
        assert hits >= 0.85 * 200  # loose lower bound, no flakiness

    def test_width_shrinks_with_sample_size(self):
        table = generate_zipf_table(5000, [5], skew=0.8, seed=9)
        rule = Rule(["c0_v0"])
        rng = np.random.default_rng(3)
        small = estimate_count(uniform_sample(table, 100, rng), rule)
        large = estimate_count(uniform_sample(table, 2000, rng), rule)
        assert large.half_width < small.half_width

    def test_empty_sample_rejected(self, tiny_table):
        s = Sample(Rule.trivial(3), 1.0, tiny_table.take(np.array([], dtype=np.int64)),
                   np.array([], dtype=np.int64), 0)
        with pytest.raises(SamplingError):
            estimate_count(s, Rule.trivial(3))

    def test_bad_confidence(self, tiny_table, rng):
        s = uniform_sample(tiny_table, 4, rng)
        with pytest.raises(SamplingError):
            estimate_count(s, Rule.trivial(3), confidence=1.5)


class TestNormalQuantile:
    """``estimate_count`` takes its ``z`` from ``scipy.special.ndtri``
    (imported at first use) instead of ``scipy.stats.norm.ppf``; every
    interval must stay bit-identical to the ``scipy.stats`` one."""

    @staticmethod
    def _sample() -> Sample:
        table = generate_zipf_table(5000, [5], skew=0.8, seed=9)
        return uniform_sample(table, 500, np.random.default_rng(3))

    @pytest.mark.parametrize("confidence", [0.5, 0.8, 0.9, 0.95, 0.99, 0.999])
    def test_z_equals_norm_ppf_bit_for_bit(self, monkeypatch, confidence):
        import scipy.special
        import scipy.stats

        z = float(scipy.stats.norm.ppf(0.5 + confidence / 2.0))
        used = []
        ndtri = scipy.special.ndtri
        monkeypatch.setattr(
            scipy.special, "ndtri", lambda q: used.append(float(ndtri(q))) or used[-1]
        )
        sample = self._sample()
        est = estimate_count(sample, Rule(["c0_v0"]), confidence=confidence)
        assert [u.hex() for u in used] == [z.hex()]
        x = est.estimate / sample.scale / sample.size
        half = z * math.sqrt(sample.size * x * (1.0 - x)) * sample.scale
        assert est.low.hex() == (est.estimate - half).hex()
        assert est.high.hex() == (est.estimate + half).hex()

    def test_interval_pinned_to_parent_commit(self):
        """Recorded with ``scipy.stats.norm.ppf`` before the swap."""
        est = estimate_count(self._sample(), Rule(["c0_v0"]), confidence=0.95)
        assert est.estimate == 1880.0
        assert est.low.hex() == "0x1.a0edc28a7f0f7p+10"
        assert est.high.hex() == "0x1.05891ebac0785p+11"


class TestDegenerateDraws:
    """Regressions for the zero-variance edge cases: before the
    continuity correction these intervals collapsed to a single point
    and claimed certainty from a partial sample."""

    def test_all_out_draw_keeps_positive_width(self):
        """A rule covering *no* sampled row used to yield [0, 0] even
        when the table genuinely contains matching rows."""
        table = generate_zipf_table(2000, [40], skew=1.4, seed=11)
        rule = Rule(["c0_v39"])  # rare value: usually absent from a small draw
        true = count(rule, table)
        assert true > 0  # the premise: rarity, not absence
        rng = np.random.default_rng(4)
        for _ in range(50):
            est = estimate_count(uniform_sample(table, 30, rng), rule)
            if est.estimate == 0.0:
                break
        else:
            pytest.fail("never drew a sample missing the rare value")
        assert est.half_width > 0.0
        assert est.high > 0.0  # the interval admits the value may exist

    def test_all_in_draw_keeps_positive_width(self):
        """The mirror case: every sampled row covered (x == 1) on a
        partial sample must not produce a zero-width interval."""
        table = generate_zipf_table(2000, [2], skew=3.0, seed=12)
        rule = Rule(["c0_v0"])
        rng = np.random.default_rng(5)
        for _ in range(50):
            sample = uniform_sample(table, 20, rng)
            est = estimate_count(sample, rule)
            if est.estimate == sample.scale * sample.size:
                break
        else:
            pytest.fail("never drew an all-covered sample")
        assert est.half_width > 0.0
        assert est.low < est.estimate  # the truth may be below N_s·m

    def test_census_sample_is_exact_and_zero_width(self):
        """A sample that *is* its population has no sampling error: the
        interval collapses to the exact count by design (this is what
        lets small-table serving samples short-circuit escalation)."""
        table = generate_zipf_table(50, [3], skew=0.5, seed=13)
        idx = np.arange(table.n_rows, dtype=np.int64)
        sample = Sample(Rule.trivial(1), 1.0, table.take(idx), idx, table.n_rows)
        rule = Rule(["c0_v0"])
        est = estimate_count(sample, rule)
        assert est.estimate == count(rule, table)
        assert est.half_width == 0.0
        assert est.contains(est.estimate)


class TestPercentError:
    def test_exact_match_is_zero(self):
        assert percent_error(100.0, 100.0) == 0.0

    def test_formula(self):
        assert percent_error(110.0, 100.0) == pytest.approx(10.0)
        assert percent_error(90.0, 100.0) == pytest.approx(10.0)

    def test_zero_actual_is_finite(self):
        """Regression: an empty-cover rule used to yield ``inf``, which
        poisoned every mean over per-rule errors (Figure 8(b) averages);
        the denominator is now floored at one tuple."""
        assert percent_error(0.0, 0.0) == 0.0
        assert percent_error(5.0, 0.0) == 500.0
        assert math.isfinite(percent_error(1e9, 0.0))

    def test_small_actual_floor(self):
        # |actual| < 1 uses the one-tuple floor, not the tiny denominator.
        assert percent_error(1.0, 0.5) == pytest.approx(50.0)


class TestSampleSizeRules:
    def test_required_sample_size_formula(self):
        # x = 1/6, rho = 10 → 10 * 5 = 50.
        assert required_sample_size(1 / 6, rho=10.0) == pytest.approx(50.0)

    def test_full_coverage_needs_nothing(self):
        assert required_sample_size(1.0) == 0.0

    def test_invalid_fraction(self):
        with pytest.raises(SamplingError):
            required_sample_size(0.0)

    def test_coverage_fraction_bound(self):
        # Paper: |C|=10, |c|=5 → top rule covers ≥ 1/50 of tuples.
        assert coverage_fraction_bound(10, 5) == pytest.approx(1 / 50)

    def test_coverage_bound_invalid(self):
        with pytest.raises(SamplingError):
            coverage_fraction_bound(0, 5)
