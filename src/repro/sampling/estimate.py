"""Count estimation from samples, with confidence intervals (§4.3, §4.2).

The paper displays estimated counts (sample count × ``N_s``) and notes
that "since the sample is uniformly random, we can also compute
confidence intervals on the estimated count of each displayed rule".
This module provides the estimator, normal-approximation confidence
intervals, the percent-error metric of Figure 8(b), and the Section 4.2
sample-size rule ``minSS ≫ ρ(1−x)/x``.

``z`` is ``scipy.special.ndtri``, imported at first use: the function
``scipy.stats.norm.ppf`` evaluates (bit-identical) without the ~0.4 s,
~30 MiB ``scipy.stats`` import.  Tiers serving approximate answers
pre-load it at start-up (``TableCatalog.__init__``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.core.rule import Rule, cover_mask
from repro.errors import SamplingError
from repro.sampling.sample import Sample

__all__ = [
    "CountEstimate",
    "estimate_count",
    "percent_error",
    "required_sample_size",
    "coverage_fraction_bound",
]


@dataclass(frozen=True)
class CountEstimate:
    """A count estimate with a symmetric confidence interval."""

    rule: Rule
    estimate: float
    low: float
    high: float
    confidence: float
    sample_size: int

    @property
    def half_width(self) -> float:
        return (self.high - self.low) / 2.0

    def contains(self, true_count: float) -> bool:
        """True when the interval covers ``true_count``."""
        return self.low <= true_count <= self.high


def estimate_count(sample: Sample, rule: Rule, *, confidence: float = 0.95) -> CountEstimate:
    """Estimate the full-table count of ``rule`` from ``sample``.

    Point estimate is ``N_s ×`` (sample count); the interval uses the
    normal approximation to the hypergeometric draw — the paper's
    Section 4.2 standard-deviation argument ``Dev ≈ sqrt(m·x(1−x))``
    — scaled by ``N_s``.
    """
    if not 0.0 < confidence < 1.0:
        raise SamplingError("confidence must be in (0, 1)")
    m = sample.size
    if m == 0:
        raise SamplingError("cannot estimate from an empty sample")
    covered = float(cover_mask(rule, sample.table).sum())
    point = covered * sample.scale
    if m >= sample.population > 0:
        # Full census of the covered population: the count is exact and
        # the interval collapses to the point.
        return CountEstimate(
            rule=rule,
            estimate=point,
            low=point,
            high=point,
            confidence=confidence,
            sample_size=m,
        )
    from scipy.special import ndtri  # not scipy.stats: see module docstring

    x = covered / m
    z = float(ndtri(0.5 + confidence / 2.0))
    if covered <= 0.0 or covered >= m:
        # Degenerate draw (all-out or all-in): the plug-in deviation
        # sqrt(m·x(1−x)) is 0, which would claim certainty from a
        # finite sample.  Continuity-correct the fraction so the
        # interval keeps positive width and still covers the truth.
        x_c = (covered + 0.5) / (m + 1.0)
        dev_sample = math.sqrt(m * x_c * (1.0 - x_c))
    else:
        dev_sample = math.sqrt(m * x * (1.0 - x))
    half = z * dev_sample * sample.scale
    return CountEstimate(
        rule=rule,
        estimate=point,
        low=max(point - half, 0.0),
        high=point + half,
        confidence=confidence,
        sample_size=m,
    )


def percent_error(estimated: float, actual: float) -> float:
    """Figure 8(b)'s metric: ``100·|ĉ − c| / c``.

    The denominator is floored at one tuple so an empty-cover rule
    (``actual == 0``) yields a finite error — ``inf`` here would poison
    every mean-error aggregation it enters (Figure 8(b) averages over
    rules).  With ``actual == 0`` the error is simply the estimate
    expressed in percent-of-one-tuple; 0 when both are 0.
    """
    return 100.0 * abs(estimated - actual) / max(abs(actual), 1.0)


def required_sample_size(cover_fraction: float, *, rho: float = 10.0) -> float:
    """Section 4.2: a rule covering fraction ``x`` needs ``ρ(1−x)/x``.

    Derived from requiring ``E[X] ≫ Dev(X)``, i.e. ``m·x/(1−x) ≫ 1``;
    ``rho`` is the paper's accuracy constant ``ρ``.
    """
    if not 0.0 < cover_fraction <= 1.0:
        raise SamplingError("cover_fraction must be in (0, 1]")
    return rho * (1.0 - cover_fraction) / cover_fraction


def coverage_fraction_bound(n_columns: int, min_distinct: int) -> float:
    """Lower bound on the top rule's cover fraction: ``1/(|C|·|c|)``.

    Section 4.2: the most frequent value of the smallest-domain column
    gives a rule of score ≥ |T|/|c|; dividing by the maximum weight
    |C| bounds the top rule's count from below.
    """
    if n_columns < 1 or min_distinct < 1:
        raise SamplingError("n_columns and min_distinct must be >= 1")
    return 1.0 / (n_columns * min_distinct)
