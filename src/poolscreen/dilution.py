"""False negatives introduced by pooling dilution.

An individual qPCR test draws an aliquot of volume l from a sample of volume
T containing roughly c*T viral particles.  Viewing the sample as T/l parts
with the particles scattered uniformly among them, the test misses the
infection when the drawn part is empty:

    fn_individual ~ (1 - l/T)^(c T)

In a pool of n, each sample contributes only l/n, and a positive pool holds
n p / (1 - (1-p)^n) positive individuals on average (the conditional mean
given at least one), so

    fn_pooled ~ (1 - l/(n T))^(c T n p / (1 - (1-p)^n))

The difference fn_pooled - fn_individual is the rate of false negatives
*introduced* by pooling; it grows with the pool size, and labs should shrink
pools until it is below their tolerance.  Converting qPCR cycle thresholds to
the concentration c is protocol specific and out of scope here: c is an input.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

__all__ = [
    "DilutionScenario",
    "MonitorConfig",
    "individual_false_negative_rate",
    "expected_positives_per_pool",
    "pooled_false_negative_rate",
    "introduced_false_negative_rate",
    "max_pool_size_for_threshold",
]


@dataclass(frozen=True)
class DilutionScenario:
    """Physical parameters of a pooled qPCR test.

    aliquot_volume and sample_volume share any volume unit; concentration is
    viral particles per that unit, so concentration * sample_volume is the
    expected particle count in one sample.
    """

    aliquot_volume: float
    sample_volume: float
    concentration: float
    pool_size: int
    prevalence: float

    def __post_init__(self):
        if not self.aliquot_volume > 0:
            raise ValueError(f"aliquot volume must be positive, got {self.aliquot_volume}")
        if not self.sample_volume > 0:
            raise ValueError(f"sample volume must be positive, got {self.sample_volume}")
        if self.aliquot_volume > self.sample_volume:
            raise ValueError(
                "aliquot volume cannot exceed the sample volume "
                f"({self.aliquot_volume} > {self.sample_volume})"
            )
        if self.concentration < 0:
            raise ValueError(f"concentration must be nonnegative, got {self.concentration}")
        if not isinstance(self.pool_size, (int, np.integer)) or self.pool_size < 1:
            raise ValueError(f"pool size must be a positive integer, got {self.pool_size!r}")
        if not 0.0 <= self.prevalence <= 1.0:
            raise ValueError(f"prevalence must lie in [0, 1], got {self.prevalence}")

    @property
    def particle_count(self) -> float:
        return self.concentration * self.sample_volume

    def with_pool_size(self, n: int) -> "DilutionScenario":
        return replace(self, pool_size=n)


@dataclass(frozen=True)
class MonitorConfig:
    """Daily monitoring policy: individually test a fraction of the load and
    keep the introduced false-negative rate under a threshold."""

    individual_test_fraction: float
    introduced_fn_threshold: float

    def __post_init__(self):
        if not 0.0 < self.individual_test_fraction < 1.0:
            raise ValueError(
                "individual test fraction must lie strictly in (0, 1), "
                f"got {self.individual_test_fraction}"
            )
        if self.introduced_fn_threshold < 0:
            raise ValueError("threshold must be nonnegative")


def individual_false_negative_rate(scenario: DilutionScenario) -> float:
    """(1 - l/T)^(c T): chance an individual test samples zero particles."""
    frac = scenario.aliquot_volume / scenario.sample_volume
    if frac == 1.0:
        return 0.0 if scenario.particle_count > 0 else 1.0
    return math.exp(scenario.particle_count * math.log1p(-frac))


def expected_positives_per_pool(n_pool: int, p: float) -> float:
    """Mean positives in a pool of n, conditional on at least one: np/(1-(1-p)^n)."""
    if not isinstance(n_pool, (int, np.integer)) or n_pool < 1:
        raise ValueError(f"pool size must be a positive integer, got {n_pool!r}")
    if not 0.0 < p <= 1.0:
        raise ValueError(f"prevalence must lie in (0, 1] for the conditional mean, got {p}")
    if p == 1.0:
        return float(n_pool)
    return n_pool * p / -math.expm1(n_pool * math.log1p(-p))


def pooled_false_negative_rate(scenario: DilutionScenario) -> float:
    """(1 - l/(nT))^(c T * positives-per-pool): miss chance for a positive pool."""
    n = scenario.pool_size
    if n == 1:
        return individual_false_negative_rate(scenario)
    frac = scenario.aliquot_volume / (n * scenario.sample_volume)
    exponent = scenario.particle_count * expected_positives_per_pool(n, scenario.prevalence)
    return math.exp(exponent * math.log1p(-frac))


def introduced_false_negative_rate(scenario: DilutionScenario) -> float:
    """Excess false negatives caused by pooling: fn_pooled - fn_individual."""
    return pooled_false_negative_rate(scenario) - individual_false_negative_rate(scenario)


def max_pool_size_for_threshold(
    base: DilutionScenario, threshold: float, max_pool: int = 64
) -> int:
    """Largest pool size whose introduced false-negative rate meets a threshold.

    Scans downward from max_pool (the introduced rate only grows with the
    pool size); returns 1 when no pooling is acceptable.
    """
    if threshold < 0:
        raise ValueError(f"threshold must be nonnegative, got {threshold}")
    if max_pool < 1:
        raise ValueError(f"max_pool must be >= 1, got {max_pool}")
    for n in range(max_pool, 1, -1):
        if introduced_false_negative_rate(base.with_pool_size(n)) <= threshold:
            return n
    return 1
