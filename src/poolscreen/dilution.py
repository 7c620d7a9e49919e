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

from ._validate import instance, integer, positive_fraction, prob, real

__all__ = [
    "DilutionScenario",
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
        # stored as plain floats and ints, so NumPy scalars compute as Python numbers do
        checked = {
            "aliquot_volume": real(self.aliquot_volume, "aliquot_volume", strict=True),
            "sample_volume": real(self.sample_volume, "sample_volume", strict=True),
            "concentration": real(self.concentration, "concentration"),
            "pool_size": integer(self.pool_size, 1, "pool_size"),
            "prevalence": prob(self.prevalence),
        }
        for name, value in checked.items():
            object.__setattr__(self, name, value)
        if self.aliquot_volume > self.sample_volume:
            raise ValueError(
                "aliquot_volume cannot exceed sample_volume "
                f"({self.aliquot_volume} > {self.sample_volume})"
            )

    @property
    def particle_count(self) -> float:
        return self.concentration * self.sample_volume

    def with_pool_size(self, n: int) -> "DilutionScenario":
        return replace(self, pool_size=n)


def _miss_rate(scenario: DilutionScenario, n: int, p: float) -> float:
    """Miss chance of a positive pool of n at prevalence p (p > 0 above n = 1),
    for checked arguments; the scenario's pool size and prevalence are unread."""
    frac = scenario.aliquot_volume / (n * scenario.sample_volume)
    if n == 1:
        if frac == 1.0:
            return 0.0 if scenario.particle_count > 0 else 1.0
        return math.exp(scenario.particle_count * math.log1p(-frac))
    exponent = scenario.particle_count * (n * p / positive_fraction(p, n))
    return math.exp(exponent * math.log1p(-frac))


def individual_false_negative_rate(scenario: DilutionScenario) -> float:
    """(1 - l/T)^(c T): chance an individual test samples zero particles."""
    return _miss_rate(instance(scenario, DilutionScenario, "scenario"), 1, 0.0)


def expected_positives_per_pool(n_pool: int, p: float) -> float:
    """Mean positives in a pool of n, conditional on at least one: np/(1-(1-p)^n)."""
    n_pool = integer(n_pool, 1, "pool size")
    p = prob(p, open_zero=True)
    return n_pool * p / positive_fraction(p, n_pool)


def pooled_false_negative_rate(scenario: DilutionScenario) -> float:
    """(1 - l/(nT))^(c T * positives-per-pool): miss chance for a positive pool."""
    scenario = instance(scenario, DilutionScenario, "scenario")
    n = scenario.pool_size
    p = scenario.prevalence if n == 1 else prob(scenario.prevalence, open_zero=True)
    return _miss_rate(scenario, n, p)


def introduced_false_negative_rate(scenario: DilutionScenario) -> float:
    """Excess false negatives caused by pooling: fn_pooled - fn_individual."""
    return pooled_false_negative_rate(scenario) - individual_false_negative_rate(scenario)


def max_pool_size_for_threshold(
    base: DilutionScenario, threshold: float, max_pool: int = 64
) -> int:
    """Largest pool size whose introduced false-negative rate meets a threshold.

    Bisects on 1..max_pool (the introduced rate only grows with the pool
    size); returns 1 when no pooling is acceptable.
    """
    base = instance(base, DilutionScenario, "base")
    threshold = real(threshold, "threshold")
    max_pool = integer(max_pool, 1, "max_pool")
    lo, hi = 1, max_pool
    if introduced_false_negative_rate(base.with_pool_size(hi)) <= threshold:
        return hi
    # lo meets the threshold (a pool of 1 introduces nothing), hi misses it
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if introduced_false_negative_rate(base.with_pool_size(mid)) <= threshold:
            lo = mid
        else:
            hi = mid
    return lo
