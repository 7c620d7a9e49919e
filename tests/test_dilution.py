"""Unit tests for the dilution false-negative model."""

import math

import numpy as np
import pytest

from poolscreen.dilution import (
    DilutionScenario,
    expected_positives_per_pool,
    individual_false_negative_rate,
    introduced_false_negative_rate,
    max_pool_size_for_threshold,
    pooled_false_negative_rate,
)
from poolscreen.simulation import simulate_particle_miss_rate


def scenario(**kwargs) -> DilutionScenario:
    base = dict(
        aliquot_volume=1.0,
        sample_volume=20.0,
        concentration=5.0,  # 100 expected particles per sample
        pool_size=10,
        prevalence=0.01,
    )
    base.update(kwargs)
    return DilutionScenario(**base)


class TestIndividualRate:
    def test_reference_value(self):
        # 100 particles, aliquot is 5% of the sample: 0.95^100
        assert individual_false_negative_rate(scenario()) == pytest.approx(
            0.95**100, rel=1e-12
        )
        assert individual_false_negative_rate(scenario()) == pytest.approx(5.92e-3, rel=0.002)

    def test_zero_concentration_always_missed(self):
        assert individual_false_negative_rate(scenario(concentration=0.0)) == 1.0

    def test_whole_sample_tested_never_missed(self):
        sc = scenario(aliquot_volume=20.0)
        assert individual_false_negative_rate(sc) == 0.0

    def test_aliquot_bound(self):
        with pytest.raises(ValueError):
            scenario(aliquot_volume=21.0)


class TestExpectedPositives:
    def test_single_sample(self):
        assert expected_positives_per_pool(1, 0.37) == 1.0

    def test_reference_value(self):
        assert expected_positives_per_pool(10, 0.01) == pytest.approx(1.046, abs=5e-4)

    def test_everyone_positive(self):
        assert expected_positives_per_pool(7, 1.0) == 7.0

    def test_bounds(self):
        for n in (1, 2, 10, 64):
            for p in (0.001, 0.05, 0.5, 0.99):
                val = expected_positives_per_pool(n, p)
                assert 1.0 <= val <= n

    def test_rejects_zero_prevalence(self):
        with pytest.raises(ValueError):
            expected_positives_per_pool(10, 0.0)

    def test_numpy_integer_pool_size(self):
        assert expected_positives_per_pool(np.int64(4), 0.1) == expected_positives_per_pool(4, 0.1)
        numpy_sized = scenario(pool_size=np.int64(4))
        assert pooled_false_negative_rate(numpy_sized) == pooled_false_negative_rate(
            scenario(pool_size=4)
        )
        with pytest.raises(ValueError):
            scenario(pool_size=4.0)


class TestPooledRate:
    def test_pool_of_one_is_individual(self):
        for conc in (0.1, 1.0, 5.0):
            sc = scenario(concentration=conc, pool_size=1)
            assert pooled_false_negative_rate(sc) == individual_false_negative_rate(sc)

    def test_reference_value(self):
        # dilution by 10 turns a 0.6% miss rate into ~59%
        assert pooled_false_negative_rate(scenario()) == pytest.approx(0.592, abs=5e-4)

    def test_zero_concentration(self):
        assert pooled_false_negative_rate(scenario(concentration=0.0)) == 1.0

    def test_monotone_in_pool_size(self):
        for conc in (0.5, 2.0, 5.0, 20.0):
            for p in (0.001, 0.01, 0.1, 0.5):
                rates = [
                    pooled_false_negative_rate(scenario(concentration=conc, pool_size=n, prevalence=p))
                    for n in range(1, 65)
                ]
                assert all(a <= b + 1e-12 for a, b in zip(rates, rates[1:]))

    def test_vanishes_at_high_concentration(self):
        sc = scenario(concentration=1e6)
        assert individual_false_negative_rate(sc) == pytest.approx(0.0, abs=1e-12)
        assert pooled_false_negative_rate(sc) == pytest.approx(0.0, abs=1e-12)


class TestMaxPoolSize:
    def test_vacuous_threshold_returns_cap(self):
        assert max_pool_size_for_threshold(scenario(), 1.0, max_pool=32) == 32

    def test_zero_concentration_returns_cap(self):
        assert max_pool_size_for_threshold(scenario(concentration=0.0), 0.0, max_pool=24) == 24

    def test_boundary_is_sharp(self):
        sc = scenario()
        threshold = 0.05
        n = max_pool_size_for_threshold(sc, threshold, max_pool=64)
        assert introduced_false_negative_rate(sc.with_pool_size(n)) <= threshold
        if n < 64:
            assert introduced_false_negative_rate(sc.with_pool_size(n + 1)) > threshold

    def test_no_pooling_acceptable(self):
        assert max_pool_size_for_threshold(scenario(), 1e-6, max_pool=64) == 1


class TestParticleSimulation:
    def test_matches_formula_within_three_se(self):
        sc = scenario()
        reps = 100_000
        rate = simulate_particle_miss_rate(sc, reps, seed=20240314)
        expected = individual_false_negative_rate(sc)
        se = math.sqrt(expected * (1 - expected) / reps)
        assert abs(rate - expected) <= 3 * se

    def test_zero_particles(self):
        assert simulate_particle_miss_rate(scenario(concentration=0.0), 100, seed=1) == 1.0
