"""Unit tests for the closed-form classification design module."""

import math
import time
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from literal_procedures import (
    sterrett_expected_tests_enumerated,
    sterrett_expected_tests_recursive,
)

from poolscreen import designs
from poolscreen.designs import (
    ArrayDesign,
    ConstraintSet,
    DorfmanDesign,
    HypercubeDesign,
    SterrettDesign,
    array_expected_tests_exact,
    array_expected_tests_per_person,
    array_optimal_side,
    best_classification_design,
    classification_crossovers,
    dorfman_expected_tests_per_person,
    dorfman_optimal_batch,
    dorfman_optimal_batch_continuous,
    evaluate_design,
    hypercube_expected_tests_exact,
    hypercube_expected_tests_per_person,
    independence_gap,
    lambert_w0,
    sterrett_expected_tests_per_batch,
    sterrett_optimal_batch,
)


# ---------------------------------------------------------------------------
# Lambert W
# ---------------------------------------------------------------------------

class TestLambertW:
    def test_fixed_points(self):
        assert lambert_w0(0.0) == 0.0
        assert lambert_w0(math.e) == pytest.approx(1.0, abs=1e-14)
        assert lambert_w0(-1.0 / math.e) == pytest.approx(-1.0, abs=1e-7)

    def test_residual_small_negative(self):
        w = lambert_w0(-0.05)
        assert w * math.exp(w) == pytest.approx(-0.05, rel=1e-13)

    def test_domain(self):
        with pytest.raises(ValueError):
            lambert_w0(-0.5)

    @settings(deadline=None, max_examples=300)
    @given(st.floats(min_value=-1.0 / math.e + 1e-12, max_value=1e6))
    def test_back_substitution(self, x):
        w = lambert_w0(x)
        assert w >= -1.0 - 1e-12
        assert abs(w * math.exp(w) - x) <= 1e-12 * max(abs(x), 1e-12)

    def test_matches_scipy(self):
        from scipy.special import lambertw

        for x in np.geomspace(1e-6, 1e8, 50):
            assert lambert_w0(float(x)) == pytest.approx(
                float(lambertw(x).real), rel=1e-12
            )


# ---------------------------------------------------------------------------
# Dorfman
# ---------------------------------------------------------------------------

class TestDorfman:
    def test_zero_prevalence(self):
        assert dorfman_expected_tests_per_person(0.0, 5) == pytest.approx(0.2)

    def test_reference_cell(self):
        # 3.03 individuals/test is the published figure; the formula gives 3.00
        cost = dorfman_expected_tests_per_person(0.03, 6)
        assert cost == pytest.approx(1 / 6 + 1 - 0.97**6, abs=1e-15)
        assert 1.0 / cost == pytest.approx(3.03, rel=0.02)

    def test_batch_of_one_costs_one(self):
        assert dorfman_expected_tests_per_person(0.37, 1) == 1.0

    def test_validation(self):
        with pytest.raises(ValueError):
            dorfman_expected_tests_per_person(0.05, 0)
        with pytest.raises(ValueError):
            dorfman_expected_tests_per_person(1.2, 5)
        with pytest.raises(ValueError):
            dorfman_expected_tests_per_person(-0.1, 5)

    @settings(deadline=None, max_examples=200)
    @given(
        st.floats(min_value=1e-6, max_value=0.999),
        st.floats(min_value=1e-6, max_value=0.999),
        st.integers(min_value=2, max_value=64),
    )
    def test_monotone_in_prevalence_and_bounded(self, r1, r2, b):
        lo, hi = sorted((r1, r2))
        c_lo = dorfman_expected_tests_per_person(lo, b)
        c_hi = dorfman_expected_tests_per_person(hi, b)
        assert c_lo <= c_hi + 1e-15
        assert 0.0 < c_lo <= 1.0 + 1.0 / b

    def test_continuous_optimum_against_series(self):
        # series expansion 1/sqrt(r) + 1/2 + sqrt(r)/8 + r/3 as an
        # independent check of the Lambert-W form
        for rho in np.linspace(0.001, 0.05, 25):
            series = 1 / math.sqrt(rho) + 0.5 + math.sqrt(rho) / 8 + rho / 3
            assert dorfman_optimal_batch_continuous(rho) == pytest.approx(series, rel=0.01)

    def test_continuous_optimum_values(self):
        assert dorfman_optimal_batch_continuous(0.01) == pytest.approx(10.5, abs=0.1)
        assert dorfman_optimal_batch_continuous(0.003) == pytest.approx(18.8, abs=0.1)

    def test_continuous_optimum_domain(self):
        with pytest.raises(ValueError):
            dorfman_optimal_batch_continuous(0.0)
        with pytest.raises(ValueError):
            dorfman_optimal_batch_continuous(1.0)
        with pytest.raises(ValueError):
            dorfman_optimal_batch_continuous(0.45)  # no interior minimum

    def test_integer_optimum_reference_values(self):
        assert dorfman_optimal_batch(0.02).batch_size == 8
        assert dorfman_optimal_batch(0.3).batch_size == 3
        assert dorfman_optimal_batch(0.003).batch_size == 19

    def test_integer_optimum_brackets_continuous(self):
        for rho in np.linspace(0.001, 0.3, 100):
            b0 = dorfman_optimal_batch_continuous(rho)
            b = dorfman_optimal_batch(rho, ConstraintSet(max_pool_size=400)).batch_size
            assert b in (math.floor(b0), math.ceil(b0)), (rho, b0, b)

    def test_cap_respected(self):
        assert dorfman_optimal_batch(0.001, ConstraintSet(max_pool_size=8)).batch_size == 8


# ---------------------------------------------------------------------------
# array testing
# ---------------------------------------------------------------------------

class TestArray:
    def test_zero_prevalence(self):
        assert array_expected_tests_per_person(0.0, 8) == pytest.approx(0.25)

    def test_reference_cell(self):
        cost = array_expected_tests_per_person(0.03, 12)
        assert cost == pytest.approx(0.26040, abs=5e-6)
        assert 1.0 / cost == pytest.approx(3.84, rel=1e-3)

    def test_presumptive_variant(self):
        assert array_expected_tests_per_person(0.4, 10, confirm_stage=False) == 0.2

    def test_side_validation(self):
        with pytest.raises(ValueError):
            array_expected_tests_per_person(0.05, 1)

    def test_optimal_sides(self):
        assert array_optimal_side(0.03).side == 12
        assert array_optimal_side(0.003).side == 52

    def test_exact_form_is_larger(self):
        # positive row/column correlation means the approximation undercounts
        for rho in (0.005, 0.01, 0.03, 0.05):
            assert array_expected_tests_exact(rho, 8) > array_expected_tests_per_person(rho, 8)

    def test_exact_form_value(self):
        # brute force over every cell pair at rho=0.05, b=3:
        # P(row i and column j both positive) via inclusion-exclusion on 2b-1 cells
        rho, b = 0.05, 3
        q = 1 - rho
        expected_candidates = b * b * (1 - 2 * q**b + q ** (2 * b - 1))
        assert array_expected_tests_exact(rho, b) == pytest.approx(
            2 / b + expected_candidates / (b * b), rel=1e-14
        )

    @pytest.mark.parametrize("rho", [0.04, 0.2, 0.65])
    def test_exact_form_against_full_enumeration(self, rho):
        # enumerate all 2^(b*b) infection patterns of a 3x3 cluster and run
        # the procedure deterministically on each
        import itertools

        b = 3
        q = 1 - rho
        total = 0.0
        for bits in itertools.product([0, 1], repeat=b * b):
            grid = np.array(bits, dtype=bool).reshape(b, b)
            k = int(grid.sum())
            prob = rho**k * q ** (b * b - k)
            rows = grid.any(axis=1)
            cols = grid.any(axis=0)
            candidates = int((rows[:, None] & cols[None, :]).sum())
            total += prob * (2 * b + candidates)
        assert array_expected_tests_exact(rho, b) == pytest.approx(
            total / (b * b), rel=1e-12
        )


# ---------------------------------------------------------------------------
# hypercube testing
# ---------------------------------------------------------------------------

class TestHypercube:
    def test_low_prevalence_limit(self):
        assert hypercube_expected_tests_per_person(1e-9, 8, 3) == pytest.approx(0.375, abs=1e-6)

    def test_reference_point(self):
        assert hypercube_expected_tests_per_person(0.01, 8, 3) == pytest.approx(0.6111, abs=5e-5)

    def test_d2_equals_array_everywhere(self):
        for b in range(2, 17):
            for rho in np.linspace(0.0, 0.5, 21):
                assert hypercube_expected_tests_per_person(rho, b, 2) == pytest.approx(
                    array_expected_tests_per_person(rho, b), abs=1e-15
                )
                assert hypercube_expected_tests_exact(rho, b, 2) == pytest.approx(
                    array_expected_tests_exact(rho, b), rel=1e-12, abs=1e-15
                )

    def test_dimension_validation(self):
        with pytest.raises(ValueError):
            hypercube_expected_tests_per_person(0.05, 8, 1)

    def test_exact_form_against_full_enumeration(self):
        # all 2^8 patterns of a 2x2x2 cube, procedure run deterministically
        import itertools

        rho, b, d = 0.15, 2, 3
        q = 1 - rho
        total = 0.0
        for bits in itertools.product([0, 1], repeat=b**d):
            cube = np.array(bits, dtype=bool).reshape((b,) * d)
            k = int(cube.sum())
            prob = rho**k * q ** (b**d - k)
            cand = np.ones((b,) * d, dtype=bool)
            for axis in range(d):
                cand &= np.expand_dims(cube.any(axis=axis), axis=axis)
            total += prob * (d * b ** (d - 1) + int(cand.sum()))
        assert hypercube_expected_tests_exact(rho, b, d) == pytest.approx(
            total / b**d, rel=1e-12
        )

    @pytest.mark.parametrize("d", [40, 60])
    def test_exact_form_at_high_dimension(self, d):
        # inclusion-exclusion over the d lines through a cell, summed without
        # rounding: in floats its alternating terms cancel to nonsense
        rho, b = 0.01, 2
        q = 1 - Fraction(rho)
        candidate = 1 + sum((-1) ** k * math.comb(d, k) * q ** (k * (b - 1) + 1)
                            for k in range(1, d + 1))
        assert hypercube_expected_tests_exact(rho, b, d) == pytest.approx(
            float(Fraction(d, b) + candidate), rel=1e-14
        )

    def test_independence_gap_blows_up_with_prevalence(self):
        # the product-form approximation counts incoherent line tuples; fine
        # near zero prevalence, badly off by rho = 5% in three dimensions
        assert abs(independence_gap(0.001, 8, 3)) < 0.01
        assert abs(independence_gap(0.05, 8, 3)) > 0.5

    def test_cost_overflow_is_inf(self):
        # b^(d(d-2)) = 64^360 is far beyond the double range
        assert hypercube_expected_tests_per_person(0.5, 64, 20) == math.inf
        assert hypercube_expected_tests_per_person(0.0, 64, 20) == 20 / 64
        assert independence_gap(0.5, 64, 20) == -1.0

    def test_optimizers_survive_cost_overflow(self):
        assert designs.hypercube_optimal_side(0.01, 20).dimension == 20
        ev = best_classification_design(0.01, candidates=("hypercube",), hypercube_dimension=20)
        assert ev.design == DorfmanDesign(1)
        assert best_classification_design(0.01, hypercube_dimension=20).design.kind == "array"

    def test_documented_gap_regression_values(self):
        # the deviations of the classical approximations from the exact
        # expectations, pinned so they cannot drift silently
        assert independence_gap(0.03, 12, 2) == pytest.approx(0.0571, abs=2e-4)
        assert independence_gap(0.05, 8, 2) == pytest.approx(0.0638, abs=2e-4)
        assert independence_gap(0.01, 8, 2) == pytest.approx(0.0336, abs=2e-4)


# ---------------------------------------------------------------------------
# Sterrett testing
# ---------------------------------------------------------------------------

# the edges of the prevalence range and a sweep between them
STERRETT_EDGE_RHOS = (5e-324, 1e-300, 1e-9, 1e-6, 1e-3, 0.01, 0.1, 0.3, 0.5, 0.9, 0.999,
                      math.nextafter(1.0, 0.0), 1.0)


class TestSterrett:
    def test_zero_prevalence_single_pool_test(self):
        assert sterrett_expected_tests_per_batch(0.0, 5) == 1.0

    @pytest.mark.parametrize("rho", STERRETT_EDGE_RHOS)
    def test_closed_form_matches_recursion(self, rho):
        recursion = sterrett_expected_tests_recursive(rho, 4096)
        closed = [sterrett_expected_tests_per_batch(rho, b) for b in range(1, 4097)]
        np.testing.assert_allclose(closed, recursion[1:], rtol=1e-12, atol=0.0)

    def test_single_member_batch_and_certain_positives(self):
        for rho in (0.0,) + STERRETT_EDGE_RHOS:
            assert sterrett_expected_tests_per_batch(rho, 1) == 1.0
        # every pool is positive and every walk runs to its inferred last member
        for b in (1, 2, 9, 4096):
            assert sterrett_expected_tests_per_batch(1.0, b) == 2 * b - 1

    @pytest.mark.parametrize("b, rho", [(10**6, 1e-4), (10**6, 1e-12), (2**62, 1e-12),
                                        (2**62, 1e-300), (2**63 - 1, 5e-324)])
    def test_prices_batches_of_any_size(self, b, rho):
        cost = sterrett_expected_tests_per_batch(rho, b)
        assert 1.0 <= cost and cost / b < 1.0 + rho

    def test_no_cancellation_at_huge_batches(self):
        # n rho is tiny, so f = 1 + 3 n rho + C(n, 2) rho + O((n rho)^2 n): the
        # two terms of the plain closed form would cancel to about n ulps here
        n = 10**8 - 1
        rho = 1e-20
        expected = 1.0 + 3.0 * n * rho + n * (n - 1) / 2 * rho
        assert sterrett_expected_tests_per_batch(rho, n + 1) == pytest.approx(expected, rel=1e-15)
        assert sterrett_expected_tests_per_batch(1e-300, 2**62) == 1.0

    def test_closed_form_matches_enumeration(self):
        for rho in (0.01, 0.05, 0.1, 0.3, 0.5, 0.9):
            for b in (2, 3, 5, 8, 11):
                assert sterrett_expected_tests_per_batch(rho, b) == pytest.approx(
                    sterrett_expected_tests_enumerated(rho, b), rel=1e-12
                )

    def test_reference_cells(self):
        assert 2 / sterrett_expected_tests_per_batch(0.3, 2) == pytest.approx(1.11, rel=0.02)
        assert 9 / sterrett_expected_tests_per_batch(0.03, 9) == pytest.approx(3.70, rel=0.02)
        assert 30 / sterrett_expected_tests_per_batch(0.003, 30) == pytest.approx(12.50, rel=0.02)

    def test_optimal_batches(self):
        assert sterrett_optimal_batch(0.3).batch_size == 2
        assert sterrett_optimal_batch(0.03).batch_size == 9

    def test_enumeration_bound(self):
        with pytest.raises(ValueError):
            sterrett_expected_tests_enumerated(0.1, 21)

    def test_optimizer_takes_any_int64_cap(self):
        for cap in (4096, 5000, 2**63 - 1):
            assert sterrett_optimal_batch(0.01, ConstraintSet(max_pool_size=cap)).batch_size == 15
        assert sterrett_optimal_batch(0.3, ConstraintSet(max_pool_size=4096)).batch_size == 2


# ---------------------------------------------------------------------------
# every optimizer against its public cost function
# ---------------------------------------------------------------------------

def _smallest_argmin(cost, sizes):
    costs = [cost(b) for b in sizes]
    return sizes[costs.index(min(costs))]


def _largest_side(cluster, d):
    side = 1
    while (side + 1) ** d <= cluster:
        side += 1
    return side


# log-uniform, so that low prevalences put the optimum at the cap often
PREVALENCES = st.floats(min_value=-4.0, max_value=math.log10(0.6)).map(lambda x: 10.0**x)
CLUSTER_CAPS = st.none() | st.integers(min_value=1, max_value=20_000)


class TestOptimizersMinimizeTheirCost:
    """Each optimizer returns the smallest size reaching the minimum of its
    public cost function over 2..cap, and rejects an empty range.  The
    examples pin both stops of the search: the floor, and for Dorfman and
    the array the falling tail, where the cost tends to 1 from above."""

    @settings(deadline=None, max_examples=100)
    @given(PREVALENCES, st.integers(min_value=1, max_value=200))
    @example(0.35, 200)  # the tail falls from 7 on, and the cap beats pool 3
    @example(0.5, 3000)
    @example(0.35, 10)  # the tail falls from 7 on, but the cap costs more than pool 3
    def test_dorfman(self, rho, cap):
        cons = ConstraintSet(max_pool_size=cap)
        if cap < 2:
            with pytest.raises(ValueError, match="batch size"):
                dorfman_optimal_batch(rho, cons)
            return
        expected = _smallest_argmin(
            lambda b: dorfman_expected_tests_per_person(rho, b), range(2, cap + 1)
        )
        assert dorfman_optimal_batch(rho, cons) == DorfmanDesign(expected)

    @settings(deadline=None, max_examples=50)
    @given(st.floats(min_value=0.35, max_value=0.95), st.integers(200, 2**63 - 1))
    @example(0.5, 2**63 - 1)  # Dorfman's cost is exactly 1.0 from 2^53 on
    @example(0.6, 2**63 - 1)
    def test_falling_tail_ties_go_to_the_smaller_size(self, rho, cap):
        # the cap's cost wins here, and the least size that ties it is returned
        cons = ConstraintSet(max_pool_size=cap)
        for size, cost in (
            (dorfman_optimal_batch(rho, cons).batch_size,
             lambda b: dorfman_expected_tests_per_person(rho, b)),
            (array_optimal_side(rho, cons).side,
             lambda b: array_expected_tests_per_person(rho, b)),
        ):
            assert cost(size) == cost(cap)
            assert cost(size - 1) > cost(size)

    @settings(deadline=None, max_examples=100)
    @given(PREVALENCES, st.integers(min_value=1, max_value=200), CLUSTER_CAPS)
    @example(0.27, 3000, None)  # above 0.2643 no side beats a cost of 1
    @example(0.5, 200, None)
    def test_array(self, rho, cap, cluster):
        cons = ConstraintSet(max_pool_size=cap, max_cluster_size=cluster)
        top = cap if cluster is None else min(cap, _largest_side(cluster, 2))
        if top < 2:
            with pytest.raises(ValueError, match="array side"):
                array_optimal_side(rho, cons)
            return
        expected = _smallest_argmin(
            lambda b: array_expected_tests_per_person(rho, b), range(2, top + 1)
        )
        assert array_optimal_side(rho, cons) == ArrayDesign(expected)

    @settings(deadline=None, max_examples=100)
    @given(
        PREVALENCES,
        st.integers(min_value=1, max_value=200),
        CLUSTER_CAPS,
        st.integers(min_value=2, max_value=5),
    )
    # cluster caps at and just below an exact power, where the optimum is the cap
    @example(1e-4, 64, 27, 3)
    @example(1e-4, 64, 26, 3)
    @example(1e-4, 64, 4**5, 5)
    @example(1e-4, 64, 4**5 - 1, 5)
    @example(0.5, 200, None, 3)  # the floor stops at d = 3 even where cost(2) > 1
    def test_hypercube(self, rho, cap, cluster, d):
        cons = ConstraintSet(max_pool_size=cap, max_cluster_size=cluster)
        top = cap if cluster is None else min(cap, _largest_side(cluster, d))
        if top < 2:
            with pytest.raises(ValueError, match="hypercube side"):
                designs.hypercube_optimal_side(rho, d, cons)
            return
        expected = _smallest_argmin(
            lambda b: hypercube_expected_tests_per_person(rho, b, d), range(2, top + 1)
        )
        assert designs.hypercube_optimal_side(rho, d, cons) == HypercubeDesign(expected, d)

    @settings(deadline=None, max_examples=100)
    @given(PREVALENCES, st.integers(min_value=1, max_value=300))
    @example(0.55, 300)  # f(0) = 1 - 2 rho < 0: the cost itself never falls
    @example(1e-4, 300)  # the floor stops short of the cap, past the optimum 142
    def test_sterrett(self, rho, cap):
        cons = ConstraintSet(max_pool_size=cap)
        if cap < 2:
            with pytest.raises(ValueError, match="batch size"):
                sterrett_optimal_batch(rho, cons)
            return
        expected = _smallest_argmin(
            lambda b: sterrett_expected_tests_per_batch(rho, b) / b, range(2, cap + 1)
        )
        assert sterrett_optimal_batch(rho, cons) == SterrettDesign(expected)


# ---------------------------------------------------------------------------
# cross-design comparison
# ---------------------------------------------------------------------------

class TestBestDesign:
    def test_reciprocal_invariant(self):
        for design in (DorfmanDesign(5), ArrayDesign(8), HypercubeDesign(8, 3), SterrettDesign(7)):
            ev = evaluate_design(design, 0.04)
            assert ev.expected_tests_per_person * ev.individuals_per_test == pytest.approx(1.0)

    def test_low_prevalence_dorfman_wins(self):
        ev = best_classification_design(
            0.001, ConstraintSet(max_pool_size=8), candidates=("dorfman", "array", "hypercube")
        )
        assert ev.design.kind == "dorfman"

    def test_midrange_array_wins(self):
        ev = best_classification_design(
            0.05, ConstraintSet(max_pool_size=8), candidates=("dorfman", "array")
        )
        assert ev.design.kind == "array"

    def test_high_prevalence_individual_sentinel(self):
        ev = best_classification_design(0.5, ConstraintSet(max_pool_size=8))
        assert ev.design == DorfmanDesign(1)
        assert ev.expected_tests_per_person == 1.0

    def test_empty_candidates(self):
        with pytest.raises(ValueError):
            best_classification_design(0.05, candidates=())

    def test_cluster_cap_bounds_hypercube(self):
        # a 1000-samples-per-run lab running 3-d cubes is limited to side 10
        design = designs.hypercube_optimal_side(
            0.001, 3, ConstraintSet(max_pool_size=16, max_cluster_size=1000)
        )
        assert design.side <= 10

    @pytest.mark.parametrize("d", [2, 3, 4, 7])
    def test_cluster_cap_takes_the_integer_root(self, d):
        for k in (2, 3, 10, 999, 10**6):
            assert designs._integer_root(k**d, d) == k
            assert designs._integer_root(k**d - 1, d) == k - 1
            assert designs._integer_root(k**d + 1, d) == k
        # the float root, int((10**18 - 1) ** (1/3) + 1e-9), gives 10**6
        assert designs._integer_root(10**18 - 1, 3) == 999_999
        assert designs._integer_root(1, d) == 1

    def test_crossovers_bracket_published_band(self):
        lo, hi = classification_crossovers()
        assert 0.018 <= lo <= 0.021
        assert 0.109 <= hi <= 0.114

    @settings(deadline=None, max_examples=60)
    @given(
        st.integers(2, 40),
        st.integers(2, 40),
        st.floats(1e-4, 0.2),
        st.floats(0.01, 0.5),
        st.integers(2, 200),
    )
    @example(cap=8, side=8, lo=0.005, hi=0.2, grid=2000)
    @example(cap=3, side=4, lo=0.005, hi=0.2, grid=200)
    def test_crossovers_bisect_every_sign_change_of_the_scalar_costs(self, cap, side, lo, hi, grid):
        # the oracle samples the public scalar costs, one prevalence at a
        # time: one crossing inside each grid cell where their difference
        # changes sign, and none elsewhere
        hi = lo + hi
        cons = ConstraintSet(max_pool_size=cap)
        rhos = np.linspace(lo, hi, grid)
        signs = np.sign([
            dorfman_optimal_batch(r, cons).cost(r) - array_expected_tests_per_person(r, side)
            for r in rhos
        ])
        cells = np.nonzero(np.diff(signs) != 0)[0]
        crossings = classification_crossovers(cap, side, lo, hi, grid)
        assert len(crossings) == len(cells)
        for x, i in zip(crossings, cells):
            assert rhos[i] <= x <= rhos[i + 1]


class TestCrossoverGrid:
    """classification_crossovers prices its grid over batches 2..cap in one
    pass per size, and stops once every prevalence is settled."""

    @pytest.mark.parametrize("hi", [0.2, 0.5])
    def test_matches_the_full_loop(self, hi):
        rhos = np.linspace(0.005, hi, 200)
        log_q = np.log1p(-rhos)
        full = np.full(len(rhos), np.inf)
        for cap in range(2, 3001):
            np.minimum(full, 1.0 / cap - np.expm1(cap * log_q), out=full)
            assert np.array_equal(designs._least_dorfman_costs(rhos, log_q, cap), full), cap

    def test_huge_cap(self):
        # one pass per size up to the cap took 0.77 s at a cap of 10^5
        start = time.perf_counter()
        crossings = classification_crossovers(10**9)
        assert time.perf_counter() - start < 0.5
        assert crossings == classification_crossovers(64)


# ---------------------------------------------------------------------------
# the monotone integer search every planner runs
# ---------------------------------------------------------------------------

class TestGallop:
    @settings(deadline=None, max_examples=300)
    @given(st.integers(-1000, 1000), st.integers(2, 2**40), st.data())
    @example(lo=0, width=2, data=None)
    def test_matches_bisection(self, lo, width, data):
        # threshold in (lo, hi], where hi stands for "holds nowhere"
        hi = lo + width
        if data is None:
            threshold, t = hi, lo + 1
        else:
            threshold = data.draw(st.integers(lo + 1, hi), label="threshold")
            t = data.draw(st.integers(lo + 1, hi - 1), label="start")
        probes = []

        def holds(b):
            probes.append(b)
            return b >= threshold

        assert designs._gallop(holds, t, lo, hi) == threshold
        assert designs._first_true(lambda b: b >= threshold, lo, hi) == threshold
        assert all(lo < b < hi for b in probes)
        assert len(set(probes)) == len(probes)
        assert len(probes) <= 2 * math.ceil(math.log2(hi - lo)) + 2
