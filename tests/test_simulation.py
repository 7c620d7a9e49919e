"""Unit tests for the Monte Carlo harness and the design kernels."""

import math
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
import scipy.stats
from hypothesis import example, given, settings
from hypothesis import strategies as st

import literal_procedures as literal

from poolscreen.designs import (
    ArrayDesign,
    DorfmanDesign,
    HypercubeDesign,
    SterrettDesign,
    array_expected_tests_exact,
    dorfman_expected_tests_per_person,
    hypercube_expected_tests_exact,
    sterrett_expected_tests_per_batch,
)
from poolscreen.dilution import DilutionScenario, pooled_false_negative_rate
from poolscreen.estimation import GibbsGowerPlan, gg_expected_estimate, gg_mse
from poolscreen import designs, simulation
from poolscreen.simulation import BLOCK_REPS, monte_carlo


# ---------------------------------------------------------------------------
# populations, as the harness draws them
# ---------------------------------------------------------------------------

def draw_positions(rows, n, p, seed):
    """The flat positions of the positives of the first `rows` populations of
    a run's first block, as the harness draws them, sub-chunk by sub-chunk."""
    rng = simulation._block_rng(seed, 0)
    chunks = simulation._draw_rows(rng, 0, rows, n, p, 1)
    return np.concatenate([positions + r.start * n for r, positions in chunks])


def dense(positions, rows, n):
    """statuses[rows, n] from the flat positions of the positives."""
    statuses = np.zeros(rows * n, bool)
    statuses[positions] = True
    return statuses.reshape(rows, n)


def draw_rows(rows, n, p, seed):
    """The first `rows` populations of a run's first block, as statuses."""
    return dense(draw_positions(rows, n, p, seed), rows, n)


def draw(n, p, seed):
    """The first population of a run's first block."""
    return draw_rows(1, n, p, seed)[0]


def stream_state(rng):
    """rng.bit_generator.state, comparable with == (Philox keeps arrays in it)."""
    return repr(rng.bit_generator.state)


def chi_square_pvalue(samples, dist, bins=30):
    """p-value of a chi-square test of integer samples against a discrete
    scipy distribution, over bins of about equal probability."""
    # bin i holds (edges[i - 1], edges[i]]; the last one everything above
    edges = np.unique(dist.ppf(np.linspace(0.0, 1.0, bins + 1)[1:-1]))
    observed = np.bincount(np.searchsorted(edges, samples), minlength=len(edges) + 1)
    expected = len(samples) * np.diff(np.concatenate([[0.0], dist.cdf(edges), [1.0]]))
    assert expected.min() >= 5
    stat = ((observed - expected) ** 2 / expected).sum()
    return scipy.stats.chi2.sf(stat, len(expected) - 1)


class TestPopulations:
    def test_extremes(self):
        assert not draw(500, 0.0, 3).any()
        assert draw(500, 1.0, 3).all()

    def test_regeneration_is_bit_identical(self):
        assert np.array_equal(draw(10_000, 0.07, 99), draw(10_000, 0.07, 99))

    def test_binomial_concentration(self):
        count = int(draw(1_000_000, 0.01, seed=7).sum())
        sd = math.sqrt(1_000_000 * 0.01 * 0.99)
        assert abs(count - 10_000) <= 3 * sd

    @settings(max_examples=100, deadline=None)
    @given(
        p=st.one_of(st.sampled_from([0.0, 1.0, 5e-324, 0.5]), st.floats(0.0, 1.0)),
        rows=st.integers(1, 40),
        n=st.integers(1, 40),
        unit=st.integers(1, 50),
        rows_per_chunk=st.integers(1, 20),
        gap_batch=st.sampled_from([1, 3, 64, simulation._GAP_BATCH]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_sub_chunks_match_one_whole_draw(self, p, rows, n, unit, rows_per_chunk,
                                             gap_batch, seed):
        # positives drawn in sub-chunks, moved by their sub-chunk's offset,
        # equal one whole draw, and leave the stream where that draw leaves
        # it; small gap batches carry the last position across batches as
        # well as across sub-chunks and rows
        rng, twin = simulation._block_rng(seed, 3), simulation._block_rng(seed, 3)
        budget = 8 * -(-n // unit) * unit * rows_per_chunk
        with mock.patch.object(simulation, "_GAP_BATCH", gap_batch):
            (rows_whole, whole), = simulation._draw_rows(twin, 5, 5 + rows, n, p, unit)
            with mock.patch.object(simulation, "_DRAW_BYTES", budget):
                chunks = list(simulation._draw_rows(rng, 5, 5 + rows, n, p, unit))
        assert rows_whole == slice(5, 5 + rows)
        assert [r for r, _ in chunks] == [
            slice(a, min(a + rows_per_chunk, 5 + rows)) for a in range(5, 5 + rows, rows_per_chunk)
        ]
        for r, positions in chunks + [(rows_whole, whole)]:
            # strictly increasing int64 positions inside the sub-chunk
            assert positions.dtype == np.int64
            assert (np.diff(positions) > 0).all()
            assert ((0 <= positions) & (positions < (r.stop - r.start) * n)).all()
        moved = [positions + (r.start - 5) * n for r, positions in chunks]
        assert np.array_equal(np.concatenate(moved), whole)
        assert stream_state(rng) == stream_state(twin)

    @pytest.mark.parametrize("p", [0.005, 0.0175, 0.1, 0.3, 0.7, 0.95])
    def test_counts_and_gaps_by_chi_square(self, p):
        # 10^7 statuses: per-row positive counts against Binomial(n, p), and
        # the gaps between occurrences of the rarer outcome, over the whole
        # row-after-row sequence, against Geometric(min(p, 1 - p)) failures
        rows, n = 4000, 2500
        statuses = draw_rows(rows, n, p, seed=17)
        rare = min(p, 1.0 - p)
        positions = np.flatnonzero(statuses if p <= 0.5 else ~statuses)
        gaps = np.diff(positions, prepend=-1) - 1
        assert chi_square_pvalue(statuses.sum(axis=1), scipy.stats.binom(n, p)) > 1e-4
        assert chi_square_pvalue(gaps, scipy.stats.geom(rare, loc=-1)) > 1e-4

    @pytest.mark.parametrize("p, batches, positive", [
        (0.0, 0, False),
        (1.0, 0, True),
        (5e-324, 1, False),
        (2.0**-53, 1, False),
        (math.nextafter(1.0, 0.0), 1, True),
    ])
    def test_extreme_prevalences(self, p, batches, positive):
        # every status is the likely outcome, r = 0 reads nothing, and a
        # tiny r one batch, whose gaps, past the block, are clipped to it
        rng, twin = simulation._block_rng(4, 0), simulation._block_rng(4, 0)
        (_, positions), = simulation._draw_rows(rng, 0, 300, 1000, p, 1)
        assert np.array_equal(positions, np.arange(300_000 if positive else 0))
        twin.random(batches * simulation._GAP_BATCH)
        assert stream_state(rng) == stream_state(twin)

    def test_inverted_draws_around_one_half(self):
        # above 1/2 the negatives' gaps are drawn, so p and 1 - p read the
        # same positions from the same stream, and the positives above 1/2
        # are their exact complement; at 1/2 the positives' are drawn
        above = math.nextafter(0.5, 1.0)
        half, high, low = (draw_positions(200, 500, q, seed=8) for q in (0.5, above, 1.0 - above))
        assert np.array_equal(high, np.setdiff1d(np.arange(100_000), low))
        for positions in (half, high):
            assert abs(len(positions) - 50_000) <= 5 * math.sqrt(100_000 / 4)

    def test_validation(self, monkeypatch):
        # an empty population is rejected before any status is drawn
        def no_draw(*args, **kwargs):
            raise AssertionError("statuses drawn for an empty population")

        monkeypatch.setattr(simulation, "_block_rng", no_draw)
        with pytest.raises(ValueError, match="population_size"):
            monte_carlo(DorfmanDesign(5), 0.1, 0, 1, seed=1)


@pytest.mark.parametrize("seed", [2.5, "1", -1, None], ids=["float", "str", "negative", "none"])
def test_seed_must_be_a_nonnegative_integer(seed):
    noise = DilutionScenario(1.0, 20.0, 5.0, 1, 0.01)
    calls = [
        lambda s: monte_carlo(DorfmanDesign(5), 0.05, 100, 10, seed=s),
        lambda s: simulation.simulate_particle_miss_rate(noise, 10, s),
    ]
    for call in calls:
        with pytest.raises(ValueError, match="seed"):
            call(seed)
        assert call(np.int64(3)) == call(3)


# ---------------------------------------------------------------------------
# the kernels on single populations, traced by hand
# ---------------------------------------------------------------------------

class TestRunners:
    def test_dorfman_all_negative(self):
        assert literal.kernel_outcomes(DorfmanDesign(5).block, [False] * 100) == [(20, 0, 0)]

    def test_dorfman_all_positive(self):
        assert literal.kernel_outcomes(DorfmanDesign(5).block, [True] * 100) == [(120, 0, 0)]

    def test_dorfman_partial_tail_pool(self):
        # 7 people in pools of 5: tail pool has 2 real members
        statuses = [False] * 5 + [True, False]
        assert literal.kernel_outcomes(DorfmanDesign(5).block, statuses) == [(2 + 2, 0, 0)]

    def test_confirmed_designs_classify_everyone_correctly(self):
        statuses = np.random.default_rng(11).random(101) < 0.2
        for design in (DorfmanDesign(5), SterrettDesign(6), ArrayDesign(4)):
            (_, *errors), = literal.kernel_outcomes(design.block, statuses)
            assert errors == [0, 0]

    def test_array_all_negative_cluster(self):
        assert literal.kernel_outcomes(ArrayDesign(8).block, [False] * 64) == [(16, 0, 0)]

    def test_array_single_positive(self):
        statuses = np.zeros(64, dtype=bool)
        statuses[37] = True
        assert literal.kernel_outcomes(ArrayDesign(8).block, statuses) == [(17, 0, 0)]
        # presumed positive alone: its row and column cross at it only
        presumptive = ArrayDesign(8, confirm_stage=False).block
        assert literal.kernel_outcomes(presumptive, statuses) == [(16, 0, 0)]

    def test_array_presumptive_counts_false_positives(self):
        # two positives on a diagonal light up 2 rows and 2 columns: the two
        # off-diagonal cells are presumed positive wrongly
        statuses = np.zeros(16, dtype=bool)
        statuses[0] = statuses[5] = True  # (0,0) and (1,1) of a 4x4 grid
        block = ArrayDesign(4, confirm_stage=False).block
        assert literal.kernel_outcomes(block, statuses) == [(8, 0, 2)]

    def test_hypercube_d2_equals_array(self):
        statuses = np.random.default_rng(21).random(256) < 0.06
        assert (literal.kernel_outcomes(HypercubeDesign(8, 2).block, statuses)
                == literal.kernel_outcomes(ArrayDesign(8).block, statuses))

    def test_hypercube_single_positive(self):
        statuses = np.zeros(512, dtype=bool)
        statuses[100] = True
        outcomes = literal.kernel_outcomes(HypercubeDesign(8, 3).block, statuses)
        assert outcomes == [(3 * 64 + 1, 0, 0)]

    def test_sterrett_hand_traces(self):
        def tests(pattern):
            (count, _, _), = literal.kernel_outcomes(SterrettDesign(5).block, pattern)
            return count

        # positive at the front: pool, hit on first test, clean remainder pool
        assert tests([1, 0, 0, 0, 0]) == 3
        # all negative: single pool test
        assert tests([0] * 5) == 1
        # positive only at the back: pool + walk of b-1 with the last inferred
        assert tests([0, 0, 0, 0, 1]) == 5
        # two positives up front: pool, hit, pool, hit, remainder pool
        assert tests([1, 1, 0, 0, 0]) == 5

    def test_gibbs_gower_runs(self):
        assert literal.gibbs_gower(0.0, GibbsGowerPlan(8, 50), seed=4) == 0.0
        value = literal.gibbs_gower(0.05, GibbsGowerPlan(8, 500), seed=4)
        assert 0.0 < value < 0.2


# ---------------------------------------------------------------------------
# kernels agree with the literal procedures
# ---------------------------------------------------------------------------

def assert_block_matches(block, statuses, procedure):
    """A kernel block gives the tests, false negatives and false positives of
    the literal procedure(row) -> (tests, positive mask), row by row."""
    expected = literal.literal_outcomes(procedure, statuses)
    assert literal.kernel_outcomes(block, statuses) == expected


def assert_matches_literal(design, statuses):
    assert_block_matches(design.block, statuses, lambda row: literal.run(design, row))


def grid_kernel(side, dim, confirm):
    """The array and hypercube kernel, presumptive hypercubes too."""
    return lambda positions, reps, n: designs._grid_block(positions, reps, n, side, dim, confirm)


class TestKernelEquivalence:
    def test_dorfman_kernel(self):
        rng = np.random.default_rng(0)
        statuses = rng.random((200, 47)) < 0.08
        for b in (1, 5, 47, 60):
            assert_matches_literal(DorfmanDesign(b), statuses)

    def test_sterrett_kernel(self):
        rng = np.random.default_rng(1)
        statuses = rng.random((200, 45)) < 0.1
        assert_matches_literal(SterrettDesign(9), statuses)
        # a ragged tail batch of 5, and a batch longer than the population
        statuses = rng.random((200, 95)) < 0.2
        assert_matches_literal(SterrettDesign(9), statuses)
        assert_matches_literal(SterrettDesign(120), statuses)

    def test_grid_kernels(self):
        rng = np.random.default_rng(2)
        statuses = rng.random((60, 128)) < 0.05
        assert_matches_literal(ArrayDesign(8), statuses)
        assert_matches_literal(ArrayDesign(8, confirm_stage=False), statuses)
        assert_matches_literal(ArrayDesign(5, confirm_stage=False), statuses)  # ragged cluster

        statuses = rng.random((30, 512)) < 0.02
        assert_matches_literal(HypercubeDesign(8, 3), statuses)
        assert_matches_literal(HypercubeDesign(3, 4), statuses)
        for side, dim in ((8, 3), (3, 4)):  # presumptive hypercubes
            assert_block_matches(grid_kernel(side, dim, False), statuses,
                                 lambda row: literal.grid(row, side, dim, confirm=False))

    # a full cluster, a ragged tail cluster of 11, and a dense ragged one
    @pytest.mark.parametrize("workers", [1, 3])
    @pytest.mark.parametrize("side, n, p", [(4, 50, 0.08), (5, 61, 0.08), (3, 20, 0.3)])
    def test_presumptive_false_positives_match_literal(self, monkeypatch, side, n, p, workers):
        # the harness's specificity counts the literal procedure's false
        # positives; blocks of 128 replications spread the run over three
        # blocks for the workers
        reps, seed, block_reps = 300, 3, 128
        monkeypatch.setattr(simulation, "BLOCK_REPS", block_reps)
        design = ArrayDesign(side, confirm_stage=False)
        rows = []
        for block, lo in enumerate(range(0, reps, block_reps)):
            rng = simulation._block_rng(seed, block)
            hi = min(lo + block_reps, reps)
            for r, positions in simulation._draw_rows(rng, lo, hi, n, p, design._unit(n)):
                rows.append(dense(positions, r.stop - r.start, n))
        statuses = np.vstack(rows)
        outcomes = literal.literal_outcomes(lambda row: literal.grid(row, side, 2, False), statuses)
        false_pos = sum(fp for _, _, fp in outcomes)
        negatives = reps * n - int(statuses.sum())
        out = monte_carlo(design, p, n, reps, seed=seed, workers=workers)
        assert false_pos > 0
        assert out.sensitivity == 1.0
        assert out.specificity == 1.0 - false_pos / negatives


def status_blocks(max_n=300):
    """Blocks of random rows plus one all-negative and one all-positive row."""

    @st.composite
    def build(draw):
        n = draw(st.integers(1, max_n))
        reps = draw(st.integers(0, 4))
        density = draw(st.one_of(st.sampled_from([0.01, 0.05, 0.2]), st.floats(0.0, 1.0)))
        seed = draw(st.integers(0, 2**32 - 1))
        random_rows = np.random.default_rng(seed).random((reps, n)) < density
        return np.vstack([random_rows, np.zeros((1, n), bool), np.ones((1, n), bool)])

    return build()


class TestKernelProperties:
    @settings(max_examples=150, deadline=None)
    @given(b=st.integers(2, 40), statuses=status_blocks())
    @example(b=7, statuses=np.array([[0, 0, 1], [1, 1, 1]], dtype=bool))  # n < b
    @example(b=9, statuses=np.eye(95, dtype=bool)[[4, 89, 90, 94]])  # ragged tail of 5
    def test_pooled_kernels_match_literal(self, b, statuses):
        assert_matches_literal(DorfmanDesign(b), statuses)
        assert_matches_literal(SterrettDesign(b), statuses)

    @settings(max_examples=100, deadline=None)
    @given(
        shape=st.one_of(
            st.tuples(st.integers(2, 40), st.just(2)),
            st.tuples(st.integers(2, 16), st.just(3)),
            st.tuples(st.integers(2, 5), st.just(4)),
            st.tuples(st.integers(2, 3), st.just(5)),
        ),
        confirm=st.booleans(),
        statuses=status_blocks(),
    )
    @example(shape=(4, 2), confirm=False, statuses=np.eye(16, dtype=bool)[[0]] | np.eye(16, dtype=bool)[[5]])
    # ragged tail clusters whose padded cells lie on positive lines only: they
    # must not be counted as candidates, confirmed or presumed
    @example(shape=(3, 3), confirm=True, statuses=np.ones((1, 53), dtype=bool))
    @example(shape=(4, 2), confirm=False, statuses=np.ones((1, 30), dtype=bool))
    @example(shape=(4, 2), confirm=True, statuses=np.ones((1, 30), bool))
    def test_grid_kernel_matches_literal(self, shape, confirm, statuses):
        side, dim = shape
        assert_block_matches(grid_kernel(side, dim, confirm), statuses,
                             lambda row: literal.grid(row, side, dim, confirm))


@st.composite
def sizes_and_miss_rates(draw):
    """(b, miss[0..b]) with miss[0] == 0: one level for every size, or one per
    size; levels include the extremes 0 (never missed) and 1 (always missed)."""
    b = draw(st.integers(1, 40))
    levels = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0))
    per_size = draw(
        st.one_of(levels.map(lambda level: [level] * b), st.lists(levels, min_size=b, max_size=b))
    )
    return b, np.r_[0.0, per_size]


def assert_noisy_matches_literal(design, statuses, miss, seed):
    """noisy_block equals the literal noisy walk on the same per-positive
    uniforms, row by row: tests, positive and missed pools, the detected flag
    of every positive, and the false positives."""
    reps, n = statuses.shape
    positions = np.flatnonzero(statuses)
    uniforms = np.random.default_rng(seed).random((len(positions), 2))
    # the harness's miss rates end at the largest pool the population holds
    tests, false_pos, pools, missed, detected = design.noisy_block(
        positions, reps, n, miss[: min(design.batch_size, n) + 1], uniforms
    )
    walk = literal.noisy_dorfman if isinstance(design, DorfmanDesign) else literal.noisy_sterrett
    bounds = np.r_[0, np.cumsum(statuses.sum(axis=1))]
    for r, row in enumerate(statuses):
        lo, hi = bounds[r], bounds[r + 1]
        literal_tests, literal_detected, *literal_pools = walk(
            row, design.batch_size, miss, uniforms[lo:hi]
        )
        assert tests[r] == literal_tests
        assert np.array_equal(detected[lo:hi], literal_detected[row])
        assert false_pos[r] == int((literal_detected & ~row).sum())
        assert [pools[r], missed[r]] == literal_pools


class TestNoisyKernel:
    @settings(max_examples=150, deadline=None)
    @given(case=sizes_and_miss_rates(), statuses=status_blocks(), seed=st.integers(0, 2**32 - 1))
    @example(  # ragged tail of 5
        case=(9, np.r_[0.0, [0.5] * 9]), statuses=np.eye(95, dtype=bool)[[4, 89, 90, 94]], seed=0
    )
    @example(  # batches longer than the population
        case=(7, np.r_[0.0, [0.3] * 7]), statuses=np.array([[0, 0, 1], [1, 1, 1]], bool), seed=1
    )
    @example(  # never missed, and always missed
        case=(4, np.r_[0.0, [0.0] * 4]), statuses=np.eye(10, dtype=bool)[[0, 3, 5]], seed=2
    )
    @example(case=(4, np.r_[0.0, [1.0] * 4]), statuses=np.ones((2, 10), bool), seed=3)
    def test_noisy_block_matches_literal(self, case, statuses, seed):
        b, miss = case
        assert_noisy_matches_literal(DorfmanDesign(b), statuses, miss, seed)
        if b > 1:
            assert_noisy_matches_literal(SterrettDesign(b), statuses, miss, seed)


# ---------------------------------------------------------------------------
# the Monte Carlo harness
# ---------------------------------------------------------------------------

class TestMonteCarlo:
    def test_deterministic_and_worker_independent(self):
        a = monte_carlo(DorfmanDesign(5), 0.05, 100, 5000, seed=42)
        b = monte_carlo(DorfmanDesign(5), 0.05, 100, 5000, seed=42)
        c = monte_carlo(DorfmanDesign(5), 0.05, 100, 5000, seed=42, workers=4)
        assert a == b == c

    def test_overlapping_calls_share_one_thread_pool(self):
        # calls with one worker count share a pool, also when they overlap
        args = (DorfmanDesign(5), 0.05, 100, 3 * BLOCK_REPS)
        expected = [monte_carlo(*args, seed=s) for s in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with ThreadPoolExecutor(max_workers=4) as callers:
                got = list(callers.map(lambda s: monte_carlo(*args, seed=s, workers=3), range(4),
                                       timeout=120))
        finally:
            sys.setswitchinterval(interval)
        assert got == expected
        assert simulation._thread_pool(3) is simulation._thread_pool(3)

    def test_seed_changes_result(self):
        a = monte_carlo(DorfmanDesign(5), 0.05, 100, 2000, seed=1)
        b = monte_carlo(DorfmanDesign(5), 0.05, 100, 2000, seed=2)
        assert a.mean_tests != b.mean_tests

    def test_zero_prevalence_single_rep(self):
        out = monte_carlo(DorfmanDesign(5), 0.0, 100, 1, seed=0)
        assert out.mean_tests == pytest.approx(0.2)
        assert out.se_tests == 0.0

    def test_dorfman_matches_formula(self):
        out = monte_carlo(DorfmanDesign(5), 0.05, 100, 100_000, seed=42)
        expected = dorfman_expected_tests_per_person(0.05, 5)
        assert abs(out.mean_tests - expected) <= 3 * out.se_tests
        assert abs(out.mean_tests - expected) / expected < 0.01
        assert out.sensitivity == 1.0 and out.specificity == 1.0

    def test_sterrett_matches_recursion(self):
        out = monte_carlo(SterrettDesign(9), 0.03, 90, 60_000, seed=9)
        expected = sterrett_expected_tests_per_batch(0.03, 9) / 9
        assert abs(out.mean_tests - expected) <= 3 * out.se_tests

    def test_array_matches_exact_expectation(self):
        out = monte_carlo(ArrayDesign(8), 0.05, 64, 60_000, seed=5)
        expected = array_expected_tests_exact(0.05, 8)
        assert abs(out.mean_tests - expected) <= 3 * out.se_tests

    def test_hypercube_matches_exact_expectation(self):
        out = monte_carlo(HypercubeDesign(8, 3), 0.01, 512, 40_000, seed=6)
        expected = hypercube_expected_tests_exact(0.01, 8, 3)
        assert abs(out.mean_tests - expected) <= 3 * out.se_tests

    def test_presumptive_array_sensitivity_one(self):
        out = monte_carlo(ArrayDesign(6, confirm_stage=False), 0.08, 72, 20_000, seed=8)
        assert out.sensitivity == 1.0
        assert out.specificity < 1.0

    def test_estimator_run_matches_exact_moments(self):
        plan = GibbsGowerPlan(28, 100)
        out = monte_carlo(plan, 0.05, None, 100_000, seed=3)
        assert out.empirical_rmse == pytest.approx(math.sqrt(gg_mse(0.05, 28, 100)), rel=0.02)

    def test_estimator_million_rep_agreement(self):
        # tighter check: a million replications pin the RMSE to ~0.2%
        out = monte_carlo(GibbsGowerPlan(28, 100), 0.05, None, 1_000_000, seed=31)
        assert out.empirical_rmse == pytest.approx(
            math.sqrt(gg_mse(0.05, 28, 100)), rel=0.006
        )

    def test_estimator_mean_matches_expected_estimate(self):
        plan = GibbsGowerPlan(8, 600)
        reps = 100_000
        p_hats = np.array(
            [literal.gibbs_gower(0.01, GibbsGowerPlan(8, 60), seed=s) for s in range(300)]
        )
        # literal pool-by-pool runs: mean within 3 SE of the exact bias sum
        expected = gg_expected_estimate(0.01, 8, 60)
        se = p_hats.std(ddof=1) / math.sqrt(len(p_hats))
        assert abs(p_hats.mean() - expected) <= 3 * se

        # and the vectorized harness agrees with the exact MSE
        out = monte_carlo(plan, 0.01, None, reps, seed=12)
        assert out.empirical_rmse == pytest.approx(math.sqrt(gg_mse(0.01, 8, 600)), rel=0.02)

    def test_validation(self):
        with pytest.raises(ValueError):
            monte_carlo(DorfmanDesign(5), 0.05, None, 100, seed=0)
        with pytest.raises(ValueError):
            monte_carlo(DorfmanDesign(5), 0.05, 100, 0, seed=0)

    @pytest.mark.parametrize(
        "population_size, reps",
        [(2.5, 10), (100, 2.5), (np.float64(100.0), 10), ("100", 10), (100, None), (0, 10)],
        ids=["float-size", "float-reps", "numpy-float-size", "str-size", "no-reps", "zero-size"],
    )
    def test_integer_arguments(self, population_size, reps):
        with pytest.raises(ValueError):
            monte_carlo(DorfmanDesign(5), 0.05, population_size, reps, seed=0)

    def test_numpy_integer_arguments(self):
        expected = monte_carlo(SterrettDesign(5), 0.05, 100, 300, seed=0)
        assert monte_carlo(SterrettDesign(5), 0.05, np.int64(100), np.int32(300), seed=0) == expected


NOISE = DilutionScenario(1.0, 20.0, 5.0, 1, 0.01)


class TestRowSubChunks:
    """Monte Carlo blocks, noisy or not, are drawn and reduced a few rows at
    a time; the sub-chunk size must not change any result.  At these sizes
    the default budget takes every block whole."""

    # pool sizes that leave a ragged last pool of 61 people, and a ragged
    # last block of 7 replications; (design, noise) pairs
    RUNS = [(design, None) for design in (
        DorfmanDesign(1), DorfmanDesign(7), SterrettDesign(6), ArrayDesign(4),
        ArrayDesign(4, confirm_stage=False), HypercubeDesign(3, 3))]
    RUNS += [(design, NOISE) for design in (DorfmanDesign(1), DorfmanDesign(7), SterrettDesign(6))]
    IDS = [("noisy-" if noise else "") + str(d) for d, noise in RUNS]
    REPS = BLOCK_REPS + 7

    def assert_chunk_free(self, monkeypatch, design, noise, workers, p):
        args = (design, p, 61, self.REPS)
        whole = monte_carlo(*args, seed=5, noise=noise, workers=workers)
        for rows in (1, 1000):
            monkeypatch.setattr(simulation, "_DRAW_BYTES", 8 * 61 * rows)
            assert monte_carlo(*args, seed=5, noise=noise, workers=workers) == whole

    @pytest.mark.parametrize("workers", [1, 3])
    @pytest.mark.parametrize("design, noise", RUNS, ids=IDS)
    def test_noise_free_runs(self, monkeypatch, design, noise, workers):
        self.assert_chunk_free(monkeypatch, design, noise, workers, 0.06)

    # above 1/2 the negatives' positions are drawn and the rows inverted; at
    # 1e-4 the last position is carried across many rows with none
    @pytest.mark.parametrize("p", [0.7, 1e-4])
    @pytest.mark.parametrize("workers", [1, 3])
    @pytest.mark.parametrize("design, noise", RUNS, ids=IDS)
    def test_inverted_and_sparse_draws(self, monkeypatch, design, noise, workers, p):
        self.assert_chunk_free(monkeypatch, design, noise, workers, p)


class TestBatchPastThePopulation:
    """A Dorfman or Sterrett batch larger than the population holds the same
    people as a batch of all of them, so the kernels and the draw budget take
    that batch; the Monte Carlo results are the same, and no sub-chunk
    shrinks to one row."""

    @pytest.mark.parametrize("noise", [None, NOISE], ids=["noise-free", "noisy"])
    @pytest.mark.parametrize("kind", [DorfmanDesign, SterrettDesign])
    def test_matches_a_batch_of_everyone(self, monkeypatch, kind, noise):
        sub_chunks = []
        draw_rows = simulation._draw_rows

        def counted(*args):
            for item in draw_rows(*args):
                sub_chunks.append(item[0])
                yield item

        monkeypatch.setattr(simulation, "_draw_rows", counted)
        whole = monte_carlo(kind(20), 0.05, 20, 20_000, seed=7, noise=noise)
        expected_chunks, sub_chunks[:] = list(sub_chunks), []
        for b in (10**6, 10**12, 2**63 - 1):
            start = time.perf_counter()
            assert monte_carlo(kind(b), 0.05, 20, 20_000, seed=7, noise=noise) == whole
            assert time.perf_counter() - start < 0.5
            assert sub_chunks == expected_chunks
            sub_chunks.clear()

    def test_one_person_is_a_pool_and_a_retest(self):
        for b in (2, 5, 2**63 - 1):
            assert monte_carlo(DorfmanDesign(b), 1.0, 1, 10, seed=0).mean_tests == 2.0
            # a batch of one: the pool test, then the member is inferred
            assert monte_carlo(SterrettDesign(b), 1.0, 1, 10, seed=0).mean_tests == 1.0
        assert monte_carlo(DorfmanDesign(1), 1.0, 1, 10, seed=0).mean_tests == 1.0


class TestDilutionNoise:
    def scenario(self, pool_size=10):
        return DilutionScenario(
            aliquot_volume=1.0,
            sample_volume=20.0,
            concentration=5.0,
            pool_size=pool_size,
            prevalence=0.01,
        )

    def test_pool_miss_rate_matches_model(self):
        noise = self.scenario()
        out = monte_carlo(DorfmanDesign(10), 0.01, 100, 60_000, seed=13, noise=noise)
        expected = pooled_false_negative_rate(noise.with_pool_size(10))
        n_events = 60_000 * 10 * (1 - 0.99**10)  # ~ positive pools observed
        se = math.sqrt(expected * (1 - expected) / n_events)
        assert out.pool_miss_rate == pytest.approx(expected, abs=3.5 * se)
        assert out.sensitivity < 1.0
        assert out.specificity == 1.0

    @pytest.mark.parametrize("p", [0.01, 0.05])
    @pytest.mark.parametrize("b", [1, 5, 10])
    def test_dorfman_matches_closed_forms(self, b, p):
        # full pools of b: a positive pool is flagged unless it misses, at
        # m_b, and each positive of a flagged pool is then found unless its
        # retest misses, at m_1, independently; in individual testing the
        # pool of one is the only test.  A noise layout that let the pool
        # test and a retest share a uniform would move the sensitivity.
        noise = DilutionScenario(1.0, 20.0, 2.0, 1, p)
        n, reps = 100, 20_000
        m = simulation._miss_probs(noise, b, p)
        out = monte_carlo(DorfmanDesign(b), p, n, reps, seed=40 + b, noise=noise)
        pool_found, retest_found = 1.0 - m[b], (1.0 - m[1] if b > 1 else 1.0)
        tests = 1.0 if b == 1 else 1.0 / b + (1.0 - (1.0 - p) ** b) * pool_found
        assert abs(out.mean_tests - tests) <= 3 * out.se_tests
        # SE by the delta method over pools: a pool's detections less the
        # sensitivity times its K ~ Binomial(b, p) positives have mean 0 and
        # variance E[Var(detections | K)]
        k1, k2 = b * p, b * p * (1.0 - p) + (b * p) ** 2  # E[K], E[K^2]
        var = pool_found * (retest_found * (1.0 - retest_found) * k1
                            + (1.0 - pool_found) * retest_found**2 * k2)
        pools = reps * n // b
        se = math.sqrt(var / pools) / k1
        assert abs(out.sensitivity - pool_found * retest_found) <= 3 * se

    @pytest.mark.parametrize("concentration", [0.0, 0.3, 5.0, 400.0])
    def test_miss_probs_are_the_scenario_rates(self, concentration):
        # bit for bit the public rate of a scenario of each pool size
        noise = DilutionScenario(1.0, 20.0, concentration, 1, 0.5)
        for p in (1e-6, 0.01, 0.3, 1.0):
            expected = [pooled_false_negative_rate(replace(noise, pool_size=k, prevalence=p))
                        for k in range(1, 301)]
            assert simulation._miss_probs(noise, 300, p).tolist() == [0.0] + expected
        assert simulation._miss_probs(noise, 300, 0.0).tolist() == [0.0] * 301

    def test_noisy_runs_build_no_scenario(self, monkeypatch):
        # the miss rates come from the run's scenario, with no copy per pool size
        built = []
        post_init = DilutionScenario.__post_init__
        noise = self.scenario()
        monkeypatch.setattr(DilutionScenario, "__post_init__",
                            lambda self: built.append(self) or post_init(self))
        for design in (DorfmanDesign(10), SterrettDesign(10)):
            monte_carlo(design, 0.05, 100, 50, seed=2, noise=noise)
        assert built == []

    def test_pool_larger_than_population(self, monkeypatch):
        # miss rates are taken only up to the population, the largest pool
        # it holds: pools of 10^12 cost what one pool of all 20 people does
        asked = []
        miss_probs = simulation._miss_probs

        def recorded(noise, size, p):
            asked.append(size)
            return miss_probs(noise, size, p)

        monkeypatch.setattr(simulation, "_miss_probs", recorded)
        noise = self.scenario()
        for huge, whole in ((DorfmanDesign(10**12), DorfmanDesign(20)),
                            (SterrettDesign(10**12), SterrettDesign(20))):
            start = time.perf_counter()
            out = monte_carlo(huge, 0.05, 20, 10, seed=7, noise=noise)
            assert time.perf_counter() - start < 1.0
            assert out == monte_carlo(whole, 0.05, 20, 10, seed=7, noise=noise)
        assert asked == [20] * 4

    def test_noise_only_for_sequential_designs(self, monkeypatch):
        # rejected on entry, before any miss rate is computed or any status drawn
        def no_work(*args, **kwargs):
            raise AssertionError("work started before the design was rejected")

        monkeypatch.setattr(simulation, "_miss_probs", no_work)
        monkeypatch.setattr(simulation, "_block_rng", no_work)
        for design in (ArrayDesign(8), HypercubeDesign(4, 3), GibbsGowerPlan(8, 50)):
            with pytest.raises(ValueError, match="noise"):
                monte_carlo(design, 0.01, 64, 10, seed=0, noise=self.scenario())

    def test_noisy_individual_testing(self):
        # a pool of one is the person's only test: never retested, and missed
        # at the individual rate
        noise = DilutionScenario(1.0, 20.0, 1.0, 1, 0.5)
        miss = pooled_false_negative_rate(noise)
        for p in (1.0, 0.3):
            out = monte_carlo(DorfmanDesign(1), p, 50, 400, seed=5, noise=noise)
            assert out.mean_tests == 1.0
            se = math.sqrt(miss * (1 - miss) / (400 * 50 * p))
            assert out.pool_miss_rate == pytest.approx(miss, abs=3.5 * se)
            assert out.sensitivity == pytest.approx(1.0 - out.pool_miss_rate)
            assert out.specificity == 1.0

    def test_noisy_run_deterministic(self):
        noise = self.scenario()
        a = monte_carlo(DorfmanDesign(10), 0.01, 50, 2000, seed=3, noise=noise)
        b = monte_carlo(DorfmanDesign(10), 0.01, 50, 2000, seed=3, noise=noise, workers=3)
        assert a == b

    def test_noisy_run_worker_independent(self):
        noise = self.scenario(pool_size=6)
        a = monte_carlo(SterrettDesign(6), 0.05, 30, 9000, seed=8, noise=noise)
        b = monte_carlo(SterrettDesign(6), 0.05, 30, 9000, seed=8, noise=noise, workers=3)
        assert a == b

    def test_zero_prevalence(self):
        # no positives, so nothing to miss: the dilution model is not consulted
        noise = DilutionScenario(1.0, 20.0, 5.0, 1, 0.0)
        for design in (DorfmanDesign(5), SterrettDesign(5)):
            out = monte_carlo(design, 0.0, 100, 10, seed=0, noise=noise)
            assert out.mean_tests == 1 / 5
            assert (out.sensitivity, out.specificity, out.pool_miss_rate) == (1.0, 1.0, 0.0)

    def test_model_uses_the_run_prevalence(self):
        # the scenario's own prevalence field plays no part in a run
        for design in (DorfmanDesign(5), SterrettDesign(5)):
            def run(q):
                noise = DilutionScenario(1.0, 20.0, 5.0, 1, q)
                return monte_carlo(design, 0.05, 100, 2000, seed=0, noise=noise)

            expected = run(0.05)
            for q in (0.01, 0.5, 0.0):
                assert run(q) == expected

    def test_sterrett_noise_supported(self):
        noise = self.scenario(pool_size=6)
        out = monte_carlo(SterrettDesign(6), 0.01, 60, 5000, seed=4, noise=noise)
        assert out.pool_miss_rate is not None
        assert 0.0 < out.sensitivity < 1.0
