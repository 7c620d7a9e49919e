"""Unit tests for pooled prevalence estimation and planning."""

import math
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.special import gammaln

import literal_procedures
from poolscreen import estimation
from poolscreen.designs import (
    ConstraintSet,
    dorfman_expected_tests_per_person,
    dorfman_optimal_batch_continuous,
)
from poolscreen.estimation import (
    CostModel,
    GibbsGowerPlan,
    InfeasibleDesignError,
    PoolTestOutcome,
    dorfman_estimation_rmse,
    estimation_rule_of_thumb,
    gg_asymptotic_variance,
    gg_estimate,
    gg_expected_estimate,
    gg_minimize_cost,
    gg_mse,
    gg_nrmse,
    gg_optimal_pool,
    gg_tests_needed,
    gg_tests_needed_real,
    pool_positive_prob,
    report_for_outcome,
    report_for_plan,
)


# ---------------------------------------------------------------------------
# the estimator itself
# ---------------------------------------------------------------------------

class TestEstimator:
    def test_worked_example(self):
        # 2 of 6 pools of 7 positive -> roughly 5.6% prevalence
        assert gg_estimate(PoolTestOutcome(6, 2, 7)) == pytest.approx(0.0563, abs=5e-4)

    def test_edge_values(self):
        assert gg_estimate(PoolTestOutcome(10, 0, 8)) == 0.0
        assert gg_estimate(PoolTestOutcome(10, 10, 8)) == 1.0
        assert math.copysign(1.0, gg_estimate(PoolTestOutcome(10, 0, 8))) == 1.0  # not -0.0

    def test_reduces_to_proportion_at_b1(self):
        assert gg_estimate(PoolTestOutcome(100, 13, 1)) == pytest.approx(0.13, abs=1e-15)

    def test_outcome_validation(self):
        with pytest.raises(ValueError):
            PoolTestOutcome(5, 6, 4)
        with pytest.raises(ValueError):
            PoolTestOutcome(0, 0, 4)

    @pytest.mark.parametrize("t", [1000, 100_000])
    @pytest.mark.parametrize("b", [2, 8, 26])
    def test_matches_decimal_oracle_past_half(self, t, b):
        # past t/2, 1 - k/t is taken as the once-rounded (t - k)/t, not
        # through the rounding of k/t; the Monte Carlo's vectorized estimates,
        # on counts out of order, are the same numbers
        counts = np.unique(np.linspace(t // 2, t - 1, 200).astype(np.int64))[::-1]
        vectorized = estimation._estimates_for_counts(counts, t, b)
        with localcontext() as ctx:
            ctx.prec = 50
            for k, value in zip(counts.tolist(), vectorized):
                exact = 1 - (Decimal(t - k) / t) ** (Decimal(1) / b)
                estimate = gg_estimate(PoolTestOutcome(t, k, b))
                assert estimate == value
                assert abs(Decimal(estimate) - exact) <= Decimal("1e-15") * exact, (k, estimate)

    @settings(deadline=None, max_examples=200)
    @given(st.integers(1, 200), st.integers(1, 30), st.data())
    def test_monotone_in_positives(self, t, b, data):
        k = data.draw(st.integers(0, t - 1))
        lower = gg_estimate(PoolTestOutcome(t, k, b))
        upper = gg_estimate(PoolTestOutcome(t, k + 1, b))
        assert 0.0 <= lower <= upper <= 1.0


# ---------------------------------------------------------------------------
# exact moments
# ---------------------------------------------------------------------------

def _moments_reference(p, b, t):
    """Alternate arrangement of the same sums, over the negative-pool count,
    with the MSE assembled as S2 + (p-1)(p+1-2E)."""
    P = pool_positive_prob(p, b)
    q_b = 1.0 - P
    i = np.arange(t + 1)
    logw = gammaln(t + 1) - gammaln(i + 1) - gammaln(t - i + 1)
    with np.errstate(divide="ignore"):
        logw = logw + np.where(i == 0, 0.0, i * np.log(q_b))
        logw = logw + np.where(t - i == 0, 0.0, (t - i) * np.log(P))
    w = np.exp(logw)
    with np.errstate(divide="ignore"):
        frac_pow = np.where(i == 0, 0.0, np.exp(np.log(i / t) / b))
        frac_pow2 = np.where(i == 0, 0.0, np.exp(2 * np.log(i / t) / b))
    s1 = float(np.sum(w * frac_pow))
    s2 = float(np.sum(w * frac_pow2))
    expected = 1.0 - s1
    mse = s2 + (p - 1.0) * (p + 1.0 - 2.0 * expected)
    return expected, mse


class TestExactMoments:
    def test_b1_specializations_exact(self):
        assert gg_expected_estimate(0.05, 1, 100) == 0.05
        assert gg_mse(0.05, 1, 100) == 0.05 * 0.95 / 100
        assert gg_asymptotic_variance(0.05, 1, 100) == pytest.approx(4.75e-4, rel=1e-12)

    def test_zero_prevalence(self):
        assert gg_expected_estimate(0.0, 12, 50) == 0.0
        assert gg_mse(0.0, 12, 50) == 0.0

    def test_positive_bias(self):
        assert gg_expected_estimate(0.05, 28, 100) > 0.05

    def test_against_alternate_arrangement(self):
        for p, b, t in [(0.05, 28, 100), (0.01, 143, 100), (0.3, 4, 40), (0.02, 7, 250)]:
            e_ref, m_ref = _moments_reference(p, b, t)
            assert gg_expected_estimate(p, b, t) == pytest.approx(e_ref, rel=1e-10)
            assert gg_mse(p, b, t) == pytest.approx(m_ref, rel=1e-8)

    @pytest.mark.parametrize("t", [244, 12_345, 100_000])
    def test_matches_exact_reference(self, t):
        for p, b in [(0.01, 20), (0.05, 13), (0.3, 2), (0.3, 26), (1e-4, 1428)]:
            e_ref, m_ref = _exact_reference(p, b, t)
            expected, mse = estimation._exact_moments(p, b, t)
            assert expected == pytest.approx(e_ref, rel=1e-13), (p, b)
            assert mse == pytest.approx(m_ref, rel=1e-13), (p, b)

    def test_reference_rmse_cells(self):
        assert math.sqrt(gg_mse(0.05, 28, 100)) == pytest.approx(6.28e-3, rel=0.002)
        assert math.sqrt(gg_mse(0.001, 1428, 100)) == pytest.approx(1.29e-4, rel=0.005)
        assert math.sqrt(gg_mse(0.05, 1, 100)) == pytest.approx(2.18e-2, rel=0.002)

    def test_pool_count_bound(self):
        with pytest.raises(ValueError):
            gg_mse(0.05, 4, 100_001)

    def test_windowed_sum_matches_full_sum(self):
        # the window the tail bound leaves cannot differ from the full sum
        p, b, t = 0.02, 9, 500
        P = pool_positive_prob(p, b)
        k = np.arange(t + 1)
        logw = (
            gammaln(t + 1) - gammaln(k + 1) - gammaln(t - k + 1)
            + np.where(k == 0, 0.0, k * np.log(P))
            + np.where(t - k == 0, 0.0, (t - k) * math.log1p(-P))
        )
        w = np.exp(logw)
        with np.errstate(divide="ignore"):
            ph = -np.expm1(np.log1p(-k / t) / b)
        ph[-1] = 1.0
        assert gg_mse(p, b, t) == pytest.approx(float(np.sum(w * (ph - p) ** 2)), rel=1e-13)


def _exact_reference(p, b, t, tiny=Decimal(10) ** -45):
    """(E[p_hat], MSE) of the pooled estimator in decimal arithmetic at 40
    significant digits, with no NumPy and no log-gamma: an oracle whose own
    error is far below any double-precision rounding.

    p is taken at its exact binary value.  The weights are the binomial
    terms relative to the mode, by the exact ratio w_(k+1) / w_k =
    (t-k)/(k+1) * P/(1-P), walked outward until they fall below `tiny` of
    the mode's (tiny=0 sums the whole support), and normalized by their sum.
    The estimate 1 - x^(1/b) at x = 1 - k/t takes one Newton step on
    y^b = x from its double-precision value, which leaves it below 1e-20
    relative at the pool sizes tested here.
    """
    with localcontext() as ctx:
        ctx.prec = 40
        one, p_ = Decimal(1), Decimal(p)
        q = (one - p_) ** b  # exact to the working precision, however small
        odds = (one - q) / q
        mode = min(t, int((t + 1) * (one - q)))
        ks, ws = [mode], [one]
        w = one
        for k in range(mode, t):
            w = w * (t - k) / (k + 1) * odds
            if w < tiny:
                break
            ks.append(k + 1)
            ws.append(w)
        w = one
        for k in range(mode, 0, -1):
            w = w * k / ((t - k + 1) * odds)
            if w < tiny:
                break
            ks.append(k - 1)
            ws.append(w)
        first = second = Decimal(0)
        for k, w in zip(ks, ws):
            y = Decimal(0)
            if k < t:
                x = Decimal(t - k) / t
                y = Decimal((1.0 - k / t) ** (1.0 / b))
                y_b1 = y ** (b - 1)
                y -= (y_b1 * y - x) / (b * y_b1)
            first += w * (one - y)
            second += w * (one - y - p_) ** 2
        total = sum(ws)
        return float(first / total), float(second / total)


class TestTailBoundWindow:
    """Both exact kernels sum a window sized by a Bernstein tail bound, check
    after the sum that the counts left out cannot move the MSE, and widen the
    window when they could; the results are those of the whole support."""

    @staticmethod
    def _pool_size(p, x):
        """The pool size with x = -b log(1-p), so P = 1 - e^-x."""
        return max(2, round(x / -math.log1p(-p)))

    @settings(deadline=None, max_examples=40)
    @given(
        p=st.floats(math.log(1e-7), math.log(0.45)).map(math.exp),
        x=st.floats(math.log(0.01), math.log(12.0)).map(math.exp),
        t=st.integers(1, 2000),
    )
    # tiny prevalence at the optimal size and a small NRMSE (about 0.03)
    @example(p=1e-7, x=1.6, t=2000)
    @example(p=1e-6, x=1.2, t=1500)
    # pools mostly positive: P = 0.9997 and 0.99999
    @example(p=1e-6, x=8.0, t=2000)
    @example(p=0.45, x=11.5, t=700)
    @example(p=0.01, x=0.01, t=1)
    def test_matches_full_support_sum(self, p, x, t):
        b = self._pool_size(p, x)
        e_ref, m_ref = _exact_reference(p, b, t, tiny=0)
        expected, mse = estimation._exact_moments(p, b, t)
        assert expected == pytest.approx(e_ref, rel=1e-13)
        assert mse == pytest.approx(m_ref, rel=1e-13)
        # a neighbouring size shares the sweep's union window
        swept = estimation._mse_many(p, np.array([b, b + 1]), t)
        assert swept[0] == pytest.approx(m_ref, rel=1e-13)
        assert swept[1] == pytest.approx(_exact_reference(p, b + 1, t, tiny=0)[1], rel=1e-13)

    @pytest.mark.parametrize("p, b, t", [
        (0.01, 20, 1000), (1e-4, 1428, 100), (0.3, 26, 500), (0.05, 120, 2000), (1e-6, 1, 50),
    ])
    def test_widened_window_matches_full_support_sum(self, monkeypatch, p, b, t):
        # windows of a count or so on each side fail the check, and are
        # doubled until they pass
        widths = estimation._half_widths
        monkeypatch.setattr(estimation, "_half_widths",
                            lambda *args: [0.0 * x + 1.0 for x in widths(*args)])
        failed = [0]
        check = estimation._tails_negligible

        def counted(*args):
            proven = check(*args)
            failed[0] += np.size(proven) - np.count_nonzero(proven)
            return proven

        monkeypatch.setattr(estimation, "_tails_negligible", counted)
        e_ref, m_ref = _exact_reference(p, b, t, tiny=0)
        if b > 1:
            expected, mse = estimation._exact_moments(p, b, t)
            assert expected == pytest.approx(e_ref, rel=1e-13)
            assert mse == pytest.approx(m_ref, rel=1e-13)
        swept = estimation._mse_many(p, np.array([b, b + 3, b + 1]), t)
        assert swept[0] == pytest.approx(m_ref, rel=1e-13)
        assert swept[1] == pytest.approx(_exact_reference(p, b + 3, t, tiny=0)[1], rel=1e-13)
        assert failed[0] > 0

    def test_pool_probability_rounding_to_one(self):
        # 1 - P = 3.2e-17 rounds P to 1, yet t (1 - P) = 2.1e-12 of the mass
        # sits at t - 1 positive pools, which the sum keeps
        p, b, t = 0.07446026832189383, 491, 65459
        expected, mse = estimation._exact_moments(p, b, t)
        e_ref, m_ref = _exact_reference(p, b, t)
        assert expected == pytest.approx(e_ref, rel=1e-14)
        assert mse == pytest.approx(m_ref, rel=1e-14)

    def test_every_pool_positive(self):
        assert gg_expected_estimate(1.0, 5, 10) == 1.0
        assert gg_mse(1.0, 5, 10) == 0.0

    def test_sweep_window_work(self, monkeypatch):
        # the entries summed, (window width) x (rows) at every tail check;
        # a +/-(40 sigma + 25) window summed 3,187,001 for this call
        entries = [0]
        check = estimation._tails_negligible

        def counted(p, t, k_lo, k_hi, odds, w_lo, w_hi, mse):
            entries[0] += int(k_hi - k_lo + 1) * np.size(w_lo)
            return check(p, t, k_lo, k_hi, odds, w_lo, w_hi, mse)

        monkeypatch.setattr(estimation, "_tails_negligible", counted)
        assert gg_optimal_pool(0.0125, fixed_tests=100_000, cap=2000).pool_size == 127
        assert entries[0] <= 0.42 * 3_187_001


class TestMseSweep:
    """_mse_many sums each pool size over a window and a log-weight cumsum
    shared by a chunk of pool sizes, the chunk sized by an entry budget and an
    odds span; none of it may show in results."""

    # a contiguous run, then scattered sizes out of order
    SIZES = np.r_[np.arange(1, 31), 3000, 700, 2, 100, 2999, 5, 1500]

    @pytest.mark.parametrize("t", [1, 2, 7, 100, 1000, 12_345, 100_000])
    def test_matches_full_support_sum(self, monkeypatch, t):
        for p in (1e-4, 0.01, 0.3):
            expected = np.array([_exact_reference(p, int(b), t)[1] for b in self.SIZES])
            for budget in (estimation._MSE_ENTRIES, 500, 1):
                for span in (estimation._ODDS_SPAN, 1.0):
                    monkeypatch.setattr(estimation, "_MSE_ENTRIES", budget)
                    monkeypatch.setattr(estimation, "_ODDS_SPAN", span)
                    got = estimation._mse_many(p, self.SIZES, t)
                    np.testing.assert_allclose(
                        got, expected, rtol=1e-12, atol=0,
                        err_msg=f"p={p} t={t} budget={budget} span={span}")


class TestMseRows:
    """_mse_rows sums each (pool size, pool count) row over its own window
    about its own mode, the rows of a chunk padded to its widest window; none
    of it may show in results."""

    @pytest.mark.parametrize("budget", [None, 500, 1])
    @pytest.mark.parametrize("p", [1e-4, 0.01, 0.3])
    def test_matches_exact_reference(self, monkeypatch, p, budget):
        if budget is not None:
            monkeypatch.setattr(estimation, "_MSE_ENTRIES", budget)
        rng = np.random.default_rng(7)
        bs = np.r_[rng.integers(1, 40, 12), rng.integers(1, round(3 / p), 12), 1, 1, 2, 5, 2]
        ts = np.r_[rng.integers(1, 5000, 24), 1, 7, 1, 2, 7]
        expected = np.array([_exact_reference(p, int(b), int(t))[1] for b, t in zip(bs, ts)])
        np.testing.assert_allclose(estimation._mse_rows(p, bs, ts), expected, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("p, b, t", [(0.165, 8, 25_999), (0.0197, 3, 41_246), (0.0130, 29, 73_088)])
    def test_rows_far_from_a_sweeps_middle(self, p, b, t):
        # these sizes lost a few 1e-14 of their MSE in _mse_many sweeps over
        # b = 1..399, whose chunks share one cumsum; here each row has its own
        bs = np.arange(1, 400)
        mses = estimation._mse_rows(p, bs, np.full(len(bs), t))
        m_ref = _exact_reference(p, b, t)[1]
        assert abs(mses[b - 1] - m_ref) <= 5e-15 * m_ref


class TestAsymptoticVariance:
    def test_guideline_cell(self):
        nrmse = gg_nrmse(0.01, 8, 600, method="asymptotic")
        assert nrmse == pytest.approx(0.146, abs=5e-4)

    def test_converges_to_exact_mse(self):
        # the approximation error shrinks like 1/t once saturation is gone
        p, b = 0.05, 28
        gaps = []
        for t in (100, 1000, 10000):
            mse = gg_mse(p, b, t)
            gaps.append(abs(mse - gg_asymptotic_variance(p, b, t)) / mse)
        assert gaps[0] < 0.10
        assert gaps[1] < 0.01
        assert gaps[2] < 0.001

    def test_underestimates_under_saturation(self):
        # with nearly all pools positive the exact MSE carries a point mass at
        # p_hat = 1 that no variance expansion sees
        p, b, t = 0.3, 8, 50
        assert gg_asymptotic_variance(p, b, t) < 0.2 * gg_mse(p, b, t)

    def test_rejects_degenerate_prevalence(self):
        with pytest.raises(ValueError):
            gg_asymptotic_variance(0.0, 5, 10)
        with pytest.raises(ValueError):
            gg_asymptotic_variance(1.0, 5, 10)

    @pytest.mark.parametrize("method", ["exact", "asymptotic"])
    def test_nrmse_rejects_zero_prevalence(self, method):
        # the error is relative to p, so p = 0 has none to report
        with pytest.raises(ValueError):
            gg_nrmse(0.0, 5, 10, method=method)


# ---------------------------------------------------------------------------
# planning
# ---------------------------------------------------------------------------

class TestTestsNeeded:
    def test_individual_testing_column(self):
        for p, expected in [(0.05, 845), (0.01, 4400), (0.001, 44400), (0.0001, 444400)]:
            assert gg_tests_needed(p, 1, 0.15) == expected
            assert gg_tests_needed(p, 1, 0.15) == math.ceil((1 - p) / (0.0225 * p) - 1e-9)

    def test_pool_of_five_column(self):
        for p, expected in [(0.05, 189), (0.01, 899), (0.001, 8899), (0.0001, 88899)]:
            assert gg_tests_needed(p, 5, 0.15) == expected

    def test_result_is_minimal(self):
        for p, b in [(0.05, 27), (0.01, 5), (0.1, 13)]:
            t = gg_tests_needed(p, b, 0.15)
            assert gg_nrmse(p, b, t) <= 0.15 * (1 + 1e-9)
            assert gg_nrmse(p, b, t - 1) > 0.15

    def test_asymptotic_method_is_closed_form(self):
        # slightly optimistic: one pool short of the exact answer here
        assert gg_tests_needed(0.01, 5, 0.15, method="asymptotic") == 898

    def test_plan_at_published_optimum(self):
        # the published table prints 73 pools at pool size 27; the exact
        # crossing is one pool earlier
        assert gg_tests_needed(0.05, 27, 0.15) == 72

    def test_real_valued_crossing_brackets_integer(self):
        for p, b in [(0.05, 13), (0.01, 37), (0.001, 131)]:
            tr = gg_tests_needed_real(p, b, 0.15)
            assert math.ceil(tr - 1e-9) == gg_tests_needed(p, b, 0.15)

    def test_loose_target_needs_one_pool(self):
        # exact NRMSE at a single pool of 2 at 30% prevalence is ~1.8
        assert gg_tests_needed(0.3, 2, 2.0) == 1

    def test_infeasible_target(self):
        with pytest.raises(InfeasibleDesignError):
            gg_tests_needed(0.01, 5, 1e-4)

    def test_requirement_past_the_search_limit_is_infeasible(self):
        # an unclamped gallop step past the limit would accept 1,000,979 pools
        p, b, target = 0.05166312281427339, 194, 0.016670930644760346
        limit = estimation._T_SEARCH_LIMIT
        assert math.sqrt(_exact_reference(p, b, limit)[1]) / p > target
        with pytest.raises(InfeasibleDesignError, match=f"needs more than {limit} pools"):
            gg_tests_needed(p, b, target)

    def test_requirement_just_below_the_search_limit(self):
        # the gallop from the asymptotic count passes the limit here; giving
        # up there would miss the 909,957 pools that are enough
        p, b, target = 0.10609379076057374, 101, 0.04480709458131086
        t = gg_tests_needed(p, b, target)
        assert t == 909_957
        assert math.sqrt(_exact_reference(p, b, t)[1]) / p <= target
        assert math.sqrt(_exact_reference(p, b, t - 1)[1]) / p > target

    @settings(deadline=None, max_examples=60)
    @given(st.floats(1e-3, 0.3), st.integers(2, 60), st.floats(0.03, 1.0))
    def test_gallop_matches_bisection_from_zero(self, p, b, target):
        expected = literal_procedures.tests_needed_by_bisection(p, b, target)
        if expected is None:
            with pytest.raises(InfeasibleDesignError):
                gg_tests_needed(p, b, target)
        else:
            assert gg_tests_needed(p, b, target) == expected

    def test_gallop_evaluations(self, monkeypatch):
        # the answer is one above the asymptotic count of 898, so the first
        # two probes bracket it
        calls = []
        exact = estimation._exact_moments
        monkeypatch.setattr(estimation, "_exact_moments",
                            lambda p, b, t: calls.append(t) or exact(p, b, t))
        assert gg_tests_needed(0.01, 5, 0.15) == 899
        assert gg_tests_needed(0.01, 5, 0.15, method="asymptotic") == 898
        assert calls == [898, 899]

    @pytest.mark.parametrize("p, b, target", [
        (0.01, 5, 0.15), (0.05, 13, 0.15), (0.001, 131, 0.15), (0.3, 2, 2.0), (0.2, 40, 0.3),
    ])
    def test_real_valued_requirement_reuses_the_bracket(self, monkeypatch, p, b, target):
        # the interpolation takes the NRMSE at t - 1 and t from the search's
        # last bracket, so it costs no evaluation of its own
        calls = []
        exact = estimation._exact_moments
        monkeypatch.setattr(estimation, "_exact_moments",
                            lambda p, b, t: calls.append(t) or exact(p, b, t))
        t = gg_tests_needed(p, b, target)
        searched = list(calls)
        calls.clear()
        real = gg_tests_needed_real(p, b, target)
        assert calls == searched
        if t == 1:
            assert real == 1.0
        else:
            n_lo, n_hi = gg_nrmse(p, b, t - 1), gg_nrmse(p, b, t)
            assert real == (t - 1) + min(max((n_lo - target) / (n_lo - n_hi), 0.0), 1.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            gg_tests_needed(0.01, 5, 0.0)
        with pytest.raises(ValueError):
            gg_tests_needed(0.0, 5, 0.15)


class TestOptimalPool:
    def test_fixed_budget_optima(self):
        assert gg_optimal_pool(0.05, fixed_tests=100).pool_size == 28
        assert gg_optimal_pool(0.01, fixed_tests=100).pool_size == 143
        assert gg_optimal_pool(0.001, fixed_tests=100).pool_size == 1428

    @settings(deadline=None, max_examples=40)
    @given(st.floats(0.005, 0.45), st.integers(1, 3000), st.integers(1, 80))
    @example(p=0.05, t=100, cap=None)
    @example(p=0.01, t=100, cap=None)
    @example(p=0.3, t=1, cap=80)
    @example(p=0.005, t=300, cap=40)  # the start size 318 lies past the cap
    def test_fixed_budget_matches_brute_force(self, p, t, cap):
        # the scalar MSE at every size up to the cap; ties go to the smaller
        b_max = math.ceil(10.0 / p) if cap is None else cap
        best = min(range(1, b_max + 1), key=lambda b: (gg_mse(p, b, t), b))
        assert gg_optimal_pool(p, fixed_tests=t, cap=cap) == GibbsGowerPlan(best, t)

    def test_fixed_budget_sweep_stops_at_the_floor(self, monkeypatch):
        # the default cap is 100,000 sizes; past about 16,000 the
        # all-pools-positive term alone exceeds the MSE of the start size
        rows = []
        sweep = estimation._mse_many
        monkeypatch.setattr(estimation, "_mse_many",
                            lambda p, bs, t: rows.append(len(bs)) or sweep(p, bs, t))
        assert gg_optimal_pool(1e-4, fixed_tests=100).pool_size == 13_721
        assert sum(rows) <= 16_500

    @settings(deadline=None, max_examples=200)
    @given(st.floats(1e-4, 0.45), st.integers(1, 100_000), st.floats(1e-12, 1.0))
    def test_saturation_cap_is_one_past_the_floor(self, p, t, scale):
        # the floor (1 - (1-p)^b)^t (1-p)^2 stays within the MSE up to the
        # cap's predecessor and exceeds it one size past the cap
        b_max = math.ceil(10.0 / p)
        mse = scale * (1.0 - p) ** 2
        cap = estimation._saturation_cap(p, t, mse, b_max)
        assert 1 <= cap <= b_max

        def floor(b):
            return pool_positive_prob(p, b) ** t * (1.0 - p) ** 2

        if cap < b_max:
            assert floor(cap + 1) > mse
        if cap > 1:
            assert floor(cap - 1) <= mse * (1.0 + 1e-9)

    def test_saturation_cap_without_a_bound(self):
        # no logarithm of zero: an MSE of 0 or one at the floor's ceiling
        # bounds nothing
        assert estimation._saturation_cap(0.01, 100, 0.0, 1000) == 1000
        assert estimation._saturation_cap(0.01, 100, 0.99**2, 1000) == 1000
        assert estimation._saturation_cap(0.01, 100, 1.0, 1000) == 1000

    def test_target_mode_capped(self):
        plan = gg_optimal_pool(0.01, target_nrmse=0.15, cap=20)
        assert plan == GibbsGowerPlan(20, 244)
        plan = gg_optimal_pool(0.3, target_nrmse=0.15, cap=20)
        assert plan.pool_size == 4

    def test_target_mode_uncapped(self):
        plan = gg_optimal_pool(0.05, target_nrmse=0.15)
        assert plan.num_pools == 72
        assert abs(plan.pool_size - 27) <= 1
        plan = gg_optimal_pool(0.01, target_nrmse=0.15)
        assert plan.num_pools == 76
        assert plan.pool_size == 138

    def test_target_mode_finds_a_dip_inside_the_plateau(self):
        # 34 pools on b = 78..98, except b = 89, which needs only 33
        p, target = 0.010663944611457131, 0.24605026327803675
        assert gg_tests_needed(p, 88, target) == gg_tests_needed(p, 90, target) == 34
        assert gg_tests_needed(p, 89, target) == 33
        assert gg_optimal_pool(p, target_nrmse=target) == GibbsGowerPlan(89, 33)

    def test_gain_vs_individual(self):
        plan = gg_optimal_pool(0.01, target_nrmse=0.15, cap=20)
        gain = gg_tests_needed(0.01, 1, 0.15) / plan.num_pools
        assert gain == pytest.approx(18.0, abs=0.2)
        plan = gg_optimal_pool(0.3, target_nrmse=0.15, cap=20)
        gain = gg_tests_needed(0.3, 1, 0.15) / plan.num_pools
        assert gain == pytest.approx(2.0, abs=0.1)

    def test_target_mode_infeasible_message(self):
        with pytest.raises(InfeasibleDesignError) as err:
            gg_optimal_pool(0.01, target_nrmse=1e-4, cap=20)
        assert str(err.value) == "no pool size up to 20 reaches NRMSE 0.0001 at prevalence 0.01"

    @settings(deadline=None, max_examples=40)
    @given(st.floats(0.005, 0.45), st.floats(0.05, 0.4), st.integers(1, 80))
    def test_target_mode_matches_brute_force(self, p, target, cap):
        # every size's own requirement, then the smallest MSE among the sizes
        # that need the fewest pools
        needs = {}
        for b in range(1, cap + 1):
            try:
                needs[b] = gg_tests_needed(p, b, target)
            except InfeasibleDesignError:
                pass
        if not needs:
            with pytest.raises(InfeasibleDesignError):
                gg_optimal_pool(p, target_nrmse=target, cap=cap)
            return
        t_star = min(needs.values())
        tied = [b for b, t in needs.items() if t == t_star]
        best = min(tied, key=lambda b: (gg_mse(p, b, t_star), b))
        plan = gg_optimal_pool(p, target_nrmse=target, cap=cap)
        assert plan == GibbsGowerPlan(best, t_star)
        assert plan.num_pools == gg_tests_needed(p, plan.pool_size, target)

    @pytest.mark.parametrize("p, plan, counts", [
        # the answer is the start's requirement of 78: no size meets the target at 77
        (1e-4, GibbsGowerPlan(12084, 78), [78, 77]),
        # the probe at 75 misses and the one above it meets
        (0.01, GibbsGowerPlan(138, 76), [77, 75, 76]),
        # the answer lies 4 below the start's requirement of 83
        (1e-5, GibbsGowerPlan(110159, 79), [83, 78, 79]),
    ])
    def test_target_mode_gallops_from_a_predicted_count(self, monkeypatch, p, plan, counts):
        # a bisection from 0 swept at 8 counts at p = 1e-4
        swept = []
        sweep = estimation._mse_many
        monkeypatch.setattr(estimation, "_mse_many",
                            lambda p, bs, t: swept.append(t) or sweep(p, bs, t))
        assert gg_optimal_pool(p, target_nrmse=0.15) == plan
        assert swept == counts

    def test_mode_exclusivity(self):
        with pytest.raises(ValueError):
            gg_optimal_pool(0.05)
        with pytest.raises(ValueError):
            gg_optimal_pool(0.05, fixed_tests=100, target_nrmse=0.15)


class TestMinimizeCost:
    def test_samples_plus_ten_tests(self):
        opt = gg_minimize_cost(0.05, CostModel(1.0, 10.0), 0.15)
        assert (opt.plan.pool_size, opt.plan.num_pools, opt.total_samples) == (13, 93, 1209)
        opt = gg_minimize_cost(0.01, CostModel(1.0, 10.0), 0.15)
        assert opt.plan.pool_size == 37
        assert opt.total_samples == opt.plan.pool_size * opt.plan.num_pools

    def test_pure_test_cost_reduces_to_min_tests(self):
        opt = gg_minimize_cost(0.05, CostModel(0.0, 1.0), 0.15)
        assert abs(opt.plan.pool_size - 27) <= 1
        assert abs(opt.plan.num_pools - 73) <= 1

    def test_pool_size_cap(self):
        # uncapped, the optimum at 1% is pools of 37
        caps = ConstraintSet(max_pool_size=5)
        assert gg_minimize_cost(0.01, CostModel(1.0, 10.0), 0.15, caps=caps).plan.pool_size == 5

    def test_objective_value_consistent(self):
        cost = CostModel(1.0, 10.0)
        opt = gg_minimize_cost(0.05, cost, 0.15)
        assert opt.objective_value == cost.objective(opt.total_samples, opt.plan.num_pools)

    def test_requirement_past_the_search_limit_is_skipped(self):
        # pool size 1 needs more than the search limit of pools; size 2 does not
        opt = gg_minimize_cost(3e-5, CostModel(1.0, 0.0), 0.15)
        assert opt.plan == GibbsGowerPlan(2, 740731)

    def test_prunes_in_one_sweep(self, monkeypatch):
        # the scan over every size up to its stop made 1,015 exact evaluations
        calls = []
        exact = estimation._exact_moments
        monkeypatch.setattr(estimation, "_exact_moments",
                            lambda p, b, t: calls.append(b) or exact(p, b, t))
        opt = gg_minimize_cost(0.001, CostModel(1.0, 10.0), 0.15)
        assert (opt.plan.pool_size, opt.plan.num_pools) == (131, 364)
        assert len(calls) <= 200

    @settings(deadline=None, max_examples=25)
    @given(
        st.floats(math.log(1e-3), math.log(0.45)).map(math.exp),
        st.floats(0.05, 0.4),
        st.sampled_from([0.0, 1.0]),
        st.one_of(st.just(0.0), st.floats(0.5, 50)),
    )
    def test_matches_the_scan(self, p, target, alpha, beta):
        assume(alpha + beta > 0.0)
        cost = CostModel(alpha, beta)
        expected = literal_procedures.minimize_cost_by_scan(p, cost, target)
        assert gg_minimize_cost(p, cost, target).plan == expected

    @settings(deadline=None, max_examples=40)
    @given(
        st.floats(0.005, 0.45),
        st.floats(0.05, 0.4),
        st.integers(1, 80),
        st.sampled_from([0.0, 1.0]),
        st.one_of(st.just(0.0), st.floats(0.5, 50)),
    )
    # tiny prevalences, where the small sizes need more pools than the search limit
    @example(p=1e-4, target=0.15, cap=80, alpha=1.0, beta=10.0)
    @example(p=1e-5, target=0.15, cap=60, alpha=1.0, beta=0.0)
    def test_matches_brute_force(self, p, target, cap, alpha, beta):
        assume(alpha + beta > 0.0)
        # every size's fractional requirement times its weight; the smallest
        # size among the cheapest
        objectives = {}
        for b in range(1, cap + 1):
            try:
                objectives[b] = gg_tests_needed_real(p, b, target) * (alpha * b + beta)
            except InfeasibleDesignError:
                pass
        cost, caps = CostModel(alpha, beta), ConstraintSet(max_pool_size=cap)
        if not objectives:
            with pytest.raises(InfeasibleDesignError):
                gg_minimize_cost(p, cost, target, caps)
            return
        best = min(objectives, key=lambda b: (objectives[b], b))
        opt = gg_minimize_cost(p, cost, target, caps)
        assert opt.plan == GibbsGowerPlan(best, gg_tests_needed(p, best, target))

    def test_cost_model_validation(self):
        with pytest.raises(ValueError):
            CostModel(0.0, 0.0)
        with pytest.raises(ValueError):
            CostModel(-1.0, 1.0)


class TestRuleOfThumb:
    def test_published_rows(self):
        assert estimation_rule_of_thumb(0.01) == GibbsGowerPlan(8, 600)
        assert estimation_rule_of_thumb(0.30) == GibbsGowerPlan(4, 40)
        assert estimation_rule_of_thumb(0.05) == GibbsGowerPlan(8, 120)

    def test_switch_at_ten_percent(self):
        assert estimation_rule_of_thumb(0.10).pool_size == 8
        assert estimation_rule_of_thumb(0.101).pool_size == 4

    def test_domain(self):
        with pytest.raises(ValueError):
            estimation_rule_of_thumb(0.0)
        with pytest.raises(ValueError):
            estimation_rule_of_thumb(0.6)


class TestDorfmanBaseline:
    def test_reference_cells(self):
        assert dorfman_estimation_rmse(0.05, 100) == pytest.approx(1.42e-2, rel=0.005)
        assert dorfman_estimation_rmse(0.001, 100) == pytest.approx(7.92e-4, rel=0.005)

    def test_no_gain_at_even_odds(self):
        # pooling never pays at 50% prevalence: falls back to individual testing
        assert dorfman_estimation_rmse(0.5, 100) == pytest.approx(math.sqrt(0.25 / 100))

    @pytest.mark.parametrize("p", [1e-6, 1e-4, 0.01, 0.3, 0.31, 0.35, 0.418, 0.45, 0.9])
    def test_matches_a_scan_past_the_continuous_optimum(self, p):
        # the reference scans every batch to max(64, ceil(b0) + 2), or to 64
        # where the cost has no interior minimum b0, and must agree bit for bit
        try:
            cap = max(64, math.ceil(dorfman_optimal_batch_continuous(p)) + 2)
        except ValueError:
            cap = 64
        cost = min(1.0, *(dorfman_expected_tests_per_person(p, b) for b in range(2, cap + 1)))
        assert dorfman_estimation_rmse(p, 100) == math.sqrt(p * (1.0 - p) / (100 / cost))


# ---------------------------------------------------------------------------
# saturation pathology and reports
# ---------------------------------------------------------------------------

class TestSaturation:
    def test_oversized_pools_destroy_the_estimate(self):
        # at 30% prevalence a pool of 30 is positive 99.998% of the time;
        # the study is effectively blind however it is analyzed
        assert pool_positive_prob(0.3, 30) > 0.999
        assert gg_nrmse(0.3, 30, 100) > 1.0

    def test_saturated_outcome_flagged(self):
        report = report_for_outcome(PoolTestOutcome(10, 10, 8))
        assert report.saturated
        assert report.p_hat == 1.0
        assert report.mse is None

    def test_plan_report_fields(self):
        report = report_for_plan(0.01, 8, 600)
        assert report.p_hat is None
        assert report.nrmse == pytest.approx(0.146, abs=5e-4)
        assert not report.saturated

    def test_outcome_report_fields(self):
        report = report_for_outcome(PoolTestOutcome(6, 2, 7))
        assert report.p_hat == pytest.approx(0.0563, abs=5e-4)
        assert report.pool_positive_rate_hat == pytest.approx(1 / 3)
        assert report.mse is not None and report.mse > 0
