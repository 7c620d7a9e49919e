"""Acceptance suite: pins the toolkit against its published reference values.

Every criterion is exercised at a fixed tolerance and prints one PASS/FAIL
line (run with -rA or -s to see them all).  Monte Carlo criteria use fixed
seeds, so the whole suite is deterministic.

Two checks are asserted exactly as specified even though the measured
mathematics cannot satisfy them; they fail by construction and say so in
their messages:

* test_criterion_04b: the pool size printed for the 0.01% row of the
  100-test RMSE table (13726) sits on an MSE plateau that is flat to ~2.5e-7
  relative; the true integer minimizer is 13721, verified in 60-digit
  arithmetic.  A +/-2 band around 13726 excludes the actual optimum.
* test_criterion_09b: the classical array/hypercube cost approximations
  differ from a faithful simulation by 6.4% (array) and a factor of ~44
  (3-d hypercube) at prevalence 5% with side 8, so the stated 5% bound on
  that gap is not attainable; the bound does hold for the array form below
  roughly 1.7% prevalence.
"""

import math

import numpy as np
import pytest

from literal_procedures import sterrett_expected_tests_enumerated

from poolscreen import (
    ArrayDesign,
    ConstraintSet,
    DorfmanDesign,
    GibbsGowerPlan,
    HypercubeDesign,
    SterrettDesign,
    array_expected_tests_exact,
    array_expected_tests_per_person,
    classification_crossovers,
    dorfman_expected_tests_per_person,
    dorfman_optimal_batch,
    gg_asymptotic_variance,
    gg_expected_estimate,
    gg_mse,
    hypercube_expected_tests_exact,
    hypercube_expected_tests_per_person,
    independence_gap,
    individual_false_negative_rate,
    lambert_w0,
    monte_carlo,
    pool_positive_prob,
    pooled_false_negative_rate,
    sterrett_expected_tests_per_batch,
)
from poolscreen.dilution import DilutionScenario
from poolscreen.estimation import _estimates_for_counts
from poolscreen.tables import build_table


def report(criterion: str, passed: bool, detail: str = "") -> None:
    status = "PASS" if passed else "FAIL"
    print(f"ACCEPTANCE {criterion}: {status}" + (f" - {detail}" if detail else ""))


# ---------------------------------------------------------------------------
# criterion 1: classification example table
# ---------------------------------------------------------------------------

def test_criterion_01_classification_examples():
    """Optimal batches and individuals-per-test at 30% / 3% / 0.3% prevalence."""
    table = build_table("examples-classification")
    rows = {(r[0], r[1]): r for r in table.rows}

    # exact optima for Dorfman and array testing
    assert rows[(0.3, "simple Dorfman")][2] == 3
    assert rows[(0.03, "simple Dorfman")][2] == 6
    assert rows[(0.003, "simple Dorfman")][2] == 19
    assert rows[(0.03, "batched array testing")][2] == 12
    assert rows[(0.003, "batched array testing")][2] == 52

    # individuals per test within 2% of the printed reference values
    reference = {
        (0.3, "simple Dorfman"): 1.01,
        (0.03, "simple Dorfman"): 3.03,
        (0.003, "simple Dorfman"): 9.09,
        (0.3, "Sterrett testing"): 1.11,
        (0.03, "Sterrett testing"): 3.70,
        (0.003, "Sterrett testing"): 12.50,
        (0.03, "batched array testing"): 3.84,
        (0.003, "batched array testing"): 16.84,
    }
    worst = 0.0
    for key, ref in reference.items():
        got = rows[key][3]
        worst = max(worst, abs(got - ref) / ref)
        assert got == pytest.approx(ref, rel=0.02), (key, got, ref)

    # the printed Sterrett batches themselves (2 / 9 / 30) also reproduce
    for rho, b, ref in [(0.3, 2, 1.11), (0.03, 9, 3.70), (0.003, 30, 12.50)]:
        got = b / sterrett_expected_tests_per_batch(rho, b)
        assert got == pytest.approx(ref, rel=0.02)

    # array testing cannot pay for itself at 30% prevalence
    assert rows[(0.3, "batched array testing")][2] is None
    report("01 classification examples", True, f"worst cell deviation {worst:.2%}")


# ---------------------------------------------------------------------------
# criterion 2: headline classification chart
# ---------------------------------------------------------------------------

def test_criterion_02_classification_chart():
    """Pool size 3..8 by prevalence band, gains inside the printed ranges."""
    cap = ConstraintSet(max_pool_size=8)
    bands = [
        (0.20, 3, (1.0, 1.5)),
        (0.09, 4, (1.5, 2.0)),
        (0.05, 5, (2.0, 2.5)),
        (0.034, 6, (2.5, 3.0)),
        (0.024, 7, (3.0, 3.5)),
        (0.01, 8, (3.5, 8.0)),
    ]
    for rho, expected_b, (gain_lo, gain_hi) in bands:
        b = dorfman_optimal_batch(rho, cap).batch_size
        assert b == expected_b, (rho, b, expected_b)
        gain = 1.0 / dorfman_expected_tests_per_person(rho, b)
        assert gain_lo <= gain <= gain_hi, (rho, gain)

    # band boundaries may round either way, within one pool size
    boundaries = [(0.125, 3, 4), (0.066, 4, 5), (0.041, 5, 6), (0.028, 6, 7), (0.02, 7, 8)]
    for rho, b_above, b_below in boundaries:
        b = dorfman_optimal_batch(rho, cap).batch_size
        assert b_above - 1 <= b <= b_below + 1, (rho, b)
    report("02 classification chart", True)


# ---------------------------------------------------------------------------
# criterion 3: headline estimation chart
# ---------------------------------------------------------------------------

def test_criterion_03_estimation_chart():
    """Capped pool sizes and efficiency gains for the 15% NRMSE target."""
    table = build_table("exec-estimation")
    expected = [
        (0.001, 20, 20), (0.002, 20, 20), (0.005, 20, 19),
        (0.01, 20, 18), (0.02, 20, 16), (0.05, 20, 11),
        (0.10, 13, 5.8), (0.20, 6, 2.9), (0.30, 4, 2.0),
    ]
    worst = 0.0
    for row, (p, ref_b, ref_gain) in zip(table.rows, expected):
        assert row[0] == p
        assert abs(row[1] - ref_b) <= 1, (p, row[1], ref_b)
        rel = abs(row[2] - ref_gain) / ref_gain
        worst = max(worst, rel)
        assert rel <= 0.05, (p, row[2], ref_gain)
    report("03 estimation chart", True, f"worst gain deviation {worst:.2%}")


# ---------------------------------------------------------------------------
# criterion 4: RMSE from a budget of 100 tests
# ---------------------------------------------------------------------------

def test_criterion_04_rmse_given_100_tests():
    table = build_table("rmse-100")
    rows = {r[0]: r for r in table.rows}
    nongroup_ref = {0.05: 2.18e-2, 0.01: 9.95e-3, 0.001: 3.16e-3, 0.0001: 1.00e-3}
    dorfman_ref = {0.05: 1.42e-2, 0.01: 4.40e-3, 0.001: 7.92e-4, 0.0001: 1.41e-4}
    gg_ref = {0.05: 6.28e-3, 0.01: 1.28e-3, 0.001: 1.29e-4, 0.0001: 1.29e-5}
    gg_b_ref = {0.05: 28, 0.01: 143, 0.001: 1428}

    for p, row in rows.items():
        assert row[1] == math.sqrt(p * (1 - p) / 100)  # exact closed form
        assert row[1] == pytest.approx(nongroup_ref[p], rel=0.005)
        assert row[2] == pytest.approx(dorfman_ref[p], rel=0.02)
        assert row[3] == pytest.approx(gg_ref[p], rel=0.02)
    for p, b_ref in gg_b_ref.items():
        assert abs(rows[p][4] - b_ref) <= 2, (p, rows[p][4], b_ref)
    report("04 RMSE at 100-test budget", True, "pool sizes 28/143/1428 exact")


def test_criterion_04b_largest_budget_pool_size_as_stated():
    """As stated, the 0.01% optimal pool must be within 2 of 13726.

    The exact MSE over pool sizes 13490..13960 is flat to ~2.5e-7 relative;
    high-precision (60-digit) evaluation puts the true integer minimizer at
    13721, with the MSE at 13726 about 2.5e-7 relative above it.  A correct
    exact-MSE optimizer therefore cannot land within +/-2 of 13726, and this
    check fails by construction.  (Everything printable about the cell - the
    RMSE itself - matches to 0.2%, see test_criterion_04.)
    """
    table = build_table("rmse-100")
    b_found = {r[0]: r[4] for r in table.rows}[0.0001]
    mse_found = gg_mse(0.0001, b_found, 100)
    mse_printed = gg_mse(0.0001, 13726, 100)
    passed = abs(b_found - 13726) <= 2
    report(
        "04b budget pool size at 0.01% (stated +/-2 band)",
        passed,
        f"found b={b_found} (MSE {mse_found:.9e}); printed 13726 has MSE "
        f"{mse_printed:.9e}, {mse_printed / mse_found - 1.0:.2e} relative above",
    )
    assert passed, (
        f"optimal pool {b_found} is not within 2 of 13726: the printed value "
        "is plateau noise (MSE flat to ~2.5e-7 over 13490..13960; true "
        "minimizer 13721 confirmed at 60-digit precision)"
    )


# ---------------------------------------------------------------------------
# criterion 5: tests needed for 15% NRMSE
# ---------------------------------------------------------------------------

def test_criterion_05_tests_needed_table():
    table = build_table("tests-for-15pct")
    rows = {r[0]: r for r in table.rows}

    for p, t1, t5 in [
        (0.05, 845, 189), (0.01, 4400, 899), (0.001, 44400, 8899), (0.0001, 444400, 88899),
    ]:
        assert rows[p][1] == t1, (p, rows[p][1], t1)
        assert rows[p][2] == t5, (p, rows[p][2], t5)

    optimal_ref = {0.05: (73, 27), 0.01: (76, 138), 0.001: (77, 1320), 0.0001: (79, 12150)}
    for p, (t_ref, b_ref) in optimal_ref.items():
        t_got, b_got = rows[p][3], rows[p][4]
        assert abs(t_got - t_ref) <= 1, (p, t_got, t_ref)
        if p in (0.05, 0.01):
            assert abs(b_got - b_ref) <= 3, (p, b_got, b_ref)
        else:
            # the reference prints these optima as approximate (~1320,
            # ~12150): the test count is granted +/-1 above, and one test
            # either way moves the flat optimum by ~100 pools, so the pool
            # size is held to 1% rather than +/-3
            assert abs(b_got - b_ref) / b_ref <= 0.01, (p, b_got, b_ref)
    report(
        "05 tests needed for 15% NRMSE",
        True,
        "fixed columns exact; optimal tests "
        + "/".join(str(rows[p][3]) for p in (0.05, 0.01, 0.001, 0.0001))
        + " vs printed 73/76/77/79",
    )


# ---------------------------------------------------------------------------
# criterion 6: samples + 10 * tests cost optimization
# ---------------------------------------------------------------------------

def test_criterion_06_cost_optimized_plans():
    table = build_table("cost-optimized")
    reference = {0.05: (13, 93, 1209), 0.01: (37, 145, 5365), 0.001: (131, 363, 47553)}
    worst = 0.0
    for p, b, t, s in table.rows:
        rb, rt, rs = reference[p]
        for got, ref in ((b, rb), (t, rt), (s, rs)):
            rel = abs(got - ref) / ref
            worst = max(worst, rel)
            assert rel <= 0.05, (p, (b, t, s), reference[p])
    report("06 cost-optimized plans", True, f"worst deviation {worst:.2%}")


# ---------------------------------------------------------------------------
# criterion 7: rule-of-thumb NRMSE table
# ---------------------------------------------------------------------------

def test_criterion_07_rule_of_thumb_nrmse():
    table = build_table("guidelines-nrmse")
    reference = [14.5, 14.6, 15.5, 17.0, 14.9, 17.3]  # percent
    worst = 0.0
    for row, ref in zip(table.rows, reference):
        got = 100.0 * row[3]
        worst = max(worst, abs(got - ref))
        assert abs(got - ref) <= 0.4, (row, got, ref)
    report("07 rule-of-thumb NRMSE", True, f"worst deviation {worst:.2f} points")


# ---------------------------------------------------------------------------
# criterion 8: Dorfman / array efficiency crossovers
# ---------------------------------------------------------------------------

def test_criterion_08_efficiency_crossovers():
    crossings = classification_crossovers(dorfman_cap=8, array_side=8)
    assert len(crossings) == 2, crossings
    lo, hi = crossings
    assert 0.018 <= lo <= 0.021, lo
    assert 0.109 <= hi <= 0.114, hi
    report("08 efficiency crossovers", True, f"at {lo:.4%} and {hi:.4%}")


# ---------------------------------------------------------------------------
# criterion 9: Monte Carlo oracle equivalence
# ---------------------------------------------------------------------------

REPS = 100_000


def test_criterion_09_dorfman_and_sterrett_match_simulation():
    """12 grid points, 1e5 replications each, agreement within 3 SE."""
    worst = 0.0
    dorfman_points = [
        (0.003, 19, 9001), (0.01, 11, 9002), (0.03, 6, 9003),
        (0.05, 5, 9004), (0.10, 4, 9005), (0.30, 3, 9006),
    ]
    for rho, b, seed in dorfman_points:
        out = monte_carlo(DorfmanDesign(b), rho, 20 * b, REPS, seed=seed)
        expected = dorfman_expected_tests_per_person(rho, b)
        z = abs(out.mean_tests - expected) / out.se_tests
        worst = max(worst, z)
        assert z <= 3.0, ("dorfman", rho, b, z)

    sterrett_points = [
        (0.003, 30, 9101), (0.01, 15, 9102), (0.03, 9, 9103),
        (0.05, 7, 9104), (0.10, 5, 9105), (0.30, 2, 9106),
    ]
    for rho, b, seed in sterrett_points:
        out = monte_carlo(SterrettDesign(b), rho, 10 * b, REPS, seed=seed)
        if b <= 15:  # brute-force oracle; the closed form is checked equal to it
            expected = sterrett_expected_tests_enumerated(rho, b) / b
        else:
            expected = sterrett_expected_tests_per_batch(rho, b) / b
        z = abs(out.mean_tests - expected) / out.se_tests
        worst = max(worst, z)
        assert z <= 3.0, ("sterrett", rho, b, z)
    report("09 Dorfman/Sterrett vs simulation", True, f"worst |z| = {worst:.2f}")


def test_criterion_09_estimator_mse_matches_simulation():
    """Exact MSE vs empirical squared error at 6 grid points, 3 SE."""
    points = [
        (0.05, 28, 100, 9201), (0.01, 143, 100, 9202), (0.01, 8, 600, 9203),
        (0.10, 13, 69, 9204), (0.30, 4, 40, 9205), (0.002, 20, 1132, 9206),
    ]
    worst = 0.0
    for p, b, t, seed in points:
        out = monte_carlo(GibbsGowerPlan(b, t), p, None, REPS, seed=seed)
        exact = gg_mse(p, b, t)
        # SE of the mean squared error, estimated from an independent draw
        rng = np.random.default_rng(np.random.SeedSequence(seed + 1))
        sq = (
            _estimates_for_counts(
                rng.binomial(t, pool_positive_prob(p, b), size=REPS), t, b
            )
            - p
        ) ** 2
        se = sq.std(ddof=1) / math.sqrt(REPS)
        z = abs(out.empirical_rmse**2 - exact) / se
        worst = max(worst, z)
        assert z <= 3.0, (p, b, t, z)

        # the empirical estimator mean also validates the exact bias sum
        p_hats = _estimates_for_counts(
            rng.binomial(t, pool_positive_prob(p, b), size=REPS), t, b
        )
        mean_se = p_hats.std(ddof=1) / math.sqrt(REPS)
        z_mean = abs(p_hats.mean() - gg_expected_estimate(p, b, t)) / mean_se
        assert z_mean <= 3.0, (p, b, t, z_mean)
    report("09 estimator MSE vs simulation", True, f"worst |z| = {worst:.2f}")


def test_criterion_09_array_hypercube_match_exact_expectation():
    """The simulation agrees with the exact inclusion-exclusion costs;
    the classical approximations differ by the documented gap."""
    out = monte_carlo(ArrayDesign(8), 0.05, 64, REPS, seed=9301)
    exact = array_expected_tests_exact(0.05, 8)
    z = abs(out.mean_tests - exact) / out.se_tests
    assert z <= 3.0, z
    gap_array = independence_gap(0.05, 8, 2)
    mc_gap = out.mean_tests / array_expected_tests_per_person(0.05, 8) - 1.0
    assert mc_gap == pytest.approx(gap_array, abs=3 * out.se_tests / exact)

    out3 = monte_carlo(HypercubeDesign(8, 3), 0.01, 512, REPS, seed=9302)
    exact3 = hypercube_expected_tests_exact(0.01, 8, 3)
    z3 = abs(out3.mean_tests - exact3) / out3.se_tests
    assert z3 <= 3.0, z3
    report(
        "09 array/hypercube vs exact expectation",
        True,
        f"|z| = {z:.2f} (array), {z3:.2f} (cube); measured array gap {mc_gap:+.2%}",
    )


def test_criterion_09b_approximation_gap_bound_as_stated():
    """As stated, the approximation-vs-simulation gap must stay below 5%
    for prevalences up to 5% at side 8.

    The gap is a property of the formulas, not of the simulation: the exact
    expected cost exceeds the array approximation by 6.4% at prevalence 5%
    (the approximation ignores the row/column correlation through the shared
    cell), and the 3-d product-form approximation overshoots by a factor of
    ~44 there (it counts incoherent line triples).  The bound does hold for
    the array form up to roughly 1.7% prevalence.  Fails by construction.
    """
    gaps = {
        (rho, d): abs(independence_gap(rho, 8, d))
        for rho in (0.01, 0.03, 0.05)
        for d in (2, 3)
    }
    passed = all(g < 0.05 for g in gaps.values())
    detail = ", ".join(f"rho={rho:g} d={d}: {g:.1%}" for (rho, d), g in gaps.items())
    report("09b approximation gap < 5% up to 5% prevalence (stated)", passed, detail)
    assert passed, (
        "the independence approximations are small-prevalence asymptotics; "
        f"measured gaps vs the exact expectation: {detail}"
    )


def test_criterion_09_dilution_noise_cross_module():
    """Noisy pooled tests reproduce the dilution module's miss rate."""
    noise = DilutionScenario(
        aliquot_volume=1.0, sample_volume=20.0, concentration=5.0,
        pool_size=10, prevalence=0.01,
    )
    out = monte_carlo(DorfmanDesign(10), 0.01, 100, REPS, seed=9401, noise=noise)
    expected = pooled_false_negative_rate(noise)
    n_pools_pos = REPS * 10 * (1 - 0.99**10)
    se = math.sqrt(expected * (1 - expected) / n_pools_pos)
    z = abs(out.pool_miss_rate - expected) / se
    assert z <= 3.0, z
    report("09 dilution noise cross-module", True, f"|z| = {z:.2f}")


# ---------------------------------------------------------------------------
# criterion 10: property suites
# ---------------------------------------------------------------------------

def test_criterion_10_lambert_w_residuals():
    rng = np.random.default_rng(1005)
    xs = np.concatenate(
        [
            np.linspace(-1 / math.e + 1e-12, 1.0, 400),
            np.geomspace(1.0, 1e9, 400),
            rng.uniform(-1 / math.e, 20.0, 200),
        ]
    )
    worst = 0.0
    for x in xs:
        w = lambert_w0(float(x))
        resid = abs(w * math.exp(w) - x) / max(abs(x), 1e-12)
        worst = max(worst, resid)
    assert worst <= 1e-12, worst
    report("10 Lambert W back-substitution", True, f"worst residual {worst:.2e} on {len(xs)} pts")


def test_criterion_10_single_sample_specializations_exact():
    for p in (0.001, 0.05, 0.3, 0.9):
        for t in (10, 100, 1000):
            assert gg_expected_estimate(p, 1, t) == p
            assert gg_mse(p, 1, t) == p * (1 - p) / t
            assert gg_asymptotic_variance(p, 1, t) == pytest.approx(
                p * (1 - p) / t, rel=1e-15
            )
    report("10 single-sample specializations", True, "exact to machine precision")


def test_criterion_10_hypercube_dim2_is_array():
    for b in range(2, 17):
        for rho in np.linspace(0.0, 0.9, 19):
            assert hypercube_expected_tests_per_person(rho, b, 2) == pytest.approx(
                array_expected_tests_per_person(rho, b), abs=1e-15
            )
    report("10 hypercube(d=2) == array", True)


def test_criterion_10_estimator_bias_sign():
    """E[p_hat] >= p on the full planning grid."""
    for p in (0.001, 0.003, 0.01, 0.03, 0.1, 0.3):
        for t in (10, 100, 1000):
            for b in range(2, 65):
                assert gg_expected_estimate(p, b, t) >= p, (p, b, t)
    report("10 estimator bias sign", True, "E[p_hat] >= p on 6 x 63 x 3 grid")


def test_criterion_10_dilution_monotone():
    for conc in (0.5, 5.0, 50.0):
        for p in (0.005, 0.05, 0.5):
            scenario = DilutionScenario(1.0, 20.0, conc, 1, p)
            rates = [
                pooled_false_negative_rate(scenario.with_pool_size(n)) for n in range(1, 65)
            ]
            assert rates[0] == individual_false_negative_rate(scenario)
            assert all(a <= b + 1e-12 for a, b in zip(rates, rates[1:]))
    report("10 dilution monotonicity", True)


def test_criterion_10_seed_determinism():
    runs = [
        monte_carlo(DorfmanDesign(5), 0.05, 100, 10_000, seed=77, workers=w)
        for w in (1, 3, 7)
    ]
    assert runs[0] == runs[1] == runs[2]
    rerun = monte_carlo(DorfmanDesign(5), 0.05, 100, 10_000, seed=77)
    assert rerun == runs[0]
    report("10 seed determinism across worker counts", True)
