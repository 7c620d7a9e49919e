"""The argument contract of the public functions.

Bad input raises ValueError naming the argument: numeric strings, NaN,
infinities, floats where an integer belongs and bool are all rejected.
NumPy scalars are accepted and give the results of the Python numbers.
"""

import math

import numpy as np
import pytest

from poolscreen import designs as d
from poolscreen import dilution as dil
from poolscreen import estimation as e
from poolscreen import simulation as s
from poolscreen.cli import main

NAN, INF = math.nan, math.inf


def scenario(**changes):
    fields = dict(aliquot_volume=1.0, sample_volume=20.0, concentration=5.0,
                  pool_size=10, prevalence=0.01)
    fields.update(changes)
    return dil.DilutionScenario(**fields)


# (id, call with one bad argument, text the message must contain)
BAD_CALLS = [
    # designs
    ("ConstraintSet-pool-float", lambda: d.ConstraintSet(max_pool_size=8.0), "max_pool_size"),
    ("ConstraintSet-cluster-bool", lambda: d.ConstraintSet(max_cluster_size=True),
     "max_cluster_size"),
    ("DorfmanDesign-float", lambda: d.DorfmanDesign(2.5), "batch size"),
    ("DorfmanDesign-bool", lambda: d.DorfmanDesign(True), "batch size"),
    ("ArrayDesign-str", lambda: d.ArrayDesign("8"), "array side"),
    ("ArrayDesign-confirm-str", lambda: d.ArrayDesign(8, "no"), "confirm_stage"),
    ("ArrayDesign-confirm-none", lambda: d.ArrayDesign(8, None), "confirm_stage"),
    ("ArrayDesign-confirm-int", lambda: d.ArrayDesign(8, 0), "confirm_stage"),
    ("HypercubeDesign-side-float", lambda: d.HypercubeDesign(4.0, 3), "hypercube side"),
    ("HypercubeDesign-dim-str", lambda: d.HypercubeDesign(4, "3"), "hypercube dimension"),
    ("SterrettDesign-numpy-float", lambda: d.SterrettDesign(np.float64(6)), "batch size"),
    ("lambert_w0-nan", lambda: d.lambert_w0(NAN), "x"),
    ("lambert_w0-inf", lambda: d.lambert_w0(INF), "x"),
    ("lambert_w0-str", lambda: d.lambert_w0("0.5"), "x"),
    ("dorfman_cost-str", lambda: d.dorfman_expected_tests_per_person("0.05", 5), "prevalence"),
    ("dorfman_cost-nan", lambda: d.dorfman_expected_tests_per_person(NAN, 5), "prevalence"),
    ("dorfman_cost-bool", lambda: d.dorfman_expected_tests_per_person(0.05, True), "batch size"),
    ("dorfman_cost-float", lambda: d.dorfman_expected_tests_per_person(0.05, 5.0), "batch size"),
    ("dorfman_continuous-inf", lambda: d.dorfman_optimal_batch_continuous(INF), "prevalence"),
    ("dorfman_optimal-str", lambda: d.dorfman_optimal_batch("0.02"), "prevalence"),
    ("dorfman_optimal-constraints-int", lambda: d.dorfman_optimal_batch(0.02, 5), "constraints"),
    ("array_cost-float", lambda: d.array_expected_tests_per_person(0.05, 8.5), "array side"),
    ("array_cost-confirm-str", lambda: d.array_expected_tests_per_person(0.05, 8, "false"),
     "confirm_stage"),
    ("array_exact-nan", lambda: d.array_expected_tests_exact(NAN, 8), "prevalence"),
    ("array_optimal-bool", lambda: d.array_optimal_side(True), "prevalence"),
    ("array_optimal-constraints-int", lambda: d.array_optimal_side(0.02, 5), "constraints"),
    ("hypercube_cost-dim-float", lambda: d.hypercube_expected_tests_per_person(0.05, 4, 3.0),
     "hypercube dimension"),
    ("hypercube_exact-str", lambda: d.hypercube_expected_tests_exact(0.05, "4", 3),
     "hypercube side"),
    ("hypercube_optimal-dim-bool", lambda: d.hypercube_optimal_side(0.05, True),
     "hypercube dimension"),
    ("hypercube_optimal-constraints-int", lambda: d.hypercube_optimal_side(0.05, 3, 5),
     "constraints"),
    ("independence_gap-dim-float", lambda: d.independence_gap(0.05, 8, 2.0),
     "hypercube dimension"),
    ("sterrett_cost-inf", lambda: d.sterrett_expected_tests_per_batch(INF, 6), "prevalence"),
    ("sterrett_cost-float", lambda: d.sterrett_expected_tests_per_batch(0.05, 6.5), "batch size"),
    ("sterrett_optimal-nan", lambda: d.sterrett_optimal_batch(NAN), "prevalence"),
    ("sterrett_optimal-constraints-int", lambda: d.sterrett_optimal_batch(0.05, 5),
     "constraints"),
    ("evaluate_design-str", lambda: d.evaluate_design(d.DorfmanDesign(5), "0.05"), "prevalence"),
    ("evaluate_design-gibbs-gower", lambda: d.evaluate_design(e.GibbsGowerPlan(5, 10), 0.05),
     "design"),
    ("evaluate_design-object", lambda: d.evaluate_design(object(), 0.05), "design"),
    ("best_design-nan", lambda: d.best_classification_design(NAN), "prevalence"),
    ("best_design-constraints-int", lambda: d.best_classification_design(0.05, 5),
     "constraints"),
    ("best_design-kind-unknown", lambda: d.best_classification_design(0.05, candidates=("grid",)),
     "architecture kind"),
    ("best_design-kind-list",
     lambda: d.best_classification_design(0.05, candidates=(["array"],)), "architecture kind"),
    ("crossovers-cap-float", lambda: d.classification_crossovers(dorfman_cap=8.0), "dorfman_cap"),
    ("crossovers-side-bool", lambda: d.classification_crossovers(array_side=True), "array_side"),
    ("crossovers-lo-zero", lambda: d.classification_crossovers(lo=0.0), "lo"),
    ("crossovers-hi-nan", lambda: d.classification_crossovers(hi=NAN), "hi"),
    ("crossovers-lo-above-hi", lambda: d.classification_crossovers(lo=0.2, hi=0.1),
     "lo must be below hi"),
    ("crossovers-grid-one", lambda: d.classification_crossovers(grid=1), "grid"),
    ("crossovers-grid-float", lambda: d.classification_crossovers(grid=100.0), "grid"),
    # estimation
    ("GibbsGowerPlan-float", lambda: e.GibbsGowerPlan(8.0, 50), "pool_size"),
    ("GibbsGowerPlan-bool", lambda: e.GibbsGowerPlan(8, True), "num_pools"),
    ("PoolTestOutcome-float", lambda: e.PoolTestOutcome(10, 3, 2.5), "pool_size"),
    ("PoolTestOutcome-str", lambda: e.PoolTestOutcome("10", 3, 2), "num_pools"),
    ("PoolTestOutcome-positive-float", lambda: e.PoolTestOutcome(10, 3.0, 2), "positive_pools"),
    ("PoolTestOutcome-positive-above", lambda: e.PoolTestOutcome(10, 11, 2), "positive_pools"),
    ("CostModel-nan", lambda: e.CostModel(NAN), "sample_weight"),
    ("CostModel-inf", lambda: e.CostModel(1.0, INF), "test_weight"),
    ("CostModel-str", lambda: e.CostModel("1"), "sample_weight"),
    ("CostModel-huge-int", lambda: e.CostModel(10**400), "sample_weight"),
    # integers past int64 overflow float conversion and NumPy's draws
    ("pool_positive_prob-huge-int", lambda: e.pool_positive_prob(0.05, 10**400), "pool size"),
    ("dorfman_cost-huge-int", lambda: d.dorfman_expected_tests_per_person(0.05, 10**400),
     "batch size"),
    ("gg_tests_needed-huge-int", lambda: e.gg_tests_needed(0.05, 10**400, 0.15), "pool size"),
    ("monte_carlo-pools-past-int64",
     lambda: s.monte_carlo(e.GibbsGowerPlan(8, 2**63), 0.05, None, 3, 0), "num_pools"),
    ("gg_asymptotic_variance-past-int64", lambda: e.gg_asymptotic_variance(0.05, 5, 2**63),
     "pool count"),
    ("pool_positive_prob-str", lambda: e.pool_positive_prob("0.05", 5), "prevalence"),
    ("pool_positive_prob-float", lambda: e.pool_positive_prob(0.05, 5.0), "pool size"),
    ("gg_expected_estimate-nan", lambda: e.gg_expected_estimate(NAN, 5, 100), "prevalence"),
    ("gg_mse-float-count", lambda: e.gg_mse(0.05, 5, 100.0), "pool count"),
    ("gg_mse-bool-size", lambda: e.gg_mse(0.05, True, 100), "pool size"),
    ("gg_asymptotic_variance-str", lambda: e.gg_asymptotic_variance(0.05, 5, "100"), "pool count"),
    ("gg_nrmse-inf", lambda: e.gg_nrmse(INF, 5, 100), "prevalence"),
    ("gg_nrmse-method", lambda: e.gg_nrmse(0.05, 5, 100, method="exakt"), "method"),
    ("gg_tests_needed-inf-target", lambda: e.gg_tests_needed(0.05, 5, INF), "target_nrmse"),
    ("gg_tests_needed-nan-target", lambda: e.gg_tests_needed(0.05, 5, NAN), "target_nrmse"),
    ("gg_tests_needed-str-target", lambda: e.gg_tests_needed(0.05, 5, "0.1"), "target_nrmse"),
    ("gg_tests_needed-method", lambda: e.gg_tests_needed(0.05, 1, 0.1, method="exakt"), "method"),
    ("gg_tests_needed_real-float", lambda: e.gg_tests_needed_real(0.05, 5.0, 0.1), "pool size"),
    ("gg_optimal_pool-str", lambda: e.gg_optimal_pool("0.05", fixed_tests=100), "prevalence"),
    ("gg_optimal_pool-fixed-float", lambda: e.gg_optimal_pool(0.05, fixed_tests=100.0),
     "fixed_tests"),
    ("gg_optimal_pool-cap-float", lambda: e.gg_optimal_pool(0.05, fixed_tests=100, cap=20.0),
     "cap"),
    ("gg_optimal_pool-target-inf", lambda: e.gg_optimal_pool(0.05, target_nrmse=INF),
     "target_nrmse"),
    ("gg_minimize_cost-nan", lambda: e.gg_minimize_cost(0.05, e.CostModel(), NAN), "target_nrmse"),
    ("gg_minimize_cost-caps-int", lambda: e.gg_minimize_cost(0.01, e.CostModel(), 0.15, caps=5),
     "caps"),
    ("gg_minimize_cost-cost-none", lambda: e.gg_minimize_cost(0.01, None, 0.15), "cost"),
    ("rule_of_thumb-bool", lambda: e.estimation_rule_of_thumb(True), "prevalence guess"),
    ("dorfman_estimation_rmse-float", lambda: e.dorfman_estimation_rmse(0.05, 100.0), "num_tests"),
    ("report_for_plan-nan", lambda: e.report_for_plan(NAN, 5, 100), "prevalence"),
    ("report_for_outcome-pools", lambda: e.report_for_outcome(e.PoolTestOutcome(100_001, 7, 5)),
     "pool count"),
    ("report_for_outcome-none", lambda: e.report_for_outcome(None), "outcome"),
    ("gg_estimate-none", lambda: e.gg_estimate(None), "outcome"),
    # dilution
    ("DilutionScenario-concentration-nan", lambda: scenario(concentration=NAN), "concentration"),
    ("DilutionScenario-aliquot-str", lambda: scenario(aliquot_volume="1"), "aliquot_volume"),
    ("DilutionScenario-sample-inf", lambda: scenario(sample_volume=INF), "sample_volume"),
    ("DilutionScenario-pool-float", lambda: scenario(pool_size=4.0), "pool_size"),
    ("DilutionScenario-prevalence-nan", lambda: scenario(prevalence=NAN), "prevalence"),
    ("max_pool-threshold-nan", lambda: dil.max_pool_size_for_threshold(scenario(), NAN),
     "threshold"),
    ("max_pool-float", lambda: dil.max_pool_size_for_threshold(scenario(), 0.05, 32.0),
     "max_pool"),
    ("max_pool-base-none", lambda: dil.max_pool_size_for_threshold(None, 0.05), "base"),
    ("individual_false_negative_rate-none",
     lambda: dil.individual_false_negative_rate(None), "scenario"),
    ("pooled_false_negative_rate-none", lambda: dil.pooled_false_negative_rate(None),
     "scenario"),
    # simulation
    ("monte_carlo-object", lambda: s.monte_carlo(object(), 0.05, 100, 10, seed=0), "design"),
    ("monte_carlo-str-design", lambda: s.monte_carlo("dorfman", 0.05, 100, 10, seed=0), "design"),
    ("monte_carlo-array-noise",
     lambda: s.monte_carlo(d.ArrayDesign(8), 0.05, 64, 10, seed=0, noise=scenario()), "noise"),
    ("monte_carlo-noise-str",
     lambda: s.monte_carlo(d.DorfmanDesign(4), 0.05, 40, 10, 1, noise="x"), "noise"),
    # a Gibbs-Gower plan fixes its own sample count
    ("monte_carlo-gibbs-gower-population",
     lambda: s.monte_carlo(e.GibbsGowerPlan(8, 100), 0.05, 123, 10, 0), "population_size"),
    ("monte_carlo-gibbs-gower-population-zero",
     lambda: s.monte_carlo(e.GibbsGowerPlan(8, 100), 0.05, 0, 10, 0), "population_size"),
    ("monte_carlo-str", lambda: s.monte_carlo(d.DorfmanDesign(5), "0.05", 100, 10, seed=0),
     "prevalence"),
    ("monte_carlo-nan", lambda: s.monte_carlo(d.DorfmanDesign(5), NAN, 100, 10, seed=0),
     "prevalence"),
    ("monte_carlo-reps-bool", lambda: s.monte_carlo(d.DorfmanDesign(5), 0.05, 100, True, seed=0),
     "reps"),
    ("monte_carlo-size-float", lambda: s.monte_carlo(d.DorfmanDesign(5), 0.05, 100.0, 10, seed=0),
     "population_size"),
    ("monte_carlo-workers-float",
     lambda: s.monte_carlo(d.DorfmanDesign(5), 0.05, 10, 10, seed=0, workers=2.5), "workers"),
    ("monte_carlo-workers-str",
     lambda: s.monte_carlo(d.DorfmanDesign(5), 0.05, 10, 10, seed=0, workers="2"), "workers"),
    ("monte_carlo-workers-zero",
     lambda: s.monte_carlo(d.DorfmanDesign(5), 0.05, 10, 10, seed=0, workers=0), "workers"),
    ("particle_miss_rate-reps-zero", lambda: s.simulate_particle_miss_rate(scenario(), 0, 1),
     "reps"),
    ("particle_miss_rate-reps-float", lambda: s.simulate_particle_miss_rate(scenario(), 2.5, 1),
     "reps"),
    ("particle_miss_rate-scenario-none", lambda: s.simulate_particle_miss_rate(None, 10, 1),
     "scenario"),
]


@pytest.mark.parametrize("call, name", [(c, n) for _, c, n in BAD_CALLS],
                         ids=[i for i, _, _ in BAD_CALLS])
def test_bad_argument_raises_value_error_naming_it(call, name):
    with pytest.raises(ValueError) as info:
        call()
    assert name in str(info.value)


def test_int64_limit_is_accepted():
    assert e.gg_asymptotic_variance(0.05, 5, 2**63 - 1) > 0.0
    assert e.GibbsGowerPlan(8, np.int64(2**63 - 1)).num_pools == 2**63 - 1


# (id, function, arguments); every bool, int and float argument is replayed as
# a NumPy scalar.  The floats are exact in float32, so np.float32 keeps values.
NUMPY_CALLS = [
    ("ConstraintSet", lambda a, b: d.array_optimal_side(0.03125, d.ConstraintSet(a, b)),
     (16, 100)),
    ("dorfman_cost", d.dorfman_expected_tests_per_person, (0.03125, 7)),
    ("dorfman_optimal", d.dorfman_optimal_batch, (0.03125,)),
    ("lambert_w0", d.lambert_w0, (-0.25,)),
    ("array_cost-confirm", d.array_expected_tests_per_person, (0.0625, 6, False)),
    ("ArrayDesign-confirm", lambda c: d.evaluate_design(d.ArrayDesign(6, c), 0.0625), (False,)),
    ("array_exact", d.array_expected_tests_exact, (0.0625, 6)),
    ("hypercube_cost", d.hypercube_expected_tests_per_person, (0.03125, 3, 3)),
    ("hypercube_optimal", d.hypercube_optimal_side, (0.03125, 3)),
    ("independence_gap", d.independence_gap, (0.0625, 5, 3)),
    ("sterrett_cost", d.sterrett_expected_tests_per_batch, (0.0625, 9)),
    ("best_design", lambda p, dim: d.best_classification_design(p, hypercube_dimension=dim),
     (0.03125, 3)),
    ("crossovers", d.classification_crossovers, (8, 8, 0.0078125, 0.25, 200)),
    ("PoolTestOutcome", lambda t, k, b: e.report_for_outcome(e.PoolTestOutcome(t, k, b)),
     (60, 7, 8)),
    ("CostModel", lambda a, b: e.gg_minimize_cost(0.03125, e.CostModel(a, b), 0.25), (1.0, 8.0)),
    ("pool_positive_prob", e.pool_positive_prob, (0.03125, 9)),
    ("gg_mse", e.gg_mse, (0.03125, 9, 120)),
    ("gg_nrmse", e.gg_nrmse, (0.03125, 9, 120)),
    ("gg_asymptotic_variance", e.gg_asymptotic_variance, (0.03125, 9, 120)),
    ("gg_tests_needed", e.gg_tests_needed, (0.03125, 9, 0.25)),
    ("gg_tests_needed_real", e.gg_tests_needed_real, (0.03125, 9, 0.25)),
    ("gg_optimal_pool-fixed", lambda p, t, cap: e.gg_optimal_pool(p, fixed_tests=t, cap=cap),
     (0.03125, 100, 64)),
    ("gg_optimal_pool-target", lambda p, x: e.gg_optimal_pool(p, target_nrmse=x), (0.03125, 0.25)),
    ("rule_of_thumb", e.estimation_rule_of_thumb, (0.03125,)),
    ("dorfman_estimation_rmse", e.dorfman_estimation_rmse, (0.03125, 100)),
    ("report_for_plan", e.report_for_plan, (0.03125, 9, 120)),
    ("DilutionScenario", lambda *f: dil.pooled_false_negative_rate(dil.DilutionScenario(*f)),
     (1.0, 16.0, 4.0, 8, 0.03125)),
    ("max_pool", lambda x, m: dil.max_pool_size_for_threshold(scenario(), x, m), (0.0625, 40)),
    ("monte_carlo", lambda p, n, reps, seed, workers: s.monte_carlo(
        d.SterrettDesign(5), p, n, reps, seed, workers=workers), (0.0625, 100, 300, 2, 2)),
    ("monte_carlo-noisy", lambda p, n, reps, seed: s.monte_carlo(
        d.DorfmanDesign(6), p, n, reps, seed, noise=scenario(prevalence=p)), (0.0625, 60, 300, 2)),
    ("particle_miss_rate", lambda reps,
     seed: s.simulate_particle_miss_rate(scenario(), reps, seed),
     (500, 9)),
]


def _numpy(x):
    if isinstance(x, bool):
        return np.bool_(x)
    if isinstance(x, float):
        assert float(np.float32(x)) == x
        return np.float32(x)
    return np.int32(x) if isinstance(x, int) else x


@pytest.mark.parametrize("fn, args", [(f, a) for _, f, a in NUMPY_CALLS],
                         ids=[i for i, _, _ in NUMPY_CALLS])
def test_numpy_scalars_give_the_python_result(fn, args):
    assert fn(*[_numpy(a) for a in args]) == fn(*args)


def test_cost_weights_inexact_in_float32_give_the_python_result():
    # 1.1 is not exact in float32: the weight computes as the float it holds
    weight = np.float32(1.1)
    opt = e.gg_minimize_cost(0.01, e.CostModel(weight, 10.0), 0.15)
    assert opt == e.gg_minimize_cost(0.01, e.CostModel(float(weight), 10.0), 0.15)
    assert type(opt.objective_value) is float


# Valid arguments where (1-p)^(b-2), in the asymptotic variance, leaves the
# double range: the variance and NRMSE are finite or inf, and the planners
# report an infeasible design, never ZeroDivisionError or OverflowError.
HUGE_POOLS = [
    ("gg_asymptotic_variance", lambda: e.gg_asymptotic_variance(0.5, 2000, 10), math.inf),
    ("gg_nrmse-asymptotic", lambda: e.gg_nrmse(0.5, 2000, 10, method="asymptotic"), math.inf),
    # (1-p)^(b-2) = 2^-1098 underflows, yet the variance is finite
    ("gg_asymptotic_variance-finite", lambda: e.gg_asymptotic_variance(0.5, 1100, 2**62),
     math.ldexp(1.0 / (2**62 * 1100**2), 1098)),
    ("report_for_plan", lambda: e.report_for_plan(0.5, 2000, 10).asymptotic_variance, math.inf),
]


@pytest.mark.parametrize("call, expected", [(c, x) for _, c, x in HUGE_POOLS],
                         ids=[i for i, _, _ in HUGE_POOLS])
def test_asymptotic_variance_of_huge_pools(call, expected):
    assert call() == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize("call", [
    lambda: e.gg_tests_needed(0.5, 2000, 0.1),
    lambda: e.gg_tests_needed(0.5, 2000, 0.1, method="asymptotic"),
    lambda: e.gg_tests_needed_real(0.5, 2000, 0.1),
    # (1-p)^(b-2) is subnormal and the requirement overflows to inf
    lambda: e.gg_tests_needed(0.5, 1060, 0.1),
    lambda: e.gg_tests_needed(0.5, 1060, 0.1, method="asymptotic"),
], ids=["exact", "asymptotic", "real", "subnormal-exact", "subnormal-asymptotic"])
def test_huge_pools_are_infeasible(call):
    with pytest.raises(e.InfeasibleDesignError):
        call()


# The tiniest prevalence, where 10/p, x / -log(1-p) and 6/p are inf: no
# conversion to an integer may raise OverflowError.
TINY = 5e-324


@pytest.mark.parametrize("cap", [50, None], ids=["cap-50", "default-cap"])
def test_tiniest_prevalence_fixed_budget_plan(cap):
    # every exact MSE underflows to 0 here, and a zero MSE ranks no plan
    with pytest.raises(ValueError, match="underflows to 0"):
        e.gg_optimal_pool(TINY, fixed_tests=100, cap=cap)


def test_tiniest_prevalence_rule_of_thumb():
    with pytest.raises(ValueError, match="prevalence"):
        e.estimation_rule_of_thumb(TINY)


@pytest.mark.parametrize("extra", [[], ["--target-nrmse", "0.15", "--cap", "50"]],
                         ids=["default-cap", "cap-50"])
def test_tiniest_prevalence_cli_plan(capsys, extra):
    assert main(["estimate", "--plan", "--prevalence-guess", "5e-324", *extra]) in (2, 3)
    assert capsys.readouterr().err.startswith("error: ")


# The exact MSE underflows to 0 at the tiniest prevalence, where sqrt(MSE) / p
# would read 0 and meet any target: no NRMSE, requirement or plan is formed
# from it.
UNDERFLOW = "the exact MSE underflows to 0 at prevalence 5e-324"
UNDERFLOWING = [
    ("gg_tests_needed", lambda: e.gg_tests_needed(TINY, 5, 0.15)),
    ("gg_tests_needed_real", lambda: e.gg_tests_needed_real(TINY, 5, 0.15)),
    ("gg_nrmse", lambda: e.gg_nrmse(TINY, 5, 100)),
    ("report_for_plan", lambda: e.report_for_plan(TINY, 5, 100)),
    ("gg_optimal_pool", lambda: e.gg_optimal_pool(TINY, target_nrmse=0.15)),
    ("gg_optimal_pool-cap-50", lambda: e.gg_optimal_pool(TINY, target_nrmse=0.15, cap=50)),
    ("gg_minimize_cost", lambda: e.gg_minimize_cost(TINY, e.CostModel(1.0, 10.0), 0.15)),
    ("gg_minimize_cost-samples", lambda: e.gg_minimize_cost(TINY, e.CostModel(1.0, 0.0), 0.15)),
]


@pytest.mark.parametrize("call", [c for _, c in UNDERFLOWING], ids=[i for i, _ in UNDERFLOWING])
def test_underflowing_mse_forms_no_nrmse(call):
    with pytest.raises(ValueError, match=UNDERFLOW):
        call()


@pytest.mark.parametrize("extra", [[], ["--sample-cost", "1"]], ids=["target", "cost"])
def test_underflowing_mse_cli_plan(capsys, extra):
    assert main(["estimate", "--plan", "--prevalence-guess", "5e-324", *extra]) == 2
    assert capsys.readouterr().err.startswith(f"error: {UNDERFLOW}")


# At p = 1e-12 the default cap of ceil(10/p) would have every planner sweep
# some 10^12 pool sizes; each names the length and raises before allocating.
SWEEPING = [
    ("fixed-budget", lambda: e.gg_optimal_pool(1e-12, fixed_tests=100)),
    ("target", lambda: e.gg_optimal_pool(1e-12, target_nrmse=0.15)),
    ("cost", lambda: e.gg_minimize_cost(1e-12, e.CostModel(1.0, 10.0), 0.15)),
]


@pytest.mark.parametrize("call", [c for _, c in SWEEPING], ids=[i for i, _ in SWEEPING])
def test_pool_size_sweep_past_its_limit_raises(call):
    with pytest.raises(ValueError, match=r"would sweep \d{12,} pool sizes, more than 8388608; "
                                         r"pass a smaller pool-size cap"):
        call()


@pytest.mark.parametrize("extra", [[], ["--sample-cost", "1"]], ids=["target", "cost"])
def test_pool_size_sweep_past_its_limit_cli_plan(capsys, extra):
    assert main(["estimate", "--plan", "--prevalence-guess", "1e-12", *extra]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: planning at prevalence 1e-12 would sweep ")
    assert "--cap" in err
