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
    ("array_cost-float", lambda: d.array_expected_tests_per_person(0.05, 8.5), "array side"),
    ("array_exact-nan", lambda: d.array_expected_tests_exact(NAN, 8), "prevalence"),
    ("array_optimal-bool", lambda: d.array_optimal_side(True), "prevalence"),
    ("hypercube_cost-dim-float", lambda: d.hypercube_expected_tests_per_person(0.05, 4, 3.0),
     "hypercube dimension"),
    ("hypercube_exact-str", lambda: d.hypercube_expected_tests_exact(0.05, "4", 3),
     "hypercube side"),
    ("hypercube_optimal-dim-bool", lambda: d.hypercube_optimal_side(0.05, True),
     "hypercube dimension"),
    ("independence_gap-dim-float", lambda: d.independence_gap(0.05, 8, 2.0),
     "hypercube dimension"),
    ("sterrett_cost-inf", lambda: d.sterrett_expected_tests_per_batch(INF, 6), "prevalence"),
    ("sterrett_cost-float", lambda: d.sterrett_expected_tests_per_batch(0.05, 6.5), "batch size"),
    ("sterrett_enumerated-str", lambda: d.sterrett_expected_tests_enumerated(0.05, "6"),
     "batch size"),
    ("sterrett_optimal-nan", lambda: d.sterrett_optimal_batch(NAN), "prevalence"),
    ("evaluate_design-str", lambda: d.evaluate_design(d.DorfmanDesign(5), "0.05"), "prevalence"),
    ("best_design-nan", lambda: d.best_classification_design(NAN), "prevalence"),
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
    ("rule_of_thumb-bool", lambda: e.estimation_rule_of_thumb(True), "prevalence guess"),
    ("dorfman_estimation_rmse-float", lambda: e.dorfman_estimation_rmse(0.05, 100.0), "num_tests"),
    ("report_for_plan-nan", lambda: e.report_for_plan(NAN, 5, 100), "prevalence"),
    # dilution
    ("DilutionScenario-concentration-nan", lambda: scenario(concentration=NAN), "concentration"),
    ("DilutionScenario-aliquot-str", lambda: scenario(aliquot_volume="1"), "aliquot_volume"),
    ("DilutionScenario-sample-inf", lambda: scenario(sample_volume=INF), "sample_volume"),
    ("DilutionScenario-pool-float", lambda: scenario(pool_size=4.0), "pool_size"),
    ("DilutionScenario-prevalence-nan", lambda: scenario(prevalence=NAN), "prevalence"),
    ("expected_positives-float", lambda: dil.expected_positives_per_pool(4.0, 0.1), "pool size"),
    ("expected_positives-str", lambda: dil.expected_positives_per_pool(4, "0.1"), "prevalence"),
    ("max_pool-threshold-nan", lambda: dil.max_pool_size_for_threshold(scenario(), NAN),
     "threshold"),
    ("max_pool-float", lambda: dil.max_pool_size_for_threshold(scenario(), 0.05, 32.0),
     "max_pool"),
    # simulation
    ("simulate_population-str", lambda: s.simulate_population(100, "0.05", 1), "prevalence"),
    ("simulate_population-size-bool", lambda: s.simulate_population(True, 0.05, 1),
     "population size"),
    ("run_gibbs_gower-nan", lambda: s.run_gibbs_gower(NAN, e.GibbsGowerPlan(8, 50), 1),
     "prevalence"),
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
]


@pytest.mark.parametrize("call, name", [(c, n) for _, c, n in BAD_CALLS],
                         ids=[i for i, _, _ in BAD_CALLS])
def test_bad_argument_raises_value_error_naming_it(call, name):
    with pytest.raises(ValueError) as info:
        call()
    assert name in str(info.value)


# (id, function, arguments); every int and float argument is replayed as a
# NumPy scalar.  The floats are exact in float32, so np.float32 keeps values.
NUMPY_CALLS = [
    ("ConstraintSet", lambda a, b: d.array_optimal_side(0.03125, d.ConstraintSet(a, b)),
     (16, 100)),
    ("dorfman_cost", d.dorfman_expected_tests_per_person, (0.03125, 7)),
    ("dorfman_optimal", d.dorfman_optimal_batch, (0.03125,)),
    ("lambert_w0", d.lambert_w0, (-0.25,)),
    ("array_exact", d.array_expected_tests_exact, (0.0625, 6)),
    ("hypercube_cost", d.hypercube_expected_tests_per_person, (0.03125, 3, 3)),
    ("hypercube_optimal", d.hypercube_optimal_side, (0.03125, 3)),
    ("independence_gap", d.independence_gap, (0.0625, 5, 3)),
    ("sterrett_cost", d.sterrett_expected_tests_per_batch, (0.0625, 9)),
    ("sterrett_enumerated", d.sterrett_expected_tests_enumerated, (0.0625, 9)),
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
    ("expected_positives", dil.expected_positives_per_pool, (8, 0.03125)),
    ("max_pool", lambda x, m: dil.max_pool_size_for_threshold(scenario(), x, m), (0.0625, 40)),
    ("simulate_population", lambda *a: s.simulate_population(*a).statuses.tobytes(),
     (300, 0.0625, 4)),
    ("run_gibbs_gower", lambda p, seed: s.run_gibbs_gower(p, e.GibbsGowerPlan(8, 50), seed),
     (0.0625, 3)),
    ("monte_carlo", lambda p, n, reps, seed, workers: s.monte_carlo(
        d.SterrettDesign(5), p, n, reps, seed, workers=workers), (0.0625, 100, 300, 2, 2)),
    ("monte_carlo-noisy", lambda p, n, reps, seed: s.monte_carlo(
        d.DorfmanDesign(6), p, n, reps, seed, noise=scenario(prevalence=p)), (0.0625, 60, 300, 2)),
    ("particle_miss_rate", lambda reps,
     seed: s.simulate_particle_miss_rate(scenario(), reps, seed),
     (500, 9)),
]


def _numpy(x):
    if isinstance(x, float):
        assert float(np.float32(x)) == x
        return np.float32(x)
    return np.int32(x) if isinstance(x, int) else x


@pytest.mark.parametrize("fn, args", [(f, a) for _, f, a in NUMPY_CALLS],
                         ids=[i for i, _, _ in NUMPY_CALLS])
def test_numpy_scalars_give_the_python_result(fn, args):
    assert fn(*[_numpy(a) for a in args]) == fn(*args)
