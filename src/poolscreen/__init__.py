"""poolscreen: design and evaluation of pooled-testing schemes.

Closed-form costs and optimizers for Dorfman, Sterrett, array and hypercube
classification testing; exact error analysis and study planning for pooled
prevalence estimation; dilution false-negative modeling; and a seeded Monte
Carlo harness that validates all of it.
"""

from .designs import (
    ArrayDesign,
    ConstraintSet,
    DesignEvaluation,
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
    hypercube_optimal_side,
    independence_gap,
    lambert_w0,
    sterrett_expected_tests_per_batch,
    sterrett_optimal_batch,
)
from .dilution import (
    DilutionScenario,
    individual_false_negative_rate,
    introduced_false_negative_rate,
    max_pool_size_for_threshold,
    pooled_false_negative_rate,
)
from .estimation import (
    CostModel,
    CostOptimum,
    EstimationReport,
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
from .simulation import MonteCarloSummary, monte_carlo, simulate_particle_miss_rate
from .tables import TABLE_IDS, Table, build_table

__version__ = "0.1.0"
