"""Reference tables regenerated from first principles.

Every table is computed on demand from the design and estimation modules -
nothing is stored - so the numbers always reflect the library's formulas.
These are the standard summary charts for pooled-testing deployments:

* exec-classification: recommended Dorfman pool size (capped at 8) and
  efficiency-gain range by prevalence band.
* exec-estimation: best pool size (capped at 20) and efficiency gain for
  prevalence estimation at a 15% NRMSE target.
* guidelines-nrmse: accuracy of the 6/p-pools-of-8 (12/p-of-4) rule of thumb.
* examples-classification: optimal batch sizes and individuals-per-test for
  Dorfman, Sterrett and array testing at 30%, 3% and 0.3% prevalence.
* rmse-100: root-MSE of the prevalence estimate from a budget of 100 tests
  under individual sampling, Dorfman screening and pooled estimation.
* tests-for-15pct: tests needed to estimate prevalence to 15% NRMSE.
* cost-optimized: pooled-estimation plans minimizing samples + 10 * tests.
"""

from __future__ import annotations

import io
import json
import math
from dataclasses import dataclass

from . import designs, estimation

__all__ = ["Table", "TABLE_IDS", "build_table"]

NRMSE_TARGET = 0.15


@dataclass(frozen=True)
class Table:
    table_id: str
    columns: list
    rows: list

    def to_json(self) -> str:
        payload = {"table": self.table_id, "columns": self.columns, "rows": self.rows}
        return json.dumps(payload, sort_keys=True)

    def to_csv(self) -> str:
        buf = io.StringIO()
        buf.write(",".join(self.columns) + "\n")
        for row in self.rows:
            buf.write(",".join(_format_cell(cell) for cell in row) + "\n")
        return buf.getvalue()


def _format_cell(cell) -> str:
    if cell is None:
        return "N/A"
    if isinstance(cell, bool):
        return str(cell).lower()
    if isinstance(cell, int):
        return str(cell)
    if isinstance(cell, float):
        if cell != 0.0 and abs(cell) < 1e-3:
            return f"{cell:.2e}"
        return f"{cell:.6g}"
    return str(cell)


# ---------------------------------------------------------------------------
# classification charts
# ---------------------------------------------------------------------------

#: (band label, low edge, high edge); the open-ended last band is evaluated
#: at 1% and its gain range runs up to the zero-prevalence limit.
_CLASSIFICATION_BANDS = [
    ("12.5-30%", 0.125, 0.30),
    ("6.6-12.5%", 0.066, 0.125),
    ("4.1-6%", 0.041, 0.06),
    ("2.8-4.1%", 0.028, 0.041),
    ("2-2.8%", 0.02, 0.028),
    ("up to 2%", 0.0, 0.02),
]

_EXEC_POOL_CAP = 8


def _exec_classification() -> Table:
    cons = designs.ConstraintSet(max_pool_size=_EXEC_POOL_CAP)
    rows = []
    for label, lo, hi in _CLASSIFICATION_BANDS:
        mid = hi / 2.0 if lo == 0.0 else (lo + hi) / 2.0
        design = designs.dorfman_optimal_batch(mid, cons)
        b = design.batch_size
        # zero-prevalence limit: only the 1/b pool tests remain
        gain_hi = float(b) if lo == 0.0 else 1.0 / design.cost(lo)
        gain_lo = 1.0 / design.cost(hi)
        rows.append([label, b, f"{gain_lo:.2g}-{gain_hi:.2g}"])
    return Table(
        "exec-classification",
        ["prevalence", "optimum pool size", "efficiency gain"],
        rows,
    )


_EXAMPLE_PREVALENCES = (0.3, 0.03, 0.003)
_EXAMPLE_OPTIMIZERS = (
    ("simple Dorfman", designs.dorfman_optimal_batch, "batch_size"),
    ("Sterrett testing", designs.sterrett_optimal_batch, "batch_size"),
    ("batched array testing", designs.array_optimal_side, "side"),
)


def _examples_classification() -> Table:
    rows = []
    for rho in _EXAMPLE_PREVALENCES:
        for label, optimize, size in _EXAMPLE_OPTIMIZERS:
            ev = designs.evaluate_design(optimize(rho), rho)
            if ev.expected_tests_per_person >= 1.0:  # no better than individual testing
                rows.append([rho, label, None, None])
            else:
                rows.append([rho, label, getattr(ev.design, size), ev.individuals_per_test])
    return Table(
        "examples-classification",
        ["prevalence", "architecture", "optimal batch size", "individuals tested per test"],
        rows,
    )


# ---------------------------------------------------------------------------
# estimation charts
# ---------------------------------------------------------------------------

_EXEC_ESTIMATION_PREVALENCES = (0.001, 0.002, 0.005, 0.01, 0.02, 0.05, 0.10, 0.20, 0.30)
_EXEC_ESTIMATION_CAP = 20


def _exec_estimation() -> Table:
    rows = []
    for p in _EXEC_ESTIMATION_PREVALENCES:
        plan = estimation.gg_optimal_pool(
            p, target_nrmse=NRMSE_TARGET, cap=_EXEC_ESTIMATION_CAP
        )
        individual = estimation.gg_tests_needed(p, 1, NRMSE_TARGET)
        rows.append([p, plan.pool_size, individual / plan.num_pools])
    return Table(
        "exec-estimation",
        ["prevalence", "optimum pool size (<= 20)", "efficiency gain"],
        rows,
    )


_GUIDELINE_ROWS = ((0.001, 8), (0.01, 8), (0.05, 8), (0.10, 8), (0.10, 4), (0.30, 4))


def _guidelines_nrmse() -> Table:
    rows = []
    for p, b in _GUIDELINE_ROWS:
        t = estimation._rule_of_thumb_pools(p, b)
        rows.append([p, b, t, estimation.gg_nrmse(p, b, t)])
    return Table(
        "guidelines-nrmse",
        ["Prevalence rate", "Pool size", "Number of tests", "NRMSE"],
        rows,
    )


_BUDGET_PREVALENCES = (0.05, 0.01, 0.001, 0.0001)
_TEST_BUDGET = 100


def _rmse_100() -> Table:
    rows = []
    for p in _BUDGET_PREVALENCES:
        nongroup = math.sqrt(p * (1.0 - p) / _TEST_BUDGET)
        dorfman = estimation.dorfman_estimation_rmse(p, _TEST_BUDGET)
        plan = estimation.gg_optimal_pool(p, fixed_tests=_TEST_BUDGET)
        gg = math.sqrt(estimation.gg_mse(p, plan.pool_size, _TEST_BUDGET))
        rows.append([p, nongroup, dorfman, gg, plan.pool_size])
    return Table(
        "rmse-100",
        [
            "prevalence",
            "non-group testing",
            "Dorfman testing",
            "Gibbs-Gower testing",
            "Gibbs-Gower group size",
        ],
        rows,
    )


def _tests_for_15pct() -> Table:
    rows = []
    for p in _BUDGET_PREVALENCES:
        nongroup = estimation.gg_tests_needed(p, 1, NRMSE_TARGET)
        group5 = estimation.gg_tests_needed(p, 5, NRMSE_TARGET)
        plan = estimation.gg_optimal_pool(p, target_nrmse=NRMSE_TARGET)
        rows.append([p, nongroup, group5, plan.num_pools, plan.pool_size])
    return Table(
        "tests-for-15pct",
        [
            "prevalence",
            "non-group testing",
            "Gibbs-Gower testing with group size 5",
            "Gibbs-Gower testing with optimal group size",
            "optimal group size",
        ],
        rows,
    )


_COST_PREVALENCES = (0.05, 0.01, 0.001)


def _cost_optimized() -> Table:
    cost = estimation.CostModel(sample_weight=1.0, test_weight=10.0)
    rows = []
    for p in _COST_PREVALENCES:
        opt = estimation.gg_minimize_cost(p, cost, NRMSE_TARGET)
        rows.append([p, opt.plan.pool_size, opt.plan.num_pools, opt.total_samples])
    return Table(
        "cost-optimized",
        ["prevalence", "optimal group size", "total tests", "total samples"],
        rows,
    )


TABLE_IDS = {
    "exec-classification": _exec_classification,
    "exec-estimation": _exec_estimation,
    "guidelines-nrmse": _guidelines_nrmse,
    "examples-classification": _examples_classification,
    "rmse-100": _rmse_100,
    "tests-for-15pct": _tests_for_15pct,
    "cost-optimized": _cost_optimized,
}


def build_table(table_id: str) -> Table:
    """Regenerate one of the reference tables by name."""
    try:
        builder = TABLE_IDS[table_id]
    except KeyError:
        known = ", ".join(sorted(TABLE_IDS))
        raise ValueError(f"unknown table {table_id!r}; known tables: {known}") from None
    return builder()
