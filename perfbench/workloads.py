"""The benchmark's workloads: seeded lists of library calls, each with a check.

Every workload is a closed loop: one caller issues its ops back to back.  The
seed jitters each op's inputs near the middle of a fixed stratum
(prevalence, target, sizes) and draws the Monte Carlo seeds, while the op mix
and the sizes that set an op's cost stay fixed.  So two seeds give different
inputs but nearly the same amount of work, which keeps the timings
comparable across seeds.

Ops call the library through its module attributes (``simulation.
monte_carlo``, not a name bound at import), so the tracer's wrappers see
them.  Checks run outside the timed region; see README.md for what each
one compares against.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import io
import json
import math
import random
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

import oracles
from poolscreen import cli, designs, dilution, estimation, simulation, tables
from tracing import MC_KINDS, mc_kind

#: |z| above which a Monte Carlo figure fails its check.  Two-sided, a correct
#: kernel exceeds it with probability 5.7e-7, so with the 120 gated figures
#: of a validate run a correct build fails a run with probability below 1e-4.
Z_GATE = 5.0
#: Relative tolerance when an exact figure is recomputed by an oracle, which
#: sums in another order (and over the full binomial support).
REL = 1e-7

#: SHA-256 of each reference table's CSV at the commit that added this
#: benchmark.  The tables are part of the reproducibility contract, so any
#: change to them is a failed op.
TABLE_SHA256 = {
    "exec-classification": "33e5dff2906ee1d5dd14bf128d3b3f35f6195c310358c37c0d133dff55143d5f",
    "exec-estimation": "5eb0112f7ea6dfddf5d813632163d56da28f6a32b42a760f0489fb6ee5f047ec",
    "guidelines-nrmse": "65cd77b6dd346bc736742424fdb0af1c0a5d4fd75533fbeac0ddacdd1b887de5",
    "examples-classification": "b66f10363b21c99a816ee524da39a4b070c79f9f50e13a449c4750e2ad603edd",
    "rmse-100": "caab002cfbbe41cf0c0a0167d0f55d00803106ab638616600a7f2fdf71c80196",
    "tests-for-15pct": "32a1d26b14fc655c85aa9c579d1ef80f08bdd2753a5bf5cf6cfc544c57a18267",
    "cost-optimized": "82ffd8b97430bdda7349bdc7cfbbed89fb2fdcc0974f7afd476d2ebb7f8d3e28",
}

ALIQUOT, SAMPLE_VOLUME = 1.0, 20.0  # volumes of the noisy Monte Carlo runs
ALL_ARCHITECTURES = ("dorfman", "array", "hypercube", "sterrett")


@dataclass(frozen=True)
class Op:
    """One library call.  check(result) returns a failure message or None.

    An infeasible op must raise InfeasibleDesignError (a library call) or
    exit with code 3 (a CLI call, which its check verifies).  An isolated op
    runs in a second interpreter in untraced runs, so that its peak memory is
    measured apart from the other ops' (see run.py).
    """

    label: str
    call: Callable[[], Any]
    check: Callable[[Any], str | None]
    infeasible: bool = False
    isolated: bool = False


def _late(module, name: str, *args, **kwargs) -> Callable[[], Any]:
    """A call of module.name that looks the attribute up when it runs, so that
    it goes through the tracer's wrapper while one is installed."""
    return lambda: getattr(module, name)(*args, **kwargs)


def outcome_failure(op: Op, result: Any) -> str | None:
    """Failure message for an op's first result, or None when it is correct."""
    if isinstance(result, BaseException):
        if op.infeasible and isinstance(result, estimation.InfeasibleDesignError):
            return None
        return f"raised {type(result).__name__}: {result}"
    return op.check(result)


def same_outcome(a: Any, b: Any) -> bool:
    if isinstance(a, BaseException) or isinstance(b, BaseException):
        return type(a) is type(b) and a.args == b.args
    return a == b


# ---------------------------------------------------------------------------
# check helpers
# ---------------------------------------------------------------------------

def _z_failure(what: str, observed: float, expected: float, se: float) -> str | None:
    if se > 0:
        z = (observed - expected) / se
    else:
        z = 0.0 if math.isclose(observed, expected, rel_tol=REL) else math.inf
    if abs(z) > Z_GATE:
        return f"{what} {observed:.6g} is {z:+.1f} SE from {expected:.6g}"
    return None


def _close_failure(what: str, observed: float, expected: float, rel: float = REL) -> str | None:
    if math.isclose(observed, expected, rel_tol=rel, abs_tol=1e-300):
        return None
    return f"{what} {observed!r} differs from {expected!r}"


def _first(*failures: str | None) -> str | None:
    return next((f for f in failures if f), None)


def _t_minimal(p: float, b: int, target: float, t: int) -> str | None:
    """t pools meet the target NRMSE at pool size b, and t - 1 do not."""
    if oracles.gg_nrmse(p, b, t) > target * (1 + REL):
        return f"NRMSE at b={b}, t={t} misses the target {target}"
    if t > 1 and oracles.gg_nrmse(p, b, t - 1) <= target * (1 - REL):
        return f"b={b}, t={t - 1} already meets the target {target}"
    return None


def _design_cost(design, p: float) -> float:
    """Cost per person that the design optimizers rank by."""
    kind = design.kind
    if kind == "individual":
        return 1.0
    if kind == "dorfman":
        return oracles.dorfman_tests(p, design.batch_size)
    if kind == "sterrett":
        return oracles.sterrett_tests(p, design.batch_size)
    if kind == "array":
        return oracles.grid_tests_approx(p, design.side, 2) if design.confirm_stage else 2.0 / design.side
    return oracles.grid_tests_approx(p, design.side, design.dimension)


# ---------------------------------------------------------------------------
# Monte Carlo ops
# ---------------------------------------------------------------------------

def _check_mc(design, p, n, reps, noise, s) -> str | None:
    if isinstance(design, estimation.GibbsGowerPlan):
        b, t = design.pool_size, design.num_pools
        _, mse, fourth = oracles.gg_error_moments(p, b, t)
        return _first(
            _z_failure("empirical MSE", s.empirical_rmse**2, mse, math.sqrt((fourth - mse**2) / reps)),
            _close_failure("tests per person", s.mean_tests, 1.0 / b),
        )
    if noise is not None:
        b = design.batch_size
        positive_pools = reps * (n // b) * (1.0 - (1.0 - p) ** b)
        miss = {k: oracles.pooled_miss_rate(ALIQUOT, SAMPLE_VOLUME, noise.concentration, p, k)
                for k in range(1, b + 1)}
        if design.kind == "dorfman":
            se = math.sqrt(miss[b] * (1.0 - miss[b]) / positive_pools)
            expected = 1.0 / b + (1.0 - (1.0 - p) ** b) * (1.0 - miss[b])
            return _first(
                _z_failure("tests per person", s.mean_tests, expected, s.se_tests),
                _z_failure("pool miss rate", s.pool_miss_rate, miss[b], se),
            )
        # Sterrett pools segments of every size 1..b, so the observed rate is
        # a mixture of the model's rates for those sizes
        se = math.sqrt(0.25 / positive_pools)
        lo, hi = min(miss.values()) - Z_GATE * se, max(miss.values()) + Z_GATE * se
        if not lo <= s.pool_miss_rate <= hi:
            return f"pool miss rate {s.pool_miss_rate:.6g} outside [{lo:.6g}, {hi:.6g}]"
        return None
    if design.kind == "array" and not design.confirm_stage:
        return _first(
            _close_failure("tests per person", s.mean_tests, 2.0 / design.side, 1e-12),
            None if s.sensitivity == 1.0 else f"sensitivity {s.sensitivity} with presumed positives",
        )
    if design.kind == "dorfman":
        expected = oracles.dorfman_tests(p, design.batch_size)
    elif design.kind == "sterrett":
        expected = oracles.sterrett_tests(p, design.batch_size)
    elif design.kind == "array":
        expected = oracles.grid_tests(p, design.side, 2)
    else:
        expected = oracles.grid_tests(p, design.side, design.dimension)
    return _first(
        _z_failure("tests per person", s.mean_tests, expected, s.se_tests),
        None if (s.sensitivity, s.specificity) == (1.0, 1.0) else "classification errors without noise",
    )


def _mc_op(design, p, n, reps, rng, workers, concentration=None) -> Op:
    noise = None
    if concentration is not None:
        noise = dilution.DilutionScenario(ALIQUOT, SAMPLE_VOLUME, concentration, 1, p)
    call = _late(simulation, "monte_carlo", design, p, n, reps, rng.getrandbits(32),
                 noise=noise, workers=workers)
    return Op("monte_carlo." + mc_kind(design, noise), call,
              functools.partial(_check_mc, design, p, n, reps, noise))


#: Share of its stratum across which the seed moves a value.  Op costs vary
#: with their inputs, so a narrow jitter keeps the work per pass nearly the
#: same for every seed.
JITTER = 0.25


def _stratum(rng: random.Random, index: int, count: int) -> float:
    """A point in [0, 1) near the middle of stratum index of count."""
    return (index + 0.5 + JITTER * (rng.random() - 0.5)) / count


def _fill(n: int, unit: int) -> int:
    """Largest multiple of unit not above n (at least one unit), so that every
    pool or cluster is full and the per-person closed forms hold exactly."""
    return unit * max(1, n // unit)


_HYPERCUBES = ((3, 3), (4, 3), (2, 4), (3, 4), (2, 5), (5, 3))
VALIDATE_SLOTS = 16


def _validate_op(kind: str, slot: int, rng: random.Random) -> Op:
    # slot fixes the sizes; the seed places the prevalence inside the slot's
    # stratum of 0.5%..10%
    p = 0.005 * 20 ** _stratum(rng, slot, VALIDATE_SLOTS)
    if kind == "dorfman":
        b = 4 + slot % 13
        return _mc_op(designs.DorfmanDesign(b), p, _fill(240, b), 8192, rng, 1)
    if kind == "sterrett":
        b = 4 + slot % 9
        return _mc_op(designs.SterrettDesign(b), p, _fill(60, b), 2048, rng, 1)
    if kind == "array":
        side = 4 + slot % 6
        design = designs.ArrayDesign(side, confirm_stage=slot % 2 == 0)
        return _mc_op(design, p, _fill(320, side * side), 4096, rng, 1)
    if kind == "hypercube":
        side, dim = _HYPERCUBES[slot % len(_HYPERCUBES)]
        return _mc_op(designs.HypercubeDesign(side, dim), p, _fill(640, side**dim), 2048, rng, 1)
    if kind in ("noisy_dorfman", "noisy_sterrett"):
        b = 5 + slot % 8
        design = designs.DorfmanDesign(b) if kind == "noisy_dorfman" else designs.SterrettDesign(b)
        concentration = 10.0 + 30.0 * _stratum(rng, (slot * 7) % VALIDATE_SLOTS, VALIDATE_SLOTS)
        return _mc_op(design, p, _fill(60, b), 2048, rng, 1, concentration)
    plan = estimation.GibbsGowerPlan(2 + slot, 50 + 30 * slot)
    return _mc_op(plan, p, None, 8192, rng, 1)


def validate_ops(rng: random.Random) -> list[Op]:
    # a fixed order, cycling through the kinds: the allocation pattern, and
    # with it the peak memory, is then the same for every seed
    return [_validate_op(kind, slot, rng) for slot in range(VALIDATE_SLOTS) for kind in MC_KINDS]


# ---------------------------------------------------------------------------
# planning ops
# ---------------------------------------------------------------------------

def _strata(rng: random.Random, count: int, lo: float, hi: float, step: int = 1,
            log: bool = True) -> list[float]:
    """count values in [lo, hi]; value i lies in stratum (i * step) % count.

    The strata have equal widths, on a log scale if log.  Parameters of one op
    drawn with different steps (each coprime with count) pair their strata
    the same way for every seed, so the op costs do not depend on the seed.
    """
    values = []
    for i in range(count):
        u = _stratum(rng, (i * step) % count, count)
        values.append(lo * (hi / lo) ** u if log else lo + (hi - lo) * u)
    return values


def _int_strata(rng: random.Random, count: int, lo: int, hi: int, step: int = 1) -> list[int]:
    return [round(x) for x in _strata(rng, count, lo, hi, step)]


def _between(rng: random.Random, lo: float, hi: float) -> float:
    return lo + (hi - lo) * _stratum(rng, 0, 1)


# pool sizes b = f / p with f in [0.05, 1.5]: pool positivity from ~5% to
# ~78%, which keeps the exact test requirement between tens and a few thousand
POOL_FACTOR = (0.05, 1.5)


def _pool_size(p: float, factor: float) -> int:
    return max(1, round(factor / p))


def _check_tests_real(p, b, target, r) -> str | None:
    t = math.ceil(r)
    if b == 1:
        return _close_failure("real tests", r, (1.0 - p) / (p * target**2))
    failure = _t_minimal(p, b, target, t)
    if failure or t == 1:
        return failure
    n_lo, n_hi = oracles.gg_nrmse(p, b, t - 1), oracles.gg_nrmse(p, b, t)
    expected = (t - 1) + min(max((n_lo - target) / (n_lo - n_hi), 0.0), 1.0)
    return None if abs(r - expected) <= 1e-6 else f"real tests {r!r}, interpolation gives {expected!r}"


def _check_target_plan(p, target, cap, plan) -> str | None:
    b, t = plan.pool_size, plan.num_pools
    failure = _t_minimal(p, b, target, t)
    if failure or t == 1:
        return failure
    for nb in (b - 1, b + 1):
        if 1 <= nb <= cap and oracles.gg_nrmse(p, nb, t - 1) <= target * (1 - REL):
            return f"pool size {nb} reaches the target with {t - 1} pools, fewer than b={b}"
    return None


def _check_fixed_plan(p, t, cap, plan) -> str | None:
    b = plan.pool_size
    if plan.num_pools != t:
        return f"plan has {plan.num_pools} pools, asked for {t}"
    mse = oracles.gg_mse(p, b, t)
    for nb in (b - 1, b + 1):
        if 1 <= nb <= cap and oracles.gg_mse(p, nb, t) < mse * (1 - 1e-9):
            return f"pool size {nb} beats b={b} at t={t}"
    return None


def _fixed_plan_op(p: float, t: int, cap: int | None) -> Op:
    return Op("gg_optimal_pool.fixed", _late(estimation, "gg_optimal_pool", p, fixed_tests=t, cap=cap),
              functools.partial(_check_fixed_plan, p, t, cap or math.ceil(10.0 / p)))


def _check_cost(p, cost, target, opt) -> str | None:
    b, t = opt.plan.pool_size, opt.plan.num_pools
    return _first(
        _t_minimal(p, b, target, t),
        None if opt.total_samples == b * t else f"total samples {opt.total_samples} != {b} * {t}",
        _close_failure("objective", opt.objective_value,
                       cost.sample_weight * b * t + cost.test_weight * t, 1e-12),
    )


def _check_report_plan(p, b, t, rep) -> str | None:
    mean, mse, _ = oracles.gg_error_moments(p, b, t)
    return _first(
        _close_failure("expected estimate", rep.expected_p_hat, mean),
        _close_failure("MSE", rep.mse, mse),
        _close_failure("NRMSE", rep.nrmse, math.sqrt(mse) / p),
        _close_failure("pool positive rate", rep.pool_positive_rate_hat, 1.0 - (1.0 - p) ** b),
    )


def _check_report_outcome(t, k, b, rep) -> str | None:
    p_hat = 1.0 - (1.0 - k / t) ** (1.0 / b)
    failure = _close_failure("estimate", rep.p_hat, p_hat, 1e-12)
    if failure:
        return failure
    mean, mse, _ = oracles.gg_error_moments(rep.p_hat, b, t)
    return _first(
        _close_failure("plug-in expected estimate", rep.expected_p_hat, mean),
        _close_failure("plug-in MSE", rep.mse, mse),
    )


def _check_best_design(p, cap, ev) -> str | None:
    sterrett = oracles.sterrett_batch_costs(p, cap)
    best = min(
        [1.0]
        + [oracles.dorfman_tests(p, b) for b in range(2, cap + 1)]
        + [oracles.grid_tests_approx(p, b, d) for b in range(2, cap + 1) for d in (2, 3)]
        + [sterrett[b] / b for b in range(2, cap + 1)]
    )
    return _first(
        _close_failure("design cost", ev.expected_tests_per_person, _design_cost(ev.design, p), 1e-9),
        None if ev.expected_tests_per_person <= best * (1 + 1e-9)
        else f"cost {ev.expected_tests_per_person!r} above the best candidate {best!r}",
    )


def _crossover_diff(rho: float, cap: int, side: int) -> float:
    dorfman = min(oracles.dorfman_tests(rho, b) for b in range(2, cap + 1))
    return dorfman - oracles.grid_tests_approx(rho, side, 2)


def _check_crossovers(cap, side, roots) -> str | None:
    grid = np.linspace(0.005, 0.20, 2000)
    signs = np.sign([_crossover_diff(r, cap, side) for r in grid])
    changes = int(np.count_nonzero(np.diff(signs)))
    if len(roots) != changes:
        return f"{len(roots)} crossings, the cost difference changes sign {changes} times"
    for r in roots:
        if abs(_crossover_diff(r, cap, side)) > 1e-9:
            return f"costs differ by {_crossover_diff(r, cap, side):.3g} at crossing {r!r}"
    return None


def _introduced(scenario, n: int) -> float:
    rate = functools.partial(oracles.pooled_miss_rate, scenario.aliquot_volume,
                             scenario.sample_volume, scenario.concentration, scenario.prevalence)
    return rate(n) - rate(1)


def _check_max_pool(scenario, threshold, max_pool, n) -> str | None:
    if n > 1 and _introduced(scenario, n) > threshold * (1 + REL):
        return f"pool size {n} exceeds the threshold {threshold}"
    for m in range(n + 1, max_pool + 1):
        if _introduced(scenario, m) <= threshold * (1 - REL):
            return f"pool size {m} > {n} also meets the threshold {threshold}"
    return None


def _table_op(table_id: str) -> Op:
    def check(table):
        digest = hashlib.sha256(table.to_csv().encode()).hexdigest()
        return None if digest == TABLE_SHA256[table_id] else f"table {table_id} CSV changed"

    return Op("build_table", _late(tables, "build_table", table_id), check)


def _run_cli(argv: list[str]) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue()


def _cli_op(argv: list[str], expected: Callable[[], dict]) -> Op:
    """CLI call whose JSON must carry the fields expected() computes directly."""

    def check(result):
        code, text = result
        if code != 0:
            return f"poolscreen {' '.join(argv)} exited {code}"
        payload = json.loads(text)
        for key, value in expected().items():
            if payload.get(key) != value:
                return f"CLI {key}={payload.get(key)!r}, library gives {value!r}"
        return None

    return Op("cli.main", functools.partial(_run_cli, argv + ["--format", "json"]), check)


def _cli_design(p: float, cap: int) -> Op:
    def expected():
        ev = designs.best_classification_design(
            p, designs.ConstraintSet(max_pool_size=cap), candidates=ALL_ARCHITECTURES)
        return {"architecture": ev.design.kind, "design": dataclasses.asdict(ev.design),
                "expected_tests_per_person": ev.expected_tests_per_person}

    return _cli_op(["design", "--prevalence", repr(p), "--cap", str(cap),
                    "--candidates", ",".join(ALL_ARCHITECTURES)], expected)


def _cli_plan(p: float, target: float) -> Op:
    def expected():
        plan = estimation.gg_optimal_pool(p, target_nrmse=target)
        report = estimation.report_for_plan(p, plan.pool_size, plan.num_pools)
        return {"pool_size": plan.pool_size, "num_pools": plan.num_pools,
                "predicted_nrmse": report.nrmse,
                "individual_tests_needed": estimation.gg_tests_needed(p, 1, target)}

    return _cli_op(["estimate", "--plan", "--prevalence-guess", repr(p),
                    "--target-nrmse", repr(target)], expected)


def _cli_cost(p: float, target: float, test_cost: float) -> Op:
    def expected():
        opt = estimation.gg_minimize_cost(p, estimation.CostModel(1.0, test_cost), target)
        return {"pool_size": opt.plan.pool_size, "num_pools": opt.plan.num_pools,
                "total_samples": opt.total_samples, "objective_value": opt.objective_value}

    return _cli_op(["estimate", "--plan", "--prevalence-guess", repr(p), "--target-nrmse",
                    repr(target), "--sample-cost", "1", "--test-cost", repr(test_cost)], expected)


def _cli_analysis(t: int, k: int, b: int) -> Op:
    def expected():
        report = estimation.report_for_outcome(estimation.PoolTestOutcome(t, k, b))
        return dataclasses.asdict(report)

    return _cli_op(["estimate", "--pools", str(t), "--positive", str(k), "--pool-size", str(b)],
                   expected)


def _cli_dilution(concentration: float, n: int, p: float) -> Op:
    def expected():
        scenario = dilution.DilutionScenario(ALIQUOT, SAMPLE_VOLUME, concentration, n, p)
        return {"pooled_false_negative_rate": dilution.pooled_false_negative_rate(scenario),
                "individual_false_negative_rate": dilution.individual_false_negative_rate(scenario),
                "max_safe_pool_size": dilution.max_pool_size_for_threshold(scenario, 0.05)}

    return _cli_op(["dilution", "--concentration", repr(concentration), "--pool-size", str(n),
                    "--prevalence", repr(p)], expected)


def _cli_table(table_id: str) -> Op:
    def check(result):
        code, text = result
        if code != 0:
            return f"poolscreen tables {table_id} exited {code}"
        return None if text.strip() == tables.build_table(table_id).to_json() else "CLI table differs"

    return Op("cli.main", functools.partial(_run_cli, ["tables", table_id, "--format", "json"]), check)


def _infeasible(label: str, call: Callable[[], Any]) -> Op:
    return Op(label, call, lambda r: f"returned {r!r}, expected InfeasibleDesignError", True)


def plan_ops(rng: random.Random) -> list[Op]:
    ops = []
    for p, f, target in zip(_strata(rng, 30, 1e-4, 0.3), _strata(rng, 30, *POOL_FACTOR, 7),
                            _strata(rng, 30, 0.1, 0.3, 13, log=False)):
        b = _pool_size(p, f)
        ops.append(Op("gg_tests_needed", _late(estimation, "gg_tests_needed", p, b, target),
                      functools.partial(_t_minimal, p, b, target)))
    for p, f, target in zip(_strata(rng, 10, 1e-4, 0.3), _strata(rng, 10, *POOL_FACTOR, 3),
                            _strata(rng, 10, 0.1, 0.3, 7, log=False)):
        b = _pool_size(p, f)
        ops.append(Op("gg_tests_needed_real", _late(estimation, "gg_tests_needed_real", p, b, target),
                      functools.partial(_check_tests_real, p, b, target)))
    for i, (p, target, cap) in enumerate(zip(_strata(rng, 6, 1e-3, 0.3),
                                             _strata(rng, 6, 0.1, 0.3, 5, log=False),
                                             _int_strata(rng, 6, 5, 50, 5))):
        cap = cap if i % 2 else None  # half with the default cap of ceil(10/p)
        ops.append(Op("gg_optimal_pool.target",
                      _late(estimation, "gg_optimal_pool", p, target_nrmse=target, cap=cap),
                      functools.partial(_check_target_plan, p, target, cap or math.ceil(10.0 / p))))
    for i, (p, t, cap) in enumerate(zip(_strata(rng, 6, 0.01, 0.3), _int_strata(rng, 6, 50, 2000, 5),
                                        _int_strata(rng, 6, 10, 200))):
        ops.append(_fixed_plan_op(p, t, cap if i % 2 else None))
    for p, weight, target in zip(_strata(rng, 5, 1e-3, 0.3), _strata(rng, 5, 2.0, 20.0, 2),
                                 _strata(rng, 5, 0.1, 0.3, 3, log=False)):
        cost = estimation.CostModel(1.0, weight)
        ops.append(Op("gg_minimize_cost", _late(estimation, "gg_minimize_cost", p, cost, target),
                      functools.partial(_check_cost, p, cost, target)))
    for p, f, t in zip(_strata(rng, 10, 1e-4, 0.3), _strata(rng, 10, *POOL_FACTOR, 3),
                       _int_strata(rng, 10, 20, 3000, 7)):
        b = _pool_size(p, f)
        ops.append(Op("report_for_plan", _late(estimation, "report_for_plan", p, b, t),
                      functools.partial(_check_report_plan, p, b, t)))
    for t, share, b in zip(_int_strata(rng, 10, 20, 3000), _strata(rng, 10, 0.02, 0.9, 3),
                           _int_strata(rng, 10, 1, 50, 7)):
        k = max(1, min(t - 1, round(t * share)))
        ops.append(Op("report_for_outcome",
                      _late(estimation, "report_for_outcome", estimation.PoolTestOutcome(t, k, b)),
                      functools.partial(_check_report_outcome, t, k, b)))
    for p, cap in zip(_strata(rng, 8, 0.002, 0.3), _int_strata(rng, 8, 4, 64, 3)):
        ops.append(Op("best_classification_design",
                      _late(designs, "best_classification_design", p,
                            designs.ConstraintSet(max_pool_size=cap), candidates=ALL_ARCHITECTURES),
                      functools.partial(_check_best_design, p, cap)))
    for cap, side in ((8, 8), (6, 8), (8, 10)):
        ops.append(Op("classification_crossovers", _late(designs, "classification_crossovers", cap, side),
                      functools.partial(_check_crossovers, cap, side)))
    for p, conc, threshold, max_pool in zip(_strata(rng, 8, 0.001, 0.1), _strata(rng, 8, 2.0, 50.0, 3),
                                            _strata(rng, 8, 0.01, 0.2, 5),
                                            _int_strata(rng, 8, 16, 64, 7)):
        scenario = dilution.DilutionScenario(ALIQUOT, SAMPLE_VOLUME, conc, 1, p)
        ops.append(Op("max_pool_size_for_threshold",
                      _late(dilution, "max_pool_size_for_threshold", scenario, threshold, max_pool),
                      functools.partial(_check_max_pool, scenario, threshold, max_pool)))
    ops += [_table_op(table_id) for table_id in tables.TABLE_IDS]

    # about a tenth of the ops go through the CLI, in process
    ops += [_cli_design(p, cap) for p, cap in zip(_strata(rng, 3, 0.002, 0.2),
                                                  _int_strata(rng, 3, 4, 32, 2))]
    ops += [_cli_plan(p, target) for p, target in zip(_strata(rng, 3, 1e-3, 0.2),
                                                      _strata(rng, 3, 0.1, 0.3, 2, log=False))]
    ops.append(_cli_cost(_between(rng, 0.005, 0.05), _between(rng, 0.1, 0.3), _between(rng, 2, 20)))
    for t, share, b in zip(_int_strata(rng, 2, 50, 2000), _strata(rng, 2, 0.02, 0.5, 1),
                           _int_strata(rng, 2, 2, 30)):
        ops.append(_cli_analysis(t, max(1, round(t * share)), b))
    ops += [_cli_dilution(conc, n, p) for conc, n, p in zip(
        _strata(rng, 2, 2.0, 50.0), _int_strata(rng, 2, 2, 32), _strata(rng, 2, 0.001, 0.1, 1))]
    ops.append(_cli_table(rng.choice(["exec-classification", "guidelines-nrmse"])))

    # requests no pool count up to the search limit can satisfy
    p = 1e-4 * _between(rng, 1.0, 1.5)
    ops.append(_infeasible("gg_tests_needed", _late(estimation, "gg_tests_needed", p, 1, 0.001)))
    ops.append(_infeasible("gg_tests_needed", _late(estimation, "gg_tests_needed", p, 3, 0.001)))
    ops.append(_infeasible("gg_optimal_pool.target",
                           _late(estimation, "gg_optimal_pool", p, target_nrmse=0.002, cap=50)))
    argv = ["estimate", "--plan", "--prevalence-guess", repr(p), "--target-nrmse", "0.002",
            "--cap", "50", "--format", "json"]
    ops.append(Op("cli.main", functools.partial(_run_cli, argv),
                  lambda r: None if r[0] == 3 else f"exit code {r[0]}, expected 3", True))
    return ops


# ---------------------------------------------------------------------------
# large working sets
# ---------------------------------------------------------------------------

SCALE_WORKERS = 2


def scale_ops(rng: random.Random) -> list[Op]:
    ops = []
    # sizes and order are fixed, and the largest MSE sweep is not jittered,
    # so the cost and the peak memory do not depend on the seed.  The MSE
    # sweeps are isolated: their peak is below the Monte Carlo blocks', so in
    # one process a change to their memory would not show
    for n, b, side in ((20_000, 10, 8), (12_000, 16, 5)):
        ops.append(_mc_op(designs.DorfmanDesign(b), _between(rng, 0.005, 0.03), _fill(n, b), 8192,
                          rng, SCALE_WORKERS))
        ops.append(_mc_op(designs.ArrayDesign(side), _between(rng, 0.005, 0.03),
                          _fill(n, side * side), 8192, rng, SCALE_WORKERS))
    for t, cap, jitter in ((100_000, 2000, 1.0), (50_000, 1250, _between(rng, 0.95, 1.0)),
                           (25_000, 600, _between(rng, 0.95, 1.0))):
        op = _fixed_plan_op(_between(rng, 0.005, 0.02), round(t * jitter), round(cap * jitter))
        ops.append(dataclasses.replace(op, isolated=True))
    return ops


WORKLOADS = {"validate": validate_ops, "plan": plan_ops, "scale": scale_ops}


def build(name: str, seed: int) -> list[Op]:
    return WORKLOADS[name](random.Random(f"{name}:{seed}"))
