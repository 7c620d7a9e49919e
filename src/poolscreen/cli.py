"""Command-line interface.

Subcommands: design (recommend a classification architecture), estimate
(plan a prevalence study or evaluate observed pool counts), simulate (seeded
Monte Carlo, printed as JSON), tables (regenerate the reference tables as
CSV/JSON) and dilution (false-negative monitoring).

A flat key = value config file can prefill any flag; pass --config PATH or
set POOLSCREEN_CONFIG.  Explicit flags override the file.  Prevalences may
be given as fractions or percentages - values above 1 are read as percent.

Exit codes: 0 success, 2 invalid input, 3 infeasible constraints.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys

from . import designs, dilution, estimation, simulation, tables

CONFIG_ENV_VAR = "POOLSCREEN_CONFIG"

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_INFEASIBLE = 3


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------

def _parse_prevalence(raw: float) -> float:
    """Accept a fraction or a percentage; values above 1 are percent."""
    value = float(raw)
    if value > 1.0:
        print(f"note: interpreting prevalence {value} as {value / 100.0:g} (percent)",
              file=sys.stderr)
        value /= 100.0
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"prevalence {raw} is out of range")
    return value


def _read_config(path: str) -> list[str]:
    """Turn key = value lines into a flag list prepended to argv."""
    args: list[str] = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected 'key = value', got {line!r}")
            key, value = (part.strip() for part in line.split("=", 1))
            flag = "--" + key.replace("_", "-")
            if value.lower() in ("true", "yes", "on"):
                args.append(flag)
            elif value.lower() in ("false", "no", "off"):
                continue
            else:
                args.extend([flag, value])
    return args


def _emit(text: str, output: str | None) -> None:
    if output:
        with open(output, "w", encoding="utf-8") as fh:
            fh.write(text if text.endswith("\n") else text + "\n")
    else:
        print(text)


def _report(args, payload: dict, warnings=(), lines=None) -> int:
    """Print a report: payload as sorted JSON, or as text - key: value lines
    (payload's items unless lines are given), then one line per warning.

    Every payload is a dict of plain Python values: the library's checks and
    result types hand back int, float, bool and str, never NumPy scalars."""
    if args.format == "json":
        text = json.dumps(payload, sort_keys=True)
    else:
        text = "\n".join([f"{key}: {value}" for key, value in lines or payload.items()]
                         + [f"warning: {w}" for w in warnings])
    _emit(text, args.output)
    return EXIT_OK


def _scenario(args, pool_size: int, prevalence: float) -> dilution.DilutionScenario:
    """The scenario of the --aliquot, --sample-volume and --concentration flags."""
    return dilution.DilutionScenario(args.aliquot, args.sample_volume, args.concentration,
                                     pool_size, prevalence)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _cmd_design(args) -> int:
    rho = _parse_prevalence(args.prevalence)
    cons = designs.ConstraintSet(
        max_pool_size=args.cap, max_cluster_size=args.max_cluster
    )
    candidates = tuple(args.candidates.split(","))
    best = designs.best_classification_design(
        rho, cons, candidates=candidates, hypercube_dimension=args.dimension
    )
    design = best.design

    warnings = []
    if rho > 0.30:
        warnings.append(
            "prevalence above 30%: pooling gives little or no benefit here"
        )
    if design.kind == "individual":
        warnings.append("no pooled design beats individual testing at this prevalence")

    # every design has a batch size >= 1 or a side >= 2
    pool = getattr(design, "batch_size", None) or design.side
    if pool > 32:
        warnings.append(
            f"recommended pool of {pool} exceeds 32 samples; dilution risk, monitor closely"
        )
    if args.concentration is not None:
        safe = dilution.max_pool_size_for_threshold(
            _scenario(args, 1, rho), args.fn_threshold, max_pool=pool
        )
        if pool > safe:
            warnings.append(
                f"recommended pool of {pool} exceeds the dilution-safe size {safe} "
                f"for an introduced false-negative threshold of {args.fn_threshold}"
            )

    payload = {
        "prevalence": rho,
        "architecture": design.kind,
        "design": dataclasses.asdict(design),
        "expected_tests_per_person": best.expected_tests_per_person,
        "efficiency_gain": best.individuals_per_test,
        "warnings": warnings,
    }
    return _report(args, payload, warnings, [
        ("prevalence", f"{rho:g}"),
        ("architecture", design.kind),
        ("parameters", payload["design"]),
        ("expected tests per person", f"{best.expected_tests_per_person:.5f}"),
        ("efficiency gain", f"{best.individuals_per_test:.3f}"),
    ])


def _plan_payload(args) -> dict:
    if args.prevalence_guess is None:
        raise ValueError("--plan needs --prevalence-guess")
    p = _parse_prevalence(args.prevalence_guess)
    # only the weights given; CostModel supplies the others
    weights = {name: value for name, value in (("sample_weight", args.sample_cost),
                                               ("test_weight", args.test_cost))
               if value is not None}
    if not weights:
        plan = estimation.gg_optimal_pool(p, target_nrmse=args.target_nrmse, cap=args.cap)
        individual = estimation.gg_tests_needed(p, 1, args.target_nrmse)
        report = estimation.report_for_plan(p, plan.pool_size, plan.num_pools)
        return {
            "mode": "plan",
            "prevalence_guess": p,
            "pool_size": plan.pool_size,
            "num_pools": plan.num_pools,
            "total_samples": plan.total_samples,
            "predicted_nrmse": report.nrmse,
            "individual_tests_needed": individual,
            "efficiency_gain": individual / plan.num_pools,
        }
    # cost-aware planning: minimize sample_cost * samples + test_cost * tests
    cost = estimation.CostModel(**weights)
    caps = None if args.cap is None else designs.ConstraintSet(max_pool_size=args.cap)
    optimum = estimation.gg_minimize_cost(p, cost, args.target_nrmse, caps=caps)
    plan = optimum.plan
    report = estimation.report_for_plan(p, plan.pool_size, plan.num_pools)
    return {
        "mode": "plan-cost",
        "prevalence_guess": p,
        "sample_cost": cost.sample_weight,
        "test_cost": cost.test_weight,
        "pool_size": plan.pool_size,
        "num_pools": plan.num_pools,
        "total_samples": optimum.total_samples,
        "objective_value": optimum.objective_value,
        "predicted_nrmse": report.nrmse,
    }


def _cmd_estimate(args) -> int:
    if args.plan:
        return _report(args, _plan_payload(args))
    if args.pools is None or args.positive is None or args.pool_size is None:
        raise ValueError(
            "analysis mode needs --pools, --positive and --pool-size "
            "(or use --plan with --prevalence-guess)"
        )
    outcome = estimation.PoolTestOutcome(
        num_pools=args.pools, positive_pools=args.positive, pool_size=args.pool_size
    )
    report = estimation.report_for_outcome(outcome)
    warnings = [
        "every pool tested positive; the estimate saturates at its ceiling and "
        "cannot distinguish high prevalences"
    ] if report.saturated else []
    return _report(args, {"mode": "analysis", **dataclasses.asdict(report)}, warnings)


def _make_design(args):
    kind = args.design
    if args.presume and kind != "array":
        raise ValueError("--presume applies to array designs only")
    if args.pools is not None and kind != "gibbs-gower":
        raise ValueError("--pools applies to gibbs-gower runs only")
    if args.population is not None and kind == "gibbs-gower":
        raise ValueError("--population applies to classification designs only; "
                         "a gibbs-gower plan fixes its own sample count")
    if args.dimension is not None and kind != "hypercube":
        raise ValueError("--dimension applies to hypercube designs only")
    if kind == "dorfman":
        return designs.DorfmanDesign(args.pool_size)
    if kind == "array":
        return designs.ArrayDesign(args.pool_size, confirm_stage=not args.presume)
    if kind == "hypercube":
        dimension = 3 if args.dimension is None else args.dimension
        return designs.HypercubeDesign(args.pool_size, dimension)
    if kind == "sterrett":
        return designs.SterrettDesign(args.pool_size)
    # argparse's choices leave only gibbs-gower
    if args.pools is None:
        raise ValueError("gibbs-gower simulation needs --pools")
    return estimation.GibbsGowerPlan(args.pool_size, args.pools)


def _cmd_simulate(args) -> int:
    p = _parse_prevalence(args.prevalence)
    design = _make_design(args)
    noise = None if args.concentration is None else _scenario(args, 1, p)
    summary = simulation.monte_carlo(design, p, population_size=args.population, reps=args.reps,
                                     seed=args.seed, noise=noise, workers=args.workers)
    payload = {
        "design": {"kind": args.design, **dataclasses.asdict(design)},
        "prevalence": p,
        "seed": args.seed,
        **dataclasses.asdict(summary),
    }
    return _report(args, payload)


def _cmd_tables(args) -> int:
    table = tables.build_table(args.table_id)
    text = table.to_json() if args.format == "json" else table.to_csv()
    _emit(text, args.output)
    return EXIT_OK


def _cmd_dilution(args) -> int:
    p = _parse_prevalence(args.prevalence)
    scenario = _scenario(args, args.pool_size, p)
    fn_individual = dilution.individual_false_negative_rate(scenario)
    fn_pooled = dilution.pooled_false_negative_rate(scenario)
    introduced = fn_pooled - fn_individual
    safe = dilution.max_pool_size_for_threshold(
        scenario, args.threshold, max_pool=args.max_pool
    )
    payload = {
        "individual_false_negative_rate": fn_individual,
        "pooled_false_negative_rate": fn_pooled,
        "introduced_false_negative_rate": introduced,
        "pool_size": scenario.pool_size,
        "threshold": args.threshold,
        "max_safe_pool_size": safe,
    }
    warnings = [
        f"introduced false-negative rate {introduced:.3g} exceeds "
        f"{args.threshold:g}; reduce the pool size to at most {safe}"
    ] if introduced > args.threshold else []
    return _report(args, payload, warnings)


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def _add_output(sub):
    sub.add_argument("--output", help="write the result to this path instead of stdout")


def _add_common(sub):
    sub.add_argument("--format", choices=("text", "json"), default="text")
    _add_output(sub)


def _add_dilution_scenario(sub, required: bool):
    sub.add_argument("--aliquot", type=float, default=1.0,
                     help="aliquot volume drawn for one test")
    sub.add_argument("--sample-volume", type=float, default=20.0,
                     help="total sample volume, same unit as --aliquot")
    sub.add_argument("--concentration", type=float, required=required,
                     help="viral particles per volume unit")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="poolscreen",
        description="design, evaluate and simulate pooled-testing schemes",
    )
    parser.add_argument("--config", help="flat key = value file prefilling any flag")
    commands = parser.add_subparsers(dest="command", required=True)

    p_design = commands.add_parser("design", help="recommend a classification design")
    p_design.add_argument("--prevalence", type=float, required=True)
    p_design.add_argument("--cap", type=int, default=8,
                          help="largest allowed pool size (default 8: simple, dilution-safe)")
    p_design.add_argument("--max-cluster", type=int, default=None,
                          help="largest samples-per-cluster for array/hypercube designs")
    p_design.add_argument("--candidates", default="dorfman",
                          help="comma-separated architectures to consider; plain Dorfman "
                               "by default, labs with sequencing slack can add "
                               "array,hypercube,sterrett")
    p_design.add_argument("--dimension", type=int, default=3, help="hypercube dimension")
    p_design.add_argument("--fn-threshold", type=float, default=0.05,
                          help="acceptable introduced false-negative rate")
    _add_dilution_scenario(p_design, required=False)
    _add_common(p_design)
    p_design.set_defaults(func=_cmd_design)

    p_est = commands.add_parser("estimate", help="plan or analyze a prevalence study")
    p_est.add_argument("--plan", action="store_true", help="plan a study instead of analyzing counts")
    p_est.add_argument("--prevalence-guess", type=float)
    p_est.add_argument("--target-nrmse", type=float, default=0.15)
    p_est.add_argument("--cap", type=int, default=None)
    p_est.add_argument("--sample-cost", type=float, default=None,
                       help="cost per collected sample; with --test-cost, plans for "
                            "minimal total cost instead of minimal tests")
    p_est.add_argument("--test-cost", type=float, default=None,
                       help="cost per chemical test (see --sample-cost)")
    p_est.add_argument("--pools", type=int, help="number of pools tested")
    p_est.add_argument("--positive", type=int, help="number of pools that tested positive")
    p_est.add_argument("--pool-size", type=int, help="samples per pool")
    _add_common(p_est)
    p_est.set_defaults(func=_cmd_estimate)

    p_sim = commands.add_parser("simulate", help="seeded Monte Carlo run of a design, as JSON")
    p_sim.add_argument("--design", required=True,
                       choices=("dorfman", "array", "hypercube", "sterrett", "gibbs-gower"))
    p_sim.add_argument("--prevalence", type=float, required=True)
    p_sim.add_argument("--pool-size", type=int, required=True)
    p_sim.add_argument("--pools", type=int, help="pools per replication (gibbs-gower)")
    p_sim.add_argument("--dimension", type=int, help="hypercube dimension (default 3)")
    p_sim.add_argument("--presume", action="store_true",
                       help="array variant 2: presume candidates positive, skip confirmation")
    p_sim.add_argument("--population", type=int, default=None)
    p_sim.add_argument("--reps", type=int, default=10000)
    p_sim.add_argument("--seed", type=int, default=0)
    p_sim.add_argument("--workers", type=int, default=1)
    _add_dilution_scenario(p_sim, required=False)
    _add_output(p_sim)
    p_sim.set_defaults(func=_cmd_simulate, format="json")  # no --format: always JSON

    p_tab = commands.add_parser("tables", help="regenerate a reference table")
    p_tab.add_argument("table_id", choices=sorted(tables.TABLE_IDS))
    p_tab.add_argument("--format", choices=("csv", "json"), default="csv")
    _add_output(p_tab)
    p_tab.set_defaults(func=_cmd_tables)

    p_dil = commands.add_parser("dilution", help="dilution false-negative monitoring")
    _add_dilution_scenario(p_dil, required=True)
    p_dil.add_argument("--pool-size", type=int, required=True)
    p_dil.add_argument("--prevalence", type=float, required=True)
    p_dil.add_argument("--threshold", type=float, default=0.05,
                       help="acceptable introduced false-negative rate")
    p_dil.add_argument("--max-pool", type=int, default=64)
    _add_common(p_dil)
    p_dil.set_defaults(func=_cmd_dilution)

    return parser


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)

    # config file: explicit flag wins over the environment; its values are
    # injected before the real argv so command-line flags override them
    config_path = None
    if "--config" in argv:
        idx = argv.index("--config")
        if idx + 1 >= len(argv):
            print("error: --config needs a path", file=sys.stderr)
            return EXIT_INVALID
        config_path = argv[idx + 1]
        del argv[idx : idx + 2]
    elif os.environ.get(CONFIG_ENV_VAR):
        config_path = os.environ[CONFIG_ENV_VAR]

    if config_path:
        try:
            injected = _read_config(config_path)
        except (OSError, ValueError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_INVALID
        # keep the subcommand first, then defaults from the file, then flags
        if argv and not argv[0].startswith("-"):
            argv = [argv[0]] + injected + argv[1:]
        else:
            argv = injected + argv

    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on bad usage
        return int(exc.code or 0)

    try:
        return args.func(args)
    except estimation.InfeasibleDesignError as exc:
        print(f"error: infeasible: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
