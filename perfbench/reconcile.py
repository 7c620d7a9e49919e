"""Re-measure three single-run figures of ROADMAP item 1 under the tracer.

    python3 perfbench/reconcile.py

Each case runs REPEATS times, each time in a fresh interpreter that imports the
library from ./src, and prints one line per case with the median, the range
and every value:

* sterrett: monte_carlo(SterrettDesign(9), 0.03, 90 people, 1e5 reps), with
  workers=1 and workers=2; the monte_carlo span's duration.
* import: seconds from spawning an interpreter until `import poolscreen`
  returns, and the cumulative -X importtime seconds of its biggest imports.
* mse_sweep: gg_optimal_pool(0.01, fixed_tests=100_000, cap=2000); the span's
  duration, the process's peak RSS and the pool sizes passed to _mse_many.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys

import run

#: Fresh interpreters per case.
REPEATS = 5


def _traced(call) -> tuple[float, dict]:
    """Run call() under the tracer: (its one span's seconds, the counters)."""
    import tracing

    tracer = tracing.Tracer()
    tracer.install()
    try:
        call()
    finally:
        tracer.uninstall()
    (span,), counts = tracer.take()
    return span[2] - span[1], counts


def _case_sterrett(workers: int) -> dict:
    from poolscreen import designs, simulation

    seconds, _ = _traced(lambda: simulation.monte_carlo(
        designs.SterrettDesign(9), 0.03, 90, 100_000, 1, workers=workers))
    return {f"sterrett_workers{workers}_s": seconds}


def _case_mse_sweep() -> dict:
    from poolscreen import estimation

    seconds, counts = _traced(lambda: estimation.gg_optimal_pool(
        0.01, fixed_tests=100_000, cap=2000))
    return {"mse_sweep_s": seconds,
            "mse_sweep_peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "mse_sweep_rows": counts["mse_many_rows"]}


CASES = {
    "sterrett1": lambda: _case_sterrett(1),
    "sterrett2": lambda: _case_sterrett(2),
    "mse_sweep": _case_mse_sweep,
}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--case", choices=sorted(CASES), help=argparse.SUPPRESS)
    args = parser.parse_args()
    if not (run.SRC / "poolscreen" / "__init__.py").is_file():
        print(f"error: no poolscreen package under {run.SRC}", file=sys.stderr)
        return 2
    if args.case:  # child: one case in this fresh interpreter
        sys.path.insert(0, str(run.SRC))
        print(json.dumps(CASES[args.case]()))
        return 0

    env = run.child_env()
    values: dict[str, list[float]] = {"import_s": run.setup_times(env, REPEATS)}
    for _ in range(REPEATS):
        for case in CASES:
            proc = subprocess.run([sys.executable, __file__, "--case", case], env=env,
                                  capture_output=True, text=True, timeout=600, check=True)
            for key, value in json.loads(proc.stdout).items():
                values.setdefault(key, []).append(value)
    sys.path.insert(0, str(run.SRC))
    import tracing

    values.update(tracing.import_times(env, REPEATS))
    print("env " + json.dumps(run.environment(), sort_keys=True))
    for key, vals in values.items():
        print(f"{key}: median {statistics.median(vals):.4g}, range {min(vals):.4g}-{max(vals):.4g}, "
              f"values {' '.join(f'{v:.4g}' for v in vals)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
