"""poolscreen benchmark.

    python3 perfbench/run.py --workload {validate,plan,scale} --seed N --seconds S --trace {0,1}

Run from the root of a checkout: the library is imported from ./src.  The
run repeats the workload's op list (a "pass") until S seconds of passes are
done, checks every op's output, and prints one JSON object as its last line
of standard output.  With --trace 0 it holds the end-to-end metrics; with
--trace 1 the per-layer metrics, from passes run under the tracer and
alternated with untraced passes.  README.md describes the workloads and
metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import pickle
import platform
import resource
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"

#: Fresh interpreters timed per run for setup_s, after one untimed warm-up
#: that writes the bytecode caches.
SETUP_SAMPLES = 5
#: `python -X importtime` runs per traced run for the startup.* metrics.
IMPORTTIME_SAMPLES = 3

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "peak_rss_mb": "MB",
}


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def setup_times(env: dict, samples: int) -> list[float]:
    """Seconds from spawning an interpreter until `import poolscreen` returns.

    CLOCK_MONOTONIC is system-wide, so the child's reading after the import
    is comparable with the parent's reading before the spawn.
    """
    code = "import poolscreen, time; print(time.clock_gettime(time.CLOCK_MONOTONIC))"
    times = []
    for i in range(samples + 1):
        start = time.clock_gettime(time.CLOCK_MONOTONIC)
        proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              text=True, timeout=120, check=True)
        if i:  # the first spawn warms the file and bytecode caches
            times.append(float(proc.stdout) - start)
    return times


def environment() -> dict:
    import numpy
    import scipy

    cpu = next((line.split(":", 1)[1].strip() for line in _read("/proc/cpuinfo").splitlines()
                if line.startswith("model name")), platform.processor() or None)
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        commit = proc.stdout.strip() or None
    src_lines = sum(len(path.read_text(encoding="utf-8").splitlines())
                    for path in sorted(SRC.rglob("*.py")))
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "commit": commit,
        "src_lines": src_lines,
    }


def _read(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError:
        return ""


class Isolated:
    """The second interpreter (isolated.py) that runs a workload's isolated ops.

    Peak RSS is a per-process maximum, so an op whose peak lies below another
    op's would not show in it if both ran in one process.
    """

    def __init__(self, workload: str, seed: int, env: dict):
        self.proc = subprocess.Popen([sys.executable, str(HERE / "isolated.py"), workload, str(seed)],
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=env)
        self._recv()  # "ready": it builds its ops before the first pass

    def call(self, index: int):
        pickle.dump(index, self.proc.stdin)
        self.proc.stdin.flush()
        return self._recv()

    def peak_rss_mb(self) -> float:
        """Its peak RSS in MiB; it exits after answering."""
        peak = self.call(None)
        self.proc.wait(timeout=60)
        return peak

    def _recv(self):
        return pickle.load(self.proc.stdout)

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()


def run_pass(ops, tracer=None, isolated=None) -> tuple[float, list[float], list]:
    """Run every op once: (pass seconds, per-op seconds, per-op outcome).
    Isolated ops go to isolated, when given, and are timed from here."""
    latencies, outcomes = [], []
    start = time.perf_counter()
    for index, op in enumerate(ops):
        if tracer is not None:
            tracer.op = index
        begin = time.perf_counter()
        try:
            outcome = isolated.call(index) if isolated and op.isolated else op.call()
        except Exception as exc:  # an op's failure is a result to check, not a crash
            outcome = exc
        latencies.append(time.perf_counter() - begin)
        outcomes.append(outcome)
    return time.perf_counter() - start, latencies, outcomes


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("validate", "plan", "scale"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "poolscreen" / "__init__.py").is_file():
        print(f"error: no poolscreen package under {SRC}", file=sys.stderr)
        return 2
    env = child_env()
    if args.trace:
        setup = []
    else:
        setup = setup_times(env, SETUP_SAMPLES)

    sys.path.insert(0, str(SRC))
    import poolscreen

    if Path(poolscreen.__file__).resolve().parent != SRC / "poolscreen":
        print(f"error: imported poolscreen from {poolscreen.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import tracing
    import workloads

    ops = workloads.build(args.workload, args.seed)
    tracer = tracing.Tracer() if args.trace else None
    startup = tracing.import_times(env, IMPORTTIME_SAMPLES) if args.trace else {}

    # in untraced runs, isolated ops run in a second interpreter; a traced
    # run keeps every op in this one, where the tracer sees it
    use_isolated = not args.trace and any(op.isolated for op in ops)
    with Isolated(args.workload, args.seed, env) if use_isolated else nullcontext() as isolated:
        walls, traced_walls, latencies = [], [], []
        traced_metrics, traced_spans = [], []
        attempted = failed = 0
        reference = None
        messages: list[str] = []
        measured = 0.0
        # stop when another pass would end further past --seconds than short of it
        while (not walls or measured + statistics.median(walls + traced_walls) / 2 < args.seconds
               or (tracer is not None and not traced_walls)):
            traced = tracer is not None and reference is not None and len(walls) > len(traced_walls)
            if traced:
                tracer.install()
                try:
                    wall, lat, outcomes = run_pass(ops, tracer)
                finally:
                    tracer.uninstall()
                spans, counts = tracer.take()
                infeasible = sum(op.infeasible and workloads.outcome_failure(op, outcome) is None
                                 for op, outcome in zip(ops, outcomes))
                traced_metrics.append(tracing.pass_metrics(spans, counts, infeasible))
                traced_spans.append(spans)
                traced_walls.append(wall)
            else:
                wall, lat, outcomes = run_pass(ops, isolated=isolated)
                walls.append(wall)
                latencies += lat
            measured += wall

            # checks, outside the timed region: the first pass against the
            # oracles, later passes for bit-identical repeats of the first
            for index, (op, outcome) in enumerate(zip(ops, outcomes)):
                if reference is None:
                    message = workloads.outcome_failure(op, outcome)
                elif workloads.same_outcome(outcome, reference[index]):
                    message = None
                else:
                    message = "result differs from the first pass"
                if message:
                    failed += 1
                    messages.append(f"op {index} ({op.label}): {message}")
            attempted += len(ops)
            if reference is None:
                reference = outcomes

        # summed over the processes, so that each one's peak shows
        peaks = [resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024]
        if isolated is not None:
            peaks.append(isolated.peak_rss_mb())

    for message in messages[:20]:
        print("FAILED", message, file=sys.stderr)

    print("env " + json.dumps(environment(), sort_keys=True))
    if tracer is None:
        latencies_ms = sorted(1e3 * x for x in latencies)
        metrics = {
            "setup_s": statistics.median(setup),
            "wall_s": statistics.median(walls),
            "latency_p50_ms": statistics.median(latencies_ms),
            "latency_p90_ms": statistics.quantiles(latencies_ms, n=10, method="inclusive")[8],
            "peak_rss_mb": sum(peaks),
        }
        basis = {"setup_s": f"median of {len(setup)} interpreters",
                 "wall_s": f"median of {len(walls)} passes",
                 "latency_p50_ms": f"of {len(latencies)} op latencies",
                 "latency_p90_ms": f"of {len(latencies)} op latencies",
                 "peak_rss_mb": "sum of per-process peaks: " + " + ".join(f"{x:.1f}" for x in peaks)}
        for name, value in metrics.items():
            print(f"{name} {value:.6g} {END_TO_END_UNITS[name]} ({basis[name]})")
        print("pass_walls_s " + " ".join(f"{w:.4f}" for w in walls))
        print(f"failed_ops_frac {failed / attempted:.6g} ratio ({failed} of {attempted} ops)")
        result = {name: {"value": value, "unit": END_TO_END_UNITS[name]}
                  for name, value in metrics.items()}
    else:
        values = {
            name: statistics.median(m[name] for m in traced_metrics)
            for name in traced_metrics[0]
        }
        for name, seconds in startup.items():
            values[name] = statistics.median(seconds)
        values["trace.overhead_s"] = statistics.median(traced_walls) - statistics.median(walls)
        result = {name: {"value": values[name], "unit": unit}
                  for name, unit in tracing.per_layer_names()}
        RESULTS.mkdir(exist_ok=True)
        spans_path = RESULTS / f"spans-{args.workload}-{args.seed}.jsonl"
        tracing.write_spans(spans_path, traced_spans)
        print(f"traced passes {len(traced_walls)}, untraced {len(walls)}; spans in {spans_path}")
        for name, entry in result.items():
            print(f"{name} {entry['value']:.6g} {entry['unit']}")

    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": result}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
