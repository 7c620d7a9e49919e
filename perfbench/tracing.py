"""Spans around the library's public functions, recorded from outside it.

The tracer rebinds module attributes (``estimation.gg_tests_needed`` and so
on) to wrappers.  The library calls its own public functions through those
attributes, so a nested call such as build_table -> gg_optimal_pool ->
gg_tests_needed gets a child span.  Two private hooks are counted rather than
spanned: ``estimation._exact_moments`` (every exact moment sum goes through
it) and ``estimation._mse_many`` (every vectorised MSE sweep).  Spans stay in
memory and are written out once the run ends.
"""

from __future__ import annotations

import functools
import json
import re
import subprocess
import sys
from collections import Counter, defaultdict
from time import perf_counter

from poolscreen import cli, designs, dilution, estimation, simulation, tables

#: (module, functions wrapped in a span).  Span names are "<module>.<function>".
SPANNED = (
    (simulation, ("monte_carlo",)),
    (
        estimation,
        (
            "gg_tests_needed",
            "gg_tests_needed_real",
            "gg_optimal_pool",
            "gg_minimize_cost",
            "gg_mse",
            "report_for_plan",
        ),
    ),
    (designs, ("best_classification_design", "sterrett_optimal_batch", "classification_crossovers")),
    (dilution, ("max_pool_size_for_threshold",)),
    (tables, ("build_table",)),
    (cli, ("main",)),
)

MC_KINDS = (
    "dorfman",
    "sterrett",
    "array",
    "hypercube",
    "noisy_dorfman",
    "noisy_sterrett",
    "gibbs_gower",
)

STARTUP_MODULES = ("numpy", "scipy.special", "scipy.optimize", "poolscreen")


def _startup_metric(module: str) -> str:
    return f"startup.{module.replace('.', '_')}_s"


def mc_kind(design, noise) -> str:
    """Per-layer label of a monte_carlo call, e.g. "noisy_sterrett"."""
    kind = {"individual": "dorfman", "gibbs-gower": "gibbs_gower"}.get(design.kind, design.kind)
    return ("noisy_" if noise is not None else "") + kind


def _mc_describe(design, p, population_size, reps, seed, noise=None, **_):
    if population_size is None:  # Gibbs-Gower: one binomial count and one estimate per rep
        bytes_per_rep = 16
    else:  # a float64 draw and a bool status per person
        bytes_per_rep = 9 * population_size
    return "simulation.monte_carlo." + mc_kind(design, noise), (reps, reps * bytes_per_rep)


def _table_describe(table_id):
    return "tables.build_table." + table_id, None


_DESCRIBE = {
    "simulation.monte_carlo": _mc_describe,
    "tables.build_table": _table_describe,
}


class MissingHook(LookupError):
    """A function the tracer wraps is gone from its module."""


def _lookup(module, name: str):
    """module.name, or MissingHook.  A traced run fails rather than report
    0 for the figures of a renamed or removed function, which would read as
    a gain on every metric where lower is better."""
    try:
        return getattr(module, name)
    except AttributeError:
        raise MissingHook(f"{module.__name__}.{name} not found; update perfbench/tracing.py") from None


class Tracer:
    """Collects spans [name, start, end, parent, op, extra] while installed."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.op: int | None = None
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def install(self) -> None:
        for module, names in SPANNED:
            short = module.__name__.rsplit(".", 1)[-1]
            for name in names:
                self._patch(module, name, self._spanned(f"{short}.{name}", _lookup(module, name)))
        for hook, counter, amount in (("_exact_moments", "exact_moment_evals", lambda args: 1),
                                      ("_mse_many", "mse_many_rows", lambda args: len(args[1]))):
            self._patch(estimation, hook, self._counted(_lookup(estimation, hook), counter, amount))

    def uninstall(self) -> None:
        while self._saved:
            module, name, original = self._saved.pop()
            setattr(module, name, original)

    def take(self) -> tuple[list[list], Counter]:
        """Return what was recorded so far and start afresh."""
        spans, counts = self.spans, self.counts
        self.spans, self.counts = [], Counter()
        return spans, counts

    def _patch(self, module, name, wrapper) -> None:
        self._saved.append((module, name, getattr(module, name)))
        setattr(module, name, wrapper)

    def _spanned(self, name, fn):
        describe = _DESCRIBE.get(name)
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            label, extra = describe(*args, **kwargs) if describe else (name, None)
            record = [label, 0.0, 0.0, stack[-1] if stack else None, self.op, extra]
            stack.append(len(self.spans))
            self.spans.append(record)
            record[1] = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                record[2] = perf_counter()
                stack.pop()

        return wrapper

    def _counted(self, fn, counter, amount):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.counts[counter] += amount(args)
            return fn(*args, **kwargs)

        return wrapper


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    child = [0.0] * len(spans)
    for _, start, end, parent, _, _ in spans:
        if parent is not None:
            child[parent] += end - start
    return [end - start - child[i] for i, (_, start, end, *_rest) in enumerate(spans)]


def per_layer_names() -> list[tuple[str, str]]:
    """Every per-layer metric with its unit, in output order."""
    names = [(_startup_metric(m), "s") for m in STARTUP_MODULES]
    for kind in MC_KINDS:
        base = f"simulation.monte_carlo.{kind}"
        names += [(f"{base}.calls", "count"), (f"{base}.self_s", "s"),
                  (f"{base}.reps_per_s", "1/s"), (f"{base}.bytes_computed", "B")]
    for module, fns in SPANNED:
        if module in (simulation, tables):  # reported per design kind and per table
            continue
        short = module.__name__.rsplit(".", 1)[-1]
        for fn in fns:
            names += [(f"{short}.{fn}.calls", "count"), (f"{short}.{fn}.self_s", "s")]
    names += [
        ("estimation.exact_moment_evals", "count"),
        ("estimation.mse_many_rows", "count"),
        ("estimation.evals_per_tests_needed", "ratio"),
        ("estimation.infeasible", "count"),
    ]
    for table_id in tables.TABLE_IDS:
        names += [(f"tables.build_table.{table_id}.self_s", "s"),
                  (f"tables.build_table.{table_id}.total_s", "s")]
    names.append(("trace.overhead_s", "s"))
    return names


def pass_metrics(spans: list[list], counts: Counter, infeasible: int) -> dict[str, float]:
    """Per-layer figures of one traced pass (startup and overhead excluded)."""
    calls: Counter = Counter()
    self_s: defaultdict = defaultdict(float)
    total_s: defaultdict = defaultdict(float)
    reps: Counter = Counter()
    nbytes: Counter = Counter()
    for span, own in zip(spans, self_times(spans)):
        name, start, end, _, _, extra = span
        calls[name] += 1
        self_s[name] += own
        total_s[name] += end - start
        if extra is not None:
            reps[name] += extra[0]
            nbytes[name] += extra[1]
    out: dict[str, float] = {}
    for metric, _ in per_layer_names():
        span, field = metric.rsplit(".", 1)
        if field == "calls":
            out[metric] = calls[span]
        elif field == "self_s":
            out[metric] = self_s[span]
        elif field == "total_s":
            out[metric] = total_s[span]
        elif field == "reps_per_s":
            out[metric] = reps[span] / self_s[span] if self_s[span] > 0 else 0.0
        elif field == "bytes_computed":
            out[metric] = nbytes[span]
    evals = counts["exact_moment_evals"]
    needed = calls["estimation.gg_tests_needed"]
    out["estimation.exact_moment_evals"] = evals
    out["estimation.mse_many_rows"] = counts["mse_many_rows"]
    out["estimation.evals_per_tests_needed"] = evals / needed if needed else 0.0
    out["estimation.infeasible"] = infeasible
    return out


_IMPORTTIME = re.compile(r"^import time:\s+(\d+)\s+\|\s+(\d+)\s+\|\s+(.*)$")


def import_times(env: dict, runs: int) -> dict[str, list[float]]:
    """startup.* metric -> cumulative seconds of that module's import, one
    value per `python -X importtime -c "import poolscreen"` run.  A module
    that `import poolscreen` does not import reads 0."""
    found: dict[str, list[float]] = {_startup_metric(m): [] for m in STARTUP_MODULES}
    for _ in range(runs):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import poolscreen"],
            env=env, capture_output=True, text=True, timeout=120, check=True,
        )
        seconds = dict.fromkeys(STARTUP_MODULES, 0.0)
        for line in proc.stderr.splitlines():
            match = _IMPORTTIME.match(line)
            if match and match.group(3).strip() in seconds:
                seconds[match.group(3).strip()] = int(match.group(2)) / 1e6
        for module, value in seconds.items():
            found[_startup_metric(module)].append(value)
    return found


def write_spans(path, passes: list[list[list]]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for number, spans in enumerate(passes):
            for name, start, end, parent, op, _ in spans:
                fh.write(json.dumps({"pass": number, "name": name, "start": start, "end": end,
                                     "parent": parent, "op": op}) + "\n")
