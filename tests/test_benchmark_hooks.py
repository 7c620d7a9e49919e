"""The benchmark's tracer still finds every library name it hooks.

perfbench/tracing.py rebinds public functions and two private kernels of the
library by name; a rename would otherwise surface only in traced benchmark
runs, as MissingHook.
"""

from pathlib import Path

from poolscreen import estimation

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_tracer_installs_counts_and_restores(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing

    hooked = [(module, name) for module, names in tracing.SPANNED for name in names]
    hooked += [(estimation, "_exact_moments"), (estimation, "_mse_many")]
    originals = [getattr(module, name, None) for module, name in hooked]
    tracer = tracing.Tracer()
    tracer.install()  # raises MissingHook where a name is gone
    try:
        estimation.gg_optimal_pool(0.01, target_nrmse=0.15)
    finally:
        tracer.uninstall()
    assert tracer.counts["exact_moment_evals"] > 0
    assert tracer.counts["mse_many_rows"] > 0
    assert [getattr(module, name) for module, name in hooked] == originals
