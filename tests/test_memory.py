"""Memory stays bounded at the documented scale.

tracemalloc sees NumPy's buffers, so the peak it reports is the largest
working set a call builds, independent of what the process held before.
"""

import tracemalloc

import pytest

from poolscreen.designs import ArrayDesign, DorfmanDesign, HypercubeDesign
from poolscreen.dilution import DilutionScenario
from poolscreen.estimation import gg_optimal_pool
from poolscreen.simulation import monte_carlo

LIMIT = 64 << 20  # bytes

CALLS = [
    # a full 4096-replication block of 20,000 people: 655 MB of raw words if
    # drawn whole
    ("monte_carlo", lambda: monte_carlo(DorfmanDesign(10), 0.01, 20_000, 4096, seed=1)),
    # the grid kernel scatters each sub-chunk's positives into its line
    # arrays, one byte per line of 312 clusters of 8 x 8 per replication; the
    # presumptive mask ANDs them over every cell
    ("monte_carlo-array", lambda: monte_carlo(ArrayDesign(8), 0.01, 19_968, 4096, seed=1)),
    # the benchmark's other array call: 480 clusters of 5 x 5 per replication
    ("monte_carlo-array-5", lambda: monte_carlo(ArrayDesign(5), 0.0175, 12_000, 4096, seed=1)),
    ("monte_carlo-array-presumed",
     lambda: monte_carlo(ArrayDesign(8, confirm_stage=False), 0.01, 19_968, 4096, seed=1)),
    # a noisy block also draws two noise uniforms per positive
    ("monte_carlo-noisy", lambda: monte_carlo(DorfmanDesign(10), 0.01, 2_000, 4096, seed=1,
                                              noise=DilutionScenario(1.0, 20.0, 5.0, 1, 0.01))),
    # 100 people in one padded 30x30x30 cluster: the kernel works on rows of
    # 27,000 cells, so draws are budgeted by the padded width
    ("monte_carlo-padded", lambda: monte_carlo(HypercubeDesign(30, 3), 0.01, 100, 4096, seed=1)),
    # an MSE sweep over 2000 pool sizes with support windows up to 1e5 wide
    ("gg_optimal_pool", lambda: gg_optimal_pool(0.01, fixed_tests=100_000, cap=2000)),
    # the target planner's first sweep: ~14,000 candidate pool sizes
    ("gg_optimal_pool-target", lambda: gg_optimal_pool(1e-4, target_nrmse=0.15)),
]


@pytest.mark.parametrize("call", [c for _, c in CALLS], ids=[i for i, _ in CALLS])
def test_peak_traced_memory(call):
    tracemalloc.start()
    try:
        call()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < LIMIT, f"peak traced memory {peak / 2**20:.0f} MiB"
