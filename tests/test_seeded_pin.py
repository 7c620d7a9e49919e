"""Seeded results pinned bit for bit.

SHA-256 digests over the repr of seeded Monte Carlo summaries and single-run
outcomes, the way test_tables pins the tables: one over the noise-free runs
and the design kernels' outcomes on single populations, one over the noisy
runs, whose dilution noise reads its own stream.  A change that moves any
seeded value - a kernel, the draw layout, the block keying, aggregation -
fails here, even when the statistical gates elsewhere still pass.  Re-pin
only the digest whose stream a change moves on purpose, and say why.
"""

import hashlib

import numpy as np

from poolscreen.designs import (
    ArrayDesign,
    DorfmanDesign,
    HypercubeDesign,
    SterrettDesign,
    _grid_block,
)
from poolscreen.dilution import DilutionScenario
from poolscreen.estimation import GibbsGowerPlan
from poolscreen.simulation import BLOCK_REPS, monte_carlo

NOISE = DilutionScenario(1.0, 20.0, 5.0, 1, 0.01)

# (design, prevalence, population size, reps, seed, noisy); sizes leave
# ragged last pools, clusters and batches
MONTE_CARLO_CASES = [
    (DorfmanDesign(1), 0.07, 37, 500, 1, False),
    (DorfmanDesign(5), 0.05, 61, BLOCK_REPS + 7, 2, False),
    (SterrettDesign(6), 0.05, 61, BLOCK_REPS + 7, 3, False),
    (ArrayDesign(4), 0.06, 61, BLOCK_REPS + 7, 4, False),
    (ArrayDesign(4, confirm_stage=False), 0.06, 61, 800, 5, False),
    (HypercubeDesign(3, 3), 0.04, 61, 600, 6, False),
    (HypercubeDesign(3, 4), 0.02, 100, 300, 7, False),
    (DorfmanDesign(7), 0.06, 61, BLOCK_REPS + 7, 8, True),
    (SterrettDesign(6), 0.06, 61, BLOCK_REPS + 7, 9, True),
    (DorfmanDesign(1), 0.06, 40, 300, 10, True),
    (DorfmanDesign(6), 0.0, 30, 50, 11, False),
    (SterrettDesign(6), 1.0, 30, 50, 12, True),
    (ArrayDesign(5), 1.0, 30, 50, 13, False),
    (GibbsGowerPlan(8, 50), 0.03, None, BLOCK_REPS + 7, 14, False),
]

SEEDED_SHA256 = "ecb2d19418ad742a2b9f543f4cd0263517e8f06f3a607fe0658cc0e399f5c4c5"
NOISY_SHA256 = "3e151036eba02123ef83862d36a323a7668234dd9c50fc2649e7c79f37fff5f5"


def _outcome(block, statuses):
    """(tests, classified-positive indices, classified-negative indices, false
    negatives, false positives) of a kernel block(positions, reps, n) ->
    (tests, presumed mask or None) on one population."""
    tests, presumed = block(np.flatnonzero(statuses), 1, len(statuses))
    positive = statuses if presumed is None else presumed[0]
    idx = np.arange(len(statuses))
    return (int(tests[0]), idx[positive].tolist(), idx[~positive].tolist(),
            int((statuses & ~positive).sum()), int((positive & ~statuses).sum()))


def monte_carlo_results(noisy: bool) -> list:
    return [
        monte_carlo(design, p, n, reps, seed, noise=NOISE if noisy else None, workers=workers)
        for design, p, n, reps, seed, case_noisy in MONTE_CARLO_CASES
        if case_noisy == noisy
        for workers in (1, 2)
    ]


def seeded_results() -> list:
    """The noise-free Monte Carlo summaries, then single-population outcomes."""
    results = monte_carlo_results(noisy=False)
    rng = np.random.default_rng(20)
    for n, p in ((1, 0.5), (37, 0.1), (100, 0.05), (200, 0.3)):
        statuses = rng.random(n) < p
        blocks = [DorfmanDesign(b).block for b in (1, 3, 8)]
        blocks += [SterrettDesign(b).block for b in (2, 5, 9)]
        blocks += [ArrayDesign(b, c).block for b, c in ((3, True), (4, False), (5, True))]
        # hypercubes, presumptive ones too: the grid kernel with its confirm flag
        blocks += [lambda s, reps, n, b=b, d=d, c=c: _grid_block(s, reps, n, b, d, c)
                   for b, d, c in ((2, 3, True), (3, 3, False), (2, 4, True))]
        results += [_outcome(block, statuses) for block in blocks]
    return results


def digest(results: list) -> str:
    return hashlib.sha256(repr(results).encode()).hexdigest()


def test_seeded_results_are_pinned():
    assert digest(seeded_results()) == SEEDED_SHA256


def test_noisy_results_are_pinned():
    assert digest(monte_carlo_results(noisy=True)) == NOISY_SHA256
