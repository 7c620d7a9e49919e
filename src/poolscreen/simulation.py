"""Seeded Monte Carlo execution of every pooling architecture.

Each run draws synthetic populations of i.i.d. Bernoulli statuses, counts the
tests a pooling procedure uses on them (pool tests, retests, sequential
walks), and aggregates test counts, classification accuracy and estimator
error.  These empirical numbers are the ground truth the closed-form module
is validated against.

The test counting belongs to the designs: each design class of the designs
module has one kernel, block, that counts the tests and false positives of a
whole block of replications at once from the sorted positions of its
positives, and Dorfman and Sterrett designs have a noisy_block that reads the
same positions and two pre-drawn noise uniforms for each positive.  This
module draws the populations and the noise, runs the kernels and aggregates.
The literal one-pool-at-a-time procedures live in the test suite
(tests/literal_procedures.py), which checks the kernels against them test
for test.

Reproducibility contract: replication r of a run with root seed s draws its
randomness from fixed blocks of counter-based bit streams (Philox keyed by
(s, (stream, block_index)), BLOCK_REPS replications per block; stream 0
holds the statuses, stream 1 the dilution noise).  Results therefore depend
only on (design, parameters, seed) - not on chunking, scheduling or the
number of workers - and rerunning with the same seed is bit-identical.
Aggregation keeps the tests per replication r and sums the rest as exact
integer totals per block, which makes it order-insensitive by construction.
Nor do results depend on row sub-chunks: to bound memory, every block is
drawn and reduced a few rows at a time, as the sorted positions of each
sub-chunk's positives, and consecutive draws read each stream in the same
order as one whole draw would.

A block's statuses are one Bernoulli(p) sequence, row after row, drawn as
geometric gaps between occurrences of the rarer outcome (positives for
p <= 1/2, negatives above), in fixed batches of _GAP_BATCH uniforms from
stream 0, so a draw costs O(min(p, 1 - p)) random numbers per status (see
_draw_rows).  The batch size is part of the reproducibility contract, like
BLOCK_REPS.  A gap is floor(log1p(-u) / log1p(-r)), so the statuses are
Bernoulli(p) up to floating-point rounding in the logarithms, not exactly to
2**-53 as a comparison of one uniform per status would be.  The dilution
noise is drawn as uniforms, two per positive in position order, the first for
the pool test of the pool or segment the positive opens, the second for its
individual test; negatives draw none, since noise cannot change a test on a
negative pool or person.  So how much of stream 1 a block reads depends on
its positives alone.

Pool membership is consecutive-block assignment; statuses are i.i.d., so any
assignment rule yields the same distribution.  Populations that do not divide
evenly are padded with known-negative placeholders that are excluded from
test counts and accuracy tallies.

The optional dilution noise model makes a test on a pool with at least one
positive come back negative with the probability given by the dilution
module for that pool size (individual retests use the pool-size-1 rate; in
individual testing, b = 1, that pool of one is the person's only test).
False positives are not modeled.
"""

from __future__ import annotations

import functools
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import dilution as _dilution
from . import estimation as _estimation
from ._validate import instance, integer, prob
from .designs import _CLASSIFICATION_DESIGNS
from .estimation import GibbsGowerPlan

__all__ = [
    "BLOCK_REPS",
    "MonteCarloSummary",
    "monte_carlo",
    "simulate_particle_miss_rate",
]

#: Replications per random block.  Fixed: changing it changes which stream
#: each replication reads, i.e. it is part of the reproducibility contract.
BLOCK_REPS = 4096

# Row budget of a sub-chunk, 8 bytes per person: about a million statuses,
# or an int64 position for each at any p (a noisy block draws two noise
# uniforms per positive alongside).  Blocks are drawn and reduced in row
# sub-chunks of this size, so the working set is bounded whatever the
# population size.
_DRAW_BYTES = 8 << 20

#: Uniforms per batch of status gaps.  Fixed: changing it changes which part
#: of a block's stream each status reads (see _draw_rows).
_GAP_BATCH = 1 << 14


def _block_rng(seed: int, block: int, stream: int = 0) -> np.random.Generator:
    """Counter-based generator for one block: stream 0 statuses, stream 1 noise."""
    return np.random.Generator(
        np.random.Philox(np.random.SeedSequence(seed, spawn_key=(stream, block)))
    )


@dataclass(frozen=True)
class MonteCarloSummary:
    reps: int
    mean_tests: float  # per person
    se_tests: float
    empirical_rmse: float | None  # estimation runs only
    sensitivity: float | None
    specificity: float | None
    pool_miss_rate: float | None = None  # noise runs: observed pooled miss rate


def _draw_rows(rng: np.random.Generator, lo: int, hi: int, n: int, p: float, unit: int):
    """Yield (rows, positions) for rows lo..hi-1 of n Bernoulli(p) statuses
    each, in sub-chunks of at most _DRAW_BYTES at 8 bytes per person (at least
    one row), counted on rows padded to whole units of `unit` people as the
    kernels pad them.  positions are the sorted flat positions of a
    sub-chunk's positives, int64, row-major over its rows x n statuses.

    The (hi - lo) * n statuses, row after row, are one Bernoulli sequence.
    With r = min(p, 1 - p), the gaps between occurrences of the rarer outcome
    are Geometric(r), floor(log1p(-u) / log1p(-r)) for a uniform u, drawn from
    rng in batches of _GAP_BATCH.  A batch is drawn only while the positions
    drawn so far end before the sub-chunk does, so how much of the stream is
    read depends on the block alone, not on the sub-chunking.  Above p = 1/2
    the drawn positions are the negatives', and their complement is yielded."""
    rare = min(p, 1.0 - p)
    log_q = math.log1p(-rare)
    length = (hi - lo) * n
    step = max(1, _DRAW_BYTES // (8 * -(-n // unit) * unit))
    u = np.empty(_GAP_BATCH)
    # positions of the rarer outcome drawn but not yet yielded, and of the
    # latest one drawn, counted from the start of the current sub-chunk
    drawn, last = [np.empty(0, np.int64)], -1
    for a in range(lo, hi, step):
        z = min(a + step, hi)
        size = (z - a) * n
        while rare > 0.0 and last < size - 1:
            rng.random(out=u)
            np.negative(u, out=u)
            np.log1p(u, out=u)
            # at tiny r the quotient overflows to inf; every gap is clipped
            # to the block length, so the positions' cumsum stays in int64
            with np.errstate(over="ignore"):
                np.divide(u, log_q, out=u)
            np.minimum(u, length, out=u)
            positions = u.astype(np.int64)
            positions += 1
            positions[0] += last
            np.cumsum(positions, out=positions)
            last = int(positions[-1])
            drawn.append(positions)
        positions = np.concatenate(drawn)
        k = int(positions.searchsorted(size))
        drawn, last = [positions[k:] - size], last - size
        positions = positions[:k]
        if p > 0.5:
            negative = np.zeros(size, bool)
            negative[positions] = True
            positions = np.flatnonzero(~negative)
        yield slice(a, z), positions


# ---------------------------------------------------------------------------
# dilution false negatives
# ---------------------------------------------------------------------------

def _miss_probs(noise: _dilution.DilutionScenario, max_pool: int, p: float) -> np.ndarray:
    """Miss probability for a positive pool of each size 1..max_pool at the
    run's prevalence p; all 0 at p == 0, where there is no positive pool to
    miss."""
    probs = np.zeros(max_pool + 1)
    if p > 0.0:
        probs[1:] = [_dilution._miss_rate(noise, k, p) for k in range(1, max_pool + 1)]
    return probs


# ---------------------------------------------------------------------------
# the Monte Carlo harness
# ---------------------------------------------------------------------------

def monte_carlo(
    design,
    p: float,
    population_size: int | None,
    reps: int,
    seed: int,
    noise: _dilution.DilutionScenario | None = None,
    workers: int = 1,
) -> MonteCarloSummary:
    """Run a design `reps` times on fresh populations and aggregate.

    Classification designs need population_size; a Gibbs-Gower plan fixes its
    own sample count and takes None.  The dilution model behind `noise` is
    evaluated at the run's prevalence p; the scenario's own prevalence field
    is not used.
    Identical arguments give bit-identical summaries for any worker count.
    """
    p = prob(p)
    reps = integer(reps, 1, "reps")
    seed = integer(seed, 0, "seed")
    workers = integer(workers, 1, "workers")
    noise = instance(noise, _dilution.DilutionScenario, "noise", optional=True)
    if noise is not None and not hasattr(design, "noisy_block"):
        raise ValueError("dilution noise is modeled for Dorfman and Sterrett runs only")

    if isinstance(design, GibbsGowerPlan):
        if population_size is not None:
            raise ValueError("a Gibbs-Gower plan fixes its own sample count: "
                             f"population_size must be None, got {population_size!r}")
        return _monte_carlo_estimation(design, p, reps, seed, workers)
    if not isinstance(design, _CLASSIFICATION_DESIGNS):
        raise ValueError(f"unsupported design {design!r}")
    if population_size is None:
        raise ValueError("classification runs need a positive population_size")
    n = integer(population_size, 1, "population_size")
    return _monte_carlo_classification(design, p, n, reps, seed, noise, workers)


@functools.cache
def _thread_pool(workers: int) -> ThreadPoolExecutor:
    """One pool per worker count, kept across calls: its threads keep their
    malloc arenas, where fresh threads for every call would make new ones."""
    return ThreadPoolExecutor(max_workers=workers)


def _run_blocks(fn, reps: int, workers: int):
    """Call fn((block, (lo, hi))) on every block of replications."""
    blocks = list(enumerate((lo, min(lo + BLOCK_REPS, reps)) for lo in range(0, reps, BLOCK_REPS)))
    if workers == 1:
        for item in blocks:
            fn(item)
    else:
        list(_thread_pool(workers).map(fn, blocks))


def _monte_carlo_estimation(plan, p, reps, seed, workers):
    pool_prob = _estimation.pool_positive_prob(p, plan.pool_size)
    p_hats = np.empty(reps)

    def do_block(item):
        block, (lo, hi) = item
        rng = _block_rng(seed, block)
        t_plus = rng.binomial(plan.num_pools, pool_prob, size=hi - lo)
        p_hats[lo:hi] = _estimation._estimates_for_counts(
            t_plus, plan.num_pools, plan.pool_size
        )

    _run_blocks(do_block, reps, workers)
    sq_err = (p_hats - p) ** 2
    tests_per_person = plan.num_pools / plan.total_samples
    return MonteCarloSummary(
        reps=reps,
        mean_tests=tests_per_person,
        se_tests=0.0,
        empirical_rmse=float(np.sqrt(sq_err.mean())),
        sensitivity=None,
        specificity=None,
    )


def _monte_carlo_classification(design, p, n, reps, seed, noise, workers):
    tests = np.empty(reps, np.int64)
    tallies = {}  # block: (positives, false negatives, false positives, positive and missed pools)

    if noise is not None:
        # no pool or segment has more real members than the population
        miss = _miss_probs(noise, min(design.batch_size, n), p)

    def do_block(item):
        block, (lo, hi) = item
        rng = _block_rng(seed, block)
        if noise is not None:
            noise_rng = _block_rng(seed, block, stream=1)
        pos = fn = fp = pools = missed = 0
        for rows, positions in _draw_rows(rng, lo, hi, n, p, design._unit(n)):
            count = rows.stop - rows.start
            pos += len(positions)
            if noise is None:
                tests[rows], false_pos = design.block(positions, count, n)
            else:
                # two uniforms per positive, in position order
                uniforms = noise_rng.random((len(positions), 2))
                tests[rows], false_pos, pool_pos, pool_missed, detected = design.noisy_block(
                    positions, count, n, miss, uniforms)
                fn += len(detected) - int(np.count_nonzero(detected))
                pools += int(pool_pos.sum())
                missed += int(pool_missed.sum())
            fp += int(false_pos.sum())
        tallies[block] = pos, fn, fp, pools, missed

    _run_blocks(do_block, reps, workers)

    per_person = tests / n
    total_pos, fn, fp, pools, missed = map(sum, zip(*tallies.values()))
    total_neg = reps * n - total_pos
    sensitivity = 1.0 if total_pos == 0 else 1.0 - fn / total_pos
    specificity = 1.0 if total_neg == 0 else 1.0 - fp / total_neg
    miss_rate = None if noise is None else (missed / pools if pools else 0.0)
    return MonteCarloSummary(
        reps=reps,
        mean_tests=float(per_person.mean()),
        se_tests=float(per_person.std(ddof=1) / math.sqrt(reps)) if reps > 1 else 0.0,
        empirical_rmse=None,
        sensitivity=sensitivity,
        specificity=specificity,
        pool_miss_rate=miss_rate,
    )


# ---------------------------------------------------------------------------
# dilution oracle: stochastic particle placement
# ---------------------------------------------------------------------------

def simulate_particle_miss_rate(
    scenario: _dilution.DilutionScenario, reps: int, seed: int
) -> float:
    """Empirical individual false-negative rate by placing particles at random.

    ceil(c*T) particles are scattered uniformly over the sample's T/l parts;
    the test misses when the aliquot part catches none.  (The count in one
    part of a uniform multinomial is binomial, which is what is drawn.)
    """
    scenario = instance(scenario, _dilution.DilutionScenario, "scenario")
    reps = integer(reps, 1, "reps")
    seed = integer(seed, 0, "seed")
    n_particles = math.ceil(scenario.particle_count)
    frac = scenario.aliquot_volume / scenario.sample_volume
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    if n_particles == 0:
        return 1.0
    in_aliquot = rng.binomial(n_particles, frac, size=reps)
    return float((in_aliquot == 0).mean())
