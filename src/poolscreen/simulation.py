"""Seeded Monte Carlo execution of every pooling architecture.

Each run draws synthetic populations of i.i.d. Bernoulli statuses, counts the
tests a pooling procedure uses on them (pool tests, retests, sequential
walks), and aggregates test counts, classification accuracy and estimator
error.  These empirical numbers are the ground truth the closed-form module
is validated against.

Each noise-free design has exactly one implementation: a kernel that counts
the tests of a whole block of replications at once.  The public run_*
functions apply the same kernels to one population.  The literal
one-pool-at-a-time procedures live in the test suite
(tests/literal_procedures.py), which checks the kernels against them test
for test.  Noisy Dorfman and Sterrett runs have one block kernel too; its
random draws follow a fixed layout (see _noisy_block) that the literal noisy
walks of the test suite read as well.

Reproducibility contract: replication r of a run with root seed s draws its
randomness from a fixed block of a counter-based bit stream (Philox keyed by
(s, block_index), BLOCK_REPS replications per block).  Results therefore
depend only on (design, parameters, seed) - not on chunking, scheduling or
the number of workers - and rerunning with the same seed is bit-identical.
Aggregation happens on per-replication arrays indexed by r, which makes it
order-insensitive by construction.

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

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from typing import Union

import numpy as np

from . import dilution as _dilution
from . import estimation as _estimation
from ._validate import integer, prob
from .designs import ArrayDesign, DorfmanDesign, HypercubeDesign, SterrettDesign
from .estimation import GibbsGowerPlan, PoolTestOutcome

__all__ = [
    "BLOCK_REPS",
    "PoolingDesign",
    "PopulationSample",
    "RunOutcome",
    "MonteCarloSummary",
    "simulate_population",
    "run_dorfman",
    "run_array",
    "run_hypercube",
    "run_sterrett",
    "run_gibbs_gower",
    "monte_carlo",
    "simulate_particle_miss_rate",
]

PoolingDesign = Union[DorfmanDesign, ArrayDesign, HypercubeDesign, SterrettDesign, GibbsGowerPlan]

#: Replications per random block.  Fixed: changing it changes which stream
#: each replication reads, i.e. it is part of the reproducibility contract.
BLOCK_REPS = 4096


def _block_rng(seed: int, block: int, stream: int = 0) -> np.random.Generator:
    """Counter-based generator for one block of replications."""
    return np.random.Generator(
        np.random.Philox(np.random.SeedSequence(seed, spawn_key=(stream, block)))
    )


# ---------------------------------------------------------------------------
# populations and outcomes
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PopulationSample:
    """Boolean infection statuses drawn i.i.d. Bernoulli(prevalence).

    Regenerating with the same (size, prevalence, seed) via
    simulate_population is bit-identical (PCG64 behind default_rng).
    """

    statuses: np.ndarray
    prevalence: float
    seed: int

    def __post_init__(self):
        if self.statuses.ndim != 1 or len(self.statuses) < 1:
            raise ValueError("statuses must be a nonempty 1-d boolean array")


@dataclass(frozen=True)
class RunOutcome:
    """Result of one architecture run on one population."""

    tests_used: int
    classified_positive: np.ndarray
    classified_negative: np.ndarray
    false_negatives: int
    false_positives: int


@dataclass(frozen=True)
class MonteCarloSummary:
    reps: int
    mean_tests: float  # per person
    se_tests: float
    empirical_rmse: float | None  # estimation runs only
    sensitivity: float | None
    specificity: float | None
    pool_miss_rate: float | None = None  # noise runs: observed pooled miss rate


def simulate_population(size: int, p: float, seed: int) -> PopulationSample:
    size = integer(size, 1, "population size")
    p = prob(p)
    seed = integer(seed, 0, "seed")
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    statuses = rng.random(size) < p
    return PopulationSample(statuses, p, seed)


# ---------------------------------------------------------------------------
# noise-free kernels: test counts for a whole block statuses[reps, n] at once
# ---------------------------------------------------------------------------

def _units(statuses: np.ndarray, size: int) -> np.ndarray:
    """statuses[reps, n] as consecutive units, shape (reps, units, size); the
    tail unit is padded with known negatives (zeros)."""
    reps, n = statuses.shape
    units = -(-n // size)
    if units * size == n:
        return statuses.reshape(reps, units, size)
    padded = np.zeros((reps, units * size), dtype=statuses.dtype)
    padded[:, :n] = statuses
    return padded.reshape(reps, units, size)


def _unit_sizes(n: int, size: int) -> np.ndarray:
    """Real members of each consecutive unit of `size` covering n people."""
    units = -(-n // size)
    sizes = np.full(units, size)
    sizes[-1] = n - (units - 1) * size
    return sizes


def _kernel_dorfman(statuses: np.ndarray, b: int) -> np.ndarray:
    """One test per pool plus a retest of every real member of a positive
    pool; b == 1 is individual testing, one test per person."""
    reps, n = statuses.shape
    if b == 1:
        return np.full(reps, n)
    members = _unit_sizes(n, b)
    return len(members) + _units(statuses, b).any(axis=2) @ members


def _kernel_sterrett(statuses: np.ndarray, b: int) -> np.ndarray:
    """Closed form of the Sterrett walk, batch by batch.

    A batch of m people with k positives, the last at index l, takes 1 test
    if k == 0; k + m - 1 if l == m - 1 (k positive pools and every member but
    the inferred last); otherwise k + l + 2 (k positive pools, l + 1
    individual tests and the clean remainder pool).
    """
    batches = _units(statuses, b)
    m = _unit_sizes(statuses.shape[1], b)
    k = batches.sum(axis=2)
    last = b - 1 - batches[:, :, ::-1].argmax(axis=2)
    tests = np.where(k == 0, 1, np.where(last == m - 1, k + m - 1, k + last + 2))
    return tests.sum(axis=1)


def _grid_block(statuses: np.ndarray, b: int, d: int, confirm: bool):
    """(tests, presumed mask or None) for array (d = 2) and hypercube runs.

    Every axis-parallel line of each side-b cluster is pooled once; a cell is
    a candidate when every line through it pooled positive, and is retested
    when confirm is true and presumed positive otherwise.  A line's
    positivity is the OR of its b cells, taken slice by slice (any() over a
    tiny strided axis is several times slower).
    """
    reps, n = statuses.shape
    clusters = _units(statuses, b**d)
    cubes = clusters.reshape((-1,) + (b,) * d)
    cand = np.ones(cubes.shape, dtype=bool)
    for axis in range(1, d + 1):
        lines = cubes.take([0], axis)
        for i in range(1, b):
            lines |= cubes.take([i], axis)
        cand &= lines
    line_tests = clusters.shape[1] * d * b ** (d - 1)
    cand = cand.reshape(reps, -1)[:, :n]
    if confirm:
        return line_tests + cand.sum(axis=1), None
    return np.full(reps, line_tests), cand


def _noise_free_block(design, statuses: np.ndarray):
    """(tests, presumed-positive mask or None) per replication of statuses[reps, n].

    The mask is None when every candidate is confirmed individually, so the
    classification is exact.
    """
    if isinstance(design, DorfmanDesign):
        return _kernel_dorfman(statuses, design.batch_size), None
    if isinstance(design, SterrettDesign):
        return _kernel_sterrett(statuses, design.batch_size), None
    if isinstance(design, ArrayDesign):
        return _grid_block(statuses, design.side, 2, design.confirm_stage)
    if isinstance(design, HypercubeDesign):
        return _grid_block(statuses, design.side, design.dimension, True)
    raise ValueError(f"unsupported design {design!r}")


# ---------------------------------------------------------------------------
# single-population runners: the kernels applied to statuses[None]
# ---------------------------------------------------------------------------

def _run_once(pop, block) -> RunOutcome:
    """Apply block: statuses[reps, n] -> (tests, presumed mask or None) to one population."""
    statuses = np.asarray(pop.statuses if isinstance(pop, PopulationSample) else pop, dtype=bool)
    if statuses.ndim != 1 or len(statuses) < 1:
        raise ValueError("a population must be a nonempty 1-d array of statuses")
    tests, presumed = block(statuses[None])
    positive = statuses if presumed is None else presumed[0]
    idx = np.arange(len(statuses))
    return RunOutcome(
        tests_used=int(tests[0]),
        classified_positive=idx[positive],
        classified_negative=idx[~positive],
        false_negatives=int((statuses & ~positive).sum()),
        false_positives=int((positive & ~statuses).sum()),
    )


def run_dorfman(pop, b: int) -> RunOutcome:
    """Dorfman testing: one test per pool, b retests per positive pool.

    The padded tail pool only retests its real members; b == 1 is individual
    testing.  Classification is exact in the noise-free model.
    """
    design = DorfmanDesign(b)
    return _run_once(pop, lambda statuses: _noise_free_block(design, statuses))


def run_array(pop, b: int, confirm: bool = True) -> RunOutcome:
    """Array testing on consecutive b*b clusters (padded with negatives).

    confirm=True retests every row+column-positive cell individually;
    confirm=False presumes those cells positive, which can only create false
    positives.
    """
    design = ArrayDesign(b, confirm_stage=confirm)
    return _run_once(pop, lambda statuses: _noise_free_block(design, statuses))


def run_hypercube(pop, b: int, d: int, confirm: bool = True) -> RunOutcome:
    """Hypercube testing: pools are the axis-parallel lines of side-b cubes.

    confirm=False presumes the candidate cells positive, as in run_array.
    """
    design = HypercubeDesign(b, d)
    return _run_once(
        pop, lambda statuses: _grid_block(statuses, design.side, design.dimension, confirm)
    )


def run_sterrett(pop, b: int) -> RunOutcome:
    """Sterrett testing: walk positive pools individual-by-individual,
    re-pooling the untested remainder after each positive found."""
    design = SterrettDesign(b)
    return _run_once(pop, lambda statuses: _noise_free_block(design, statuses))


def run_gibbs_gower(p: float, plan: GibbsGowerPlan, seed: int) -> float:
    """Draw plan.num_pools pools of plan.pool_size i.i.d. samples; estimate p."""
    p = prob(p)
    seed = integer(seed, 0, "seed")
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    pools = rng.random((plan.num_pools, plan.pool_size)) < p
    positive = int(pools.any(axis=1).sum())
    return _estimation.gg_estimate(
        PoolTestOutcome(plan.num_pools, positive, plan.pool_size)
    )


# ---------------------------------------------------------------------------
# noisy kernels (dilution false negatives), a whole block at once
# ---------------------------------------------------------------------------

def _miss_probs(noise: _dilution.DilutionScenario, max_pool: int, p: float) -> np.ndarray:
    """Miss probability for a positive pool of each size 1..max_pool at the
    run's prevalence p; all 0 at p == 0, where there is no positive pool to
    miss."""
    probs = np.zeros(max_pool + 1)
    if p > 0.0:
        for k in range(1, max_pool + 1):
            scenario = replace(noise, pool_size=k, prevalence=p)
            probs[k] = _dilution.pooled_false_negative_rate(scenario)
    return probs


def _noisy_block(design, statuses: np.ndarray, miss: np.ndarray, rng):
    """(tests, detected mask, positive pools, missed pools) per replication of
    a noisy Dorfman or Sterrett run on statuses[reps, n].

    Draws pool_u then ind_u, each of shape (reps, n).  A pool test on the
    segment starting at person j reads pool_u[:, j] and misses a positive
    segment of size k when it is below miss[k]; the individual test of person
    j reads ind_u[:, j].
    """
    reps, n = statuses.shape
    b = design.batch_size
    pool_u = _units(rng.random((reps, n)), b)
    ind_u = _units(rng.random((reps, n)), b)
    batches = _units(statuses, b)
    m = _unit_sizes(n, b)
    ind_hit = batches & (ind_u >= miss[1])
    if isinstance(design, DorfmanDesign):
        positive = batches.any(axis=2)
        flagged = positive & (pool_u[:, :, 0] >= miss[m])
        if b == 1:  # individual testing: the pool of one is the person's only test
            tests, detected = np.full(reps, n), flagged[:, :, None]
        else:
            tests, detected = len(m) + flagged @ m, flagged[:, :, None] & ind_hit
        pools, missed = positive.sum(axis=1), (positive & ~flagged).sum(axis=1)
        return tests, detected.reshape(reps, -1)[:, :n], pools, missed

    # Sterrett: scan the positions of every batch at once.  A batch either
    # needs a pool test on the segment starting here, is walking it member by
    # member, or is done; a walk that reaches the last real member infers it
    # positive without a test.
    seg_positive = np.logical_or.accumulate(batches[:, :, ::-1], axis=2)[:, :, ::-1]
    detected = np.zeros(batches.shape, dtype=bool)
    tests, pools, missed = np.zeros((3, reps), dtype=np.int64)
    need_pool = np.ones(batches.shape[:2], dtype=bool)
    walking = np.zeros(batches.shape[:2], dtype=bool)
    for j in range(b):
        positive = need_pool & seg_positive[:, :, j]
        flagged = positive & (pool_u[:, :, j] >= miss[np.maximum(m - j, 0)])
        tests += need_pool.sum(axis=1)
        pools += positive.sum(axis=1)
        missed += (positive & ~flagged).sum(axis=1)
        walking |= flagged
        last = j == m - 1
        detected[:, :, j] = walking & last
        walking &= ~last
        tests += walking.sum(axis=1)
        need_pool = walking & ind_hit[:, :, j]
        detected[:, :, j] |= need_pool
        walking &= ~need_pool
    return tests, detected.reshape(reps, -1)[:, :n], pools, missed


# ---------------------------------------------------------------------------
# the Monte Carlo harness
# ---------------------------------------------------------------------------

def monte_carlo(
    design: PoolingDesign,
    p: float,
    population_size: int | None,
    reps: int,
    seed: int,
    noise: _dilution.DilutionScenario | None = None,
    workers: int = 1,
) -> MonteCarloSummary:
    """Run a design `reps` times on fresh populations and aggregate.

    Classification designs need population_size; a Gibbs-Gower plan fixes its
    own sample count.  The dilution model behind `noise` is evaluated at the
    run's prevalence p; the scenario's own prevalence field is not used.
    Identical arguments give bit-identical summaries for any worker count.
    """
    p = prob(p)
    reps = integer(reps, 1, "reps")
    seed = integer(seed, 0, "seed")
    workers = integer(workers, 1, "workers")
    if noise is not None and not isinstance(design, (DorfmanDesign, SterrettDesign)):
        raise ValueError("dilution noise is modeled for Dorfman and Sterrett runs only")

    if isinstance(design, GibbsGowerPlan):
        return _monte_carlo_estimation(design, p, reps, seed, workers)
    if population_size is None:
        raise ValueError("classification runs need a positive population_size")
    n = integer(population_size, 1, "population_size")
    return _monte_carlo_classification(design, p, n, reps, seed, noise, workers)


def _run_blocks(fn, reps: int, workers: int):
    """Call fn((block, (lo, hi))) on every block of replications."""
    blocks = list(enumerate((lo, min(lo + BLOCK_REPS, reps)) for lo in range(0, reps, BLOCK_REPS)))
    if workers == 1:
        for item in blocks:
            fn(item)
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            list(pool.map(fn, blocks))


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
    tests, fp, fn, n_pos, pool_pos, pool_missed = np.zeros((6, reps), dtype=np.int64)

    if noise is not None:
        miss = _miss_probs(noise, design.batch_size, p)

    def do_block(item):
        block, (lo, hi) = item
        rng = _block_rng(seed, block)
        statuses = rng.random((hi - lo, n)) < p
        n_pos[lo:hi] = statuses.sum(axis=1)
        if noise is None:
            tests[lo:hi], presumed = _noise_free_block(design, statuses)
            if presumed is not None:
                # every positive is a candidate, so presuming adds no false negatives
                fp[lo:hi] = (presumed & ~statuses).sum(axis=1)
        else:
            tests[lo:hi], detected, pool_pos[lo:hi], pool_missed[lo:hi] = _noisy_block(
                design, statuses, miss, rng
            )
            fn[lo:hi] = (statuses & ~detected).sum(axis=1)
            fp[lo:hi] = (detected & ~statuses).sum(axis=1)

    _run_blocks(do_block, reps, workers)

    per_person = tests / n
    total_pos = int(n_pos.sum())
    total_neg = reps * n - total_pos
    sensitivity = 1.0 if total_pos == 0 else 1.0 - fn.sum() / total_pos
    specificity = 1.0 if total_neg == 0 else 1.0 - fp.sum() / total_neg
    miss_rate = None
    if noise is not None:
        total_pool_pos = int(pool_pos.sum())
        miss_rate = 0.0 if total_pool_pos == 0 else float(pool_missed.sum() / total_pool_pos)
    return MonteCarloSummary(
        reps=reps,
        mean_tests=float(per_person.mean()),
        se_tests=float(per_person.std(ddof=1) / math.sqrt(reps)) if reps > 1 else 0.0,
        empirical_rmse=None,
        sensitivity=float(sensitivity),
        specificity=float(specificity),
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
    reps = integer(reps, 1, "reps")
    seed = integer(seed, 0, "seed")
    n_particles = math.ceil(scenario.particle_count)
    frac = scenario.aliquot_volume / scenario.sample_volume
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    if n_particles == 0:
        return 1.0
    in_aliquot = rng.binomial(n_particles, frac, size=reps)
    return float((in_aliquot == 0).mean())
