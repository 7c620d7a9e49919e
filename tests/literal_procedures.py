"""Literal pooling procedures: the oracles for the library's shortcuts.

Each classification function runs one population through a design the way
a lab would, one pool at a time, and returns (tests used, cells classified
positive).  Pools are consecutive blocks; a ragged tail block holds only its
real members, and a ragged tail cluster is padded with known negatives that
are never retested.  Each design class of poolscreen.designs counts the same
tests, and the false positives, with a vectorized kernel, block, and the
tests check those kernels against these loops; run() therefore dispatches on
its own, never through block.  kernel_outcomes and literal_outcomes reduce a
kernel and a procedure alike to (tests, false negatives, false positives)
per population, the procedure's from its mask, for the tests to compare.

The noisy walks read a population's pre-drawn uniforms[k, 2], two for each
of its k positives in position order, as the Monte Carlo harness draws them:
a test on a positive pool or segment of size m reads column 0 of the
uniforms of its first positive and misses when that is below miss[m]; the
individual test of a positive reads column 1 of its own and misses when that
is below miss[1].  Tests on negative pools and negative people read nothing,
for the noise model has no false positive tests.

More oracles check closed forms and shortcuts of the library:
sterrett_expected_tests_enumerated prices every one of the 2^b infection
patterns of a batch with the literal walk, and sterrett_expected_tests_recursive
runs the O(b^2) recursion over the first positive's position to large b,
both against the Sterrett closed form; and gibbs_gower draws every sample of
every pool of a Gibbs-Gower study, against the binomial shortcut the Monte
Carlo harness draws positive-pool counts with; tests_needed_by_bisection
solves for a pool count by plain bisection from 0, against the gallop from
the asymptotic count that gg_tests_needed brackets the answer with.
"""

import math

import numpy as np

from poolscreen import estimation
from poolscreen._validate import integer, prob
from poolscreen.designs import ArrayDesign, DorfmanDesign, HypercubeDesign, SterrettDesign
from poolscreen.estimation import PoolTestOutcome, gg_estimate


def dorfman(statuses, b):
    """Test each pool of b once and retest every member of a positive pool;
    b == 1 tests each person once."""
    statuses = np.asarray(statuses, dtype=bool)
    if b == 1:
        return len(statuses), statuses.copy()
    tests = 0
    for lo in range(0, len(statuses), b):
        members = statuses[lo : lo + b]
        tests += 1
        if members.any():
            tests += len(members)
    return tests, statuses.copy()


def sterrett_tests_for_pattern(pattern) -> int:
    """Tests used by the Sterrett procedure on a fixed infection pattern."""
    pattern = list(pattern)
    tests = 0
    start = 0
    n = len(pattern)
    while start < n:
        segment = pattern[start:]
        m = len(segment)
        tests += 1  # pooled test on the current segment
        if not any(segment):
            break
        j = 0
        while True:
            if j == m - 1:
                # everyone before tested negative in a positive pool:
                # the last individual is positive by inference
                start = n
                break
            tests += 1
            if segment[j]:
                start += j + 1
                break
            j += 1
    return tests


def sterrett_expected_tests_enumerated(rho: float, b: int) -> float:
    """Exact Sterrett expectation by enumerating all 2^b infection patterns.

    Bounded at b <= 20 (about a million patterns).
    """
    rho = prob(rho)
    b = integer(b, 1, "batch size", maximum=20)
    q = 1.0 - rho
    total = 0.0
    for bits in range(1 << b):
        pattern = [(bits >> i) & 1 == 1 for i in range(b)]
        k = sum(pattern)
        total += rho ** k * q ** (b - k) * sterrett_tests_for_pattern(pattern)
    return total


def sterrett_expected_tests_recursive(rho: float, b_max: int) -> np.ndarray:
    """f[0..b_max], the exact Sterrett expectation of every batch size, by the
    recursion over the position j of the first positive in a positive pool:
    after it the untested remainder is a fresh batch, and a walk that finds
    only negatives infers its last member positive.  f[0] = 0 and

        f(m) = 1 + sum_{j=1..m-1} q^(j-1) rho (j + f(m-j)) + q^(m-1) rho (m-1).

    O(b_max^2) work, one vectorized sum over j per size.
    """
    rho = prob(rho)
    b_max = integer(b_max, 0, "b_max")
    weights = rho * (1.0 - rho) ** np.arange(b_max)  # q^(j-1) rho, j = 1..b_max
    j = np.arange(1, b_max + 1)
    f = np.zeros(b_max + 1)
    for m in range(1, b_max + 1):
        walk = weights[: m - 1] @ (j[: m - 1] + f[m - 1 : 0 : -1])
        f[m] = 1.0 + walk + weights[m - 1] * (m - 1)
    return f


def sterrett(statuses, b):
    """The Sterrett walk on each consecutive batch of b."""
    statuses = np.asarray(statuses, dtype=bool)
    tests = sum(
        sterrett_tests_for_pattern(statuses[lo : lo + b]) for lo in range(0, len(statuses), b)
    )
    return tests, statuses.copy()


def grid(statuses, b, d, confirm=True):
    """Pool every axis-parallel line of each side-b, d-dimensional cluster.

    A real cell whose every line pooled positive is retested when confirm is
    true, and presumed positive otherwise.
    """
    statuses = np.asarray(statuses, dtype=bool)
    n = len(statuses)
    cluster = b**d
    tests = 0
    positive = statuses.copy() if confirm else np.zeros(n, dtype=bool)
    for lo in range(0, n, cluster):
        cube = np.zeros(cluster, dtype=bool)
        real = statuses[lo : lo + cluster]
        cube[: len(real)] = real
        cube = cube.reshape((b,) * d)

        line_positive = {}
        for axis in range(d):
            for rest in np.ndindex(*(b,) * (d - 1)):
                line = rest[:axis] + (slice(None),) + rest[axis:]
                tests += 1
                line_positive[axis, rest] = bool(cube[line].any())

        for offset in range(len(real)):
            cell = np.unravel_index(offset, cube.shape)
            if all(line_positive[axis, cell[:axis] + cell[axis + 1 :]] for axis in range(d)):
                if confirm:
                    tests += 1
                else:
                    positive[lo + offset] = True
    return tests, positive


def run(design, statuses):
    """(tests, classified-positive mask) of one population under a design."""
    if isinstance(design, DorfmanDesign):
        return dorfman(statuses, design.batch_size)
    if isinstance(design, SterrettDesign):
        return sterrett(statuses, design.batch_size)
    if isinstance(design, ArrayDesign):
        return grid(statuses, design.side, 2, design.confirm_stage)
    if isinstance(design, HypercubeDesign):
        return grid(statuses, design.side, design.dimension)
    raise ValueError(f"unsupported design {design!r}")


def kernel_outcomes(block, statuses):
    """[(tests, false negatives, false positives)] of each population, a row
    of statuses, under a noise-free kernel block(positions, reps, n) ->
    (tests, false positives), which misses no positive."""
    statuses = np.atleast_2d(np.asarray(statuses, dtype=bool))
    tests, false_pos = block(np.flatnonzero(statuses), *statuses.shape)
    return [(int(t), 0, int(f)) for t, f in zip(tests, false_pos)]


def literal_outcomes(procedure, statuses):
    """The same from a literal procedure(row) -> (tests, positive mask)."""
    outcomes = []
    for row in np.atleast_2d(np.asarray(statuses, dtype=bool)):
        tests, positive = procedure(row)
        outcomes.append((tests, int((row & ~positive).sum()), int((positive & ~row).sum())))
    return outcomes


def noisy_dorfman(statuses, b, miss, uniforms):
    """(tests, detected mask, positive pools, missed pools) of one noisy
    Dorfman run; b == 1 tests each person once, as a pool of one."""
    statuses = np.asarray(statuses, dtype=bool)
    index = np.cumsum(statuses) - 1  # a positive's row of uniforms
    n = len(statuses)
    tests = 0
    detected = np.zeros(n, dtype=bool)
    positive_pools = missed_pools = 0
    for lo in range(0, n, b):
        hi = min(lo + b, n)
        tests += 1
        members = np.flatnonzero(statuses[lo:hi]) + lo
        if not len(members):
            continue
        positive_pools += 1
        if uniforms[index[members[0]], 0] < miss[hi - lo]:
            missed_pools += 1
            continue
        if b == 1:
            detected[lo] = True
            continue
        for j in range(lo, hi):
            tests += 1
            if statuses[j] and uniforms[index[j], 1] >= miss[1]:
                detected[j] = True
    return tests, detected, positive_pools, missed_pools


def noisy_sterrett(statuses, b, miss, uniforms):
    """(tests, detected mask, positive pools, missed pools) of one noisy
    Sterrett run: a flagged pool is walked member by member until an
    individual test comes back positive, and the untested remainder is pooled
    again; a walk that reaches the last member infers it positive untested,
    a false positive when it is negative."""
    statuses = np.asarray(statuses, dtype=bool)
    index = np.cumsum(statuses) - 1  # a positive's row of uniforms
    n = len(statuses)
    tests = 0
    detected = np.zeros(n, dtype=bool)
    positive_pools = missed_pools = 0
    for start in range(0, n, b):
        end = min(start + b, n)
        while start < end:
            tests += 1
            members = np.flatnonzero(statuses[start:end]) + start
            if not len(members):
                break
            positive_pools += 1
            if uniforms[index[members[0]], 0] < miss[end - start]:
                missed_pools += 1
                break
            found = None
            for j in range(start, end - 1):
                tests += 1
                if statuses[j] and uniforms[index[j], 1] >= miss[1]:
                    found = j
                    break
            if found is None:
                detected[end - 1] = True
                break
            detected[found] = True
            start = found + 1
    return tests, detected, positive_pools, missed_pools


def gibbs_gower(p, plan, seed):
    """Gibbs-Gower estimate of p from one study: every sample of every pool
    drawn i.i.d. Bernoulli(p), and each pool positive when any sample is."""
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    positive = int((rng.random((plan.num_pools, plan.pool_size)) < p).any(axis=1).sum())
    return gg_estimate(PoolTestOutcome(plan.num_pools, positive, plan.pool_size))


def tests_needed_by_bisection(p, b, target):
    """Smallest pool count t whose exact NRMSE meets the target, by bisection
    over (0, limit] from the start; None where even the limit misses it."""
    bound = target * (1.0 + estimation._REL_GUARD)

    def ok(t):
        return math.sqrt(estimation._exact_moments(p, b, t)[1]) / p <= bound

    lo, hi = 0, estimation._T_SEARCH_LIMIT
    if not ok(hi):
        return None
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if ok(mid):
            hi = mid
        else:
            lo = mid
    return hi
