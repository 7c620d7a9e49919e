"""Closed-form evaluation and optimization of pooled classification schemes.

All costs are expressed as *expected chemical tests per person screened*, so
1.0 means "no better than testing everyone individually" and the reciprocal is
the efficiency gain (individuals screened per test).

Schemes covered:

* Dorfman two-stage testing: pools of size b are tested, and every member of a
  positive pool is retested individually.  Cost 1/b + 1 - (1-rho)^b.
* Sterrett testing: like Dorfman, but members of a positive pool are tested
  one at a time; after the first positive individual is found the untested
  remainder is re-pooled and the procedure restarts on it.  Its recursion
  telescopes to a closed form (the tests check it against the recursion and
  a brute-force pattern enumeration).
* Array testing: a cluster of b*b samples is laid out on a grid, every row and
  every column is pooled, and cells whose row and column both test positive
  are either retested individually (confirm stage) or presumed positive.
* Hypercube testing: the d-dimensional generalization of array testing; the
  pooled "rows" are the axis-parallel lines of a side-b cube.

For array and hypercube testing two cost functions are given: the classical
approximation that treats row/column positivity as independent, and an exact
expectation derived by inclusion-exclusion.  The approximation is what the
optimizers use (it is the standard published form); the exact expectation is
what a faithful simulation converges to, and ``independence_gap`` reports the
relative discrepancy between the two.

Each design class carries what callers dispatch on: ``cost(rho)``, its closed
form, and ``block(positions, reps, n) -> (tests, false positives)`` per row,
0 where every candidate is confirmed, the vectorized count that the Monte
Carlo harness runs on the sorted flat positions of the positives of reps rows
of n people; Dorfman and Sterrett add ``noisy_block``, which reads the same
positions and two pre-drawn uniforms for each positive, and returns per-row
tests, false positives, positive and missed pools, and a detected flag for
each positive.  No kernel draws random numbers.
The private ``_unit(n)`` is the pool, batch or cluster size a kernel pads
each row of n people to whole multiples of, which the harness budgets its
draws by.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._validate import boolean, exp_or_inf, instance, integer, positive_fraction, prob, real

__all__ = [
    "ConstraintSet",
    "DorfmanDesign",
    "ArrayDesign",
    "HypercubeDesign",
    "SterrettDesign",
    "DesignEvaluation",
    "DEFAULT_BATCH_CAP",
    "lambert_w0",
    "dorfman_expected_tests_per_person",
    "dorfman_optimal_batch_continuous",
    "dorfman_optimal_batch",
    "array_expected_tests_per_person",
    "array_expected_tests_exact",
    "array_optimal_side",
    "hypercube_expected_tests_per_person",
    "hypercube_expected_tests_exact",
    "hypercube_optimal_side",
    "independence_gap",
    "sterrett_expected_tests_per_batch",
    "sterrett_optimal_batch",
    "evaluate_design",
    "best_classification_design",
    "classification_crossovers",
]

#: Default upper bound for batch-size searches.  Pool sizes above
#: roughly 32 are already questionable for qPCR because of dilution, so 64
#: leaves generous headroom without making searches expensive.
DEFAULT_BATCH_CAP = 64

_INV_E = math.exp(-1.0)
_HALLEY_STEPS = 8  # lambert_w0 converges in 2-4; the cap stops a stall near -1/e


# ---------------------------------------------------------------------------
# design parameter sets
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ConstraintSet:
    """Lab-imposed bounds on a design search.

    max_pool_size bounds the number of samples mixed into one chemical test;
    max_cluster_size bounds the number of samples committed to one array or
    hypercube cluster (a daily-throughput constraint on b**d).
    """

    max_pool_size: int | None = None
    max_cluster_size: int | None = None

    def __post_init__(self):
        for name in ("max_pool_size", "max_cluster_size"):
            if getattr(self, name) is not None:
                object.__setattr__(self, name, integer(getattr(self, name), 1, name))

    def pool_cap(self, default: int = DEFAULT_BATCH_CAP) -> int:
        return default if self.max_pool_size is None else self.max_pool_size


@dataclass(frozen=True)
class DorfmanDesign:
    """Two-stage pooled testing; batch_size == 1 denotes individual testing."""

    batch_size: int

    def __post_init__(self):
        object.__setattr__(self, "batch_size", integer(self.batch_size, 1, "batch size"))

    @property
    def kind(self) -> str:
        return "individual" if self.batch_size == 1 else "dorfman"

    def _unit(self, n: int) -> int:
        """The pool the kernels pad rows of n people to: a pool past the
        population holds the same people as one of max(2, n) and costs the
        same, and a pool of 1 stays individual testing."""
        return min(self.batch_size, max(2, n))

    def cost(self, rho: float) -> float:
        return dorfman_expected_tests_per_person(rho, self.batch_size)

    def block(self, positions: np.ndarray, reps: int, n: int):
        """One test per pool plus a retest of every real member of a positive
        pool; b == 1 is individual testing, one test per person."""
        b = self._unit(n)
        if b == 1:
            return np.full(reps, n), np.zeros(reps, np.int64)
        units = -(-n // b)
        pools = _padded(positions, n, b) // b
        pools = pools[_run_ends(pools)]
        bounds = _row_bounds(pools, reps, units)
        tests = units + b * np.diff(bounds)
        tail = n - (units - 1) * b
        if tail < b:  # a positive tail pool retests only its real members
            tests -= (b - tail) * (bounds[1:] - _row_bounds(pools, reps, units, units - 1)[:-1])
        return tests, np.zeros(reps, np.int64)

    def noisy_block(self, positions: np.ndarray, reps: int, n: int, miss: np.ndarray,
                    uniforms: np.ndarray):
        """(tests, false positives, positive pools, missed pools) per
        replication, and whether each positive is detected.

        A pool test reads column 0 of its first positive's uniforms, and a
        retest column 1 of the retested positive's; in individual testing the
        pool of one is the person's only test.
        """
        b = self._unit(n)
        units = -(-n // b)
        pools = _padded(positions, n, b) // b
        first = np.diff(pools, prepend=-1) != 0  # the first positive of each pool
        pools = pools[first]
        m = _unit_sizes(n, b)[pools % units]
        flagged = uniforms[first, 0] >= miss[m]
        bounds = _row_bounds(pools, reps, units)
        if b == 1:
            tests, detected = np.full(reps, n), flagged
        else:
            tests = units + _row_sums(flagged * m, bounds)
            detected = flagged[np.cumsum(first) - 1] & (uniforms[:, 1] >= miss[1])
        return (tests, np.zeros(reps, np.int64), np.diff(bounds), _row_sums(~flagged, bounds),
                detected)


@dataclass(frozen=True)
class ArrayDesign:
    side: int
    confirm_stage: bool = True
    kind = "array"

    def __post_init__(self):
        object.__setattr__(self, "side", integer(self.side, 2, "array side"))
        object.__setattr__(self, "confirm_stage", boolean(self.confirm_stage, "confirm_stage"))

    def _unit(self, n: int) -> int:
        return self.side**2

    def cost(self, rho: float) -> float:
        return array_expected_tests_per_person(rho, self.side, self.confirm_stage)

    def block(self, positions: np.ndarray, reps: int, n: int):
        return _grid_block(positions, reps, n, self.side, 2, self.confirm_stage)


@dataclass(frozen=True)
class HypercubeDesign:
    side: int
    dimension: int
    kind = "hypercube"

    def __post_init__(self):
        object.__setattr__(self, "side", integer(self.side, 2, "hypercube side"))
        object.__setattr__(self, "dimension", integer(self.dimension, 2, "hypercube dimension"))

    def _unit(self, n: int) -> int:
        return self.side**self.dimension

    def cost(self, rho: float) -> float:
        return hypercube_expected_tests_per_person(rho, self.side, self.dimension)

    def block(self, positions: np.ndarray, reps: int, n: int):
        return _grid_block(positions, reps, n, self.side, self.dimension, True)


@dataclass(frozen=True)
class SterrettDesign:
    batch_size: int
    kind = "sterrett"

    def __post_init__(self):
        object.__setattr__(self, "batch_size", integer(self.batch_size, 2, "batch size"))

    def _unit(self, n: int) -> int:
        """The batch the kernels pad rows of n people to, as for Dorfman."""
        return min(self.batch_size, max(2, n))

    def cost(self, rho: float) -> float:
        return sterrett_expected_tests_per_batch(rho, self.batch_size) / self.batch_size

    def block(self, positions: np.ndarray, reps: int, n: int):
        """Closed form of the Sterrett walk, batch by batch.

        A batch of m people with k positives, the last at index l, takes 1
        test if k == 0; k + m - 1 if l == m - 1 (k positive pools and every
        member but the inferred last); otherwise k + l + 2 (k positive pools,
        l + 1 individual tests and the clean remainder pool).  Every batch
        costs its 1, and each run of positives in one batch adds the rest.
        """
        b = self._unit(n)
        members = _unit_sizes(n, b)
        units = len(members)
        padded = _padded(positions, n, b)
        batches = padded // b
        ends = _run_ends(batches)
        k = np.diff(ends, prepend=-1)
        last = padded[ends] - b * batches[ends]
        batches = batches[ends]
        m = members[batches % units]
        extra = np.where(last == m - 1, k + m - 2, k + last + 1)
        tests = units + _row_sums(extra, _row_bounds(batches, reps, units))
        return tests, np.zeros(reps, np.int64)

    def noisy_block(self, positions: np.ndarray, reps: int, n: int, miss: np.ndarray,
                    uniforms: np.ndarray):
        """(tests, false positives, positive pools, missed pools) per
        replication, and whether each positive is detected.

        Every batch's walk at once.  A hit is a positive that its individual
        test (column 1 of its uniforms) finds and that is not its batch's
        last member, which is never tested.  A positive opens a segment, from
        one past the previous hit, when it is its batch's first or follows a
        hit; the segment's pool test reads column 0 of its opener's.  The
        first missed segment ends its batch; a flagged segment without a hit
        infers the last member positive, falsely when it is negative.
        """
        b = self._unit(n)
        members = _unit_sizes(n, b)
        units = len(members)
        padded = _padded(positions, n, b)
        batches = padded // b
        j = padded - b * batches  # index in the batch
        m = members[batches % units]
        first = np.diff(batches, prepend=-1) != 0
        last = j == m - 1
        hit = (uniforms[:, 1] >= miss[1]) & ~last
        opens = first.copy()
        opens[1:] |= hit[:-1]
        starts = np.flatnonzero(opens)
        # each segment's last positive, before the next opener; opens[0] is
        # set, so rolled to the end it closes the last segment
        ends = np.flatnonzero(np.roll(opens, -1))
        begin = np.where(first[starts], 0, j[starts - 1] + 1)
        size = m[starts] - begin
        flagged = uniforms[starts, 0] >= miss[size]
        # a segment is reached when no earlier one of its batch was missed:
        # the missed segments before it are those before its batch's first
        missed_before = np.cumsum(~flagged) - ~flagged
        reached = missed_before == np.maximum.accumulate(np.where(first[starts], missed_before, 0))
        live = reached & flagged
        seg_hit = hit[ends]
        # beyond the batch's first pool test: the walk to the hit and the pool
        # after it, or the walk up to the inferred last member
        walked = np.where(seg_hit, j[ends] - begin + 2, size - 1) * live
        bounds = _row_bounds(batches[starts], reps, units)
        false_pos = live & ~seg_hit & ~last[ends]
        detected = live[np.cumsum(opens) - 1] & (hit | last)
        return (units + _row_sums(walked, bounds), _row_sums(false_pos, bounds),
                _row_sums(reached, bounds), _row_sums(reached & ~flagged, bounds), detected)


@dataclass(frozen=True)
class DesignEvaluation:
    """A design together with its cost at a given prevalence.

    individuals_per_test is the efficiency gain, the exact reciprocal of
    expected_tests_per_person.
    """

    expected_tests_per_person: float
    individuals_per_test: float
    design: object
    prevalence: float


# ---------------------------------------------------------------------------
# Lambert W (principal branch) - numerical support for the continuous
# Dorfman optimum
# ---------------------------------------------------------------------------

def lambert_w0(x: float) -> float:
    """Principal branch of the Lambert W function.

    Returns w >= -1 with w * exp(w) == x, for x >= -1/e.  Halley's iteration
    on h(w) = w - x e^-w, which cannot overflow for any finite x, converges
    in a few steps to a relative residual below 1e-12 over the whole domain.
    It starts below x = -1/4 from the branch-point series -1 + s - s^2/3 +
    11 s^3/72 in s = sqrt(2 (e x + 1)), and elsewhere from Winitzki's
    approximation L (1 - log1p(L) / (2 + L)) with L = log1p(x).
    """
    x = real(x, "x", minimum=-math.inf)
    if x <= -_INV_E:
        # allow values a rounding error below the branch point
        if x < -_INV_E * (1.0 + 1e-12):
            raise ValueError(f"lambert_w0 requires x >= -1/e, got {x}")
        return -1.0
    if x < -0.25:
        s = math.sqrt(2.0 * (math.e * x + 1.0))
        w = -1.0 + s * (1.0 - s * (1.0 / 3.0 - 11.0 / 72.0 * s))
    else:
        lx = math.log1p(x)
        w = lx * (1.0 - math.log1p(lx) / (2.0 + lx))
    for _ in range(_HALLEY_STEPS):
        u = x * math.exp(-w)  # equals w at the root
        h = w - u
        if h == 0.0:
            break
        step = 2.0 * h * (1.0 + u) / (2.0 * (1.0 + u) ** 2 + h * u)
        w -= step
        if abs(step) <= 1e-15 * abs(w):
            break
    return max(w, -1.0)


# ---------------------------------------------------------------------------
# the size search every optimizer runs
# ---------------------------------------------------------------------------

def _constraints(constraints: ConstraintSet | None) -> ConstraintSet:
    """The checked constraints argument, with None meaning no constraints."""
    return instance(constraints, ConstraintSet, "constraints", optional=True) or ConstraintSet()


def _best_size(cost, cap: int, what: str, fixed: float, rho: float | None = None) -> int:
    """Smallest size in 2..cap at which cost(size) is least.

    cost(b) - max(fixed, 0)/b never falls as b grows, so the scan stops once
    that floor reaches the least cost so far.  Given rho, the cost falls at
    every size past one with b > 2q/rho and rho q^b b (b+1) < 1 (q = 1 - rho),
    so there only the cap's cost can still win, and the least size that
    rounds to it is found by bisection: past 2^53 the cost is flat in floats.
    """
    if cap < 2:
        raise ValueError(f"constraints leave no {what} of 2 or more to search (cap {cap})")
    best, arg = cost(2), 2
    fixed = max(fixed, 0.0)
    for b in range(3, cap + 1):
        c = cost(b)
        if c < best:
            best, arg = c, b
        elif c - fixed / b >= best:
            break
        if (rho is not None and b * rho > 2.0 * (1.0 - rho)
                and rho * (1.0 - rho) ** b * b * (b + 1) < 1.0):
            last = cost(cap)
            if last >= best:
                return arg
            # no size up to b costs less than best, and past b the cost falls
            return _first_true(lambda x: cost(x) <= last, b, cap)
    return arg


def _first_true(holds, lo: int, hi: int) -> int:
    """The least b in (lo, hi) where holds(b), for a condition that never
    turns false as b grows, or hi where it holds at none of them."""
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if holds(mid):
            hi = mid
        else:
            lo = mid
    return hi


def _gallop(holds, t: int, lo: int, hi: int) -> int:
    """_first_true(holds, lo, hi), searched from a guess t in (lo, hi): in
    steps of 1, 2, 4, ... down while holds(t) and up while not, the last
    step up stopping at hi - 1, then a bisection of the bracket left."""
    step = 1
    if holds(t):
        while t - step > lo and holds(t - step):
            t, step = t - step, 2 * step
        return _first_true(holds, max(lo, t - step), t)
    while t < hi - 1:
        up = min(t + step, hi - 1)
        if holds(up):
            return _first_true(holds, t, up)
        t, step = up, 2 * step
    return hi


# ---------------------------------------------------------------------------
# Dorfman testing
# ---------------------------------------------------------------------------

def dorfman_expected_tests_per_person(rho: float, b: int) -> float:
    """Expected tests per person for Dorfman testing with batches of b.

    1/b + 1 - (1-rho)^b for b >= 2.  A "batch" of one is individual testing
    and costs exactly 1 (a single sample never needs a confirmation test, so
    the two-stage formula does not apply at b == 1).
    """
    rho = prob(rho)
    b = integer(b, 1, "batch size")
    if b == 1:
        return 1.0
    return 1.0 / b + positive_fraction(rho, b)


def dorfman_optimal_batch_continuous(rho: float) -> float:
    """Real-valued batch size minimizing the Dorfman cost.

    b0 = 2 W0(-sqrt(-log(1-rho))/2) / log(1-rho).  Valid for prevalences
    small enough that the W argument stays above the branch point -1/e
    (rho below about 0.418); beyond that the cost has no interior minimum.
    """
    rho = prob(rho, open_zero=True, open_one=True)
    log_q = math.log1p(-rho)
    arg = -0.5 * math.sqrt(-log_q)
    if arg < -_INV_E:
        raise ValueError(
            f"no continuous batch optimum at prevalence {rho}: pooling gives "
            "no interior cost minimum this high"
        )
    return 2.0 * lambert_w0(arg) / log_q


def dorfman_optimal_batch(rho: float, constraints: ConstraintSet | None = None) -> DorfmanDesign:
    """Integer batch size minimizing the Dorfman cost over b in [2, cap].

    The cap (from constraints, default 64) may be any int64; ties go to the
    smaller batch.  When uncapped the result brackets the continuous optimum.
    """
    rho = prob(rho, open_zero=True, open_one=True)
    cap = _constraints(constraints).pool_cap()
    return DorfmanDesign(
        _best_size(lambda b: dorfman_expected_tests_per_person(rho, b), cap, "batch size", 1, rho)
    )


# ---------------------------------------------------------------------------
# array testing
# ---------------------------------------------------------------------------

def array_expected_tests_per_person(rho: float, b: int, confirm_stage: bool = True) -> float:
    """Expected tests per person for b-by-b array testing.

    With the confirmation stage this is the standard approximation
    2/b + (1 - (1-rho)^b)^2, the hypercube formula at d = 2, which treats the
    number of positive rows and positive columns as independent.  The
    presumptive variant skips the confirmation retests and costs exactly 2/b.
    """
    rho = prob(rho)
    b = integer(b, 2, "array side")
    if not boolean(confirm_stage, "confirm_stage"):
        return 2.0 / b
    return hypercube_expected_tests_per_person(rho, b, 2)


def array_expected_tests_exact(rho: float, b: int) -> float:
    """Exact expected tests per person for array testing with confirmation.

    The expected number of row-positive/column-positive cells in one cluster
    is b^2 (1 - 2 q^b + q^(2b-1)) with q = 1 - rho: a row and a column jointly
    cover 2b - 1 cells, which is what the independence approximation ignores.
    """
    return hypercube_expected_tests_exact(rho, integer(b, 2, "array side"), 2)


def array_optimal_side(rho: float, constraints: ConstraintSet | None = None) -> ArrayDesign:
    """Side length minimizing the approximate array cost, as hypercube sides at d = 2."""
    rho = prob(rho, open_zero=True, open_one=True)
    return ArrayDesign(_optimal_side(rho, 2, constraints, "array side"))


# ---------------------------------------------------------------------------
# hypercube testing
# ---------------------------------------------------------------------------

def hypercube_expected_tests_per_person(rho: float, b: int, d: int) -> float:
    """Approximate expected tests per person for d-dimensional hypercube testing.

    d/b + (1 - (1-rho)^b)^d * b^(d(d-2)), or inf where that overflows.  For
    d == 2 this is the array formula.  Like the array formula it rests on an
    independence approximation, which for d >= 3 degrades quickly as
    prevalence grows; see independence_gap.
    """
    rho = prob(rho)
    b = integer(b, 2, "hypercube side")
    d = integer(d, 2, "hypercube dimension")
    f = positive_fraction(rho, b)
    try:
        return d / b + f**d * float(b) ** (d * (d - 2))
    except OverflowError:  # b^(d(d-2)) leaves the double range: take logs
        if f == 0.0:
            return d / b
        return d / b + exp_or_inf(d * math.log(f) + d * (d - 2) * math.log(b))


def hypercube_expected_tests_exact(rho: float, b: int, d: int) -> float:
    """Exact expected tests per person for hypercube testing with confirmation.

    A cell is retested when all d axis-parallel lines through it are positive:
    it is positive, or each line holds a positive among its other b - 1 cells.
    So P(candidate) = 1 - q + q (1 - q^(b-1))^d, the inclusion-exclusion sum
    over the lines without the alternating terms that cancel at high d.
    """
    rho = prob(rho)
    b = integer(b, 2, "hypercube side")
    d = integer(d, 2, "hypercube dimension")
    return d / b + rho + (1.0 - rho) * positive_fraction(rho, b - 1) ** d


def hypercube_optimal_side(
    rho: float, d: int, constraints: ConstraintSet | None = None
) -> HypercubeDesign:
    """Side length minimizing the approximate hypercube cost over 2..cap."""
    rho = prob(rho, open_zero=True, open_one=True)
    d = integer(d, 2, "hypercube dimension")
    return HypercubeDesign(_optimal_side(rho, d, constraints, "hypercube side"), d)


def _optimal_side(rho: float, d: int, constraints: ConstraintSet | None, what: str) -> int:
    """Side in 2..cap minimizing the approximate d-dimensional grid cost, for
    checked rho and d; a cluster cap bounds the side by its integer d-th root.
    Past d = 2 the b^(d(d-2)) factor sends the floor to inf unaided."""
    cons = _constraints(constraints)
    cap = cons.pool_cap()
    if cons.max_cluster_size is not None:
        cap = min(cap, _integer_root(cons.max_cluster_size, d))
    return _best_size(lambda b: hypercube_expected_tests_per_person(rho, b, d), cap, what,
                      d, rho if d == 2 else None)


def _integer_root(n: int, d: int) -> int:
    """Largest integer r with r**d <= n, for n >= 1, by bisection on integers."""
    return _first_true(lambda r: r**d > n, 0, 1 << (n.bit_length() // d + 1)) - 1


def independence_gap(rho: float, b: int, d: int = 2) -> float:
    """Relative error of the approximate array/hypercube cost.

    (exact - approximate) / approximate; positive means a simulation of the
    real procedure uses more tests than the approximation predicts.  Where
    the approximation overflows to inf the gap is its limit, -1.
    """
    approx = hypercube_expected_tests_per_person(rho, b, d)
    exact = hypercube_expected_tests_exact(rho, b, d)
    if approx == math.inf:
        return -1.0
    return (exact - approx) / approx


# ---------------------------------------------------------------------------
# Sterrett testing
# ---------------------------------------------------------------------------

def sterrett_expected_tests_per_batch(rho: float, b: int) -> float:
    """Exact expected tests to resolve one batch of b under Sterrett testing.

    After a walk finds a positive the untested remainder is a fresh batch, and
    a walk that finds only negatives infers its last member positive without
    a test.  Conditioning on the first positive's position gives a recursion
    (tests/literal_procedures.py) whose differences telescope, with q = 1 - rho
    and f(1) = 1: f(m+1) - f(m) = 1 + rho - q^(m+1).  So, with n = b - 1,

        f(b) = 1 + n (1 + rho) - q^2 (1 - q^n) / rho = 1 + n rho (3 - rho) + q^2 g,

    where g = n - (1 - q^n) / rho = sum_{k<n} (1 - q^k) >= 0, and f = 1 at
    rho = 0.  Below n rho = 1 the difference in g cancels, so it is summed as
    sum_{j>=1} (-1)^(j+1) C(n, j+1) rho^j, whose terms fall faster than n rho.
    """
    rho = prob(rho)
    n = integer(b, 1, "batch size") - 1
    if n * rho >= 1.0:
        g = n - positive_fraction(rho, n) / rho
    else:
        g, term, j = 0.0, 0.5 * n * (n - 1) * rho, 1
        while g + term != g:
            g += term
            j += 1
            term *= -rho * (n - j) / (j + 1)
    return 1.0 + n * rho * (3.0 - rho) + (1.0 - rho) ** 2 * g


def sterrett_optimal_batch(rho: float, constraints: ConstraintSet | None = None) -> SterrettDesign:
    """Batch size minimizing Sterrett tests per person over b in [2, cap], the
    cap read as dorfman_optimal_batch reads it.  f is convex with f(0) =
    1 - 2 rho, so f(b)/b - f(0)/b never falls."""
    rho = prob(rho, open_zero=True, open_one=True)
    cap = _constraints(constraints).pool_cap()
    return SterrettDesign(
        _best_size(lambda b: sterrett_expected_tests_per_batch(rho, b) / b, cap, "batch size",
                   1.0 - 2.0 * rho)
    )


# ---------------------------------------------------------------------------
# block kernels shared by the designs: reps rows of n people at once
# ---------------------------------------------------------------------------

def _unit_sizes(n: int, size: int) -> np.ndarray:
    """Real members of each consecutive unit of `size` covering n people."""
    units = -(-n // size)
    sizes = np.full(units, size)
    sizes[-1] = n - (units - 1) * size
    return sizes


def _padded(positions: np.ndarray, n: int, size: int) -> np.ndarray:
    """Flat positions over rows of n people, moved onto the same rows padded
    to whole units of `size`: position // size is then row * units + the
    unit's index in its row, as sorted as the positions."""
    pad = -n % size
    return positions + positions // n * pad if pad else positions


def _run_ends(ids: np.ndarray) -> np.ndarray:
    """Index of the last entry of each run of equal values in sorted ids."""
    return np.flatnonzero(np.diff(ids, append=-1))


def _row_bounds(ids: np.ndarray, reps: int, units: int, unit: int = 0) -> np.ndarray:
    """Index of row r's first id at unit `unit` or later, for r = 0..reps, in
    sorted unit ids row * units + unit; at unit 0, row r's ids are
    ids[bounds[r]:bounds[r + 1]]."""
    return ids.searchsorted(np.arange(reps + 1) * units + unit)


def _row_sums(values: np.ndarray, bounds: np.ndarray) -> np.ndarray:
    """Sum of each row's values, rows bounded as _row_bounds bounds them."""
    return np.diff(np.concatenate(([0], np.cumsum(values)))[bounds])


def _grid_block(positions: np.ndarray, reps: int, n: int, b: int, d: int, confirm: bool):
    """(tests, false positives) per row for array (d = 2) and hypercube runs.

    Every axis-parallel line of each side-b cluster is pooled once; a real
    cell whose lines all pooled positive is a candidate, retested with the
    confirm stage and presumed positive without it, and every positive is one.
    The positives are scattered into d line arrays, lines first, shape
    (b,)*(d-1) + (clusters,).  At d = 2 a cluster's candidates are its positive
    rows times columns, less a ragged tail cluster's padded cells; above, one
    broadcast AND over every cell, cells first, with the padded cells cleared.
    """
    size = b**d
    units = -(-n // size)
    lines = _pooled_lines(positions, n, b, d, reps * units)
    line_tests = units * d * b ** (d - 1)
    tail = n - (units - 1) * size  # real cells of the tail cluster
    if d == 2:
        columns, rows = lines  # indexed by a cell's column and row
        cand = (_count(columns) * _count(rows)).reshape(reps, units).sum(axis=1)
        if tail < size:
            last = slice(units - 1, None, units)
            padding = rows[:, None, last] & columns[None, :, last]
            cand -= _count(padding.reshape(size, reps)[tail:])
    else:
        cells = np.expand_dims(lines[0], 0) & np.expand_dims(lines[1], 1)
        for axis in range(2, d):
            cells &= np.expand_dims(lines[axis], axis)
        cells = cells.reshape(size, reps, units)
        cells[tail:, :, -1] = False
        cand = _count(cells).sum(axis=1)
    if confirm:
        return line_tests + cand, np.zeros(reps, np.int64)
    return np.full(reps, line_tests), cand - np.diff(_row_bounds(positions, reps, n))


def _pooled_lines(positions: np.ndarray, n: int, b: int, d: int, clusters: int) -> list:
    """The d line arrays of a grid run, lines first: lines[axis] has shape
    (b,)*(d-1) + (clusters,) and is true where that line along axis holds a
    positive.  A cell's line along an axis drops the cell's digit there: at
    place value inner, the line is cell - (cell // inner - cell // (inner * b))
    * inner.  The int64 work arrays, one per positive, end with the call."""
    size = b**d
    padded = _padded(positions, n, size)
    cluster = padded // size
    cell = padded - cluster * size
    spot = cell * clusters
    spot += cluster
    index, high = np.empty_like(cell), np.empty_like(cell)
    lines = []
    for axis in range(d):
        inner = b ** (d - 1 - axis)
        np.floor_divide(cell, inner, out=index)
        if axis:  # along axis 0 the digit is the highest
            np.floor_divide(cell, inner * b, out=high)
            index -= high
        index *= inner * clusters
        np.subtract(spot, index, out=index)
        pooled = np.zeros(b ** (d - 1) * clusters, dtype=bool)
        pooled[index] = True
        lines.append(pooled.reshape((b,) * (d - 1) + (clusters,)))
    return lines


def _count(a: np.ndarray) -> np.ndarray:
    """a.sum(axis=0) of a bool array, int32: a sum of byte rows, each running
    along the long axes, several times faster than the bool reduction."""
    return np.add.reduce(a.view(np.uint8), axis=0, dtype=np.int32)


# ---------------------------------------------------------------------------
# cross-design comparison
# ---------------------------------------------------------------------------

_CLASSIFICATION_DESIGNS = (DorfmanDesign, ArrayDesign, HypercubeDesign, SterrettDesign)

_ARCH_RANK = {"individual": 0, "dorfman": 1, "array": 2, "hypercube": 3, "sterrett": 4}


def evaluate_design(design, rho: float) -> DesignEvaluation:
    """Expected tests per person (and its reciprocal) for any classification design."""
    rho = prob(rho)
    if not isinstance(design, _CLASSIFICATION_DESIGNS):
        raise ValueError(f"unknown design {design!r}")
    cost = design.cost(rho)
    gain = math.inf if cost == 0.0 else 1.0 / cost
    return DesignEvaluation(cost, gain, design, rho)


def best_classification_design(
    rho: float,
    constraints: ConstraintSet | None = None,
    candidates: tuple[str, ...] = ("dorfman", "array", "hypercube", "sterrett"),
    hypercube_dimension: int = 3,
) -> DesignEvaluation:
    """Cheapest classification design among the candidate architectures.

    Each architecture is evaluated at its constrained-optimal parameters and
    compared against plain individual testing (cost exactly 1 per person),
    which is returned as a batch-size-1 design whenever no pooled scheme
    beats it.  Ties go to the simpler architecture.
    """
    rho = prob(rho, open_zero=True, open_one=True)
    if not candidates:
        raise ValueError("need at least one candidate architecture")
    cons = _constraints(constraints)
    optimizers = {
        "dorfman": dorfman_optimal_batch,
        "array": array_optimal_side,
        "hypercube": lambda rho, cons: hypercube_optimal_side(rho, hypercube_dimension, cons),
        "sterrett": sterrett_optimal_batch,
    }

    evaluations = [evaluate_design(DorfmanDesign(1), rho)]  # individual sentinel
    for kind in candidates:
        optimize = optimizers.get(kind) if isinstance(kind, str) else None
        if optimize is None:
            raise ValueError(f"unknown architecture kind {kind!r}")
        evaluations.append(evaluate_design(optimize(rho, cons), rho))

    return min(
        evaluations,
        key=lambda ev: (ev.expected_tests_per_person, _ARCH_RANK[ev.design.kind]),
    )


def classification_crossovers(
    dorfman_cap: int = 8,
    array_side: int = 8,
    lo: float = 0.005,
    hi: float = 0.20,
    grid: int = 2000,
) -> list[float]:
    """Prevalences where capped-Dorfman and fixed-side array costs cross.

    Compares Dorfman at min(cap, optimal batch) against array testing with the
    given side.  Between the two crossings array testing is (slightly) cheaper;
    everywhere else Dorfman wins.  The cost difference is sampled on `grid`
    prevalences in [lo, hi], and each sign change is bisected to 1e-10.
    Pricing the grid stops once no larger batch can lower any of its
    Dorfman costs (_least_dorfman_costs), so its time follows the optimal
    batches, not the cap.
    """
    dorfman_cap = integer(dorfman_cap, 2, "dorfman_cap")
    array_side = integer(array_side, 2, "array_side")
    lo = prob(lo, "lo", open_zero=True, open_one=True)
    hi = prob(hi, "hi", open_zero=True, open_one=True)
    if not lo < hi:
        raise ValueError(f"lo must be below hi, got lo={lo!r}, hi={hi!r}")
    grid = integer(grid, 2, "grid")
    cons = ConstraintSet(max_pool_size=dorfman_cap)

    def diff(rho: float) -> float:
        return (dorfman_optimal_batch(rho, cons).cost(rho)
                - array_expected_tests_per_person(rho, array_side))

    # the least Dorfman cost less the array cost, as diff computes them one
    # prevalence at a time
    rhos = np.linspace(lo, hi, grid)
    log_q = np.log1p(-rhos)
    dorfman = _least_dorfman_costs(rhos, log_q, dorfman_cap)
    array_f = -np.expm1(array_side * log_q)
    values = dorfman - (2.0 / array_side + array_f * array_f)
    crossings = []
    for i in np.nonzero(np.diff(np.sign(values)) != 0)[0]:
        a, b = rhos[i], rhos[i + 1]
        a_positive = values[i] > 0.0
        while b - a > 1e-10:
            mid = 0.5 * (a + b)
            if (diff(mid) > 0.0) == a_positive:
                a = mid
            else:
                b = mid
        crossings.append(float(0.5 * (a + b)))
    return crossings


def _least_dorfman_costs(rhos: np.ndarray, log_q: np.ndarray, cap: int) -> np.ndarray:
    """The least of 1/b - expm1(b log_q) over batches b in 2..cap at each
    prevalence of rhos, log_q = log(1 - rhos), in one pass per batch size.

    As in _best_size, a prevalence's least cost so far falls no further once
    the part 1 - q^b of its cost, which never falls, reaches it; and once b
    is in its falling tail, only the cap's cost can lower it, so that is
    taken.  The passes end at the first power of two of b where every
    prevalence is settled one way or the other.
    """
    least = np.full(len(rhos), np.inf)
    cap_cost = 1.0 / cap - np.expm1(cap * log_q)
    two_q = 2.0 * (1.0 - rhos)
    for b in range(2, cap + 1):
        log_qb = b * log_q
        rising = -np.expm1(log_qb)
        np.minimum(least, 1.0 / b + rising, out=least)
        if b & (b - 1) == 0:
            tail = (b * rhos > two_q) & (rhos * np.exp(log_qb) * (b * (b + 1)) < 1.0)
            np.minimum(least, cap_cost, out=least, where=tail)
            if (tail | (rising >= least)).all():
                break
    return least
