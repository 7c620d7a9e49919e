"""Closed-form evaluation and optimization of pooled classification schemes.

All costs are expressed as *expected chemical tests per person screened*, so
1.0 means "no better than testing everyone individually" and the reciprocal is
the efficiency gain (individuals screened per test).

Schemes covered:

* Dorfman two-stage testing: pools of size b are tested, and every member of a
  positive pool is retested individually.  Cost 1/b + 1 - (1-rho)^b.
* Sterrett testing: like Dorfman, but members of a positive pool are tested
  one at a time; after the first positive individual is found the untested
  remainder is re-pooled and the procedure restarts on it.  No simple closed
  form; an exact recursion (and a brute-force pattern enumeration used as an
  oracle in the tests) is provided.
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
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._validate import integer, positive_fraction, prob, real

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
    "sterrett_expected_tests_enumerated",
    "sterrett_optimal_batch",
    "evaluate_design",
    "best_classification_design",
    "classification_crossovers",
]

#: Default upper bound for exhaustive batch-size searches.  Pool sizes above
#: roughly 32 are already questionable for qPCR because of dilution, so 64
#: leaves generous headroom without making searches expensive.
DEFAULT_BATCH_CAP = 64

_INV_E = math.exp(-1.0)


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


@dataclass(frozen=True)
class ArrayDesign:
    side: int
    confirm_stage: bool = True

    def __post_init__(self):
        object.__setattr__(self, "side", integer(self.side, 2, "array side"))

    @property
    def kind(self) -> str:
        return "array"


@dataclass(frozen=True)
class HypercubeDesign:
    side: int
    dimension: int

    def __post_init__(self):
        object.__setattr__(self, "side", integer(self.side, 2, "hypercube side"))
        object.__setattr__(self, "dimension", integer(self.dimension, 2, "hypercube dimension"))

    @property
    def kind(self) -> str:
        return "hypercube"


@dataclass(frozen=True)
class SterrettDesign:
    batch_size: int

    def __post_init__(self):
        object.__setattr__(self, "batch_size", integer(self.batch_size, 2, "batch size"))

    @property
    def kind(self) -> str:
        return "sterrett"


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

    Returns w >= -1 with w * exp(w) == x, for x >= -1/e.  Halley iteration
    from a branch-point / series / asymptotic initial guess; converges to
    relative residual below 1e-12 over the whole domain.
    """
    x = real(x, "x", minimum=-math.inf)
    if x < -_INV_E:
        # allow values a rounding error below the branch point
        if x > -_INV_E * (1.0 + 1e-12):
            return -1.0
        raise ValueError(f"lambert_w0 requires x >= -1/e, got {x}")
    if x == 0.0:
        return 0.0

    if x < -0.25:
        # expansion around the branch point x = -1/e
        p = math.sqrt(2.0 * (1.0 + math.e * x))
        w = -1.0 + p - p * p / 3.0 + (11.0 / 72.0) * p ** 3
    elif x < 1.0:
        # series around 0
        w = x * (1.0 - x + 1.5 * x * x)
    else:
        l1 = math.log(x)
        l2 = math.log(l1) if l1 > 1.0 else 0.0
        w = l1 - l2 + (l2 / l1 if l1 > 1.0 else 0.0)

    if w == -1.0:  # branch point hit exactly by the series start
        return -1.0
    for _ in range(80):
        ew = math.exp(w)
        f = w * ew - x
        # Halley step; plain Newton if its denominator degenerates near w = -1
        denom = ew * (w + 1.0) - (w + 2.0) * f / (2.0 * w + 2.0) if w != -1.0 else 0.0
        if denom == 0.0:
            denom = ew * (w + 1.0)
            if denom == 0.0:
                break
        dw = f / denom
        w -= dw
        if abs(dw) <= 1e-16 * (1.0 + abs(w)):
            break
    return w


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
    """Integer batch size minimizing the Dorfman cost, by exhaustive search.

    Searches b in [2, cap] (cap from constraints, default 64); ties go to the
    smaller batch.  When uncapped the result brackets the continuous optimum.
    """
    rho = prob(rho, open_zero=True, open_one=True)
    cap = (constraints or ConstraintSet()).pool_cap()
    if cap < 2:
        raise ValueError("batch-size cap below 2 leaves nothing to search")
    best_b, best_cost = 2, dorfman_expected_tests_per_person(rho, 2)
    for b in range(3, cap + 1):
        cost = dorfman_expected_tests_per_person(rho, b)
        if cost < best_cost:
            best_b, best_cost = b, cost
    return DorfmanDesign(best_b)


# ---------------------------------------------------------------------------
# array testing
# ---------------------------------------------------------------------------

def array_expected_tests_per_person(rho: float, b: int, confirm_stage: bool = True) -> float:
    """Expected tests per person for b-by-b array testing.

    With the confirmation stage this is the standard approximation
    2/b + (1 - (1-rho)^b)^2, which treats the number of positive rows and
    positive columns as independent.  The presumptive variant skips the
    confirmation retests and costs exactly 2/b.
    """
    rho = prob(rho)
    b = integer(b, 2, "array side")
    if not confirm_stage:
        return 2.0 / b
    return 2.0 / b + positive_fraction(rho, b) ** 2


def array_expected_tests_exact(rho: float, b: int) -> float:
    """Exact expected tests per person for array testing with confirmation.

    The expected number of row-positive/column-positive cells in one cluster
    is b^2 (1 - 2 q^b + q^(2b-1)) with q = 1 - rho: a row and a column jointly
    cover 2b - 1 cells, which is what the independence approximation ignores.
    """
    rho = prob(rho)
    b = integer(b, 2, "array side")
    q_b = math.exp(b * math.log1p(-rho)) if rho < 1.0 else 0.0
    q_cross = math.exp((2 * b - 1) * math.log1p(-rho)) if rho < 1.0 else 0.0
    return 2.0 / b + 1.0 - 2.0 * q_b + q_cross


def array_optimal_side(rho: float, constraints: ConstraintSet | None = None) -> ArrayDesign:
    """Side length minimizing the approximate array cost, exhaustively."""
    rho = prob(rho, open_zero=True, open_one=True)
    cons = constraints or ConstraintSet()
    cap = cons.pool_cap()
    if cons.max_cluster_size is not None:
        cap = min(cap, int(math.isqrt(cons.max_cluster_size)))
    if cap < 2:
        raise ValueError("constraints leave no feasible array side")
    costs = [(array_expected_tests_per_person(rho, b), b) for b in range(2, cap + 1)]
    _, best = min(costs)
    return ArrayDesign(best)


# ---------------------------------------------------------------------------
# hypercube testing
# ---------------------------------------------------------------------------

def hypercube_expected_tests_per_person(rho: float, b: int, d: int) -> float:
    """Approximate expected tests per person for d-dimensional hypercube testing.

    d/b + (1 - (1-rho)^b)^d * b^(d(d-2)).  For d == 2 this is exactly the
    array formula.  Like the array formula it rests on an independence
    approximation, which for d >= 3 degrades quickly as prevalence grows;
    see independence_gap.
    """
    rho = prob(rho)
    b = integer(b, 2, "hypercube side")
    d = integer(d, 2, "hypercube dimension")
    return d / b + positive_fraction(rho, b) ** d * float(b) ** (d * (d - 2))


def hypercube_expected_tests_exact(rho: float, b: int, d: int) -> float:
    """Exact expected tests per person for hypercube testing with confirmation.

    A cell is retested when all d axis-parallel lines through it are positive.
    Any k of those lines jointly cover k(b-1) + 1 cells, so inclusion-
    exclusion gives P(candidate) = 1 + sum_{k=1..d} (-1)^k C(d,k) q^(k(b-1)+1).
    """
    rho = prob(rho)
    b = integer(b, 2, "hypercube side")
    d = integer(d, 2, "hypercube dimension")
    if rho == 1.0:
        return d / b + 1.0
    log_q = math.log1p(-rho)
    p_candidate = 1.0
    for k in range(1, d + 1):
        p_candidate += (-1) ** k * math.comb(d, k) * math.exp((k * (b - 1) + 1) * log_q)
    return d / b + p_candidate


def hypercube_optimal_side(
    rho: float, d: int, constraints: ConstraintSet | None = None
) -> HypercubeDesign:
    """Side length minimizing the approximate hypercube cost, exhaustively."""
    rho = prob(rho, open_zero=True, open_one=True)
    d = integer(d, 2, "hypercube dimension")
    cons = constraints or ConstraintSet()
    cap = cons.pool_cap()
    if cons.max_cluster_size is not None:
        cap = min(cap, int(cons.max_cluster_size ** (1.0 / d) + 1e-9))
    if cap < 2:
        raise ValueError("constraints leave no feasible hypercube side")
    costs = [(hypercube_expected_tests_per_person(rho, b, d), b) for b in range(2, cap + 1)]
    _, best = min(costs)
    return HypercubeDesign(best, d)


def independence_gap(rho: float, b: int, d: int = 2) -> float:
    """Relative error of the approximate array/hypercube cost.

    (exact - approximate) / approximate; positive means a simulation of the
    real procedure uses more tests than the approximation predicts.
    """
    if integer(d, 2, "hypercube dimension") == 2:
        approx = array_expected_tests_per_person(rho, b, confirm_stage=True)
        exact = array_expected_tests_exact(rho, b)
    else:
        approx = hypercube_expected_tests_per_person(rho, b, d)
        exact = hypercube_expected_tests_exact(rho, b, d)
    return (exact - approx) / approx


# ---------------------------------------------------------------------------
# Sterrett testing
# ---------------------------------------------------------------------------

def sterrett_expected_tests_per_batch(rho: float, b: int) -> float:
    """Exact expected tests to resolve one batch of b under Sterrett testing.

    Recursion over the position of the first positive in a positive pool.
    Once a positive individual is found, the untested remainder carries no
    conditioning and is processed as a fresh batch; and when every individual
    but the last in a positive pool has tested negative, the last one is
    positive by inference and needs no test.  With f(0) = 0, f(1) = 1:

        f(m) = 1 + sum_{j=1..m-1} q^(j-1) rho (j + f(m-j)) + q^(m-1) rho (m-1)

    Agrees with brute-force enumeration of all 2^b infection patterns
    (sterrett_expected_tests_enumerated) to machine precision.
    """
    rho = prob(rho)
    b = integer(b, 1, "batch size", maximum=4096)  # the recursion is quadratic in b
    q = 1.0 - rho
    f = [0.0] * (b + 1)
    for m in range(1, b + 1):
        total = 1.0
        qj = 1.0  # q^(j-1)
        for j in range(1, m):
            total += qj * rho * (j + f[m - j])
            qj *= q
        total += qj * rho * (m - 1)
        f[m] = total
    return f[b]


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
    """Brute-force oracle: exact Sterrett expectation by enumerating 2^b patterns.

    Bounded at b <= 20 (about a million patterns); use the recursion for
    anything larger.
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


def sterrett_optimal_batch(rho: float, constraints: ConstraintSet | None = None) -> SterrettDesign:
    """Batch size minimizing Sterrett tests per person, by exhaustive search."""
    rho = prob(rho, open_zero=True, open_one=True)
    cap = (constraints or ConstraintSet()).pool_cap()
    if cap < 2:
        raise ValueError("batch-size cap below 2 leaves nothing to search")
    best = min(
        range(2, cap + 1),
        key=lambda b: (sterrett_expected_tests_per_batch(rho, b) / b, b),
    )
    return SterrettDesign(best)


# ---------------------------------------------------------------------------
# cross-design comparison
# ---------------------------------------------------------------------------

_ARCH_RANK = {"individual": 0, "dorfman": 1, "array": 2, "hypercube": 3, "sterrett": 4}


def evaluate_design(design, rho: float) -> DesignEvaluation:
    """Expected tests per person (and its reciprocal) for any design."""
    rho = prob(rho)
    if isinstance(design, DorfmanDesign):
        cost = dorfman_expected_tests_per_person(rho, design.batch_size)
    elif isinstance(design, ArrayDesign):
        cost = array_expected_tests_per_person(rho, design.side, design.confirm_stage)
    elif isinstance(design, HypercubeDesign):
        cost = hypercube_expected_tests_per_person(rho, design.side, design.dimension)
    elif isinstance(design, SterrettDesign):
        cost = sterrett_expected_tests_per_batch(rho, design.batch_size) / design.batch_size
    else:
        raise ValueError(f"unknown design {design!r}")
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
    cons = constraints or ConstraintSet()

    evaluations = [evaluate_design(DorfmanDesign(1), rho)]  # individual sentinel
    for kind in candidates:
        if kind == "dorfman":
            design = dorfman_optimal_batch(rho, cons)
        elif kind == "array":
            design = array_optimal_side(rho, cons)
        elif kind == "hypercube":
            design = hypercube_optimal_side(rho, hypercube_dimension, cons)
        elif kind == "sterrett":
            design = sterrett_optimal_batch(rho, cons)
        else:
            raise ValueError(f"unknown architecture kind {kind!r}")
        evaluations.append(evaluate_design(design, rho))

    return min(
        evaluations,
        key=lambda ev: (ev.expected_tests_per_person, _ARCH_RANK[ev.design.kind]),
    )


def _capped_dorfman_cost(rho: float, cap: int) -> float:
    best = dorfman_optimal_batch(rho, ConstraintSet(max_pool_size=cap))
    return dorfman_expected_tests_per_person(rho, best.batch_size)


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
    """
    dorfman_cap = integer(dorfman_cap, 2, "dorfman_cap")
    array_side = integer(array_side, 2, "array_side")
    lo = prob(lo, "lo", open_zero=True, open_one=True)
    hi = prob(hi, "hi", open_zero=True, open_one=True)
    if not lo < hi:
        raise ValueError(f"lo must be below hi, got lo={lo!r}, hi={hi!r}")
    grid = integer(grid, 2, "grid")

    def diff(rho: float) -> float:
        return _capped_dorfman_cost(rho, dorfman_cap) - array_expected_tests_per_person(
            rho, array_side
        )

    rhos = np.linspace(lo, hi, grid)
    values = np.array([diff(r) for r in rhos])
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
