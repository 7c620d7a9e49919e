"""Prevalence estimation from pooled tests (Gibbs-Gower estimation).

t pools of b samples each are tested; with t_+ positive pools the prevalence
estimate is

    p_hat = 1 - (1 - t_+/t)^(1/b).

Because t_+ is Binomial(t, 1 - (1-p)^b), every moment of p_hat is an explicit
finite sum, and this module computes the expected value and mean squared
error of the estimator exactly (in log-space, with the binomial tail windowed
far below double precision).  The familiar large-t approximation

    var(p_hat) ~ (1 - (1-p)^b) / (t b^2 (1-p)^(b-2))

is also provided, but all planning routines (tests needed for a target
accuracy, optimal pool size, cost minimization) are driven by the exact MSE:
the asymptotic form understates the error noticeably once pools are mostly
positive, which is exactly the regime where pool-size choices get interesting.

Planning conventions:

* "tests needed" is the smallest integer t whose exact normalized RMSE
  (sqrt(MSE)/p) meets the target.
* optimal pool size at a test budget minimizes the exact MSE over b.
* optimal pool size for a target first minimizes the integer test
  requirement, then breaks the (wide) ties by the smallest exact MSE at that
  requirement.
* cost minimization ranks pool sizes by the fractional test requirement
  (the real-valued t where the exact NRMSE crosses the target), which avoids
  integer-rounding cliffs in the objective, then reports the integer
  requirement of the winner.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln

from ._validate import integer, positive_fraction, prob, real

__all__ = [
    "InfeasibleDesignError",
    "GibbsGowerPlan",
    "PoolTestOutcome",
    "CostModel",
    "CostOptimum",
    "EstimationReport",
    "MAX_EXACT_POOL_COUNT",
    "pool_positive_prob",
    "gg_estimate",
    "gg_expected_estimate",
    "gg_mse",
    "gg_asymptotic_variance",
    "gg_nrmse",
    "gg_tests_needed",
    "gg_tests_needed_real",
    "gg_optimal_pool",
    "gg_minimize_cost",
    "estimation_rule_of_thumb",
    "dorfman_estimation_rmse",
    "report_for_outcome",
    "report_for_plan",
]

#: Upper bound on the pool count accepted by the public exact-moment
#: operations; the windowed sum stays fast well beyond this, but results
#: this large have no practical use.
MAX_EXACT_POOL_COUNT = 100_000

_T_SEARCH_LIMIT = 1_000_000  # internal ceiling when solving for a test count
_REL_GUARD = 1e-9  # tolerance when comparing an NRMSE against its target


class InfeasibleDesignError(Exception):
    """No design satisfies the requested constraints."""


# ---------------------------------------------------------------------------
# plan / outcome / cost containers
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GibbsGowerPlan:
    """Pools to test: num_pools pools of pool_size samples each."""

    pool_size: int
    num_pools: int

    def __post_init__(self):
        object.__setattr__(self, "pool_size", integer(self.pool_size, 1, "pool_size"))
        object.__setattr__(self, "num_pools", integer(self.num_pools, 1, "num_pools"))

    @property
    def total_samples(self) -> int:
        return self.pool_size * self.num_pools

    @property
    def kind(self) -> str:
        return "gibbs-gower"


@dataclass(frozen=True)
class PoolTestOutcome:
    """Observed result of testing num_pools pools of pool_size samples."""

    num_pools: int
    positive_pools: int
    pool_size: int

    def __post_init__(self):
        t = integer(self.num_pools, 1, "num_pools")
        k = integer(self.positive_pools, 0, "positive_pools", maximum=t)
        object.__setattr__(self, "num_pools", t)
        object.__setattr__(self, "positive_pools", k)
        object.__setattr__(self, "pool_size", integer(self.pool_size, 1, "pool_size"))


@dataclass(frozen=True)
class CostModel:
    """Linear cost alpha * samples + beta * tests."""

    sample_weight: float = 1.0
    test_weight: float = 10.0

    def __post_init__(self):
        if real(self.sample_weight, "sample_weight") + real(self.test_weight, "test_weight") == 0:
            raise ValueError("at least one cost weight must be positive")

    def objective(self, samples: float, tests: float) -> float:
        return self.sample_weight * samples + self.test_weight * tests


@dataclass(frozen=True)
class CostOptimum:
    plan: GibbsGowerPlan
    total_samples: int
    objective_value: float


@dataclass(frozen=True)
class EstimationReport:
    """Point estimate and/or error profile of a Gibbs-Gower study.

    Fields that do not apply (e.g. p_hat for a pure planning report, or the
    error moments when the observed estimate is degenerate) are None.
    saturated flags an observed outcome with every pool positive, where the
    estimator hits 1 and can no longer distinguish high prevalences.
    """

    p_hat: float | None
    pool_positive_rate_hat: float | None
    expected_p_hat: float | None
    mse: float | None
    asymptotic_variance: float | None
    nrmse: float | None
    saturated: bool


def _ceil_slack(x: float) -> int:
    """ceil that forgives a relative rounding error of ~1e-12."""
    return max(1, math.ceil(x * (1.0 - 1e-12)))


# ---------------------------------------------------------------------------
# estimator and exact moments
# ---------------------------------------------------------------------------

def pool_positive_prob(p: float, b: int) -> float:
    """Probability 1 - (1-p)^b that a pool of b contains a positive."""
    return positive_fraction(prob(p), integer(b, 1, "pool size"))


def gg_estimate(outcome: PoolTestOutcome) -> float:
    """Prevalence estimate 1 - (1 - t_+/t)^(1/b) from a pooled outcome."""
    if outcome.positive_pools == 0:
        return 0.0
    if outcome.positive_pools == outcome.num_pools:
        return 1.0
    frac = outcome.positive_pools / outcome.num_pools
    return -math.expm1(math.log1p(-frac) / outcome.pool_size)


def _estimates_for_counts(t_plus: np.ndarray, t: int, b: int) -> np.ndarray:
    """Vectorized estimator; t_plus is an integer array of positive-pool counts."""
    t_plus = np.asarray(t_plus)
    with np.errstate(divide="ignore"):
        ph = -np.expm1(np.log1p(-t_plus / t) / b)
    return np.where(t_plus == t, 1.0, ph)


def _binomial_window(t: int, pool_prob: float) -> tuple[np.ndarray, np.ndarray]:
    """Support points and probabilities of Binomial(t, pool_prob).

    Only the +/- 40-sigma window is materialized; omitted tail terms are below
    e^-700 and cannot move a double-precision sum.
    """
    if pool_prob <= 0.0:
        return np.array([0]), np.array([1.0])
    if pool_prob >= 1.0:
        return np.array([t]), np.array([1.0])
    mean = t * pool_prob
    half = 40.0 * math.sqrt(mean * (1.0 - pool_prob)) + 25.0
    k_lo = max(0, int(mean - half))
    k_hi = min(t, int(mean + half) + 1)
    k = np.arange(k_lo, k_hi + 1)
    logw = (
        gammaln(t + 1)
        - gammaln(k + 1)
        - gammaln(t - k + 1)
        + k * math.log(pool_prob)
        + (t - k) * math.log1p(-pool_prob)
    )
    return k, np.exp(logw)


def _exact_moments(p: float, b: int, t: int) -> tuple[float, float]:
    """(E[p_hat], E[(p_hat - p)^2]) without argument validation."""
    if p == 0.0:
        return 0.0, 0.0
    if b == 1:
        # the estimator reduces to the sample proportion; keep the closed
        # forms so the specialization is exact to machine precision
        return p, p * (1.0 - p) / t
    k, w = _binomial_window(t, positive_fraction(p, b))
    ph = _estimates_for_counts(k, t, b)
    expected = float(np.dot(w, ph))
    mse = float(np.dot(w, (ph - p) ** 2))
    return expected, mse


def gg_expected_estimate(p: float, b: int, t: int) -> float:
    """Exact E[p_hat]; an overestimate of p whenever b > 1."""
    p = prob(p)
    b = integer(b, 1, "pool size")
    t = integer(t, 1, "pool count", MAX_EXACT_POOL_COUNT)
    return _exact_moments(p, b, t)[0]


def gg_mse(p: float, b: int, t: int) -> float:
    """Exact mean squared error E[(p_hat - p)^2] of the pooled estimator."""
    p = prob(p)
    b = integer(b, 1, "pool size")
    t = integer(t, 1, "pool count", MAX_EXACT_POOL_COUNT)
    return _exact_moments(p, b, t)[1]


def gg_asymptotic_variance(p: float, b: int, t: int) -> float:
    """Large-t (delta method) variance approximation of the estimator."""
    p = prob(p, open_zero=True, open_one=True)
    b = integer(b, 1, "pool size")
    t = integer(t, 1, "pool count", 2**63)
    return positive_fraction(p, b) / (t * b * b * (1.0 - p) ** (b - 2))


def gg_nrmse(p: float, b: int, t: int, method: str = "exact") -> float:
    """Root-MSE of the estimator divided by the true prevalence."""
    p = prob(p, open_zero=True)
    if method == "exact":
        return math.sqrt(gg_mse(p, b, t)) / p
    if method == "asymptotic":
        return math.sqrt(gg_asymptotic_variance(p, b, t)) / p
    raise ValueError(f"method must be 'exact' or 'asymptotic', got {method!r}")


# ---------------------------------------------------------------------------
# planning: tests needed for a target accuracy
# ---------------------------------------------------------------------------

def _asymptotic_tests_real(p: float, b: int, target: float) -> float:
    return positive_fraction(p, b) / (b * b * (1.0 - p) ** (b - 2) * (target * p) ** 2)


def _nrmse_unchecked(p: float, b: int, t: int) -> float:
    return math.sqrt(_exact_moments(p, b, t)[1]) / p


def gg_tests_needed(
    p: float, b: int, target_nrmse: float, method: str = "exact"
) -> int:
    """Smallest number of pools t with NRMSE at or below the target.

    method="exact" (default) solves against the exact MSE; this is what the
    reference planning tables are built from.  method="asymptotic" inverts
    the large-t variance in closed form and is slightly optimistic (usually
    one or two pools short) once pool positivity is appreciable.
    """
    p = prob(p, open_zero=True, open_one=True)
    b = integer(b, 1, "pool size")
    target = real(target_nrmse, "target_nrmse", strict=True)
    if method not in ("exact", "asymptotic"):
        raise ValueError(f"method must be 'exact' or 'asymptotic', got {method!r}")

    if b == 1 or method == "asymptotic":
        # at b == 1 the exact MSE is p(1-p)/t, identical to the asymptotic form
        t = _ceil_slack(_asymptotic_tests_real(p, b, target))
        if t > _T_SEARCH_LIMIT:
            raise InfeasibleDesignError(
                f"pool size {b} needs more than {_T_SEARCH_LIMIT} pools for "
                f"NRMSE {target} at prevalence {p}"
            )
        return t

    bound = target * (1.0 + _REL_GUARD)

    def ok(t: int) -> bool:
        return _nrmse_unchecked(p, b, t) <= bound

    t0 = max(1, _ceil_slack(_asymptotic_tests_real(p, b, target)))
    if t0 > _T_SEARCH_LIMIT:
        raise InfeasibleDesignError(
            f"pool size {b} needs more than {_T_SEARCH_LIMIT} pools for "
            f"NRMSE {target} at prevalence {p}"
        )
    if ok(t0):
        # answer lies in [1, t0]; bisect with ok(hi) invariant, lo=0 sentinel
        lo, hi = 0, t0
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if ok(mid):
                hi = mid
            else:
                lo = mid
        return hi
    lo, hi = t0, 2 * t0
    while not ok(hi):
        lo, hi = hi, hi * 2
        if hi > _T_SEARCH_LIMIT:
            raise InfeasibleDesignError(
                f"pool size {b} needs more than {_T_SEARCH_LIMIT} pools for "
                f"NRMSE {target} at prevalence {p}"
            )
    while lo + 1 < hi:
        mid = (lo + hi) // 2
        if ok(mid):
            hi = mid
        else:
            lo = mid
    return hi


def gg_tests_needed_real(p: float, b: int, target_nrmse: float) -> float:
    """Fractional pool count where the exact NRMSE crosses the target.

    Linear interpolation of the NRMSE between the two integers bracketing the
    crossing; used to rank pool sizes without integer-rounding cliffs.
    """
    p = prob(p, open_zero=True, open_one=True)
    b = integer(b, 1, "pool size")
    target = real(target_nrmse, "target_nrmse", strict=True)
    t_int = gg_tests_needed(p, b, target)
    if t_int == 1:
        return 1.0
    if b == 1:
        return _asymptotic_tests_real(p, b, target)
    n_lo = _nrmse_unchecked(p, b, t_int - 1)
    n_hi = _nrmse_unchecked(p, b, t_int)
    if n_lo <= n_hi:  # degenerate; should not happen, NRMSE decreases in t
        return float(t_int)
    frac = (n_lo - target) / (n_lo - n_hi)
    return (t_int - 1) + min(max(frac, 0.0), 1.0)


# ---------------------------------------------------------------------------
# planning: optimal pool size
# ---------------------------------------------------------------------------

def _default_pool_cap(p: float) -> int:
    # beyond ~10/p almost every pool is positive and the estimator saturates
    return int(math.ceil(10.0 / p))


def _mse_many(p: float, bs: np.ndarray, t: int) -> np.ndarray:
    """Exact MSE for many pool sizes at a fixed pool count (vectorized)."""
    out = np.empty(len(bs), dtype=float)
    log_q = math.log1p(-p)
    for start in range(0, len(bs), 256):
        chunk = bs[start : start + 256]
        pool_probs = -np.expm1(chunk * log_q)
        means = t * pool_probs
        halves = 40.0 * np.sqrt(means * (1.0 - pool_probs)) + 25.0
        k_lo = max(0, int(np.min(means - halves)))
        k_hi = min(t, int(np.max(means + halves)) + 1)
        k = np.arange(k_lo, k_hi + 1)
        with np.errstate(divide="ignore"):
            # log(1 - pool_prob) == b log(1-p) exactly, and stays finite even
            # when pool_prob rounds to 1
            logw = (
                gammaln(t + 1)
                - gammaln(k + 1)
                - gammaln(t - k + 1)
                + k[None, :] * np.log(pool_probs)[:, None]
                + (t - k)[None, :] * (chunk * log_q)[:, None]
            )
            ph = -np.expm1(np.log1p(-k / t)[None, :] / chunk[:, None])
        ph[:, k == t] = 1.0
        w = np.exp(logw)
        out[start : start + 256] = np.sum(w * (ph - p) ** 2, axis=1)
    # b == 1 entries: exact closed form
    out[bs == 1] = p * (1.0 - p) / t
    return out


def _optimal_pool_fixed_tests(p: float, t: int, b_max: int) -> GibbsGowerPlan:
    bs = np.arange(1, b_max + 1)
    mses = _mse_many(p, bs, t)
    best = int(bs[int(np.argmin(mses))])  # argmin takes the first = smallest b on ties
    return GibbsGowerPlan(best, t)


def _optimal_pool_target(p: float, target: float, b_max: int) -> GibbsGowerPlan:
    cache: dict[int, int | None] = {}

    def tests(b: int) -> int | None:
        if b not in cache:
            try:
                cache[b] = gg_tests_needed(p, b, target)
            except InfeasibleDesignError:
                cache[b] = None
        return cache[b]

    grid = np.unique(np.round(np.geomspace(1, b_max, 160)).astype(int))
    feasible = [(tests(int(b)), int(b)) for b in grid if tests(int(b)) is not None]
    if not feasible:
        raise InfeasibleDesignError(
            f"no pool size up to {b_max} reaches NRMSE {target} at prevalence {p}"
        )
    t_star = min(tv for tv, _ in feasible)
    anchor = min(b for tv, b in feasible if tv == t_star)

    def on_plateau(b: int) -> bool:
        tv = tests(b)
        return tv is not None and tv <= t_star

    # the integer test requirement is unimodal in b, so the set of pool sizes
    # achieving t_star is a contiguous plateau; locate its edges by bisection
    def edge(direction: int) -> int:
        inside, step = anchor, 1
        while True:
            probe = inside + direction * step
            if probe < 1 or probe > b_max or not on_plateau(probe):
                outside = min(max(inside + direction * step, 0), b_max + 1)
                break
            inside, step = probe, step * 2
        while abs(outside - inside) > 1:
            mid = (inside + outside) // 2
            if on_plateau(mid):
                inside = mid
            else:
                outside = mid
        return inside

    left = edge(-1)
    right = edge(+1)
    plateau = np.arange(left, right + 1)
    # unimodality holds only up to rounding: a size inside the plateau can
    # need a pool fewer than its neighbours, which no bisection probe sees
    bound = target * (1.0 + _REL_GUARD)
    while t_star > 1:
        meets = np.sqrt(_mse_many(p, plateau, t_star - 1)) / p <= bound
        if not meets.any():
            break
        plateau, t_star = plateau[meets], t_star - 1
    mses = _mse_many(p, plateau, t_star)
    best = int(plateau[int(np.argmin(mses))])
    return GibbsGowerPlan(best, tests(best))


def gg_optimal_pool(
    p: float,
    *,
    fixed_tests: int | None = None,
    target_nrmse: float | None = None,
    cap: int | None = None,
) -> GibbsGowerPlan:
    """Best pool size under one of two objectives.

    fixed_tests: minimize the exact MSE achievable with that many pools.
    target_nrmse: minimize the number of pools needed to reach the target;
    among pool sizes tied on the (integer) requirement, take the one with the
    smallest exact MSE at that requirement.

    The search runs over pool sizes 1..cap; the default cap of ceil(10/p)
    covers everything before estimator saturation makes larger pools useless.
    """
    p = prob(p, open_zero=True, open_one=True)
    if (fixed_tests is None) == (target_nrmse is None):
        raise ValueError("specify exactly one of fixed_tests / target_nrmse")
    b_max = _default_pool_cap(p) if cap is None else integer(cap, 1, "cap")
    if fixed_tests is not None:
        t = integer(fixed_tests, 1, "fixed_tests", MAX_EXACT_POOL_COUNT)
        return _optimal_pool_fixed_tests(p, t, b_max)
    return _optimal_pool_target(p, real(target_nrmse, "target_nrmse", strict=True), b_max)


def gg_minimize_cost(
    p: float,
    cost: CostModel,
    target_nrmse: float,
    caps=None,
) -> CostOptimum:
    """Cheapest (pool size, pool count) reaching the target NRMSE.

    Minimizes alpha * b * t + beta * t over integer pool sizes, where t is
    the test requirement at pool size b.  Pool sizes are ranked by their
    fractional requirement so that the integer rounding of t (worth up to a
    full test) cannot mask a genuinely cheaper pool size; the returned plan
    and objective use the actual integer requirement of the winner.
    """
    p = prob(p, open_zero=True, open_one=True)
    target = real(target_nrmse, "target_nrmse", strict=True)
    b_max = _default_pool_cap(p)
    if caps is not None and getattr(caps, "max_pool_size", None) is not None:
        b_max = caps.max_pool_size

    cache: dict[int, float | None] = {}

    def t_real(b: int) -> float | None:
        if b not in cache:
            try:
                cache[b] = gg_tests_needed_real(p, b, target)
            except InfeasibleDesignError:
                cache[b] = None
        return cache[b]

    def objective_real(b: int) -> float | None:
        tr = t_real(b)
        if tr is None:
            return None
        return tr * (cost.sample_weight * b + cost.test_weight)

    grid = np.unique(np.round(np.geomspace(1, b_max, 160)).astype(int))
    scored = [(objective_real(int(b)), int(b)) for b in grid]
    scored = [(v, b) for v, b in scored if v is not None]
    if not scored:
        raise InfeasibleDesignError(
            f"no pool size up to {b_max} reaches NRMSE {target} at prevalence {p}"
        )
    _, b_coarse = min(scored)
    lo = max(1, int(b_coarse * 0.55))
    hi = min(b_max, int(b_coarse * 1.85) + 2)
    best_b, best_obj = None, math.inf
    for b in range(lo, hi + 1):
        v = objective_real(b)
        if v is not None and v < best_obj:
            best_b, best_obj = b, v
    t_int = gg_tests_needed(p, best_b, target)
    plan = GibbsGowerPlan(best_b, t_int)
    return CostOptimum(plan, plan.total_samples, cost.objective(plan.total_samples, t_int))


def estimation_rule_of_thumb(p_guess: float) -> GibbsGowerPlan:
    """One-size-fits-all study plan: 6/p pools of 8, or 12/p pools of 4.

    Pools of 8 up to 10% prevalence, pools of 4 above; keeps the expected
    NRMSE near 15% across the whole 0.1%..30% range without any optimization.
    """
    p = prob(p_guess, "prevalence guess", open_zero=True, open_one=True)
    if p > 0.5:
        raise ValueError(f"rule of thumb covers prevalences up to 0.5, got {p}")
    if p <= 0.10:
        return GibbsGowerPlan(8, _ceil_slack(6.0 / p))
    return GibbsGowerPlan(4, _ceil_slack(12.0 / p))


def dorfman_estimation_rmse(p: float, num_tests: int) -> float:
    """RMSE of estimating prevalence via optimally batched Dorfman screening.

    A budget of num_tests classifies an expected num_tests / c(b*) people,
    where c(b*) is the per-person cost at the best Dorfman batch size
    (individual testing if pooling does not pay).  Treating that effective
    sample as a binomial sample gives RMSE sqrt(p (1-p) / n_eff).
    """
    from . import designs  # local import to keep module load order flexible

    p = prob(p, open_zero=True, open_one=True)
    num_tests = integer(num_tests, 1, "num_tests")
    # search past the default cap at low prevalence, where the continuous
    # optimum ~ 1/sqrt(p) can be arbitrarily large
    try:
        cap = max(designs.DEFAULT_BATCH_CAP, math.ceil(designs.dorfman_optimal_batch_continuous(p)) + 2)
    except ValueError:
        cap = designs.DEFAULT_BATCH_CAP  # no interior optimum at high prevalence
    pooled = designs.dorfman_optimal_batch(p, designs.ConstraintSet(max_pool_size=cap))
    cost = min(1.0, designs.dorfman_expected_tests_per_person(p, pooled.batch_size))
    n_eff = num_tests / cost
    return math.sqrt(p * (1.0 - p) / n_eff)


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------

def report_for_outcome(outcome: PoolTestOutcome) -> EstimationReport:
    """Estimate prevalence from an observed outcome, with plug-in error moments.

    The MSE/variance/NRMSE fields are evaluated at the estimated prevalence
    (the truth being unknown); they are omitted when the estimate is 0 or 1,
    where the plug-in moments are degenerate.
    """
    p_hat = gg_estimate(outcome)
    rate = outcome.positive_pools / outcome.num_pools
    saturated = outcome.positive_pools == outcome.num_pools
    if p_hat in (0.0, 1.0):
        return EstimationReport(p_hat, rate, None, None, None, None, saturated)
    b, t = outcome.pool_size, outcome.num_pools
    expected, mse = _exact_moments(p_hat, b, t)
    return EstimationReport(
        p_hat=p_hat,
        pool_positive_rate_hat=rate,
        expected_p_hat=expected,
        mse=mse,
        asymptotic_variance=gg_asymptotic_variance(p_hat, b, t),
        nrmse=math.sqrt(mse) / p_hat,
        saturated=saturated,
    )


def report_for_plan(p: float, b: int, t: int) -> EstimationReport:
    """Predicted estimator behavior for a planned study at assumed prevalence p."""
    p = prob(p, open_zero=True, open_one=True)
    b = integer(b, 1, "pool size")
    t = integer(t, 1, "pool count", MAX_EXACT_POOL_COUNT)
    expected, mse = _exact_moments(p, b, t)
    return EstimationReport(
        p_hat=None,
        pool_positive_rate_hat=pool_positive_prob(p, b),
        expected_p_hat=expected,
        mse=mse,
        asymptotic_variance=gg_asymptotic_variance(p, b, t),
        nrmse=math.sqrt(mse) / p,
        saturated=False,
    )
