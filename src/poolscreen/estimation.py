"""Prevalence estimation from pooled tests (Gibbs-Gower estimation).

t pools of b samples each are tested; with t_+ positive pools the prevalence
estimate is

    p_hat = 1 - (1 - t_+/t)^(1/b).

Because t_+ is Binomial(t, 1 - (1-p)^b), every moment of p_hat is an explicit
finite sum, and this module computes the expected value and mean squared
error of the estimator exactly.  The binomial weights come from the ratio of
consecutive terms, log(w_k / w_(k-1)) = log((t-k+1)/k) + log(P/(1-P)),
summed outward from the mode and normalized to unit sum, with log(1-P) taken
as b log1p(-p): no gamma function is called, so no large log-gamma terms
cancel.  The sum runs over a window around the mean whose half-width comes
from Bernstein's tail bound, sized so that the omitted counts can add at most
2^-60 of the MSE; after the sum a geometric bound on the omitted terms, from
the window's edge weights, proves it, and a window that fails is widened.

The familiar large-t approximation

    var(p_hat) ~ (1 - (1-p)^b) / (t b^2 (1-p)^(b-2))

is also provided, but all planning routines (tests needed for a target
accuracy, optimal pool size, cost minimization) are driven by the exact MSE:
the asymptotic form understates the error noticeably once pools are mostly
positive, which is exactly the regime where pool-size choices get interesting.

Planning conventions:

* "tests needed" is the smallest integer t whose exact normalized RMSE
  (sqrt(MSE)/p) meets the target.
* with every pool positive the estimate is 1, so
  MSE(b, t) >= (1 - (1-p)^b)^t (1-p)^2, a floor that grows with b; every
  pool-size planner stops where that floor shows that no larger size can
  beat a known one.
* optimal pool size at a test budget minimizes the exact MSE over b.  The
  size near the asymptotic optimum, 1.594 / -log(1-p), bounds the least
  MSE, and the sweep stops where the floor passes that bound.
* optimal pool size for a target first minimizes the integer test
  requirement, then breaks the (wide) ties by the smallest exact MSE at that
  requirement.  The search is exhaustive in b and assumes only that the
  NRMSE falls as t grows.  It starts from the lesser requirement of the
  sizes 1.2 / -log(1-p) and 1.594 / -log(1-p), drops the sizes whose floor
  alone misses the target there, and gallops in t from the count that the
  least NRMSE there predicts; its cost grows with the pool sizes it sweeps,
  about 1/p (some 0.016 s at p = 1e-4, 0.18 s at 1e-5, 2.7 s at 1e-6).
* cost minimization ranks pool sizes by the fractional test requirement
  (the real-valued t where the exact NRMSE crosses the target), which avoids
  integer-rounding cliffs in the objective, then reports the integer
  requirement of the winner.  The search is exhaustive in b: the size that
  minimizes the asymptotic cost bounds the least cost, the floor stops the
  search, one batched sweep of exact MSEs drops the sizes that cannot win,
  and only the rest are solved one by one.  Its time still grows as 1/p
  (some 0.05 s at p = 1e-4, 0.4 s at 1e-5).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import designs
from ._validate import _INT64_MAX, exp_or_inf, instance, integer, positive_fraction, prob, real

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
_MSE_ENTRIES = 1 << 15  # (pool size, support point) pairs per _mse_many chunk
_ODDS_SPAN = 600.0  # largest (odds spread) x (window width) in one _mse_many chunk
_SWEEP_ROWS = 1 << 12  # pool sizes whose windows _mse_many sizes at once
_REL_GUARD = 1e-9  # tolerance when comparing an NRMSE against its target
_TAIL_SHARE = 2.0**-60  # most of the MSE the counts a window leaves out may add
_LOG_HALF_SHARE = math.log(2.0 / _TAIL_SHARE)  # -log of each side's half of it
# x* / -log(1-p) minimizes the asymptotic requirement (x* solves x e^x = 2 (e^x - 1))
_X_STAR = 1.5936242600400401
_START_XS = (1.2, _X_STAR)  # the target planner's start sizes, as x / -log(1-p)


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
    kind = "gibbs-gower"

    def __post_init__(self):
        object.__setattr__(self, "pool_size", integer(self.pool_size, 1, "pool_size"))
        object.__setattr__(self, "num_pools", integer(self.num_pools, 1, "num_pools"))

    @property
    def total_samples(self) -> int:
        return self.pool_size * self.num_pools


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
        # stored as plain floats, so NumPy scalars compute as Python numbers do
        object.__setattr__(self, "sample_weight", real(self.sample_weight, "sample_weight"))
        object.__setattr__(self, "test_weight", real(self.test_weight, "test_weight"))
        if self.sample_weight + self.test_weight == 0:
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
    outcome = instance(outcome, PoolTestOutcome, "outcome")
    return float(_estimates_for_counts(outcome.positive_pools, outcome.num_pools,
                                       outcome.pool_size))


def _estimates_for_counts(t_plus, t: int, b: int) -> np.ndarray:
    """The estimates for positive-pool counts t_plus out of t pools of b: 0
    at none and 1 at every pool, where the log is -inf."""
    # 0 - expm1, not -expm1: no pool positive gives 0.0, not -0.0
    return 0.0 - np.expm1(_log_negatives_share(t_plus, t) / b)


def _log_negatives_share(k, t: int) -> np.ndarray:
    """log(1 - k/t) for integer counts 0 <= k <= t, within an ulp or two:
    log1p up to t/2, and past it log of (t-k)/t, which rounds once, where
    log1p would see 1 - k/t through the rounding of k/t.  -inf at k == t."""
    k = np.asarray(k)
    if k.max(initial=0) <= t // 2:
        return np.log1p(k / -t)
    high = k > t // 2
    out = np.log1p(k / -t, out=np.empty(k.shape), where=~high)
    with np.errstate(divide="ignore"):
        return np.log((t - k) / t, out=out, where=high)


def _log_weights(k: np.ndarray, t: int, m: int, odds: float) -> np.ndarray:
    """log(w_k / w_m) for Binomial(t, P) over the consecutive counts k, which
    hold m, with odds = log(P / (1-P)).

    The ratios log(w_k / w_(k-1)) = log((t-k+1)/k) + odds are cumsummed
    outward from m in both directions.  With m the mode the partial sums stay
    small where the mass is, so their rounding stays near one ulp of a
    number of order one.
    """
    j = m - int(k[0])
    k1 = k[1:]
    steps = np.log((t + 1 - k1) / k1)
    steps += odds
    out = np.empty(len(k))
    out[j] = 0.0
    np.add.accumulate(steps[j:], out=out[j + 1 :])
    if j:
        left = out[j - 1 :: -1]
        np.add.accumulate(steps[j - 1 :: -1], out=left)
        np.negative(left, out=left)
    return out


def _half_widths(p: float, t: int, log_b, odds, var):
    """(below, above): how far the windows of Binomial(t, P) counts reach
    below and above their means, for pool sizes of log log_b, with
    odds = log(P / (1-P)) and variances var (floats or arrays alike, t too).

    Bernstein's inequality puts at most e^-L of the mass more than
    x = (L + sqrt(L^2 + 18 L var)) / 3 above the mean, and as much below it.
    Each side's L asks its mass, times the largest squared error an omitted
    count there can carry (p^2 below, (1-p)^2 above), for half of
    _TAIL_SHARE of the MSE.  The MSE is taken as the asymptotic variance
    v = P (1-p)^2 / (t b^2 (1-P)), lowered to max(p, 1-p)^2, which no MSE
    exceeds, and further where an L would fall below 1; so every half-width
    is positive, and a window that _tails_negligible rejects after the sum
    grows when they are doubled.
    """
    log_errs = (math.log(p), math.log1p(-p))
    log_t = np.log(t) if isinstance(t, np.ndarray) else math.log(t)
    log_inv_mse = log_t - 2.0 * log_errs[1] + 2.0 * log_b - odds  # log(1 / v)
    least = max(-2.0 * max(log_errs), 1.0 - _LOG_HALF_SHARE - 2.0 * min(log_errs))
    # max(log_inv_mse, least), for floats and arrays alike
    log_inv_mse = log_inv_mse + (least - log_inv_mse) * (log_inv_mse < least)
    var18 = 18.0 * var
    widths = []
    for log_err in log_errs:
        budget = _LOG_HALF_SHARE + 2.0 * log_err + log_inv_mse
        widths.append((budget + (budget * (budget + var18)) ** 0.5) / 3.0)
    return widths


def _tails_negligible(p: float, t: int, k_lo, k_hi, odds, w_lo, w_hi, mse):
    """Whether the counts below k_lo and above k_hi can add at most
    _TAIL_SHARE of mse, for windows whose edge weights w_lo, w_hi are on the
    scale of mse (floats or arrays, one per pool size; t, k_lo and k_hi
    too).

    A window holds its mean t P, where the estimate is p, so an omitted
    count's squared error is at most (1-p)^2 above it and p^2 below it.  The
    ratio r = (t-k)/(k+1) P/(1-P) of consecutive binomial terms falls as k
    grows, and is below 1 past the mean, so the mass above k_hi is at most
    w_hi r/(1-r) at k = k_hi; below k_lo likewise.  A window that reaches
    0 or t has r = 0 there, and no tail.
    """
    excess = (1.0 - p) ** 2 * _geometric_tail(w_hi, t - k_hi, k_hi + 1, odds)
    excess = excess + p * p * _geometric_tail(w_lo, k_lo, t - k_lo + 1, -odds)
    return excess <= _TAIL_SHARE * mse


def _geometric_tail(w, count, other, odds):
    """w r/(1-r) for r = (count / other) e^odds below 1: the sum past a term
    w whose outward ratios start at r and fall; 0 where count is 0 (floats
    or arrays alike)."""
    if isinstance(count, np.ndarray):
        log_ratio = np.log(count / other, out=np.full(count.shape, -np.inf), where=count > 0)
    elif count > 0:
        log_ratio = math.log(count / other)
    else:
        return 0.0
    r = np.exp(log_ratio + odds)
    return w * r / (1.0 - r)


def _binomial_window(t: int, p: float, b: int) -> tuple[float, float]:
    """(E[p_hat], E[(p_hat - p)^2]) summed over a window of the positive-pool
    count Binomial(t, 1 - (1-p)^b), for 0 < p < 1.

    The window takes _half_widths, doubled until _tails_negligible proves
    that the omitted counts cannot move the MSE; its weights are normalized
    to unit sum.
    """
    log_q = b * math.log1p(-p)  # log(1 - P) without the cancellation in 1 - P
    pool_prob = -math.expm1(log_q)
    odds = math.log(pool_prob) - log_q
    mean = t * pool_prob
    mode = min(t, int((t + 1) * pool_prob))
    below, above = _half_widths(p, t, math.log(b), odds, mean * math.exp(log_q))
    while True:
        k_lo = max(0, int(mean - below))
        k_hi = min(t, int(mean + above) + 1)
        k = np.arange(float(k_lo), k_hi + 1)  # float counts: no int-to-float casts
        w = np.exp(_log_weights(k, t, mode, odds))
        w /= w.sum()
        ph = _estimates_for_counts(k, t, b)
        expected = float(np.dot(w, ph))
        ph -= p
        mse = float(np.dot(w, ph * ph))
        if _tails_negligible(p, t, k_lo, k_hi, odds, w[0], w[-1], mse):
            return expected, mse
        below, above = 2.0 * below, 2.0 * above


def _exact_moments(p: float, b: int, t: int) -> tuple[float, float]:
    """(E[p_hat], E[(p_hat - p)^2]) without argument validation."""
    if p in (0.0, 1.0):  # every pool negative, or every pool positive
        return p, 0.0
    if b == 1:
        # the estimator reduces to the sample proportion; keep the closed
        # forms so the specialization is exact to machine precision
        return p, p * (1.0 - p) / t
    return _binomial_window(t, p, b)


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


def _log_unit_variance(p: float, b: int) -> float:
    """log of t * var(p_hat) in the large-t approximation,

        (1 - (1-p)^b) / (b^2 (1-p)^(b-2)),

    taken in log space because (1-p)^(b-2) underflows for large pools."""
    return math.log(positive_fraction(p, b)) - 2.0 * math.log(b) - (b - 2) * math.log1p(-p)


def gg_asymptotic_variance(p: float, b: int, t: int) -> float:
    """Large-t (delta method) variance approximation of the estimator.

    inf where it exceeds the largest double (large pools, mostly positive).
    """
    p = prob(p, open_zero=True, open_one=True)
    b = integer(b, 1, "pool size")
    t = integer(t, 1, "pool count")
    return exp_or_inf(_log_unit_variance(p, b) - math.log(t))


def _nrmse(p: float, mse: float) -> float:
    """sqrt(mse) / p; a ValueError where the MSE underflowed to 0 at 0 < p < 1,
    where no MSE is 0 and sqrt(MSE) / p cannot be recovered."""
    if mse == 0.0 and 0.0 < p < 1.0:
        raise _underflow(p)
    return math.sqrt(mse) / p


def _nrmses(p: float, mses: np.ndarray) -> np.ndarray:
    """_nrmse for an array of MSEs at 0 < p < 1."""
    if not mses.all():
        raise _underflow(p)
    return np.sqrt(mses) / p


def _underflow(p: float) -> ValueError:
    return ValueError(f"the exact MSE underflows to 0 at prevalence {p}, so no NRMSE "
                      "can be formed from it")


def gg_nrmse(p: float, b: int, t: int, method: str = "exact") -> float:
    """Root-MSE of the estimator divided by the true prevalence."""
    p = prob(p, open_zero=True)
    if method == "exact":
        return _nrmse(p, gg_mse(p, b, t))
    if method == "asymptotic":
        return math.sqrt(gg_asymptotic_variance(p, b, t)) / p
    raise ValueError(f"method must be 'exact' or 'asymptotic', got {method!r}")


# ---------------------------------------------------------------------------
# planning: tests needed for a target accuracy
# ---------------------------------------------------------------------------

def _asymptotic_tests_real(p: float, b: int, target: float) -> float:
    return exp_or_inf(_log_unit_variance(p, b) - 2.0 * (math.log(target) + math.log(p)))


def _infeasible(p: float, b: int, target: float) -> InfeasibleDesignError:
    return InfeasibleDesignError(
        f"pool size {b} needs more than {_T_SEARCH_LIMIT} pools for "
        f"NRMSE {target} at prevalence {p}"
    )


def _asymptotic_tests(p: float, b: int, target: float) -> int:
    """Asymptotic pool count for the target, rounded up; infeasible past the
    search limit."""
    # clamped first: the real-valued count may be inf, which has no ceiling
    t = _ceil_slack(min(_asymptotic_tests_real(p, b, target), 2.0 * _T_SEARCH_LIMIT))
    if t > _T_SEARCH_LIMIT:
        raise _infeasible(p, b, target)
    return t


def _nrmse_unchecked(p: float, b: int, t: int) -> float:
    return _nrmse(p, _exact_moments(p, b, t)[1])


def _tests_needed_exact(p: float, b: int, target: float) -> tuple[int, float, float]:
    """Smallest t whose exact NRMSE meets the target, with the NRMSE at t - 1
    (inf at t - 1 == 0) and at t: the two ends of the search's last bracket."""
    bound = target * (1.0 + _REL_GUARD)
    # gallop from the asymptotic count in steps of 1, 2, 4, ... until lo
    # misses the target (lo = 0 is a sentinel) and hi meets it, never past
    # the search limit, then bisect; the answer is mostly 1 or 2 above it
    t = _ceil_slack(min(_asymptotic_tests_real(p, b, target), _T_SEARCH_LIMIT))
    step, n = 1, _nrmse_unchecked(p, b, t)
    if n <= bound:
        hi, n_hi = t, n
        while True:
            lo, n_lo = max(0, hi - step), math.inf
            if lo == 0:
                break
            n_lo = _nrmse_unchecked(p, b, lo)
            if n_lo > bound:
                break
            hi, n_hi, step = lo, n_lo, 2 * step
    else:
        lo, n_lo = t, n
        while True:
            if lo == _T_SEARCH_LIMIT:
                raise _infeasible(p, b, target)
            hi = min(lo + step, _T_SEARCH_LIMIT)
            n_hi = _nrmse_unchecked(p, b, hi)
            if n_hi <= bound:
                break
            lo, n_lo, step = hi, n_hi, 2 * step
    while hi - lo > 1:
        mid = (lo + hi) // 2
        n = _nrmse_unchecked(p, b, mid)
        if n <= bound:
            hi, n_hi = mid, n
        else:
            lo, n_lo = mid, n
    return hi, n_lo, n_hi


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
        return _asymptotic_tests(p, b, target)
    return _tests_needed_exact(p, b, target)[0]


def gg_tests_needed_real(p: float, b: int, target_nrmse: float) -> float:
    """Fractional pool count where the exact NRMSE crosses the target.

    Linear interpolation of the NRMSE between the two integers bracketing the
    crossing; used to rank pool sizes without integer-rounding cliffs.
    """
    p = prob(p, open_zero=True, open_one=True)
    b = integer(b, 1, "pool size")
    target = real(target_nrmse, "target_nrmse", strict=True)
    return _tests_needed_pair(p, b, target)[0]


def _tests_needed_pair(p: float, b: int, target: float) -> tuple[float, int]:
    """(gg_tests_needed_real, gg_tests_needed) from one search, for checked
    arguments."""
    if b == 1:
        t_int = _asymptotic_tests(p, b, target)
        return (1.0 if t_int == 1 else _asymptotic_tests_real(p, b, target)), t_int
    # the search has evaluated both ends of the bracket; n_lo is inf at t_int == 1
    t_int, n_lo, n_hi = _tests_needed_exact(p, b, target)
    if t_int == 1:
        return 1.0, t_int
    if n_lo <= n_hi:  # degenerate; should not happen, NRMSE decreases in t
        return float(t_int), t_int
    frac = (n_lo - target) / (n_lo - n_hi)
    return (t_int - 1) + min(max(frac, 0.0), 1.0), t_int


# ---------------------------------------------------------------------------
# planning: optimal pool size
# ---------------------------------------------------------------------------

def _default_pool_cap(p: float) -> int:
    # beyond ~10/p almost every pool is positive and the estimator saturates;
    # a size past int64 is no pool size (10/p overflows at the tiniest p)
    cap = 10.0 / p
    return math.ceil(cap) if cap < 2.0**63 else _INT64_MAX


def _mse_many(p: float, bs: np.ndarray, t: int) -> np.ndarray:
    """Exact MSE for many pool sizes at a fixed pool count (vectorized).

    Each pool size's window is sized and checked as in _binomial_window; the
    sizes whose check fails are summed again with their half-widths doubled.
    The sizes go through _mse_sweep _SWEEP_ROWS at a time, which bounds its
    per-size arrays however many sizes there are.
    """
    out = np.empty(len(bs), dtype=float)
    for lo in range(0, len(bs), _SWEEP_ROWS):
        block = bs[lo : lo + _SWEEP_ROWS]
        mses, proven = _mse_sweep(p, block, t, 1.0)
        widen = 1.0
        while not proven.all():
            redo, widen = ~proven, 2.0 * widen
            mses[redo], proven[redo] = _mse_sweep(p, block[redo], t, widen)
        out[lo : lo + len(block)] = mses
    # b == 1 entries: exact closed form
    out[bs == 1] = p * (1.0 - p) / t
    return out


def _mse_sweep(p: float, bs: np.ndarray, t: int, widen: float):
    """(MSE, proven) for each pool size, over windows of widen times the
    _half_widths; proven where _tails_negligible holds for its row.

    Consecutive pool sizes share one support window, the union of their
    windows; each chunk of them takes as many rows as keep rows x window
    within _MSE_ENTRIES, so the temporaries stay cache-sized whatever t is.
    A chunk shares one _log_weights cumsum, that of its middle row r0, and
    row r adds (k - m0)(odds_r - odds_r0) to it, which is log(w_k / w_m0)
    for its own pool probability.  By concavity that is at most (odds
    spread) x (window width), which _ODDS_SPAN bounds, so no weight
    overflows; each row is divided by its own weight sum.
    """
    out = np.empty(len(bs), dtype=float)
    proven = np.empty(len(bs), dtype=bool)
    # log(1 - pool_prob) == b log(1-p) exactly, and stays finite even when
    # pool_prob rounds to 1
    log_qb = bs * math.log1p(-p)
    probs = -np.expm1(log_qb)
    means = t * probs
    all_odds = np.log(probs) - log_qb
    below, above = _half_widths(p, t, np.log(bs), all_odds, means * np.exp(log_qb))
    all_lows = np.maximum(0, np.floor(means - widen * below))
    all_highs = np.minimum(t, np.floor(means + widen * above) + 1)
    start = 0
    while start < len(bs):
        # the candidates are as many rows as fit in windows min(t + 1, 26)
        # wide, about the narrowest; the union window and the odds spread
        # only grow as rows are added, so the rows that fit are a prefix
        stop = start + max(1, _MSE_ENTRIES // min(t + 1, 26))
        odds = all_odds[start:stop]
        lows = np.minimum.accumulate(all_lows[start:stop])
        highs = np.maximum.accumulate(all_highs[start:stop])
        widths = highs - lows + 1
        spreads = np.maximum.accumulate(odds) - np.minimum.accumulate(odds)
        fits = (widths * np.arange(1, len(odds) + 1) <= _MSE_ENTRIES) & (
            spreads * widths <= _ODDS_SPAN
        )
        rows = max(1, int(np.count_nonzero(fits)))
        chunk, odds = bs[start : start + rows], odds[:rows]
        k_lo, k_hi = lows[rows - 1], highs[rows - 1]
        k = np.arange(k_lo, k_hi + 1)
        mid = rows // 2
        m0 = min(t, int((t + 1) * probs[start + mid]))
        w = np.multiply.outer(odds - odds[mid], k - m0)
        w += _log_weights(k, t, m0, odds[mid])
        np.exp(w, out=w)
        # w (ph - p)^2 in place, as (expm1(.) + p)^2 since ph = -expm1(.):
        # the chunk's 2-D temporaries are its memory
        ph = _log_negatives_share(k, t) / chunk[:, None]
        np.expm1(ph, out=ph)
        ph += p
        ph *= ph
        ph *= w
        sq_sums = ph.sum(axis=1)
        out[start : start + rows] = sq_sums / w.sum(axis=1)
        proven[start : start + rows] = _tails_negligible(
            p, t, k_lo, k_hi, odds, w[:, 0], w[:, -1], sq_sums)
        start += rows
    return out, proven


def _mse_rows(p: float, bs: np.ndarray, ts: np.ndarray) -> np.ndarray:
    """Exact MSE of many (pool size, pool count) rows, each with its own t.

    Each row's window is sized about its own mean and checked as in
    _binomial_window; the rows whose check fails are summed again with their
    half-widths doubled.  The rows go through _rows_sweep _SWEEP_ROWS at a
    time, which bounds its per-row arrays however many rows there are.
    """
    out = np.empty(len(bs), dtype=float)
    for lo in range(0, len(bs), _SWEEP_ROWS):
        b, t = bs[lo : lo + _SWEEP_ROWS], ts[lo : lo + _SWEEP_ROWS]
        mses, proven = _rows_sweep(p, b, t, 1.0)
        widen = 1.0
        while not proven.all():
            redo, widen = ~proven, 2.0 * widen
            mses[redo], proven[redo] = _rows_sweep(p, b[redo], t[redo], widen)
        out[lo : lo + len(b)] = mses
    # b == 1 rows: exact closed form
    ones = bs == 1
    out[ones] = p * (1.0 - p) / ts[ones]
    return out


def _rows_sweep(p: float, bs: np.ndarray, ts: np.ndarray, widen: float):
    """(MSE, proven) for each (pool size, pool count) row, over windows of
    widen times the _half_widths; proven where _tails_negligible holds.

    Each chunk of rows is padded to its widest window, with as many rows as
    keep rows x padded width within _MSE_ENTRIES, and is summed in two
    buffers that every chunk reuses.  The log weights of a row are the 2-D
    form of _log_weights: its steps cumsummed outward from its own mode; its
    padded entries repeat its last count, and their log weights are -inf.
    """
    out = np.empty(len(bs), dtype=float)
    proven = np.empty(len(bs), dtype=bool)
    log_qb = bs * math.log1p(-p)
    probs = -np.expm1(log_qb)
    means = ts * probs
    all_odds = np.log(probs) - log_qb
    below, above = _half_widths(p, ts, np.log(bs), all_odds, means * np.exp(log_qb))
    all_lows = np.maximum(0.0, np.floor(means - widen * below))
    all_highs = np.minimum(ts, np.floor(means + widen * above) + 1.0)
    spans = all_highs - all_lows  # each row's last column
    modes = np.minimum(ts, np.floor((ts + 1) * probs)) - all_lows  # each row's mode column
    widest = int(spans.max(initial=0.0)) + 1
    size = max(widest, min(_MSE_ENTRIES, len(bs) * widest))
    bufs = np.empty((2, size))
    mask_buf = np.empty(size, dtype=bool)
    start = 0
    while start < len(bs):
        # the padded width only grows as rows are added: the rows that fit
        # are a prefix of the at most _MSE_ENTRIES / (first width) candidates
        stop = start + max(1, _MSE_ENTRIES // int(spans[start] + 1))
        widths = np.maximum.accumulate(spans[start:stop]) + 1.0
        rows = max(1, int(np.count_nonzero(widths * np.arange(1, len(widths) + 1) <= _MSE_ENTRIES)))
        end, cols = start + rows, np.arange(widths[rows - 1])
        w, ph = (buf[: rows * len(cols)].reshape(rows, len(cols)) for buf in bufs)
        mask = mask_buf[: rows * len(cols)].reshape(rows, len(cols))
        t, last, lows = ts[start:end, None], spans[start:end, None], all_lows[start:end, None]
        # the counts, in w for now, each row's last one repeated over its padding
        np.add(np.minimum(cols, last, out=w), lows, out=w)
        # ph[:, j] = log(w_k / w_(k-1)) at column j >= 1
        ph[:, 0] = 0.0
        np.subtract(t + 1.0, w[:, 1:], out=ph[:, 1:])
        ph[:, 1:] /= w[:, 1:]
        np.log(ph[:, 1:], out=ph[:, 1:])
        ph[:, 1:] += all_odds[start:end, None]
        # cumsummed rightward above the mode (in w, where the padding is
        # -inf) and leftward up to it (in ph)
        np.multiply(ph, np.greater(cols, modes[start:end, None], out=mask), out=w)
        ph -= w
        np.copyto(w, -np.inf, where=np.greater(cols, last, out=mask))
        np.add.accumulate(w, axis=1, out=w)
        np.add.accumulate(ph[:, ::-1], axis=1, out=ph[:, ::-1])
        w[:, :-1] -= ph[:, 1:]
        np.exp(w, out=w)
        # the counts again, and log(1 - k/t) in place as _log_negatives_share
        # takes it: log1p up to t/2 and log((t - k)/t) past it
        np.add(np.minimum(cols, last, out=ph), lows, out=ph)
        high = ph > t // 2
        if high.any():
            low = ~high
            np.log1p(np.divide(ph, -t, out=ph, where=low), out=ph, where=low)
            np.divide(np.subtract(t, ph, out=ph, where=high), t, out=ph, where=high)
            with np.errstate(divide="ignore"):
                np.log(ph, out=ph, where=high)
        else:
            np.log1p(np.divide(ph, -t, out=ph), out=ph)
        # w (ph - p)^2 in place, as (expm1(.) + p)^2 since ph = -expm1(.)
        ph /= bs[start:end, None]
        np.expm1(ph, out=ph)
        ph += p
        ph *= ph
        ph *= w
        sq_sums = ph.sum(axis=1)
        out[start:end] = sq_sums / w.sum(axis=1)
        w_hi = w[np.arange(rows), spans[start:end].astype(np.intp)]
        proven[start:end] = _tails_negligible(
            p, ts[start:end], all_lows[start:end], all_highs[start:end], all_odds[start:end],
            w[:, 0], w_hi, sq_sums)
        start = end
    return out, proven


def _saturation_cap(p: float, t: int, mse: float, b_max: int) -> int:
    """Last pool size up to b_max whose all-pools-positive term does not
    exceed mse (1 + _REL_GUARD), plus one against rounding.

    With every pool positive the estimate is 1, so
    MSE(b, t) >= (1 - (1-p)^b)^t (1-p)^2, a floor that grows with b: no size
    past the cap has an MSE within mse.  b_max where the floor bounds nothing
    (mse <= 0, or mse at least (1-p)^2).
    """
    if mse <= 0.0:
        return b_max
    log_q = math.log1p(-p)
    log_ratio = 0.5 * math.log(mse * (1.0 + _REL_GUARD)) - log_q
    if log_ratio >= 0.0:
        return b_max
    # (1 - q^b)^t <= e^(2 log_ratio)  <=>  b <= log(-expm1(2 log_ratio / t)) / log q
    last = math.log(-math.expm1(2.0 * log_ratio / t)) / log_q
    return b_max if last >= b_max else int(last) + 1


def _start_size(p: float, x: float, b_max: int) -> int:
    """The pool size x / -log(1-p), rounded and clipped to 1..b_max."""
    # clipped before rounding: at the tiniest p the quotient is inf
    return max(1, round(min(x / -math.log1p(-p), b_max)))


def _optimal_pool_fixed_tests(p: float, t: int, b_max: int) -> GibbsGowerPlan:
    # the size near the asymptotic optimum bounds the least MSE, and sizes
    # whose all-pools-positive term alone exceeds that bound cannot win
    mse = _exact_moments(p, _start_size(p, _X_STAR, b_max), t)[1]
    bs = np.arange(1, _saturation_cap(p, t, mse, b_max) + 1)
    mses = _mse_many(p, bs, t)
    best = int(bs[int(np.argmin(mses))])  # argmin takes the first = smallest b on ties
    return GibbsGowerPlan(best, t)


def _optimal_pool_target(p: float, target: float, b_max: int) -> GibbsGowerPlan:
    # any size's requirement bounds t*; take the least over sizes near the
    # asymptotic optimum and below it, where the exact optimum lies at the
    # pool counts a loose target needs
    needs = []
    for b0 in sorted({_start_size(p, x, b_max) for x in _START_XS}):
        try:
            needs.append(gg_tests_needed(p, b0, target))
        except InfeasibleDesignError:
            pass
    if not needs:
        raise InfeasibleDesignError(
            f"no pool size up to {b_max} reaches NRMSE {target} at prevalence {p}"
        )
    t_hi = min(needs)
    bound = target * (1.0 + _REL_GUARD)
    # sizes past the cap miss the target on the all-pools-positive term alone
    # at every t <= t_hi
    bs = np.arange(1, _saturation_cap(p, t_hi, (bound * p) ** 2, b_max) + 1)
    mses = _mse_many(p, bs, t_hi)
    # a size that meets the target at t - 1 also meets it at t, so the
    # candidates shrink to the sizes that meet it at hi
    nrmses = _nrmses(p, mses)
    meets = nrmses <= bound
    bs, mses, lo, hi = bs[meets], mses[meets], 0, t_hi

    def probe(t):
        nonlocal bs, mses, lo, hi
        t_mses = _mse_many(p, bs, t)
        meets = _nrmses(p, t_mses) <= bound
        if not meets.any():
            lo = t
            return False
        bs, mses, hi = bs[meets], t_mses[meets], t
        return True

    # NRMSE^2 falls about as 1/t, so the answer lies near
    # t_hi (least NRMSE / bound)^2, mostly at t_hi itself: gallop from there
    # in steps of 1, 2, 4, ..., down while some size meets the target and up
    # while none does, then bisect what is left of (lo, hi]
    t, step, met = min(t_hi - 1, _ceil_slack(t_hi * (nrmses.min() / bound) ** 2)), 1, None
    while lo < t < hi:
        now = probe(t)
        if met is not None and now != met:
            break
        t, step, met = (t - step if now else t + step), 2 * step, now
    while hi - lo > 1:
        probe((lo + hi) // 2)
    best = int(bs[int(np.argmin(mses))])  # argmin takes the first = smallest b on ties
    return GibbsGowerPlan(best, hi)


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
    caps: designs.ConstraintSet | None = None,
) -> CostOptimum:
    """Cheapest (pool size, pool count) reaching the target NRMSE.

    Minimizes alpha * b * t + beta * t over integer pool sizes, where t is
    the test requirement at pool size b.  Pool sizes are ranked by their
    fractional requirement so that the integer rounding of t (worth up to a
    full test) cannot mask a genuinely cheaper pool size (ties go to the
    smaller); the returned plan and objective use the actual integer
    requirement of the winner.  caps.max_pool_size replaces ceil(10/p).

    A feasible size near the one that minimizes the asymptotic cost seeds
    the least cost (_cost_seed), and _cost_stop bounds the sizes that can
    beat it.  A size that misses the target at
    ceil(least cost / (alpha b + beta)) pools costs more, and one _mse_rows
    sweep at that pool count for every size finds those; only the rest are
    solved.
    """
    p = prob(p, open_zero=True, open_one=True)
    cost = instance(cost, CostModel, "cost")
    target = real(target_nrmse, "target_nrmse", strict=True)
    caps = instance(caps, designs.ConstraintSet, "caps", optional=True)
    b_max = _default_pool_cap(p) if caps is None else caps.pool_cap(_default_pool_cap(p))
    bound = target * (1.0 + _REL_GUARD)
    best_b, t_real, best_t = _cost_seed(p, cost, target, b_max)
    best = t_real * cost.objective(best_b, 1)
    # prune in one sweep: missing the target at ceil(best / weight) pools
    # puts t_real above it, and best only falls, so such a size never wins;
    # the margin lets rounding keep a size, never drop one
    bs = np.arange(1, _cost_stop(p, cost, bound, best, b_max))
    bs = bs[bs != best_b]
    ts = np.ceil(best / (cost.sample_weight * bs + cost.test_weight))
    summed = ts <= _T_SEARCH_LIMIT  # past it, sizes stay candidates
    keep = ~summed
    keep[summed] = _nrmses(p, _mse_rows(p, bs[summed], ts[summed])) <= bound * (1.0 + 1e-12)
    for b in bs[keep].tolist():
        weight = cost.objective(b, 1)
        if _nrmse_unchecked(p, b, math.ceil(best / weight)) > bound:
            continue
        try:
            t_real, t_int = _tests_needed_pair(p, b, target)
        except InfeasibleDesignError:  # needs more pools than the search limit
            continue
        v = t_real * weight
        if v < best or (v == best and b < best_b):
            best_b, best_t, best = b, t_int, v
    plan = GibbsGowerPlan(best_b, best_t)
    return CostOptimum(plan, plan.total_samples, cost.objective(plan.total_samples, best_t))


def _cost_seed(p: float, cost: CostModel, target: float, b_max: int) -> tuple[int, float, int]:
    """A feasible size, with its fractional and integer requirements, to seed
    the cost planner's bound; any feasible size would do.

    The size that minimizes the asymptotic cost, else the first feasible
    size as it doubles up to 1.594 / -log(1-p), below which requirements
    fall as sizes grow (a small size can need more pools than the search
    limit), else the target planner's plan, which raises when no size is
    feasible.
    """
    b = _asymptotic_cost_size(p, cost, b_max)
    peak = max(b, _start_size(p, _X_STAR, b_max))
    while True:
        try:
            return (b, *_tests_needed_pair(p, b, target))
        except InfeasibleDesignError:
            if b == peak:
                break
            b = min(2 * b, peak)
    b = _optimal_pool_target(p, target, b_max).pool_size
    return (b, *_tests_needed_pair(p, b, target))


def _asymptotic_cost_size(p: float, cost: CostModel, b_max: int) -> int:
    """The size in 1..b_max that minimizes the asymptotic objective
    (alpha b + beta) t_asym(b), found without an array over the sizes.

    With x = -b log(1-p), t_asym(b) is proportional to (e^x - 1) / b^2, and
    b times the objective's log-derivative, alpha b / (alpha b + beta) - 2 +
    x / (1 - e^-x), rises with b: the objective falls, then rises.  The
    first size where it rises, or the one before it, is the least.
    """
    lam = -math.log1p(-p)

    def rising(b):
        x = lam * b
        return cost.sample_weight * b / cost.objective(b, 1) - 2.0 + x / -math.expm1(-x) >= 0.0

    def log_objective(b):
        x = lam * b
        return math.log(cost.objective(b, 1)) + x + math.log(-math.expm1(-x)) - 2.0 * math.log(b)

    if not rising(b_max):
        return b_max
    b = _first_true(rising, 0, b_max)
    return b if b == 1 else min(b - 1, b, key=log_objective)


def _cost_stop(p: float, cost: CostModel, bound: float, best: float, b_max: int) -> int:
    """The first size in 1..b_max from which every size costs more than
    best, or b_max + 1.

    With every pool positive the estimate is 1, so
    MSE(b, t) >= (1 - (1-p)^b)^t (1-p)^2, and a size that meets the target
    needs t_f(b) = 2 log(bound p / (1-p)) / log(1 - (1-p)^b) pools or more,
    a floor that never falls as b grows.  Its fractional requirement
    exceeds t_f(b) - 1, so once (t_f(b) - 1)(alpha b + beta) reaches best no
    later size can win.  t_f is rounded down against rounding.
    """
    log_q = math.log1p(-p)
    # log((bound p / (1-p))^2 (1 + _REL_GUARD)): the most (1 - (1-p)^b)^t
    # can be at a pool count that meets the target
    log_share = 2.0 * (math.log(bound) + math.log(p) - log_q) + math.log1p(_REL_GUARD)
    if log_share >= 0.0:
        return b_max + 1  # the floor bounds nothing

    def beyond(b):
        q_b = math.exp(b * log_q)
        log_positive = math.log1p(-q_b) if q_b < 0.5 else math.log(-math.expm1(b * log_q))
        t_f = log_share / log_positive if log_positive < 0.0 else math.inf
        return (_ceil_slack(min(t_f, 2.0**62)) - 1) * cost.objective(b, 1) >= best

    return _first_true(beyond, 0, b_max + 1)


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


def estimation_rule_of_thumb(p_guess: float) -> GibbsGowerPlan:
    """One-size-fits-all study plan: 6/p pools of 8, or 12/p pools of 4.

    Pools of 8 up to 10% prevalence, pools of 4 above; keeps the expected
    NRMSE near 15% across the whole 0.1%..30% range without any optimization.
    """
    p = prob(p_guess, "prevalence guess", open_zero=True, open_one=True)
    if p > 0.5:
        raise ValueError(f"rule of thumb covers prevalences up to 0.5, got {p}")
    b = 8 if p <= 0.10 else 4
    return GibbsGowerPlan(b, _rule_of_thumb_pools(p, b))


def _rule_of_thumb_pools(p: float, b: int) -> int:
    """The rule of thumb's pool count for pools of b: 6/p pools of 8, 12/p of 4."""
    pools = {8: 6.0, 4: 12.0}[b] / p
    if pools >= 2.0**63:  # inf at the tiniest p, which has no ceiling
        raise ValueError(f"the rule of thumb needs more than {_INT64_MAX} pools "
                         f"at prevalence {p}")
    return _ceil_slack(pools)


def dorfman_estimation_rmse(p: float, num_tests: int) -> float:
    """RMSE of estimating prevalence via optimally batched Dorfman screening.

    A budget of num_tests classifies an expected num_tests / c(b*) people,
    where c(b*) is the per-person cost at the best Dorfman batch of any int64
    size (individual testing if pooling does not pay).  Treating that effective
    sample as a binomial sample gives RMSE sqrt(p (1-p) / n_eff).
    """
    p = prob(p, open_zero=True, open_one=True)
    num_tests = integer(num_tests, 1, "num_tests")
    pooled = designs.dorfman_optimal_batch(p, designs.ConstraintSet(max_pool_size=_INT64_MAX))
    cost = min(1.0, pooled.cost(p))
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
    integer(outcome.num_pools, 1, "pool count", MAX_EXACT_POOL_COUNT)
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
        nrmse=_nrmse(p_hat, mse),
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
        nrmse=_nrmse(p, mse),
        saturated=False,
    )
