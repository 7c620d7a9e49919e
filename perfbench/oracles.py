"""Closed forms the benchmark checks the program's outputs against.

They are written out here rather than imported from poolscreen, so that a
change to a library formula cannot make its own check pass: every expected
value below is derived from the procedure's definition, not from the code
under test.  The exception is the Gibbs-Gower MSE, which the library computes
on a +/-40-sigma window; here it is summed over the full binomial support.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import gammaln


def dorfman_tests(p: float, b: int) -> float:
    """Expected tests per person of Dorfman testing in full batches of b."""
    if b == 1:
        return 1.0
    return 1.0 / b + 1.0 - (1.0 - p) ** b


def sterrett_batch_costs(p: float, b_max: int) -> list[float]:
    """f[m]: expected Sterrett tests for a batch of m, for m = 0..b_max.

    Walk a positive pool one person at a time; after the first positive the
    untested remainder is pooled afresh, and a last person left in a positive
    pool is positive by inference.
    """
    q = 1.0 - p
    f = [0.0] * (b_max + 1)
    for m in range(1, b_max + 1):
        total = 1.0
        for j in range(1, m):
            total += q ** (j - 1) * p * (j + f[m - j])
        total += q ** (m - 1) * p * (m - 1)
        f[m] = total
    return f


def sterrett_tests(p: float, b: int) -> float:
    """Expected tests per person of Sterrett testing in full batches of b."""
    return sterrett_batch_costs(p, b)[b] / b


def grid_tests(p: float, b: int, d: int) -> float:
    """Exact expected tests per person of side-b, d-dimensional grid testing
    with confirmation: d b^(d-1) line pools per b^d cells, plus a retest of
    every cell whose d lines are all positive (inclusion-exclusion over the
    k(b-1)+1 cells that any k of those lines cover)."""
    q = 1.0 - p
    candidate = 1.0 + sum((-1) ** k * math.comb(d, k) * q ** (k * (b - 1) + 1)
                          for k in range(1, d + 1))
    return d / b + candidate


def grid_tests_approx(p: float, b: int, d: int) -> float:
    """The published approximation that treats line positivity as
    independent: d/b + (1 - q^b)^d b^(d(d-2)).  The design optimizers rank
    array and hypercube designs by it."""
    return d / b + (1.0 - (1.0 - p) ** b) ** d * float(b) ** (d * (d - 2))


def pooled_miss_rate(aliquot: float, sample: float, conc: float, prevalence: float, n: int) -> float:
    """Dilution model: chance a positive pool of n draws no particle."""
    particles = conc * sample
    if n == 1:
        return (1.0 - aliquot / sample) ** particles
    positives = n * prevalence / (1.0 - (1.0 - prevalence) ** n)
    return (1.0 - aliquot / (n * sample)) ** (particles * positives)


def gg_error_moments(p: float, b: int, t: int) -> tuple[float, float, float]:
    """(E[p_hat], E[e^2], E[e^4]) with e = p_hat - p, over all t+1 outcomes."""
    k = np.arange(t + 1)
    pool_prob = -math.expm1(b * math.log1p(-p))
    logw = (
        gammaln(t + 1) - gammaln(k + 1) - gammaln(t - k + 1)
        + k * math.log(pool_prob) + (t - k) * b * math.log1p(-p)
    )
    w = np.exp(logw)
    with np.errstate(divide="ignore"):
        p_hat = 1.0 - np.exp(np.log1p(-k / t) / b)
    p_hat[-1] = 1.0
    err2 = (p_hat - p) ** 2
    return float(w @ p_hat), float(w @ err2), float(w @ err2**2)


def gg_mse(p: float, b: int, t: int) -> float:
    if b == 1:
        return p * (1.0 - p) / t
    return gg_error_moments(p, b, t)[1]


def gg_nrmse(p: float, b: int, t: int) -> float:
    return math.sqrt(gg_mse(p, b, t)) / p
