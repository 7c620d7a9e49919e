"""Argument checks shared by every public entry point, the pool formula, and
exp with inf on overflow.

Each check returns its argument as a plain float, int or bool, or the object
of the class it asks for, or raises ValueError naming it.  Strings, bool, NaN
and infinities are rejected where a number belongs, and so is a float where
an integer belongs; a flag must be a bool.  NumPy scalars are accepted.  The
type tests check the exact type first and then concrete tuples, never
numbers.Real: an ABC isinstance costs several times more, and the
optimizers call checked public cost functions in their inner loops.
"""

from __future__ import annotations

import math

import numpy as np

_REALS = (int, float, np.integer, np.floating)


def _number(x, name: str) -> float:
    """x as a float, or ValueError; a plain float returns at once."""
    if type(x) is float:
        return x
    if isinstance(x, bool) or not isinstance(x, _REALS):
        raise ValueError(f"{name} must be a finite number, got {x!r}")
    try:
        return float(x)
    except OverflowError:  # an int beyond the float range
        raise ValueError(f"{name} must be a finite number, got {x!r}") from None


def real(x, name: str, minimum: float = 0.0, strict: bool = False) -> float:
    """x as a finite float, at least minimum (above it when strict)."""
    x = _number(x, name)
    if not math.isfinite(x):
        raise ValueError(f"{name} must be a finite number, got {x!r}")
    if x < minimum or (strict and x == minimum):
        raise ValueError(f"{name} must be {'>' if strict else '>='} {minimum:g}, got {x!r}")
    return x


def prob(x, name: str = "prevalence", open_zero: bool = False, open_one: bool = False) -> float:
    """x as a probability in [0, 1]; open_zero / open_one exclude an end."""
    x = _number(x, name)
    # NaN fails the first comparison
    if not 0.0 <= x <= 1.0 or (open_zero and x == 0.0) or (open_one and x == 1.0):
        lo, hi = "(" if open_zero else "[", ")" if open_one else "]"
        raise ValueError(f"{name} must lie in {lo}0, 1{hi}, got {x!r}")
    return x


_INT64_MAX = 2**63 - 1


def integer(x, minimum: int, name: str, maximum: int = _INT64_MAX) -> int:
    """x as an int in [minimum, maximum]; the default maximum is the int64
    limit: NumPy draws and indexes with int64, and every int64 is a finite float."""
    if type(x) is not int:  # bool is a subclass of int, not int itself
        if not isinstance(x, np.integer):
            raise ValueError(f"{name} must be an integer, got {x!r}")
        x = int(x)
    if x < minimum:
        raise ValueError(f"{name} must be >= {minimum}, got {x}")
    if x > maximum:
        raise ValueError(f"{name} must be <= {maximum}, got {x}")
    return x


def boolean(x, name: str) -> bool:
    """x as a bool; only bool and NumPy bool are accepted, not 0, None or "no"."""
    if type(x) is bool or isinstance(x, np.bool_):
        return bool(x)
    raise ValueError(f"{name} must be True or False, got {x!r}")


def instance(x, cls: type, name: str, optional: bool = False):
    """x when it is a cls, or None when optional."""
    if isinstance(x, cls) or (optional and x is None):
        return x
    raise ValueError(f"{name} must be a {cls.__name__}{' or None' if optional else ''}, got {x!r}")


def positive_fraction(p: float, b: int) -> float:
    """P(a pool of b holds at least one positive) = 1 - (1-p)^b, for checked p, b."""
    return 1.0 if p == 1.0 else -math.expm1(b * math.log1p(-p))


def exp_or_inf(x: float) -> float:
    """exp(x), or inf where it overflows."""
    try:
        return math.exp(x)
    except OverflowError:
        return math.inf
