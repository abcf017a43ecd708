"""Exception types and input checks shared across the package."""

import operator
import sys


class ConvergenceError(RuntimeError):
    """An iterative solver failed to reach its tolerance.

    Carries the best iterate seen so far in ``best`` when the caller can
    still make use of it.
    """

    def __init__(self, message, best=None, residual=None):
        super().__init__(message)
        self.best = best
        self.residual = residual


class NumericalDomainError(ArithmeticError):
    """An integrand or matrix element evaluated to a non-finite value, or a
    closed-form or oracle bound side or a Bell value left the float range."""


def normal_bound_side(value: float, n: int, source: str) -> float:
    """``value``, or NumericalDomainError naming n when this bound side (or
    a factor of it) is not a positive normal float.  A correlator side that
    underflows is a valid zero ratio; a bound side that does is not."""
    if not sys.float_info.min <= value < float("inf"):
        raise NumericalDomainError(
            f"{source} bound side at n = {n} is outside the normal float range")
    return value


def is_integer(value) -> bool:
    """True for an int or an integer scalar of an array library (``__index__``);
    False for a bool, which is a flag, not a count."""
    if isinstance(value, bool):
        return False
    try:
        operator.index(value)
    except TypeError:
        return False
    return True

