"""Exception types shared across the package."""


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
    closed-form side or Bell value left the float range."""


class ResourceLimitError(RuntimeError):
    """A request would exceed the hard memory guard of the Fock-space model."""


class MonotonicityError(RuntimeError):
    """A root bracket failed in a regime where the curve is known monotone.

    This is an internal-consistency failure, not a user error: it means an
    assumption the solvers rely on has been violated and results cannot be
    trusted.
    """
