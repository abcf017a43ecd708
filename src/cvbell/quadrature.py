"""Gauss-Hermite quadrature against the vacuum weight e^(-2x^2).

Homodyne outcome distributions in this package are built from the harmonic
oscillator ground-state density |psi_0(x)|^2 = sqrt(2/pi) e^(-2x^2) (variance
1/4 convention, a = X + iP).  Every moment the Bell observables need is a
one-dimensional integral of a smooth function against e^(-2x^2), so a scaled
Gauss-Hermite rule integrates them to near machine precision.

The rule for weight e^(-2x^2) follows from the standard e^(-u^2) rule by
u = sqrt(2) x: nodes shrink by 1/sqrt(2) and weights scale by 1/sqrt(2).
The e^(-u^2) rule is built here with numpy alone, by one method for every
order: Golub-Welsch eigenvalues of the Jacobi matrix, polished by Newton
steps on the orthonormal Hermite functions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import NumericalDomainError

#: Production default; doubling it changes the kernel integrals of the
#: optimal family by < 1e-12 relative while 2*order stays within MAX_ORDER.
DEFAULT_ORDER = 256
#: Cheap order for optimizer inner loops (~1e-6 relative on the same family).
QUICK_ORDER = 64
MAX_ORDER = 512

#: integral of e^(-2x^2) over the line.
GAUSS_NORM = np.sqrt(np.pi / 2.0)
_ODD_TOL = 1e-10  # largest |f(x) + f(-x)| at a node that ``check_odd`` accepts


@dataclass(frozen=True)
class QuadratureRule:
    """Nodes/weights integrating f against e^(-2x^2) as sum(weights * f(nodes)).

    Nodes are strictly increasing and symmetric about 0; weights are
    nonnegative and symmetric (the outermost ones underflow to 0 from about
    order 400); polynomials of degree <= 2*order - 1 are integrated exactly.
    """

    order: int
    nodes: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "nodes", np.asarray(self.nodes, dtype=float))
        object.__setattr__(self, "weights", np.asarray(self.weights, dtype=float))

    @property
    def positive_nodes(self) -> np.ndarray:
        return self.nodes[self.nodes > 0.0]


def _hermite_functions(n: int, u: np.ndarray):
    """(psi_{n-1}(u), psi_n(u)) of the orthonormal Hermite functions.

    psi_k(u) = h_k(u) e^(-u^2/2) with h_k orthonormal against e^(-u^2); the
    three-term recurrence stays in range for every order up to MAX_ORDER.
    """
    prev = np.zeros_like(u)
    last = np.pi ** -0.25 * np.exp(-0.5 * u * u)
    for k in range(n):
        prev, last = last, np.sqrt(2.0 / (k + 1)) * u * last - np.sqrt(k / (k + 1)) * prev
    return prev, last


def gauss_hermite_rule(order: int) -> QuadratureRule:
    """Build the e^(-2x^2) rule of the given order.

    The e^(-u^2) nodes are the eigenvalues of the Jacobi matrix (zero
    diagonal, off-diagonal sqrt(k/2)), polished by two Newton steps on
    psi_order, whose derivative at a root is sqrt(2 order) psi_(order-1).  The
    weights are e^(-u^2) / (order psi_(order-1)(u)^2), symmetrised and
    normalised to sqrt(pi).

    Parameters
    ----------
    order : int
        Number of nodes, 1 <= order <= 512.

    Returns
    -------
    QuadratureRule
    """
    if not isinstance(order, (int, np.integer)) or isinstance(order, bool):
        raise ValueError(f"order must be an integer, got {order!r}")
    if not 1 <= order <= MAX_ORDER:
        raise ValueError(f"order must be in [1, {MAX_ORDER}], got {order}")
    n = int(order)
    off = np.sqrt(np.arange(1, n) / 2.0)
    u = np.linalg.eigvalsh(np.diag(off, 1) + np.diag(off, -1))
    for _ in range(2):
        prev, last = _hermite_functions(n, u)
        u = u - last / (np.sqrt(2.0 * n) * prev - u * last)
    prev, _ = _hermite_functions(n, u)
    w = np.exp(-u * u) / (n * prev * prev)
    u = 0.5 * (u - u[::-1])
    w = 0.5 * (w + w[::-1])
    w *= np.sqrt(np.pi) / w.sum()
    return QuadratureRule(order=n, nodes=u / np.sqrt(2.0), weights=w / np.sqrt(2.0))


@dataclass(frozen=True)
class KernelIntegrals:
    """The three moments of one odd measurement function f that set the Bell ratio:

    - ``i_plus``  = 2 * int e^(-2x^2) x * 2f(x) dx       (linear moment)
    - ``i_cross`` = 4 * int x^2 e^(-2x^2) * 4f(x)^2 dx   (excited-level weight)
    - ``i_zero``  =     int e^(-2x^2) * 4f(x)^2 dx       (ground-level weight)

    They are per function: the oracle reads them for f and for g, the closed
    forms use them with g = f on both quadratures of a site (the stationary
    choice, so f + g = 2f and f - g drops out).  i_cross and i_zero are
    positive for any nonzero f; the linear moment of an even function would
    vanish, which is why only odd functions are accepted.
    """

    i_plus: float
    i_cross: float
    i_zero: float


def check_odd(f: Callable, rule: QuadratureRule) -> None:
    """Raise ValueError unless f(-x) = -f(x) at the rule's nonzero nodes.

    A function declaring ``is_odd`` (every ``MeasurementFunction``) is odd by
    construction and passes at once.  Other callables arrive as opaque
    evaluators, so their oddness is checked by sampling.  A node at exactly
    x = 0 is skipped: odd functions with a jump there (sign binning) carry an
    arbitrary convention at the single point.
    """
    if getattr(f, "is_odd", False):
        return
    x = rule.positive_nodes
    resid = np.max(np.abs(np.asarray(f(x)) + np.asarray(f(-x)))) if x.size else 0.0
    if resid > _ODD_TOL:
        raise ValueError(f"measurement function is not odd: max |f(x)+f(-x)| = {resid:.3e}")


def kernel_integrals(f: Callable, rule: QuadratureRule) -> KernelIntegrals:
    """The three kernel integrals of an odd function f, or the ``exact_integrals``
    it carries (sign binning, whose jump a rule resolves only algebraically).
    ValueError for a non-callable or a function that is not odd."""
    exact = getattr(f, "exact_integrals", None)
    if exact is not None:
        return exact
    if not callable(f):
        raise ValueError(f"expected a measurement function or callable, got {type(f)!r}")
    check_odd(f, rule)
    x = rule.nodes
    fx = np.asarray(f(x), dtype=float)
    if not np.isfinite(fx).all():
        node = x[~np.isfinite(fx)][0]
        raise NumericalDomainError(f"measurement function not finite at node x={node!r}")
    w = rule.weights
    i_plus = 4.0 * float(np.dot(w, x * fx))
    i_cross = 16.0 * float(np.dot(w, x * x * fx * fx))
    i_zero = 4.0 * float(np.dot(w, fx * fx))
    return KernelIntegrals(i_plus=i_plus, i_cross=i_cross, i_zero=i_zero)
