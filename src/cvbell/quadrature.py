"""Gauss-Hermite quadrature against the vacuum weight e^(-2x^2), the named
measurement functions, and their kernel integrals.

Homodyne outcome distributions in this package are built from the harmonic
oscillator ground-state density |psi_0(x)|^2 = sqrt(2/pi) e^(-2x^2) (variance
1/4 convention, a = X + iP).  Every moment the Bell observables need is a
one-dimensional integral of a smooth function against e^(-2x^2), so a scaled
Gauss-Hermite rule integrates them to near machine precision.

The rule for weight e^(-2x^2) follows from the standard e^(-u^2) rule by
u = sqrt(2) x: nodes shrink by 1/sqrt(2) and weights scale by 1/sqrt(2).
The e^(-u^2) rule is computed by Newton's method on the orthonormal Hermite
functions (``_newton_rule``).  At the default orders (DEFAULT_ORDER and
QUICK_ORDER) an exact float64 table is shipped instead, written by
``tools/gen_gauss_hermite_tables.py`` from Golub-Welsch eigenvalues; the two
agree within 1e-15 relative in the nodes and 1e-12 in the weights.

The named functions carry exact kernel integrals (``Identity``, ``SignBin``,
and ``Optimal`` through ``optimal_integrals``), so no rule enters them; a
rule integrates only other callables, as one sum over its positive half.
Everything is computed in plain floats with ``math``: a measurement function
is called on one point at a time, and the module imports no numpy.
"""

from __future__ import annotations

import math
from typing import Callable, NamedTuple, Optional

from .errors import NumericalDomainError, is_integer

#: Default ``--order`` of ``eval``, ``figure1``, ``figure2`` and
#: ``oracle-check``, which validate and record it but build no rule: the
#: functions they integrate carry exact kernel integrals.  On the optimal
#: family as a plain callable the order-256 sums are within 4.6e-14
#: relative of the exact integrals at eps = 2.96, 4.9e-12 at eps = 4 and
#: 2.8e-9 at eps = 6.585.
DEFAULT_ORDER = 256
#: Default order of ``optimize``, the one command that builds a rule: it sums
#: the free function's node values (about 1e-6 relative on the optimal family).
QUICK_ORDER = 64
MAX_ORDER = 512

#: integral of e^(-2x^2) over the line.
GAUSS_NORM = math.sqrt(math.pi / 2.0)
_ODD_TOL = 1e-10  # largest |f(x) + f(-x)| at a node that ``_odd_values`` accepts
_SQRT_PI = math.sqrt(math.pi)
# terms of the erfc continued fraction summed backwards below eps = 1
_FRACTION_TERMS = 80


class QuadratureRule:
    """Nodes/weights integrating f against e^(-2x^2) as sum(weights * f(nodes)).

    Stored as its positive half: ``half_nodes`` strictly increasing and
    positive, ``half_weights`` nonnegative (the outermost ones underflow to 0
    from about order 400), mirrored to the negative axis, plus a node at
    x = 0 of weight ``center_weight`` when the order is odd.  Polynomials of
    degree <= 2*order - 1 are integrated exactly.
    """

    __slots__ = ("order", "half_nodes", "half_weights", "center_weight")

    def __init__(self, order: int, half_nodes: tuple, half_weights: tuple,
                 center_weight: float = 0.0):
        self.order = order
        self.half_nodes = half_nodes
        self.half_weights = half_weights
        self.center_weight = center_weight


def _hermite_functions(recurrence, u: float):
    """(psi_(n-1)(u), psi_n(u)) of the orthonormal Hermite functions.

    psi_k(u) = h_k(u) e^(-u^2/2) with h_k orthonormal against e^(-u^2).
    ``recurrence`` holds the n pairs (sqrt(2/k), sqrt((k-1)/k)) of
    psi_k = sqrt(2/k) u psi_(k-1) - sqrt((k-1)/k) psi_(k-2), a recurrence
    that stays in range for every order up to MAX_ORDER.
    """
    prev, last = 0.0, math.pi ** -0.25 * math.exp(-0.5 * u * u)
    for a, b in recurrence:
        prev, last = last, a * u * last - b * prev
    return prev, last


def _newton_rule(n: int) -> QuadratureRule:
    """Compute the e^(-2x^2) rule with n nodes.

    The positive roots of psi_n, largest first, by Newton's method with
    psi_n' = sqrt(2n) psi_(n-1) - u psi_n, from the asymptotic guesses of the
    ``gauher`` routine (Press et al., *Numerical Recipes*, section 4.5); a
    root is done once a step is below 1e-14 of it.  The weights are
    e^(-u^2) / (n psi_(n-1)(u)^2), at u = 0 too for odd n, normalised to
    sqrt(pi).
    """
    recurrence = [(math.sqrt(2.0 / k), math.sqrt((k - 1) / k)) for k in range(1, n + 1)]
    roots, weights = [], []
    for i in range(n // 2):
        if i == 0:
            u = math.sqrt(2 * n + 1) - 1.85575 * (2 * n + 1) ** (-1.0 / 6.0)
        elif i == 1:
            u -= 1.14 * n ** 0.426 / u
        elif i == 2:
            u = 1.86 * u - 0.86 * roots[0]
        elif i == 3:
            u = 1.91 * u - 0.91 * roots[1]
        else:
            u = 2.0 * u - roots[i - 2]
        for _ in range(10):  # no order up to MAX_ORDER takes more than 5
            prev, last = _hermite_functions(recurrence, u)
            step = last / (math.sqrt(2.0 * n) * prev - u * last)
            u -= step
            if abs(step) <= 1e-14 * u:
                break
        prev, _ = _hermite_functions(recurrence, u)
        roots.append(u)
        weights.append(math.exp(-u * u) / (n * prev * prev))
    center = 0.0
    if n % 2:
        prev, _ = _hermite_functions(recurrence, 0.0)
        center = 1.0 / (n * prev * prev)
    # normalise to sqrt(pi), then scale to e^(-2x^2) by x = u / sqrt(2)
    scale = math.sqrt(math.pi) / (2.0 * math.fsum(weights) + center) / math.sqrt(2.0)
    return QuadratureRule(n, tuple(u / math.sqrt(2.0) for u in reversed(roots)),
                          tuple(w * scale for w in reversed(weights)), center * scale)


def check_order(order) -> int:
    """Return ``order`` as an int; ValueError unless it is an integer in [1, 512]."""
    if not is_integer(order):
        raise ValueError(f"order must be an integer, got {order!r}")
    if not 1 <= order <= MAX_ORDER:
        raise ValueError(f"order must be in [1, {MAX_ORDER}], got {order}")
    return int(order)


def gauss_hermite_rule(order: int) -> QuadratureRule:
    """The e^(-2x^2) rule of the given order.

    Orders 64 and 256 are the exact table of ``_gauss_hermite_tables``;
    every other order is computed by ``_newton_rule``.

    Parameters
    ----------
    order : int
        Number of nodes, 1 <= order <= 512.

    Returns
    -------
    QuadratureRule
    """
    from ._gauss_hermite_tables import POSITIVE_HALF

    n = check_order(order)
    if n not in POSITIVE_HALF:
        return _newton_rule(n)
    return QuadratureRule(n, *POSITIVE_HALF[n])


class KernelIntegrals(NamedTuple):
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


# ---------------------------------------------------------------------------
# named measurement functions
# ---------------------------------------------------------------------------

class MeasurementFunction:
    """An odd real function of a single quadrature outcome.

    Instances are called on one float and return one float.  All concrete
    variants are odd by construction, which the operator builders rely on
    (odd functions have exactly vanishing diagonal Fock elements in the
    qubit subspace).
    """

    __slots__ = ()
    is_odd = True
    label = "abstract"

    def __call__(self, x):
        raise NotImplementedError


class Identity(MeasurementFunction):
    """f(x) = x: plain homodyne outcome, the moment-correlation choice.

    Its kernel integrals are Gaussian moments, carried exactly:
    (Ip, I, I0) = sqrt(pi/2) (1, 3, 1) from int x^2 e^(-2x^2) = sqrt(pi/2)/4
    and int x^4 e^(-2x^2) = 3 sqrt(pi/2)/16.  Any rule of order >= 3
    integrates these moments exactly, so it differs only by roundoff.
    """

    label = "identity"
    exact_integrals = KernelIntegrals(GAUSS_NORM, 3.0 * GAUSS_NORM, GAUSS_NORM)

    def __call__(self, x: float) -> float:
        return float(x)


class Optimal(MeasurementFunction):
    """f(x) = x / (1 + epsilon x^2), the stationary family of the Bell ratio.

    Its kernel integrals are exact, from ``optimal_integrals``.
    """

    __slots__ = ("epsilon",)

    def __init__(self, epsilon: float):
        if not (math.isfinite(epsilon) and epsilon > 0.0):
            raise ValueError(f"epsilon must be positive and finite, got {epsilon!r}")
        self.epsilon = epsilon

    @property
    def label(self) -> str:
        return f"optimal(epsilon={self.epsilon:.12g})"

    def __call__(self, x: float) -> float:
        return x / (1.0 + self.epsilon * (x * x))

    @property
    def exact_integrals(self) -> KernelIntegrals:
        return optimal_integrals(self.epsilon)

    def values_at(self, nodes) -> list:
        eps = float(self.epsilon)
        return [x / (1.0 + eps * (x * x)) for x in nodes]


def _erfc_tails(z: float, eps: float) -> tuple:
    """(D0, D1, D2) of the Laplace continued fraction of erfc (Abramowitz and
    Stegun 7.1.14): sqrt(pi) e^(z^2) erfc(z) = 1/(z + D0) with
    D_k = ((k+1)/2) / (z + D_(k+1)), at z = sqrt(2/eps).

    Where eps >= 1 (z <= sqrt 2) the tails are taken forward from
    ``math.erfc``; the forward recursion loses digits as z grows.  Below,
    they are summed backward over ``_FRACTION_TERMS`` terms, starting from
    the asymptotic tail D (z + D) = (K+1)/2; the fraction converges the more
    slowly the smaller z is.
    """
    if eps >= 1.0:
        d0 = 1.0 / (_SQRT_PI * math.exp(z * z) * math.erfc(z)) - z
        d1 = 0.5 / d0 - z
        return d0, d1, 1.0 / d1 - z
    c = 0.5 * (_FRACTION_TERMS + 1)
    d = c / (0.5 * z + math.hypot(0.5 * z, math.sqrt(c)))
    for k in range(_FRACTION_TERMS - 1, 2, -1):
        d = 0.5 * (k + 1) / (z + d)
    d2 = 1.5 / (z + d)
    d1 = 1.0 / (z + d2)
    return 0.5 / (z + d1), d1, d2


def optimal_integrals(eps: float) -> KernelIntegrals:
    """Exact kernel integrals of x/(1 + eps x^2), for any positive finite eps.

    They follow from G(eps) = int e^(-2x^2)/(1 + eps x^2) dx
    = pi a e^(2a^2) erfc(sqrt2 a), a = eps^(-1/2), and its derivative.  With
    z = sqrt(2/eps), S = sqrt(pi/2) and the tails of ``_erfc_tails`` they are
    products free of cancellation:

    - Ip = 2 z^2 S D0/(z + D0);
    - I0 = S z^3 D1/((z + D0)(z + D1));
    - I  = (4/eps) S z^2 D2/((z + D0)(z + D1)(z + D2)) = 2 S z^4 D2/(...).

    Each power of z is grouped with a factor that cancels its growth (z D_k
    tends to (k+1)/2 as eps -> 0, z/(z + D_k) to 1), so nothing overflows
    as eps -> 0, and as eps -> infinity only values below the float range
    underflow.  Within 1e-14 relative of 40-digit mpmath over
    eps in [1e-3, 50].
    """
    # two roundings; 2/eps overflows below 1.1e-308, where z takes three
    z = math.sqrt(2.0 / eps) if eps > 1e-300 else math.sqrt(2.0) / math.sqrt(eps)
    d0, d1, d2 = _erfc_tails(z, eps)
    g0 = GAUSS_NORM * (z / (z + d0))
    g1 = g0 * (z / (z + d1))
    return KernelIntegrals(i_plus=2.0 * g0 * (z * d0),
                           i_cross=2.0 * g1 * (z / (z + d2)) * (z * d2),
                           i_zero=g1 * (z * d1))


class SignBin(MeasurementFunction):
    """Binary binning of the outcome: +1 for x >= 0, -1 otherwise.

    The threshold sits exactly at 0 with f(0) = +1 (a measure-zero choice,
    fixed for determinism).  Its kernel integrals are exact, since a
    quadrature rule sees the jump at 0 and converges only algebraically:
    4 int |x| e^(-2x^2) = 2 and 4 int e^(-2x^2) = 16 int x^2 e^(-2x^2) = 4 sqrt(pi/2).
    """

    label = "sign_bin"
    exact_integrals = KernelIntegrals(2.0, 4.0 * GAUSS_NORM, 4.0 * GAUSS_NORM)

    def __call__(self, x: float) -> float:
        return 1.0 if x >= 0.0 else -1.0


# ---------------------------------------------------------------------------
# kernel integrals
# ---------------------------------------------------------------------------

def _value_at(f, x: float) -> float:
    """f(x) as a float; ValueError naming x unless f returns one real number."""
    value = f(x)
    try:
        len(value)  # a sequence, a string or an array of more than one point
    except TypeError:
        try:
            return float(value)
        except (TypeError, ValueError):
            pass
    raise ValueError(f"measurement function must return one real number, "
                     f"got {type(value).__name__} at x={x!r}")


def _odd_values(f: Callable, nodes) -> list:
    """The values of f at the positive ``nodes``, called once per node;
    ValueError unless f(-x) = -f(x) there.

    A function declaring ``is_odd`` (every ``MeasurementFunction``) is taken
    at its word; any other callable is called once more at each mirror.  A
    value that is not finite at a positive node is left to the caller's
    finiteness check; one that is not finite at its mirror alone fails here.
    """
    values = [_value_at(f, x) for x in nodes]
    if not getattr(f, "is_odd", False):
        for x, fx in zip(nodes, values):
            gap = abs(fx + _value_at(f, -x))
            if math.isfinite(fx) and not gap <= _ODD_TOL:  # a nan gap fails too
                raise ValueError(f"measurement function is not odd: "
                                 f"|f(x)+f(-x)| = {gap:.3e} at x={x!r}")
    return values


def _node_integrals(nodes, weights, values) -> KernelIntegrals:
    """Kernel integrals of the odd function with ``values`` at the positive
    ``nodes``, summed in plain floats from the outermost node inwards; the
    integrands are even, so each node counts twice."""
    s_xf = s_xxff = s_ff = 0.0
    for x, w, v in zip(reversed(nodes), reversed(weights), reversed(values)):
        wv = w * v
        wvv = wv * v
        s_xf += wv * x
        s_ff += wvv
        s_xxff += wvv * (x * x)
    return KernelIntegrals(i_plus=8.0 * s_xf, i_cross=32.0 * s_xxff, i_zero=8.0 * s_ff)


def node_values(f, nodes) -> list:
    """The values of f at ``nodes`` as a list of floats: ``Optimal`` in one
    pass, any other callable once per node, where it must return one real
    number (a callable that works only on arrays fails)."""
    if isinstance(f, Optimal):
        return f.values_at(nodes)
    return [_value_at(f, x) for x in nodes]


def kernel_integrals(f, rule: Optional[QuadratureRule] = None) -> KernelIntegrals:
    """The three kernel integrals of an odd function f.

    A ``KernelIntegrals`` is returned as it is, so it can stand in for its
    function.  The named functions carry their ``exact_integrals`` and do not
    read the rule (for sign binning, whose jump a rule resolves only
    algebraically, they are the only correct values).  Any other callable is
    summed by ``_node_integrals`` over the positive half of ``rule``, which
    it then needs, called once per node and once per mirror
    (``_odd_values``); a node at x = 0 counts once, in ``i_zero`` alone.
    ValueError for a non-callable, a free callable without a rule, a function
    that is not odd or not one real number at a node, NumericalDomainError
    for one not finite at a node.
    """
    if isinstance(f, KernelIntegrals):
        return f
    exact = getattr(f, "exact_integrals", None)
    if exact is not None:
        return exact
    if not callable(f):
        raise ValueError(f"expected a measurement function or callable, got {type(f)!r}")
    if rule is None:
        raise ValueError("a free callable has no exact kernel integrals: "
                         "a quadrature rule is needed to sum it")
    nodes, weights = rule.half_nodes, rule.half_weights
    values = _odd_values(f, nodes)
    if rule.order % 2:
        # half the weight of x = 0, which the sums count twice
        nodes, weights = (0.0,) + nodes, (0.5 * rule.center_weight,) + weights
        values.insert(0, _value_at(f, 0.0))
    for x, v in zip(nodes, values):
        if not math.isfinite(v):
            raise NumericalDomainError(f"measurement function not finite at node x={x!r}")
    return _node_integrals(nodes, weights, values)
