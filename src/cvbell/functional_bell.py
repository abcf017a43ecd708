"""Closed-form Bell observables of the two moment inequalities.

``moment_function`` is the one place that picks each one's measurement
function: the optimized x/(1 + eps x^2) for ``functional``, the identity for
``cfrd`` (plain moments).  All formulas here reduce the N-mode trace
expressions to products of the three kernel integrals of a single odd
function.  They are exact for any member of the family (and for the
identity), not just at the stationary eps; the test suite checks them
against the Fock-space oracle to machine precision.

Noise conventions.  Detector efficiency eta enters per mode; the surviving
coherence carries sqrt(eta) per site and the bound side mixes the excited-
and ground-level weights through C = eta*I + (1 - eta)*I0.  State impurity p
scales only the two off-diagonal entries of the density matrix, so the
correlator side scales by p and the ratio by p^2, independent of N.  The
per-site decoherence-product forms that treat eta*p^2 (binned) or (eta p)^2
(functional) as a single per-mode monomial live with the threshold solvers.

The optimal family's kernel integrals are exact (``optimal_integrals``), as
the identity's are, so no number here depends on a quadrature rule and no
function here reads one.

The module computes in plain floats and imports no numpy.  ``BellResult``,
which the oracle returns as well, is defined here.
"""

from __future__ import annotations

import math
import sys
from typing import NamedTuple, Optional

from .errors import ConvergenceError, NumericalDomainError, normal_bound_side
from .quadrature import Identity, KernelIntegrals, Optimal, kernel_integrals, optimal_integrals
from .scenario import INEQUALITIES, StateSpec

#: Fixed point of eps = 4*I0(eps)/I(eps) on the exact integrals: the noise-free
#: optimal function.  ``_bracketed_root`` from 1.0 at tolerance 1e-13
#: re-derives it bit for bit; it is within 8.1e-15 relative of the fixed
#: point of 40-digit mpmath.
IDEAL_EPSILON = 2.9648362177238927
_MAX_EVALS = 100
_ULPS = 4   # a bracket this many float spacings wide pins the root


class BellResult(NamedTuple):
    """One inequality evaluation: correlator side, bound side, and their ratio."""

    lhs: float
    rhs: float
    ratio: float
    function_id: str


class EpsilonSolution(NamedTuple):
    """Solved parameters of the optimal measurement function.

    ``epsilon_ideal`` is the ratio 4*I0/I at the converged function (the
    noise-free fixed point when eta = 1); ``epsilon_lossy`` is its
    loss-adjusted image 2*eta*e/(2*eta + (1-eta)*e); ``epsilon_odd`` is the
    additional odd-N correction and is None for even solves.  ``residual``
    is the final fixed-point defect.
    """

    epsilon_ideal: float
    epsilon_lossy: float
    epsilon_odd: Optional[float]
    residual: float


def lossy_epsilon_map(eps: float, eta: float) -> float:
    """Loss adjustment of the function parameter: 2*eta*e / (2*eta + (1-eta)*e)."""
    return 2.0 * eta * eps / (2.0 * eta + (1.0 - eta) * eps)


def _integral_epsilon(eps: float, integrals=optimal_integrals) -> float:
    """The integral ratio 4*I0/I of the family member x/(1 + eps x^2), whose
    kernel integrals ``integrals`` maps eps to (by default the exact ones)."""
    ki = integrals(eps)
    return 4.0 * ki.i_zero / ki.i_cross


def _bracketed_root(h, x: float, tol: float, name: str,
                    lo: float = 0.0, hi: float = math.inf, hx=None) -> float:
    """Root of h in (lo, hi), where h > 0 below the root and h < 0 above it.

    h returns its value, or a (value, slope) pair for a Newton step; without
    a slope the step is the secant through the last two evaluated points,
    the first one x + h(x) (the plain update when h(x) = T(x) - x).  Every
    evaluation narrows the bracket (lo, hi).  A step that leaves it, or that
    is not shorter than half the step before last (Brent's guard: on a map
    that is nearly a step, secants creep along one end of the bracket), is
    replaced by the bracket's geometric midpoint (the root's scale is
    unknown), by hi/2 while no lower end is known, or by x + h(x) while no
    upper end is.  Returns an evaluated point with |h| <= tol, or, once the
    bracket is a few ulps wide and the root is pinned to float precision,
    the evaluated point of smallest |h|.  ``hx`` is h(x) if already known.
    """
    best = (math.inf, x)
    prev = None
    last = before_last = math.inf
    for _ in range(_MAX_EVALS):
        out = h(x) if hx is None else hx
        value, slope = out if isinstance(out, tuple) else (out, None)
        hx = None
        best = min(best, (abs(value), x))
        if abs(value) <= tol:
            return x
        lo, hi = (x, hi) if value > 0.0 else (lo, x)
        # an open bracket (hi = inf) is never narrow, whatever inf's ulp is
        if hi < math.inf and hi - lo <= _ULPS * math.ulp(hi):
            return best[1]
        if slope is not None:
            step = -value / slope if slope < 0.0 else math.inf
        elif prev is None:
            step = value
        else:
            dh = value - prev[1]
            step = -value * (x - prev[0]) / dh if dh != 0.0 else math.inf
        nxt = x + step
        if not (lo < nxt < hi and abs(step) < 0.5 * before_last):
            if hi < math.inf:
                nxt = math.sqrt(lo * hi) if lo > 0.0 else 0.5 * hi
            else:
                nxt = x + value
        prev, before_last, last, x = (x, value), last, abs(nxt - x), nxt
    raise ConvergenceError(
        f"{name} root did not converge in {_MAX_EVALS} evaluations",
        best=best[1], residual=best[0],
    )


def ideal_epsilon(rule=None) -> float:
    """Fixed point of eps = 4*I0(eps)/I(eps): ``IDEAL_EPSILON``.
    ``rule`` is not read; perfbench still passes one (ROADMAP item 9)."""
    return IDEAL_EPSILON


def _check_eta(eta: float) -> None:
    if not (math.isfinite(eta) and 0.0 < eta <= 1.0):
        raise ValueError(f"eta must lie in (0, 1], got {eta!r}")


def _split_weights(c: float, s: int) -> tuple:
    """Shares (w, v) of C^r I0^(n-r) and I0^r C^(n-r) in the bound side's sum.

    r <= n/2, s = n - 2r and c = C/I0: v is the logistic of s ln c, so no
    power overflows; the smaller share may underflow to zero.
    """
    t = math.exp(-s * abs(math.log(c)))
    return (t / (1.0 + t), 1.0 / (1.0 + t)) if c > 1.0 else (1.0 / (1.0 + t), t / (1.0 + t))


def _stationary_update(n: int, r: int, eta: float, e: float) -> float:
    """One application of the stationarity relation of the closed-form ratio.

    Its f-variation vanishes at f = x/(1 + eps x^2) with eps = 4 eta d_C /
    ((1 - eta) d_C + d_0), d_C and d_0 the partials of
    ln(C^r I0^(n-r) + I0^r C^(n-r)) in C and I0, symmetric under r <-> n - r,
    so s = n - 2r >= 0.  With (w, v) the term shares of ``_split_weights``,
    C d_C = r + s v and I0 d_0 = r + s w.
    The integrals enter only as c = C/I0 = 1 - eta + 4 eta/e, e = 4*I0/I;
    eps is ``lossy_epsilon_map(e, eta)`` times a split correction, 1 at r = n/2.
    """
    c = 1.0 - eta + 4.0 * eta / e
    r = min(r, n - r)
    s = n - 2 * r
    w, v = _split_weights(c, s)
    k = 1.0 - eta + c
    return lossy_epsilon_map(e, eta) * (r + s * v) / (r + s * ((1.0 - eta) * v + c * w) / k)


def optimal_epsilon(n: int, r: int, eta: float, *, integrals=optimal_integrals) -> float:
    """Function parameter maximizing the closed-form ratio at split r of n modes:
    the root of ``_stationary_update`` at the integrals of eps itself; raises
    NumericalDomainError where a term weight or the function underflows.

    ``integrals`` maps eps to the kernel integrals of x/(1 + eps x^2): the
    exact ones by default, or a rule's sums of them for the optimum that an
    optimizer over that rule's nodes lands on (``variational.family_integrals``).
    """
    _check_eta(eta)
    if not 0 <= r <= n:
        raise ValueError(f"split r must lie in [0, {n}], got {r}")
    try:
        return _bracketed_root(
            lambda x: _stationary_update(n, r, eta, _integral_epsilon(x, integrals)) - x,
            IDEAL_EPSILON, 1e-12, "stationarity",
        )
    except ZeroDivisionError:
        raise NumericalDomainError(
            f"optimal function at n = {n}, r = {r} leaves the float range") from None


def solve_epsilon_even(eta: float, rule=None) -> EpsilonSolution:
    """Optimal function parameter for even mode counts at efficiency eta.
    ``rule`` is not read; perfbench still passes one (ROADMAP item 9).

    The stationarity relation at r = N/2 is the loss adjustment of the
    integral ratio, iterated together with it; the result does not depend on
    N.  Mapping the noise-free fixed point once through the loss adjustment
    instead undershoots the maximized ratio by O(1e-3) relative at eta ~ 0.8.
    """
    _check_eta(eta)
    if eta == 1.0:
        eps = IDEAL_EPSILON
        return EpsilonSolution(epsilon_ideal=eps, epsilon_lossy=eps, epsilon_odd=None,
                               residual=abs(eps - _integral_epsilon(eps)))
    eps_l = optimal_epsilon(2, 1, eta)
    eps = _integral_epsilon(eps_l)
    return EpsilonSolution(epsilon_ideal=eps, epsilon_lossy=eps_l, epsilon_odd=None,
                           residual=abs(eps_l - _stationary_update(2, 1, eta, eps)))


def solve_epsilon_odd(n: int, eta: float, rule=None) -> EpsilonSolution:
    """Optimal function parameter for odd mode counts: ``optimal_epsilon`` at
    r = (N-1)/2, with the integral ratio and the residual at that root.
    ``rule`` is not read; perfbench still passes one (ROADMAP item 9).

    The relation is N-dependent and coupled: the integrals are evaluated at
    the returned ``epsilon_odd`` itself.
    """
    if n < 3 or n % 2 == 0:
        raise ValueError(f"n must be an odd integer >= 3, got {n}")
    eps_p = optimal_epsilon(n, n // 2, eta)
    eps = _integral_epsilon(eps_p)
    return EpsilonSolution(
        epsilon_ideal=eps,
        epsilon_lossy=lossy_epsilon_map(eps, eta),
        epsilon_odd=eps_p,
        residual=abs(eps_p - _stationary_update(n, n // 2, eta, eps)),
    )


# ---------------------------------------------------------------------------
# closed-form Bell values
# ---------------------------------------------------------------------------

def closed_form_sides(n: int, r: int, eta: float, p: float,
                      ki: KernelIntegrals) -> tuple:
    """Correlator and bound sides at the maximizing orthogonal angles.

    Valid for any split r and any odd f used on both quadratures of every
    site.  The correlator keeps the single surviving coherence route, which
    carries p and sqrt(eta)^N; the bound side is angle-invariant and mixes
    the per-mode weights through C = eta*I + (1-eta)*I0.

    Raises NumericalDomainError, the one check of this closed form's range,
    when the bound side or its prefactor 0.5 (2/pi)^(n/2) 2^-n leaves the
    normal floats (at eta = 1: from n = 331 for the optimal function,
    n = 771 for the identity).  A correlator side that underflows to zero is
    kept: it is a valid zero ratio.
    """
    ip, ii, i0 = ki.i_plus, ki.i_cross, ki.i_zero
    c = eta * ii + (1.0 - eta) * i0
    scale = normal_bound_side(0.5 * (2.0 / math.pi) ** (n / 2.0) * 2.0 ** (-n), n, "closed-form")
    try:
        rhs = scale * (c ** r * i0 ** (n - r) + i0 ** r * c ** (n - r))
    except OverflowError:
        rhs = math.inf
    rhs = normal_bound_side(rhs, n, "closed-form")
    lhs = 0.25 * p * p * eta ** n * (2.0 / math.pi) ** n * ip ** (2 * n)
    return lhs, rhs


def closed_form_log_ratio(n: int, r: int, eta: float, p: float,
                          ki: KernelIntegrals) -> tuple:
    """ln B of ``closed_form_sides`` and its slope d ln B / d eta at fixed f.

    B = 0.5 p^2 (8 eta^2 Ip^4 / pi)^(n/2) / (C^r I0^(n-r) + I0^r C^(n-r)),
    taken in logs with r <= n/2 and the sum factored through its larger
    share (``_split_weights``), so nothing leaves the float range.  The slope
    is n/eta - (I - I0)(r + s v)/C.  At the function of ``optimal_epsilon``
    the ratio is stationary in eps, so by the envelope theorem this is also
    the slope of the maximized ratio.
    """
    ip, ii, i0 = ki.i_plus, ki.i_cross, ki.i_zero
    c = eta * ii + (1.0 - eta) * i0
    r = min(r, n - r)
    s = n - 2 * r
    w, v = _split_weights(c / i0, s)
    log_sum = r * math.log(c * i0) + s * math.log(max(c, i0)) - math.log(max(w, v))
    # a product below the normal floats (p or eta under about 1e-162) has
    # lost digits or is 0, so its log is then summed from its factors' logs
    pp = 0.5 * p * p
    a = 8.0 * eta * eta * ip ** 4 / math.pi
    log_pp = math.log(pp) if pp >= sys.float_info.min else math.log(0.5) + 2.0 * math.log(p)
    log_a = (math.log(a) if a >= sys.float_info.min
             else math.log(8.0 / math.pi) + 2.0 * math.log(eta) + 4.0 * math.log(abs(ip)))
    log_ratio = log_pp + 0.5 * n * log_a - log_sum
    return log_ratio, n / eta - (ii - i0) * (r + s * v) / c


def moment_function(inequality: str, n: int, r: int, eta: float):
    """The measurement function of a moment inequality at split r of n modes
    and efficiency eta: x/(1 + eps x^2) at the eps of ``optimal_epsilon`` for
    ``functional``, the identity for ``cfrd`` (plain moments).  ValueError
    for any other name; the binned ``mk`` has no moment function."""
    if inequality == "functional":
        return Optimal(optimal_epsilon(n, r, eta))
    if inequality == "cfrd":
        return Identity()
    raise ValueError(f"{inequality!r} is not a moment inequality; "
                     f"of {INEQUALITIES} only 'functional' and 'cfrd' are")


def bell_value(spec: StateSpec, inequality: str = "functional") -> BellResult:
    """Closed-form Bell observable of a moment inequality at any split r, at
    the function of ``moment_function`` (for ``functional`` the root of the
    stationarity relation of the closed-form ratio at (N, r, eta)).  The name
    is checked first; NumericalDomainError names an N beyond the float range
    in the solve (from N = 1246 at r = 0, eta = 1) or in ``closed_form_sides``."""
    n, r, eta = spec.n_modes, spec.r_split, spec.efficiency
    f = moment_function(inequality, n, r, eta)
    lhs, rhs = closed_form_sides(n, r, eta, spec.purity, kernel_integrals(f))
    return BellResult(lhs=lhs, rhs=rhs, ratio=lhs / rhs, function_id=f.label)
