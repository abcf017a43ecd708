"""Closed-form Bell observables for the optimized functional inequality.

All formulas here reduce the N-mode trace expressions to products of the
three kernel integrals of a single odd measurement function.  They are exact
for any member of the x/(1 + eps x^2) family (and for the identity), not just
at the stationary eps; the test suite checks them against the Fock-space
oracle to machine precision.

Noise conventions.  Detector efficiency eta enters per mode; the surviving
coherence carries sqrt(eta) per site and the bound side mixes the excited-
and ground-level weights through C = eta*I + (1 - eta)*I0.  State impurity p
scales only the two off-diagonal entries of the density matrix, so the
correlator side scales by p and the ratio by p^2, independent of N.  The
per-site decoherence-product forms that treat eta*p^2 (binned) or (eta p)^2
(functional) as a single per-mode monomial live with the threshold solvers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import ConvergenceError
from .model import Identity, Optimal, StateSpec
from .oracle import BellResult, orthogonal_angles
from .quadrature import KernelIntegrals, QuadratureRule, kernel_integrals

_IDEAL_CACHE: dict = {}   # rule order -> ideal fixed point; write-once per key
_MAX_ITER = 10_000

EPSILON_READINGS = ("literal", "matched")


@dataclass(frozen=True)
class EpsilonSolution:
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


def _integral_epsilon(eps: float, rule: QuadratureRule) -> float:
    """The integral ratio 4*I0/I of the family member x/(1 + eps x^2)."""
    ki = kernel_integrals(Optimal(eps), rule)
    return 4.0 * ki.i_zero / ki.i_cross


def _damped_fixed_point(update, x: float, tol: float, name: str) -> float:
    """Iterate x <- x/2 + update(x)/2 until a step is shorter than tol."""
    for _ in range(_MAX_ITER):
        target = update(x)
        nxt = 0.5 * x + 0.5 * target
        if abs(nxt - x) < tol:
            return nxt
        x = nxt
    raise ConvergenceError(
        f"{name} fixed point did not converge in {_MAX_ITER} iterations",
        best=x, residual=abs(target - x),
    )


def ideal_epsilon(rule: QuadratureRule) -> float:
    """Fixed point of eps = 4*I0(eps)/I(eps), cached per rule order."""
    cached = _IDEAL_CACHE.get(rule.order)
    if cached is None:
        cached = _damped_fixed_point(lambda e: _integral_epsilon(e, rule), 1.0, 1e-13, "ideal")
        _IDEAL_CACHE[rule.order] = cached
    return cached


def _check_eta(eta: float) -> None:
    if not (np.isfinite(eta) and 0.0 < eta <= 1.0):
        raise ValueError(f"eta must lie in (0, 1], got {eta!r}")


def solve_epsilon_even(eta: float, rule: QuadratureRule) -> EpsilonSolution:
    """Optimal function parameter for even mode counts at efficiency eta.

    The loss adjustment and the integral ratio are iterated together, which
    is the true stationary point of the ratio: the free numeric maximization
    lands on it to within its search tolerance.  Mapping the noise-free fixed
    point once through the loss adjustment instead undershoots the maximized
    ratio by O(1e-3) relative at eta ~ 0.8.
    """
    _check_eta(eta)
    eps_star = ideal_epsilon(rule)
    resid_ideal = abs(eps_star - _integral_epsilon(eps_star, rule))
    if eta == 1.0:
        return EpsilonSolution(
            epsilon_ideal=eps_star,
            epsilon_lossy=lossy_epsilon_map(eps_star, eta),
            epsilon_odd=None,
            residual=resid_ideal,
        )
    eps_l = _damped_fixed_point(
        lambda e: lossy_epsilon_map(_integral_epsilon(e, rule), eta), eps_star, 1e-12, "lossy"
    )
    eps_tilde = _integral_epsilon(eps_l, rule)
    resid = abs(eps_l - lossy_epsilon_map(eps_tilde, eta))
    return EpsilonSolution(
        epsilon_ideal=eps_tilde,
        epsilon_lossy=eps_l,
        epsilon_odd=None,
        residual=max(resid, resid_ideal),
    )


def _odd_update(n: int, eps: float, eta: float, reading: str) -> float:
    """One application of the odd-N stationarity relations at given integrals."""
    eps_l = lossy_epsilon_map(eps, eta)
    e_minus = eps - 4.0
    e_plus_l = eps_l + 4.0
    num = n * e_plus_l - eps_l * e_minus / eps
    if reading == "literal":
        den = n * e_plus_l + eps_l * eps_l * e_minus / (eps * eps)
    elif reading == "matched":
        den = n * e_plus_l + eps_l * e_minus / eps
    else:
        raise ValueError(f"unknown reading {reading!r}; use one of {EPSILON_READINGS}")
    return eps_l * num / den


def solve_epsilon_odd(n: int, eta: float, rule: QuadratureRule, *,
                      reading: str = "literal") -> EpsilonSolution:
    """Optimal function parameter for odd mode counts.

    The relations are N-dependent and coupled: the integrals are evaluated at
    the returned ``epsilon_odd`` itself, so the solve iterates the whole
    system.  Two algebraic readings of the lossy denominator are implemented;
    ``"literal"`` carries the asymmetric eps^2 power and is the one the
    numeric maximization confirms, ``"matched"`` symmetrizes the power the
    way the noise-free relation does.  Both coincide at eta = 1.
    """
    if n < 3 or n % 2 == 0:
        raise ValueError(f"n must be an odd integer >= 3, got {n}")
    _check_eta(eta)
    if reading not in EPSILON_READINGS:
        raise ValueError(f"unknown reading {reading!r}; use one of {EPSILON_READINGS}")

    eps_p = _damped_fixed_point(
        lambda e: _odd_update(n, _integral_epsilon(e, rule), eta, reading),
        ideal_epsilon(rule), 1e-12, "odd",
    )
    eps = _integral_epsilon(eps_p, rule)
    return EpsilonSolution(
        epsilon_ideal=eps,
        epsilon_lossy=lossy_epsilon_map(eps, eta),
        epsilon_odd=eps_p,
        residual=abs(eps_p - _odd_update(n, eps, eta, reading)),
    )


def optimal_epsilon(n: int, eta: float, rule: QuadratureRule) -> float:
    """Function parameter maximizing the canonical-split ratio at n modes.

    The loss-adjusted even solution for even n, the odd solution for odd n.
    """
    if n % 2 == 0:
        return solve_epsilon_even(eta, rule).epsilon_lossy
    return solve_epsilon_odd(n, eta, rule).epsilon_odd


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
    """
    ip, ii, i0 = ki.i_plus, ki.i_cross, ki.i_zero
    c = eta * ii + (1.0 - eta) * i0
    two_over_pi = 2.0 / np.pi
    lhs = 0.25 * p * p * eta ** n * two_over_pi ** n * ip ** (2 * n)
    rhs = 0.5 * two_over_pi ** (n / 2.0) * 2.0 ** (-n) * (
        c ** r * i0 ** (n - r) + i0 ** r * c ** (n - r)
    )
    return lhs, rhs


def _canonical_split(n: int) -> int:
    return n // 2


def bell_value(spec: StateSpec, rule: QuadratureRule) -> BellResult:
    """Closed-form Bell observable at the optimized measurement function.

    Supports the maximizing splits only (r = N/2 for even N, r = (N-1)/2 for
    odd N); other splits have no closed form here and belong to the numeric
    oracle.
    """
    n, r = spec.n_modes, spec.r_split
    if r != _canonical_split(n):
        raise ValueError(
            f"closed form covers r = {_canonical_split(n)} for n = {n}; "
            f"got r = {r}. Use the oracle for other splits."
        )
    eta, p = spec.efficiency, spec.purity
    f = Optimal(optimal_epsilon(n, eta, rule))
    ki = kernel_integrals(f, rule)
    lhs, rhs = closed_form_sides(n, r, eta, p, ki)
    return BellResult(
        lhs=lhs, rhs=rhs, ratio=lhs / rhs,
        inequality_id="functional",
        function_id=f.label,
        angles=orthogonal_angles(n, r),
    )


def cfrd_bell_value(spec: StateSpec, rule: QuadratureRule) -> BellResult:
    """Bell observable for plain moment correlations (f = g = identity).

    All integrals are Gaussian moments, so the closed form holds for every
    split r, matching the oracle path exactly.
    """
    n, r = spec.n_modes, spec.r_split
    f = Identity()
    ki = kernel_integrals(f, rule)
    lhs, rhs = closed_form_sides(n, r, spec.efficiency, spec.purity, ki)
    return BellResult(
        lhs=lhs, rhs=rhs, ratio=lhs / rhs,
        inequality_id="cfrd",
        function_id=f.label,
        angles=orthogonal_angles(n, r),
    )
