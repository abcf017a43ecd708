"""Critical detection efficiency, purity, and decoherence-product thresholds.

A threshold is the parameter value at which the Bell ratio B, taken at the
split r = N // 2 of ``scenario.canonical_split``, reaches 1.  Wherever B is an
explicit function of the swept parameter the threshold is its exact inverse:

- purity, functional and CFRD: the correlator side scales as p^2, the bound
  side and the optimal function do not depend on p, so p_c = B(eta, 1)^(-1/2);
- purity, binned (MK): the product inversion p_c = sqrt(2^((1-2N)/N) pi / eta);
- efficiency, binned: B = p (sqrt(2)/2)(4 eta/pi)^(N/2) inverts to
  eta_c = 2^((1-2N)/N) pi p^(-2/N).

Only the functional and CFRD efficiency thresholds are iterated: there the
optimal function moves with eta, and for odd N the CFRD condition is a
degree-N polynomial.  They are roots of ln B = 0 found by the one bracketed
root solver of ``functional_bell``, taking Newton steps on the closed-form
slope of ``closed_form_log_ratio`` (by the envelope theorem also the slope
of the maximized ratio) and stopping at an evaluated point with
|ln B| <= 1e-13.  Their Bell values increase in eta, so a bracket failure
outside the documented no-violation case aborts loudly instead of guessing.

``figure2`` tabulates each threshold through its one function here; the
two share no evaluation, so each solves the functional eta = 1 optimum.

Three separate decoherence-product conventions coexist and are never mixed:

- binned (MK): the per-site monomial eta * p^2, critical at 2^((1-2N)/N) pi;
- functional: the per-site monomial (eta * p)^2 of the product form, with the
  measurement function held at its noise-free optimum;
- plain moments (CFRD): no product form is quoted; its limit is the
  pure-state critical efficiency.

At the even split B = p^2/4 * g^(N/2) for a per-site ratio g, so each
large-N limit is the exact root g = 1 (``asymptotic_product``).  Every
kernel integral here is exact, so no threshold reads a quadrature rule.
"""

from __future__ import annotations

import math
from typing import Optional

from .errors import MonotonicityError
from .functional_bell import (
    IDEAL_EPSILON,
    _bracketed_root,
    closed_form_log_ratio,
    closed_form_sides,
    optimal_epsilon,
)
from .mk_binning import mk_bell_value, mk_critical_product
from .quadrature import Identity, KernelIntegrals, Optimal, kernel_integrals
from .scenario import StateSpec, canonical_split

INEQUALITIES = ("functional", "cfrd", "mk")

_ETA_BRACKET = (0.3, 1.0)
_LOG_RATIO_TOL = 1e-13


def _moment_integrals(inequality_id: str, n: int, eta: float) -> KernelIntegrals:
    """Kernel integrals of a moment inequality's function at ``canonical_split(n)``."""
    if inequality_id == "functional":
        f = Optimal(optimal_epsilon(n, canonical_split(n), eta))
    elif inequality_id == "cfrd":
        f = Identity()
    else:
        raise ValueError(f"unknown inequality {inequality_id!r}; use one of {INEQUALITIES}")
    return kernel_integrals(f)


def bell_ratio(inequality_id: str, n: int, eta: float, p: float) -> float:
    """Bell ratio of the named inequality at the split ``canonical_split(n)``."""
    spec = StateSpec(n, canonical_split(n), p, eta)
    if inequality_id == "mk":
        return mk_bell_value(spec)
    lhs, rhs = closed_form_sides(n, spec.r_split, eta, p,
                                 _moment_integrals(inequality_id, n, eta))
    return lhs / rhs


def critical_efficiency(n: int, p: float, inequality_id: str, rule=None) -> Optional[float]:
    """Smallest efficiency giving B = 1 at fixed purity; None if B(1, p) <= 1.
    ``rule`` is not read; perfbench still passes one (ROADMAP item 9).

    The binned value inverts exactly to mk_critical_product(n) * p^(-2/n).
    The others solve ln B = 0 in the bracket [0.3, 1] by the Newton steps of
    ``functional_bell._bracketed_root`` on the slope of
    ``closed_form_log_ratio``, starting from the eta = 1 value that decides
    the None case.  B increases in eta, so a violation at the lower end
    means an internal inconsistency and raises.  The result is an evaluated
    point with |ln B| <= 1e-13, or the best one once the bracket is a few
    ulps wide.
    """
    if not 0.0 < p <= 1.0:
        raise ValueError(f"p must lie in (0, 1], got {p!r}")
    if inequality_id == "mk":
        eta = mk_critical_product(n) * p ** (-2.0 / n)
        return None if eta >= 1.0 else float(eta)
    r = canonical_split(n)

    def h(eta: float) -> tuple:
        log_ratio, slope = closed_form_log_ratio(n, r, eta, p,
                                                 _moment_integrals(inequality_id, n, eta))
        return -log_ratio, -slope

    lo, hi = _ETA_BRACKET
    top = h(hi)
    if top[0] >= 0.0:
        return None
    if h(lo)[0] < 0.0:
        raise MonotonicityError(
            f"{inequality_id} at n={n}, p={p}: violation persists at eta={lo}; "
            "monotonicity assumption broken"
        )
    return _bracketed_root(h, hi, _LOG_RATIO_TOL,
                           f"{inequality_id} efficiency threshold at n={n}, p={p}",
                           lo, hi, hx=top)


def critical_purity(n: int, eta: float, inequality_id: str) -> Optional[float]:
    """Smallest purity giving B = 1 at fixed efficiency; None if B(eta, 1) <= 1.

    The binned inequality uses the exact product inversion
    p = sqrt(mk_critical_product(n) / eta).  The others have
    B(eta, p) = p^2 B(eta, 1), since the optimal function depends on
    (n, eta) only, so p = B(eta, 1)^(-1/2).
    """
    if not 0.0 < eta <= 1.0:
        raise ValueError(f"eta must lie in (0, 1], got {eta!r}")
    if inequality_id == "mk":
        target = mk_critical_product(n) / eta
        if target > 1.0:
            return None
        return math.sqrt(target)
    b = bell_ratio(inequality_id, n, eta, 1.0)
    if b <= 1.0:
        return None
    return float(b ** -0.5)


# ---------------------------------------------------------------------------
# asymptotics
# ---------------------------------------------------------------------------

def _per_site_root(ki) -> float:
    """Root s of the per-site ratio g(s) = 8 Ip^4 s^2 / (pi I0 C(s)) = 1.

    At the even split B = p^2/4 * g^(N/2) with C(s) = s*I + (1 - s)*I0, so
    at a fixed function the large-N threshold is g = 1: the quadratic
    8 Ip^4 s^2 - pi I0 (I - I0) s - pi I0^2 = 0.  I > I0, so its positive
    root has no cancellation.
    """
    ip, ii, i0 = ki.i_plus, ki.i_cross, ki.i_zero
    a = 8.0 * ip ** 4
    b = math.pi * i0 * (ii - i0)
    c = math.pi * i0 * i0
    return (b + math.sqrt(b * b + 4.0 * a * c)) / (2.0 * a)


def asymptotic_product(inequality_id: str) -> float:
    """Exact N -> infinity limit of the decoherence threshold of an inequality.

    The functional limit is the product s = eta*p at the noise-free optimal
    function; the binned one is the product eta*p^2, the limit pi/4 of
    ``mk_critical_product``; for plain moments it is the pure-state critical
    efficiency, (1 + sqrt 5)/4.
    """
    if inequality_id == "functional":
        return _per_site_root(kernel_integrals(Optimal(IDEAL_EPSILON)))
    if inequality_id == "cfrd":
        return _per_site_root(kernel_integrals(Identity()))
    if inequality_id == "mk":
        return math.pi / 4.0
    raise ValueError(f"unknown inequality {inequality_id!r}; use one of {INEQUALITIES}")
