"""Critical detection efficiency, purity, and decoherence-product thresholds.

A threshold is the parameter value at which the Bell ratio B, taken at the
split r = N // 2 of ``model.canonical_split``, reaches 1.  Wherever B is an
explicit function of the swept parameter the threshold is its exact inverse:

- purity, functional and CFRD: the correlator side scales as p^2, the bound
  side and the optimal function do not depend on p, so p_c = B(eta, 1)^(-1/2);
- purity, binned (MK): the product inversion p_c = sqrt(2^((1-2N)/N) pi / eta);
- efficiency, binned: B = p (sqrt(2)/2)(4 eta/pi)^(N/2) inverts to
  eta_c = 2^((1-2N)/N) pi p^(-2/N).

Only the functional and CFRD efficiency thresholds are iterated: there the
optimal function moves with eta, and for odd N the CFRD condition is a
degree-N polynomial.  They are Newton roots of ln B = 0 on the closed-form
slope of ``closed_form_log_ratio``, which by the envelope theorem is also
the slope of the maximized ratio.  Their Bell values increase in eta, so a
bracket failure outside the documented no-violation case aborts loudly
instead of guessing.

Three separate decoherence-product conventions coexist and are never mixed:

- binned (MK): the per-site monomial eta * p^2, critical at 2^((1-2N)/N) pi;
- functional: the per-site monomial (eta * p)^2 of the product form, with the
  measurement function held at its noise-free optimum;
- plain moments (CFRD): no product form is quoted; its limit is the
  pure-state critical efficiency.

At the even split B = p^2/4 * g^(N/2) for a per-site ratio g, so each
large-N limit is the exact root g = 1 (``asymptotic_product``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import ConvergenceError, MonotonicityError
from .functional_bell import (
    bell_value,
    cfrd_bell_value,
    closed_form_log_ratio,
    ideal_epsilon,
    optimal_epsilon,
)
from .mk_binning import mk_bell_value, mk_bell_value_product_form, mk_critical_product
from .model import Identity, Optimal, StateSpec, canonical_split
from .quadrature import QuadratureRule, kernel_integrals

INEQUALITIES = ("functional", "cfrd", "mk")

_ETA_BRACKET = (0.3, 1.0)
_NEWTON_TOL = 1e-13
_MAX_NEWTON = 100


@dataclass(frozen=True)
class AsymptoticProduct:
    """Large-N limit of a decoherence threshold curve."""

    inequality_id: str
    parameter: str
    limit: float


def bell_ratio(inequality_id: str, n: int, eta: float, p: float,
               rule: QuadratureRule) -> float:
    """Bell ratio of the named inequality at the split ``canonical_split(n)``."""
    spec = StateSpec(n, canonical_split(n), p, eta)
    if inequality_id == "functional":
        return bell_value(spec, rule).ratio
    if inequality_id == "cfrd":
        return cfrd_bell_value(spec, rule).ratio
    if inequality_id == "mk":
        return mk_bell_value(spec)
    raise ValueError(f"unknown inequality {inequality_id!r}; use one of {INEQUALITIES}")


def _log_ratio_and_slope(inequality_id: str, n: int, eta: float, p: float,
                         rule: QuadratureRule) -> tuple:
    """``closed_form_log_ratio`` of a moment inequality at ``canonical_split(n)``."""
    r = canonical_split(n)
    if inequality_id == "functional":
        f = Optimal(optimal_epsilon(n, r, eta, rule))
    elif inequality_id == "cfrd":
        f = Identity()
    else:
        raise ValueError(f"unknown inequality {inequality_id!r}; use one of {INEQUALITIES}")
    return closed_form_log_ratio(n, r, eta, p, kernel_integrals(f, rule))


def critical_efficiency(n: int, p: float, inequality_id: str,
                        rule: QuadratureRule) -> Optional[float]:
    """Smallest efficiency giving B = 1 at fixed purity; None if B(1, p) <= 1.

    The binned value inverts exactly to mk_critical_product(n) * p^(-2/n).
    The others solve ln B = 0 by Newton steps on the closed-form slope from
    eta = 1, kept inside the bracket [0.3, 1] that every evaluation narrows
    (a step leaving it is replaced by the midpoint).  B increases in eta, so
    a violation at the lower end means an internal inconsistency and raises.
    The result is one Newton step shorter than ``_NEWTON_TOL`` from an
    evaluated point, or, once the bracket is that narrow, its last
    evaluated end; never an unevaluated midpoint.
    """
    if not 0.0 < p <= 1.0:
        raise ValueError(f"p must lie in (0, 1], got {p!r}")
    if inequality_id == "mk":
        eta = mk_critical_product(n) * p ** (-2.0 / n)
        return None if eta >= 1.0 else float(eta)
    lo, hi = _ETA_BRACKET
    x = hi
    f, slope = _log_ratio_and_slope(inequality_id, n, hi, p, rule)
    if f <= 0.0:
        return None
    if _log_ratio_and_slope(inequality_id, n, lo, p, rule)[0] > 0.0:
        raise MonotonicityError(
            f"{inequality_id} at n={n}, p={p}: violation persists at eta={lo}; "
            "monotonicity assumption broken"
        )
    for _ in range(_MAX_NEWTON):
        step = -f / slope if slope > 0.0 else np.inf
        if abs(step) < _NEWTON_TOL:
            return x + step
        if hi - lo < _NEWTON_TOL:
            return x
        x = x + step if lo < x + step < hi else 0.5 * (lo + hi)
        f, slope = _log_ratio_and_slope(inequality_id, n, x, p, rule)
        lo, hi = (x, hi) if f <= 0.0 else (lo, x)
    raise ConvergenceError(
        f"{inequality_id} efficiency threshold at n={n}, p={p} did not converge "
        f"in {_MAX_NEWTON} Newton steps", best=x, residual=abs(f),
    )


def critical_purity(n: int, eta: float, inequality_id: str,
                    rule: QuadratureRule) -> Optional[float]:
    """Smallest purity giving B = 1 at fixed efficiency; None if B(eta, 1) <= 1.

    The binned inequality uses the exact product inversion
    p = sqrt(mk_critical_product(n) / eta), cross-checked against its
    product-form observable.  The others have B(eta, p) = p^2 B(eta, 1),
    since the optimal function depends on (n, eta) only, so
    p = B(eta, 1)^(-1/2).
    """
    if not 0.0 < eta <= 1.0:
        raise ValueError(f"eta must lie in (0, 1], got {eta!r}")
    if inequality_id == "mk":
        target = mk_critical_product(n) / eta
        if target > 1.0:
            return None
        p = float(np.sqrt(target))
        check = mk_bell_value_product_form(StateSpec(n, canonical_split(n), p, eta))
        if abs(check - 1.0) > 1e-9:
            raise MonotonicityError(
                f"product inversion failed its cross-check: B={check!r} at p={p!r}"
            )
        return p
    b = bell_ratio(inequality_id, n, eta, 1.0, rule)
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
    b = np.pi * i0 * (ii - i0)
    c = np.pi * i0 * i0
    return float((b + np.sqrt(b * b + 4.0 * a * c)) / (2.0 * a))


def asymptotic_product(inequality_id: str, rule: QuadratureRule) -> AsymptoticProduct:
    """Exact N -> infinity limit of the decoherence threshold of an inequality.

    The functional limit is the product s = eta*p at the noise-free optimal
    function; the binned one is the product eta*p^2, the limit pi/4 of
    ``mk_critical_product``; for plain moments it is the pure-state critical
    efficiency, (1 + sqrt 5)/4.
    """
    if inequality_id == "functional":
        ki = kernel_integrals(Optimal(ideal_epsilon(rule)), rule)
        return AsymptoticProduct(inequality_id, "product", _per_site_root(ki))
    if inequality_id == "cfrd":
        ki = kernel_integrals(Identity(), rule)
        return AsymptoticProduct(inequality_id, "efficiency", _per_site_root(ki))
    if inequality_id == "mk":
        return AsymptoticProduct(inequality_id, "product", np.pi / 4.0)
    raise ValueError(f"unknown inequality {inequality_id!r}; use one of {INEQUALITIES}")
