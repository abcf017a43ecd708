"""Mermin-Klyshko inequality with sign-binned quadrature outcomes, in closed form.

Binning every homodyne outcome to +/-1 turns each site's complex combination
f(x^theta) + i f(x^theta') into a two-outcome observable pair, for which the
multipartite |S_N| <= 1 inequality applies.  The binned matrix elements have
closed forms (<0|sign(X)|1> = sqrt(2/pi), sign^2 = 1), so the maximal value
and its critical product are closed forms too, computed here in plain floats
from the standard library.  Their Fock-space check, ``oracle.mk_evaluate``
at the angles of ``oracle.mk_optimal_angles``, contracts the state against
the binned site operators exactly.
"""

from __future__ import annotations

import math

from .errors import NumericalDomainError
from .scenario import StateSpec


def mk_bell_value(spec: StateSpec) -> float:
    """Maximal |S_N| for the scenario, in closed form.

    Equals p * (sqrt(2)/2) * (4 eta / pi)^(N/2): the coherence carries one
    power of the purity and sqrt(eta) per mode, and the optimal phases align
    every site factor.  Holds for every split r, which the oracle tests
    confirm directly.
    """
    n = spec.n_modes
    x = 4.0 * spec.efficiency / math.pi
    return float(spec.purity * (math.sqrt(2.0) / 2.0) * _half_power(x, n))


def _half_power(x: float, n: int) -> float:
    """x^(n/2); NumericalDomainError naming n when it overflows."""
    try:
        return float(x) ** (n / 2.0)
    except OverflowError:
        raise NumericalDomainError(
            f"binned Bell value at n = {n} overflows the float range") from None


def mk_critical_product(n: int) -> float:
    """Critical efficiency-purity product 2^((1-2N)/N) pi for violation.

    Exactly the root of the per-site product form equal to 1; tends to pi/4
    from above as N grows.
    """
    if n < 2:
        raise ValueError(f"n must be at least 2, got {n}")
    return float(2.0 ** ((1.0 - 2.0 * n) / n) * math.pi)
