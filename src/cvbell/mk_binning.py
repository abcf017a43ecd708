"""Mermin-Klyshko inequality with sign-binned quadrature outcomes.

Binning every homodyne outcome to +/-1 turns each site's complex combination
f(x^theta) + i f(x^theta') into a two-outcome observable pair, for which the
multipartite |S_N| <= 1 inequality applies.  The binned matrix elements have
closed forms (<0|sign(X)|1> = sqrt(2/pi), sign^2 = 1), so this module needs
no quadrature rule and the Fock-space evaluation is exact.

Everything here computes in plain floats.  The closed forms
(``mk_bell_value``, ``mk_critical_product``) need nothing else; the
Fock-space evaluation (``mk_evaluate``) and its angles import the state
model and the contraction kernel when first called.
"""

from __future__ import annotations

import itertools
import math
from typing import TYPE_CHECKING, NamedTuple

from .errors import NumericalDomainError
from .quadrature import SignBin
from .scenario import StateSpec

if TYPE_CHECKING:
    from .model import AngleConfig, DensityMatrix


class MKResult(NamedTuple):
    """Outcome of one binned multipartite evaluation.

    ``s_value`` is the largest |S_N| over the allowed combinations (real,
    imaginary, their sum/difference, the root-sum-square form for odd N, and
    the observable-exchanged partner of each); local realism bounds it by 1.
    """

    s_value: float


def mk_optimal_angles(n: int, r: int) -> AngleConfig:
    """Phase pattern maximizing the binned violation for the r-split state.

    Site k (1-based) measures theta_k = (-1)^(n+1) pi (k-1) / (2n) with
    theta'_k = theta_k + pi/2 for k <= r, and theta_k = (-1)^n pi (k-1) / (2n)
    with theta'_k = theta_k - pi/2 beyond.
    """
    from .model import AngleConfig

    if not 1 <= r <= n:
        raise ValueError(f"r must lie in [1, {n}], got {r}")
    sign_front = (-1.0) ** (n + 1)
    sign_back = (-1.0) ** n
    theta = []
    theta_prime = []
    for k in range(1, n + 1):
        if k <= r:
            t = sign_front * math.pi * (k - 1) / (2.0 * n)
            theta.append(t)
            theta_prime.append(t + math.pi / 2.0)
        else:
            t = sign_back * math.pi * (k - 1) / (2.0 * n)
            theta.append(t)
            theta_prime.append(t - math.pi / 2.0)
    return AngleConfig(theta=tuple(theta), theta_prime=tuple(theta_prime))


def _correlators(rho: DensityMatrix, theta, theta_prime, site_scale=(1.0,)):
    """Pi_N and its exchanged partner, with theta and theta' swapped at every
    site, with the site operators multiplied by ``site_scale``, cycled over
    the sites.

    Each site operator is ``model._site_correlator(a, a, ...)`` at the
    scaled amplitude a = site_scale * <0|sign(X)|1>, written out here for
    both angle orders from one set of sines and cosines; a power of two
    scales it exactly.
    """
    from ._accel import tensor_expectation
    from .model import _site_scalars

    m = _site_scalars(SignBin.exact_integrals)[0]      # <0|sign(X)|1> = sqrt(2/pi)
    ops, exchanged = [], []
    for s, th, thp in zip(itertools.cycle(site_scale), theta, theta_prime):
        a = s * m
        c, sn, cp, sp = math.cos(th) * a, math.sin(th) * a, math.cos(thp) * a, math.sin(thp) * a
        ops.append(((0.0, complex(c + sp, cp - sn)), (complex(c - sp, sn + cp), 0.0)))
        exchanged.append(((0.0, complex(cp + sn, c - sp)), (complex(cp - sn, sp + c), 0.0)))
    return tensor_expectation(rho.matrix, ops), tensor_expectation(rho.matrix, exchanged)


def mk_evaluate(rho: DensityMatrix, angles: AngleConfig) -> MKResult:
    """Evaluate |S_N| on an explicit state, maximizing over combinations.

    The correlator Pi_N = < prod_k [sign(x^theta_k) + i sign(x^theta'_k)] >
    is contracted over the state's product terms; the exchanged-observable
    correlator swaps the roles of theta and theta' at every site.  The
    normalization 2^-(N//2) enters as a factor 1/2 at every second site, a
    power of two and so exact, which keeps the running product of site
    traces (about 1.6 each) in range wherever |S_N| is; beyond that
    NumericalDomainError names n.
    """
    n = rho.n_modes
    if angles.n_modes != n:
        raise ValueError(
            f"angle list has {angles.n_modes} sites but the state has {n} modes"
        )
    values = []
    for pi_n in _correlators(rho, angles.theta, angles.theta_prime, (1.0, 0.5)):
        # odd N: |Pi_N| bounds |Re| and |Im|; even N: |Re| + |Im| is the
        # larger of |Re + Im| and |Re - Im|, exactly in floats
        try:
            values.append(abs(pi_n) if n % 2 else abs(pi_n.real) + abs(pi_n.imag))
        except OverflowError:       # |Pi_N| beyond the float range
            values.append(math.inf)
    s_value = max(values)
    if not math.isfinite(s_value):
        raise NumericalDomainError(
            f"binned oracle value at n = {n} overflows the float range")
    return MKResult(s_value=float(s_value))


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
