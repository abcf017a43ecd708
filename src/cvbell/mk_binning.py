"""Mermin-Klyshko inequality with sign-binned quadrature outcomes.

Binning every homodyne outcome to +/-1 turns each site's complex combination
f(x^theta) + i f(x^theta') into a two-outcome observable pair, for which the
multipartite |S_N| <= 1 inequality applies.  The binned matrix elements have
closed forms (<0|sign(X)|1> = sqrt(2/pi), sign^2 = 1), so this module needs
no quadrature rule and the Fock-space evaluation is exact.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._accel import tensor_expectation
from .errors import NumericalDomainError
from .model import SQRT_2_OVER_PI, AngleConfig, DensityMatrix, StateSpec, _site_correlators


@dataclass(frozen=True)
class MKResult:
    """Outcome of one binned multipartite evaluation.

    ``s_value`` is the largest |S_N| over the allowed combinations (real,
    imaginary, their sum/difference, the root-sum-square form for odd N, and
    the observable-exchanged partner of each); local realism bounds it by 1.
    ``variant`` records which combination won.
    """

    s_value: float
    bell_ratio: float
    angles: AngleConfig
    variant: str


def mk_optimal_angles(n: int, r: int) -> AngleConfig:
    """Phase pattern maximizing the binned violation for the r-split state.

    Site k (1-based) measures theta_k = (-1)^(n+1) pi (k-1) / (2n) with
    theta'_k = theta_k + pi/2 for k <= r, and theta_k = (-1)^n pi (k-1) / (2n)
    with theta'_k = theta_k - pi/2 beyond.
    """
    if not 1 <= r <= n:
        raise ValueError(f"r must lie in [1, {n}], got {r}")
    sign_front = (-1.0) ** (n + 1)
    sign_back = (-1.0) ** n
    theta = []
    theta_prime = []
    for k in range(1, n + 1):
        if k <= r:
            t = sign_front * np.pi * (k - 1) / (2.0 * n)
            theta.append(t)
            theta_prime.append(t + np.pi / 2.0)
        else:
            t = sign_back * np.pi * (k - 1) / (2.0 * n)
            theta.append(t)
            theta_prime.append(t - np.pi / 2.0)
    return AngleConfig(theta=tuple(theta), theta_prime=tuple(theta_prime))


def _correlator(rho: DensityMatrix, theta, theta_prime, site_scale=1.0) -> complex:
    """Pi_N with the site operators multiplied by ``site_scale`` (per site)."""
    mats = _site_correlators(SQRT_2_OVER_PI, SQRT_2_OVER_PI, theta, theta_prime)
    return tensor_expectation(rho.matrix, mats * np.reshape(site_scale, (-1, 1, 1)))


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
    halves = np.where(np.arange(n) % 2 == 1, 0.5, 1.0)
    candidates = []
    for swapped in (False, True):
        th = angles.theta_prime if swapped else angles.theta
        thp = angles.theta if swapped else angles.theta_prime
        with np.errstate(over="ignore", invalid="ignore"):   # checked below
            pi_n = _correlator(rho, th, thp, halves)
        suffix = "_swapped" if swapped else ""
        if n % 2 == 0:
            candidates.append((abs(pi_n.real + pi_n.imag), "re_plus_im" + suffix))
            candidates.append((abs(pi_n.real - pi_n.imag), "re_minus_im" + suffix))
        else:
            candidates.append((abs(pi_n.real), "re" + suffix))
            candidates.append((abs(pi_n.imag), "im" + suffix))
            candidates.append((abs(pi_n), "rss" + suffix))
    s_value, variant = max(candidates, key=lambda c: c[0])
    if not np.isfinite(s_value):
        raise NumericalDomainError(
            f"binned oracle value at n = {n} overflows the float range")
    return MKResult(s_value=float(s_value), bell_ratio=float(s_value),
                    angles=angles, variant=variant)


def mk_bell_value(spec: StateSpec) -> float:
    """Maximal |S_N| for the scenario, in closed form.

    Equals p * (sqrt(2)/2) * (4 eta / pi)^(N/2): the coherence carries one
    power of the purity and sqrt(eta) per mode, and the optimal phases align
    every site factor.  Holds for every split r, which the oracle tests
    confirm directly.
    """
    n = spec.n_modes
    x = 4.0 * spec.efficiency / np.pi
    return float(spec.purity * (np.sqrt(2.0) / 2.0) * _half_power(x, n))


def mk_bell_value_product_form(spec: StateSpec) -> float:
    """Per-site decoherence-product form (sqrt(2)/2) * (4 eta p^2 / pi)^(N/2).

    This treats eta p^2 as a single per-mode monomial, the convention behind
    the critical-product threshold; it coincides with ``mk_bell_value`` at
    p = 1 but is not the mixed-state expectation value at p < 1.
    """
    n = spec.n_modes
    x = 4.0 * spec.efficiency * spec.purity ** 2 / np.pi
    return float((np.sqrt(2.0) / 2.0) * _half_power(x, n))


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
    return float(2.0 ** ((1.0 - 2.0 * n) / n) * np.pi)
