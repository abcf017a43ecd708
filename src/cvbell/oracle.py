"""Exact brute-force evaluation of the functional-moment Bell observable.

Both sides of the inequality

    |< prod_k [f(x_k^theta_k) + i g(x_k^theta'_k)] >|^2
        <=  < prod_k [f(x_k^theta_k)^2 + g(x_k^theta'_k)^2] >

are evaluated as Fock-space traces against an explicit density matrix, with
no closed-form shortcuts.  Every analytic Bell value in the package is tested
against this path.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from ._accel import tensor_expectation, tensor_expectation_sums
from .errors import normal_bound_side
from .model import (
    AngleConfig,
    DensityMatrix,
    Optimal,
    ProductOperator,
    StateSpec,
    _site_correlators,
    density_matrix,
    site_operator,
)
from .quadrature import QuadratureRule

_GOLDEN = (np.sqrt(5.0) - 1.0) / 2.0


@dataclass(frozen=True)
class BellResult:
    """One inequality evaluation: correlator side, bound side, and their ratio.

    ``angles`` is the measurement setting of an oracle evaluation; closed
    forms leave it None, since they hold at ``orthogonal_angles(n, r)``.
    """

    lhs: float
    rhs: float
    ratio: float
    inequality_id: str
    function_id: str
    angles: Optional[AngleConfig] = None


def orthogonal_angles(n: int, r: int, base: float = 0.0) -> AngleConfig:
    """Correlator-maximizing phase pattern for the r-against-(n-r) state.

    theta_k = base everywhere; theta'_k = theta_k + pi/2 on the first r sites
    and theta_k - pi/2 on the rest.  The globally conjugated pattern reaches
    the same value.
    """
    theta = (base,) * n
    theta_prime = tuple(
        base + (np.pi / 2.0 if k < r else -np.pi / 2.0) for k in range(n)
    )
    return AngleConfig(theta=theta, theta_prime=theta_prime)


def _function_id(f, g) -> str:
    fl = getattr(f, "label", getattr(f, "__name__", "callable"))
    gl = getattr(g, "label", getattr(g, "__name__", "callable"))
    return fl if fl == gl else f"{fl}|{gl}"


def _site_operators(rho: DensityMatrix, f, g, angles: AngleConfig,
                    rule: QuadratureRule) -> Tuple[np.ndarray, np.ndarray]:
    """``model.site_operator`` of every site, (n, 2, 2) each."""
    if angles.n_modes != rho.n_modes:
        raise ValueError(
            f"angle list has {angles.n_modes} sites but the state has {rho.n_modes} modes"
        )
    return site_operator(f, g, angles.theta, angles.theta_prime, rule)


def evaluate(rho: DensityMatrix, f, g, angles: AngleConfig,
             rule: QuadratureRule) -> BellResult:
    """Evaluate both sides of the inequality on an explicit density matrix.

    The tensor-product traces factorize over the sites of each product term
    of the state; the 2^N x 2^N operator products are never formed.  Raises
    NumericalDomainError when the bound side leaves the normal float range.
    """
    o_mats, q_mats = _site_operators(rho, f, g, angles, rule)
    corr = tensor_expectation(rho.matrix, o_mats)
    lhs = abs(corr) ** 2
    rhs = normal_bound_side(tensor_expectation(rho.matrix, q_mats).real, rho.n_modes,
                            "oracle")
    return BellResult(
        lhs=float(lhs),
        rhs=float(rhs),
        ratio=float(lhs / rhs),
        inequality_id="functional",
        function_id=_function_id(f, g),
        angles=angles,
    )


@dataclass(frozen=True)
class RatioPartials:
    """The Bell ratio and its partial derivatives in the site scalars.

    ``d_amplitude`` is (d ratio/d mf, d ratio/d mg), or, when g is f, the
    single derivative along the common amplitude mf = mg.  ``d_moments`` is
    (d ratio/d Q0, d ratio/d Q1).
    """

    ratio: float
    d_amplitude: np.ndarray
    d_moments: np.ndarray


def ratio_partials(rho: DensityMatrix, f, g, angles: AngleConfig,
                   rule: QuadratureRule) -> RatioPartials:
    """The ratio of ``evaluate`` together with its site-scalar partials.

    Every site operator is linear in the site scalars, so the partial of a
    contraction is the sum over sites of the same contraction with that
    site's operator replaced by its derivative.  Both sides and all their
    partials take one pass each over the state's product terms.  Raises
    NumericalDomainError when the bound side leaves the normal float range.
    """
    n = rho.n_modes
    th, thp = angles.theta, angles.theta_prime
    o_mats, q_mats = _site_operators(rho, f, g, angles, rule)
    # the derivative of an operator linear in a scalar is the operator at
    # that scalar set to one and the others to zero
    amplitudes = [(1.0, 1.0)] if g is f else [(1.0, 0.0), (0.0, 1.0)]
    corr, d_corr = tensor_expectation_sums(
        rho.matrix, o_mats, [_site_correlators(a, b, th, thp) for a, b in amplitudes])
    rhs, d_rhs = tensor_expectation_sums(
        rho.matrix, q_mats, [np.broadcast_to(np.diag(e), (n, 2, 2))
                             for e in ((1.0, 0.0), (0.0, 1.0))])
    rhs = normal_bound_side(rhs.real, n, "oracle")
    ratio = float(abs(corr) ** 2 / rhs)
    # ratio = |corr|^2 / rhs, d|corr|^2 = 2 Re(conj(corr) d corr); ratio / rhs may overflow
    return RatioPartials(
        ratio=ratio,
        d_amplitude=2.0 * (corr.conjugate() * d_corr).real / rhs,
        d_moments=-ratio * (d_rhs.real / rhs),
    )


def angle_scan(rho: DensityMatrix, f, g, rule: QuadratureRule,
               resolution: int = 4) -> Tuple[AngleConfig, BellResult]:
    """Scan the orthogonal-angle family for the maximal ratio.

    The scan covers every theta'_k = theta_k +/- pi/2 sign pattern combined
    with a common-phase sweep of ``resolution`` values.  The bound side must
    come out angle-invariant (to 1e-10); a violation of that aborts loudly
    since it would mean the site operators are broken.
    """
    n = rho.n_modes
    if n > 8:
        raise ValueError(f"exhaustive pattern scan limited to 8 modes, got {n}")
    if resolution < 2:
        raise ValueError(f"resolution must be at least 2, got {resolution}")
    phases = np.linspace(0.0, 2.0 * np.pi, resolution, endpoint=False)
    best: Tuple[AngleConfig, BellResult] | None = None
    rhs_min = np.inf
    rhs_max = -np.inf
    for signs in itertools.product((1.0, -1.0), repeat=n):
        for phi in phases:
            cfg = AngleConfig(
                theta=(phi,) * n,
                theta_prime=tuple(phi + s * np.pi / 2.0 for s in signs),
            )
            res = evaluate(rho, f, g, cfg, rule)
            rhs_min = min(rhs_min, res.rhs)
            rhs_max = max(rhs_max, res.rhs)
            if best is None or res.ratio > best[1].ratio:
                best = (cfg, res)
    if rhs_max - rhs_min > 1e-10 * max(1.0, abs(rhs_max)):
        raise RuntimeError(
            f"bound side varied with angles by {rhs_max - rhs_min:.3e}; "
            "site operators violate their rotation identity"
        )
    return best


def _golden_section_max(fn, a: float, b: float, xtol: float) -> float:
    """Maximizer of a unimodal fn on [a, b]: the midpoint of the last
    golden-section bracket narrower than xtol."""
    c = b - _GOLDEN * (b - a)
    d = a + _GOLDEN * (b - a)
    fc, fd = fn(c), fn(d)
    while d - c > xtol:
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - _GOLDEN * (b - a)
            fc = fn(c)
        else:
            a, c, fc = c, d, fd
            d = a + _GOLDEN * (b - a)
            fd = fn(d)
    return 0.5 * (c + d)


def optimize_epsilon_numeric(spec: StateSpec,
                             rule: QuadratureRule) -> Tuple[float, BellResult]:
    """Golden-section maximization of the ratio over the one-parameter family.

    f = g = x/(1 + eps x^2) at the correlator-maximizing angles, eps in
    (0, 64], to a 1e-8 bracket: the oracle-side reference for
    ``optimal_epsilon``.
    """
    rho = density_matrix(spec)
    angles = orthogonal_angles(spec.n_modes, spec.r_split)

    def ratio(eps: float) -> float:
        f = Optimal(eps)
        return evaluate(rho, f, f, angles, rule).ratio

    eps = _golden_section_max(ratio, 1e-9, 64.0, 1e-8)
    f = Optimal(eps)
    return eps, evaluate(rho, f, f, angles, rule)


def random_product_mixture(n: int, rng: np.random.Generator,
                           n_states: int = 4) -> DensityMatrix:
    """Convex mixture of random product states on the qubit subspace.

    Local realism holds for such states, so any functional-moment ratio they
    produce must stay at or below 1; the tests use them as the bound-side
    sanity ensemble.
    """
    weights = rng.dirichlet(np.ones(n_states))
    # per state and site, the Bloch angles (alpha, beta) in draw order
    alpha, beta = np.moveaxis(
        rng.uniform(0.0, (np.pi / 2.0, 2.0 * np.pi), size=(n_states, n, 2)), -1, 0)
    kets = np.stack((np.cos(alpha), np.exp(1j * beta) * np.sin(alpha)), axis=-1)
    factors = kets[..., :, None] * kets.conj()[..., None, :]
    return DensityMatrix(n_modes=n, matrix=ProductOperator(weights, factors))
