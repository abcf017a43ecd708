"""Exact evaluation of the functional-moment Bell observable on a state.

Both sides of the inequality

    |< prod_k [f(x_k^theta_k) + i g(x_k^theta'_k)] >|^2
        <=  < prod_k [f(x_k^theta_k)^2 + g(x_k^theta'_k)^2] >

are traces of the state against tensor products of the site operators of
``model.site_operator``.  The state is a sum of product terms, so each trace
factorizes over sites and costs O(N).  No closed form of ``functional_bell``
is used: f and g enter only through their kernel integrals, so either may
be given as its ``KernelIntegrals``.  ``evaluate`` gives both sides and
their ratio; ``ratio_partials`` gives the ratio with its partials in the
site scalars, for the free-function optimizer.  Every analytic Bell value in
the package is tested against this path; the tests' independent references
(angle scan, golden-section eps search, separable states) live in
``tests/reference.py``.  Like ``model`` and ``_accel``, the module
computes in plain floats and imports no numpy.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Optional, Tuple

from ._accel import tensor_expectation, tensor_expectation_sums
from .errors import normal_bound_side
from .functional_bell import BellResult
from .model import AngleConfig, DensityMatrix, _site_correlators, site_operator
from .quadrature import QuadratureRule


def orthogonal_angles(n: int, r: int, base: float = 0.0) -> AngleConfig:
    """Correlator-maximizing phase pattern for the r-against-(n-r) state.

    theta_k = base everywhere; theta'_k = theta_k + pi/2 on the first r sites
    and theta_k - pi/2 on the rest.  The globally conjugated pattern reaches
    the same value.
    """
    theta = (base,) * n
    theta_prime = tuple(
        base + (math.pi / 2.0 if k < r else -math.pi / 2.0) for k in range(n)
    )
    return AngleConfig(theta=theta, theta_prime=theta_prime)


def _function_id(f, g) -> str:
    fl = getattr(f, "label", getattr(f, "__name__", "callable"))
    gl = getattr(g, "label", getattr(g, "__name__", "callable"))
    return fl if fl == gl else f"{fl}|{gl}"


def _site_operators(rho: DensityMatrix, f, g, angles: AngleConfig,
                    rule: Optional[QuadratureRule]) -> Tuple[tuple, tuple]:
    """``model.site_operator`` of every site, n operators each."""
    if angles.n_modes != rho.n_modes:
        raise ValueError(
            f"angle list has {angles.n_modes} sites but the state has {rho.n_modes} modes"
        )
    return site_operator(f, g, angles.theta, angles.theta_prime, rule)


def evaluate(rho: DensityMatrix, f, g, angles: AngleConfig,
             rule: Optional[QuadratureRule] = None) -> BellResult:
    """Evaluate both sides of the inequality on an explicit density matrix.

    The tensor-product traces factorize over the sites of each product term
    of the state; the 2^N x 2^N operator products are never formed.  ``rule``
    sums f or g only where it is a free callable (``kernel_integrals``).
    Raises NumericalDomainError when the bound side leaves the normal float
    range.
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
        function_id=_function_id(f, g),
    )


class RatioPartials(NamedTuple):
    """The Bell ratio and its partial derivatives in the site scalars.

    ``d_amplitude`` is the tuple (d ratio/d mf, d ratio/d mg), or, when g is
    f, the 1-tuple of the derivative along the common amplitude mf = mg.
    ``d_moments`` is (d ratio/d Q0, d ratio/d Q1).
    """

    ratio: float
    d_amplitude: Tuple[float, ...]
    d_moments: Tuple[float, float]


# the derivatives of the bound-side operator in Q0 and Q1
_UNIT_MOMENTS = (((1.0, 0.0), (0.0, 0.0)), ((0.0, 0.0), (0.0, 1.0)))


def ratio_partials(rho: DensityMatrix, f, g, angles: AngleConfig,
                   rule: Optional[QuadratureRule] = None) -> RatioPartials:
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
    rhs, d_rhs = tensor_expectation_sums(rho.matrix, q_mats,
                                         [(e,) * n for e in _UNIT_MOMENTS])
    rhs = normal_bound_side(rhs.real, n, "oracle")
    ratio = float(abs(corr) ** 2 / rhs)
    # ratio = |corr|^2 / rhs, d|corr|^2 = 2 Re(conj(corr) d corr); ratio / rhs may overflow
    return RatioPartials(
        ratio=ratio,
        d_amplitude=tuple(2.0 * (corr.conjugate() * d).real / rhs for d in d_corr),
        d_moments=tuple(-ratio * (d.real / rhs) for d in d_rhs),
    )
