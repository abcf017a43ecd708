"""State family, loss/impurity channel, and single-mode measurement operators.

The states live on N optical modes restricted to at most one photon each, so
an N-mode density matrix is 2^N x 2^N, indexed by occupation bitstrings with
mode 0 as the most significant bit.  That restriction is exact here: the
states of interest start inside the subspace and photon loss never raises an
occupation number.  The matrix is never formed: a state is stored as a sum of
tensor products of 2x2 site factors (four for the detected state), so a trace
against a tensor product of site operators costs O(N).

Quadrature convention: a = X + iP, vacuum variance 1/4, so the single-photon
sector wavefunctions are psi_0(x) = (2/pi)^(1/4) e^(-x^2) and
psi_1(x) = (2/pi)^(1/4) 2x e^(-x^2).  A rotated quadrature measurement is
X^theta = (a e^(-i theta) + a^dag e^(i theta))/2, implemented through
f(X^theta) = U(theta) f(X) U(theta)^dag with U = e^(i theta a^dag a), which
multiplies the Fock matrix element <m|f(X)|n> by e^(i theta (m - n)).

The model computes in plain Python floats and complex numbers with
``math``, and imports no numpy.  A 2x2 site factor or site operator is the
nested tuple ((a00, a01), (a10, a11)); a state is one tuple of site factors
per product term.  Equal factors are one shared object, as are equal site
operators at neighbouring sites, which lets the contraction of ``_accel``
reuse a site trace.
"""

from __future__ import annotations

import itertools
import math
from typing import Optional, Tuple

from .quadrature import KernelIntegrals, QuadratureRule, kernel_integrals
from .scenario import StateSpec

SQRT_2_OVER_PI = math.sqrt(2.0 / math.pi)

# Wavefunction products divided by the quadrature weight e^(-2x^2):
#   psi_0 psi_1 -> sqrt(2/pi) 2x,  psi_0^2 -> sqrt(2/pi),  psi_1^2 -> sqrt(2/pi) 4x^2
# so ``_site_scalars`` reads a function's site scalars off its kernel integrals.


# ---------------------------------------------------------------------------
# measurement angles
# ---------------------------------------------------------------------------

def _wrap_angles(angles) -> Tuple[float, ...]:
    """Reduce each angle to (-pi, pi]."""
    pi, two_pi = math.pi, 2.0 * math.pi
    return tuple([pi - (pi - a) % two_pi for a in map(float, angles)])


class AngleConfig:
    """Per-site quadrature phases (theta_k, theta_prime_k), stored in (-pi, pi]."""

    __slots__ = ("theta", "theta_prime")

    def __init__(self, theta, theta_prime):
        th = _wrap_angles(theta)
        thp = _wrap_angles(theta_prime)
        if len(th) != len(thp):
            raise ValueError("theta and theta_prime must have the same length")
        if len(th) == 0:
            raise ValueError("angle lists must be non-empty")
        self.theta = th
        self.theta_prime = thp

    @property
    def n_modes(self) -> int:
        return len(self.theta)


# ---------------------------------------------------------------------------
# density matrix
# ---------------------------------------------------------------------------

class ProductOperator:
    """Sum of tensor products of 2x2 site factors:
    sum_t weights[t] * factors[t][0] (x) factors[t][1] (x) ... (x) factors[t][N-1].

    ``weights`` holds T numbers and ``factors`` T terms of N site factors
    each, every factor the nested tuple ((a00, a01), (a10, a11)); site 0 is
    the most significant bit of the 2^N-dimensional index.
    """

    __slots__ = ("weights", "factors")

    def __init__(self, weights, factors):
        w = tuple(weights)
        a = tuple(map(tuple, factors))
        sites = {len(term) for term in a}
        if len(a) != len(w) or len(sites) > 1:
            raise ValueError(f"expected T weights and T terms of equally many site factors; "
                             f"got {len(w)} weights and terms of {sorted(sites)} sites")
        self.weights = w
        self.factors = a


class DensityMatrix:
    """Density matrix on N modes, stored as a ``ProductOperator``."""

    __slots__ = ("n_modes", "matrix")

    def __init__(self, n_modes: int, matrix: ProductOperator):
        for term in matrix.factors:
            if len(term) != n_modes:
                raise ValueError(f"{len(term)} sites for {n_modes} modes")
        self.n_modes = n_modes
        self.matrix = matrix


def density_matrix(spec: StateSpec) -> DensityMatrix:
    """Detected-state density matrix for the given scenario.

    The two-branch superposition, dephased to weight ``purity`` in the
    occupation basis, is |A><A|/2 + |B><B|/2 + p (|A><B| + |B><A|)/2, with
    branch A occupying modes 0..r-1 and branch B the rest.  Each term is a
    product over sites, and amplitude damping acts on one mode at a time, so
    each term stays one: an occupied site of a branch becomes
    diag(1 - eta, eta), an empty one diag(1, 0), and a coherence site
    sqrt(eta)|1><0| or sqrt(eta)|0><1|.  Dephasing and loss commute for this
    family.  Each of these four factors is one object shared by its sites.
    """
    n, r, eta = spec.n_modes, spec.r_split, spec.efficiency
    occupied = ((1.0 - eta, 0.0), (0.0, eta))
    empty = ((1.0, 0.0), (0.0, 0.0))
    amplitude = math.sqrt(eta)
    up = ((0.0, 0.0), (amplitude, 0.0))                # sqrt(eta)|1><0|
    down = ((0.0, amplitude), (0.0, 0.0))              # sqrt(eta)|0><1|
    factors = (
        (occupied,) * r + (empty,) * (n - r),          # |A><A|
        (empty,) * r + (occupied,) * (n - r),          # |B><B|
        (up,) * r + (down,) * (n - r),                 # |A><B|
        (down,) * r + (up,) * (n - r),                 # |B><A|
    )
    weights = (0.5, 0.5, 0.5 * spec.purity, 0.5 * spec.purity)
    return DensityMatrix(n_modes=n, matrix=ProductOperator(weights, factors))


# ---------------------------------------------------------------------------
# single-mode operators
# ---------------------------------------------------------------------------

def _site_scalars(k: KernelIntegrals) -> Tuple[float, float, float]:
    """(m, q0, q1) = (<0|f|1>, <0|f^2|0>, <1|f^2|1>) from the kernel integrals
    of f: sqrt(2/pi) times (Ip/2, I0/4, I/4)."""
    return (SQRT_2_OVER_PI * (k.i_plus / 2.0), SQRT_2_OVER_PI * (k.i_zero / 4.0),
            SQRT_2_OVER_PI * (k.i_cross / 4.0))


def _site_correlator(mf: float, mg: float, theta: float, theta_prime: float):
    """f(X^theta) + i g(X^theta') on one site, from the raising amplitudes
    ``mf`` = <0|f|1> and ``mg`` = <0|g|1>; the diagonal is zero for odd
    functions.

    The upper element is e^(-i theta) mf + i e^(-i theta') mg and the lower
    one e^(i theta) mf + i e^(i theta') mg, written out in real parts: the
    same floats as the complex expressions, with two sines and two cosines.
    """
    c, s = math.cos(theta), math.sin(theta)
    cp, sp = math.cos(theta_prime), math.sin(theta_prime)
    upper = complex(c * mf + sp * mg, cp * mg - s * mf)
    lower = complex(c * mf - sp * mg, s * mf + cp * mg)
    return ((0.0, upper), (lower, 0.0))


def _site_correlators(mf: float, mg: float, theta, theta_prime):
    """Correlator operators f(X^theta_k) + i g(X^theta'_k), one per site.

    Scalar angles give one 2x2 operator, length-n angle sequences a tuple of
    n; neighbouring sites with the same angles share one operator object.
    """
    if not hasattr(theta, "__iter__"):
        return _site_correlator(mf, mg, theta, theta_prime)
    ops = []
    for angles, run in itertools.groupby(zip(theta, theta_prime)):
        ops += [_site_correlator(mf, mg, *angles)] * len(list(run))
    return tuple(ops)


def site_operator(f, g, theta, theta_prime, rule: Optional[QuadratureRule] = None):
    """Build the site operators entering the two inequality sides.

    Returns (O, Q) with O = f(X^theta) + i g(X^theta') (zero diagonal,
    non-Hermitian, enters the correlator) and Q = f(X^theta)^2 + g(X^theta')^2
    (diagonal, angle-independent, enters the bound side).  Both depend on f
    and g only through their kernel integrals, which give the raising
    amplitudes <0|f|1>, <0|g|1> and the diagonal of Q, so either may be its
    ``KernelIntegrals``; when g is f they are not computed a second time.
    ``rule`` sums a free callable (``kernel_integrals``) and is read for no
    other function.
    Scalar angles give one 2x2 pair, length-n angle sequences a tuple of n
    operators each, with one Q object at every site.
    """
    mf, qf0, qf1 = _site_scalars(kernel_integrals(f, rule))
    mg, qg0, qg1 = (mf, qf0, qf1) if g is f else _site_scalars(kernel_integrals(g, rule))
    O = _site_correlators(mf, mg, theta, theta_prime)
    Q = ((qf0 + qg0, 0.0), (0.0, qf1 + qg1))
    if hasattr(theta, "__iter__"):
        Q = (Q,) * len(O)
    return O, Q
