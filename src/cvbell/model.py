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

This is the array layer.  The scenario (``scenario.StateSpec``) and the
named measurement functions (``quadrature.Identity``, ``Optimal``,
``SignBin``) are plain floats, so the closed forms run without numpy.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from .quadrature import KernelIntegrals, QuadratureRule, kernel_integrals
from .scenario import StateSpec

SQRT_2_OVER_PI = np.sqrt(2.0 / np.pi)

# Wavefunction products divided by the quadrature weight e^(-2x^2):
#   psi_0 psi_1 -> sqrt(2/pi) 2x,  psi_0^2 -> sqrt(2/pi),  psi_1^2 -> sqrt(2/pi) 4x^2
# so ``_site_scalars`` reads a function's site scalars off its kernel integrals.


# ---------------------------------------------------------------------------
# measurement angles
# ---------------------------------------------------------------------------

def _wrap_angles(angles) -> Tuple[float, ...]:
    """Reduce each angle to (-pi, pi]."""
    a = np.asarray(angles, dtype=float)
    return tuple((np.pi - np.mod(np.pi - a, 2.0 * np.pi)).tolist())


@dataclass(frozen=True)
class AngleConfig:
    """Per-site quadrature phases (theta_k, theta_prime_k), stored in (-pi, pi]."""

    theta: Tuple[float, ...]
    theta_prime: Tuple[float, ...]

    def __post_init__(self):
        th = _wrap_angles(self.theta)
        thp = _wrap_angles(self.theta_prime)
        if len(th) != len(thp):
            raise ValueError("theta and theta_prime must have the same length")
        if len(th) == 0:
            raise ValueError("angle lists must be non-empty")
        object.__setattr__(self, "theta", th)
        object.__setattr__(self, "theta_prime", thp)

    @property
    def n_modes(self) -> int:
        return len(self.theta)


# ---------------------------------------------------------------------------
# density matrix
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ProductOperator:
    """Sum of tensor products of 2x2 site factors:
    sum_t weights[t] * factors[t, 0] (x) factors[t, 1] (x) ... (x) factors[t, N-1].

    ``weights`` is (T,) and ``factors`` is (T, N, 2, 2), both stored complex;
    site 0 is the most significant bit of the 2^N-dimensional index.
    """

    weights: np.ndarray
    factors: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=complex)
        a = np.asarray(self.factors, dtype=complex)
        if w.ndim != 1 or a.ndim != 4 or a.shape[0] != w.size or a.shape[2:] != (2, 2):
            raise ValueError(
                f"expected weights (T,), factors (T, N, 2, 2); got {w.shape}, {a.shape}")
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "factors", a)


@dataclass(frozen=True)
class DensityMatrix:
    """Density matrix on N modes, stored as a ``ProductOperator``."""

    n_modes: int
    matrix: ProductOperator

    def __post_init__(self):
        if self.matrix.factors.shape[1] != self.n_modes:
            raise ValueError(f"{self.matrix.factors.shape[1]} sites for {self.n_modes} modes")


def density_matrix(spec: StateSpec) -> DensityMatrix:
    """Detected-state density matrix for the given scenario.

    The two-branch superposition, dephased to weight ``purity`` in the
    occupation basis, is |A><A|/2 + |B><B|/2 + p (|A><B| + |B><A|)/2, with
    branch A occupying modes 0..r-1 and branch B the rest.  Each term is a
    product over sites, and amplitude damping acts on one mode at a time, so
    each term stays one: an occupied site of a branch becomes
    diag(1 - eta, eta), an empty one diag(1, 0), and a coherence site
    sqrt(eta)|1><0| or sqrt(eta)|0><1|.  Dephasing and loss commute for this
    family.
    """
    n, r, eta = spec.n_modes, spec.r_split, spec.efficiency
    occupied = np.array([[1.0 - eta, 0.0], [0.0, eta]])
    empty = np.array([[1.0, 0.0], [0.0, 0.0]])
    up = np.array([[0.0, 0.0], [np.sqrt(eta), 0.0]])      # sqrt(eta)|1><0|
    in_a = (np.arange(n) < r)[:, None, None]
    factors = np.stack([
        np.where(in_a, occupied, empty),                   # |A><A|
        np.where(in_a, empty, occupied),                   # |B><B|
        np.where(in_a, up, up.T),                          # |A><B|
        np.where(in_a, up.T, up),                          # |B><A|
    ])
    weights = 0.5 * np.array([1.0, 1.0, spec.purity, spec.purity])
    return DensityMatrix(n_modes=n, matrix=ProductOperator(weights, factors))


# ---------------------------------------------------------------------------
# single-mode operators
# ---------------------------------------------------------------------------

def _site_scalars(k: KernelIntegrals) -> np.ndarray:
    """(m, q0, q1) = (<0|f|1>, <0|f^2|0>, <1|f^2|1>) from the kernel integrals
    of f: sqrt(2/pi) times (Ip/2, I0/4, I/4)."""
    return SQRT_2_OVER_PI * np.array([k.i_plus / 2.0, k.i_zero / 4.0, k.i_cross / 4.0])


def _site_correlators(mf: float, mg: float, theta, theta_prime) -> np.ndarray:
    """Correlator operators f(X^theta_k) + i g(X^theta'_k), stacked over sites.

    ``mf`` and ``mg`` are the raising amplitudes <0|f|1> and <0|g|1>; the
    diagonal is zero for odd functions.  Scalar angles give one 2x2 matrix,
    length-n angle sequences an (n, 2, 2) stack.
    """
    th = np.asarray(theta, dtype=float)
    thp = np.asarray(theta_prime, dtype=float)
    o = np.zeros(th.shape + (2, 2), dtype=complex)
    o[..., 0, 1] = np.exp(-1j * th) * mf + 1j * np.exp(-1j * thp) * mg
    o[..., 1, 0] = np.exp(1j * th) * mf + 1j * np.exp(1j * thp) * mg
    return o


def site_operator(f, g, theta, theta_prime, rule: QuadratureRule):
    """Build the site operators entering the two inequality sides.

    Returns (O, Q) with O = f(X^theta) + i g(X^theta') (zero diagonal,
    non-Hermitian, enters the correlator) and Q = f(X^theta)^2 + g(X^theta')^2
    (diagonal, angle-independent, enters the bound side).  Both depend on f
    and g only through their kernel integrals, which give the raising
    amplitudes <0|f|1>, <0|g|1> and the diagonal of Q, so either may be its
    ``KernelIntegrals``; when g is f they are not computed a second time.
    Scalar angles give one 2x2 pair, length-n angle sequences (n, 2, 2)
    stacks, with Q broadcast to the shape of O.
    """
    mf, qf0, qf1 = _site_scalars(kernel_integrals(f, rule))
    mg, qg0, qg1 = (mf, qf0, qf1) if g is f else _site_scalars(kernel_integrals(g, rule))
    O = _site_correlators(mf, mg, theta, theta_prime)
    Q = np.broadcast_to(np.diag([qf0 + qg0, qf1 + qg1]), O.shape)
    return O, Q
