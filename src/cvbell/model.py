"""State family, loss/impurity channel, and single-mode measurement operators.

The states live on N optical modes restricted to at most one photon each, so
an N-mode density matrix is 2^N x 2^N, indexed by occupation bitstrings with
mode 0 as the most significant bit.  That restriction is exact here: the
states of interest start inside the subspace and photon loss never raises an
occupation number.  Only the nonzero entries are stored: the detected state
has 2^r + 2^(N-r) + 1 of them.

Quadrature convention: a = X + iP, vacuum variance 1/4, so the single-photon
sector wavefunctions are psi_0(x) = (2/pi)^(1/4) e^(-x^2) and
psi_1(x) = (2/pi)^(1/4) 2x e^(-x^2).  A rotated quadrature measurement is
X^theta = (a e^(-i theta) + a^dag e^(i theta))/2, implemented through
f(X^theta) = U(theta) f(X) U(theta)^dag with U = e^(i theta a^dag a), which
multiplies the Fock matrix element <m|f(X)|n> by e^(i theta (m - n)).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Callable, Tuple

import numpy as np
from scipy.sparse import coo_array

from .errors import ResourceLimitError
from .quadrature import QuadratureRule, check_odd, integrate

#: Hard cap on the stored entries of a detected state: 32 bytes each, and
#: eight times that while the loss channel is being applied.
MAX_STATE_ENTRIES = 2 ** 16

SQRT_2_OVER_PI = np.sqrt(2.0 / np.pi)

# Wavefunction products divided by the quadrature weight e^(-2x^2):
#   psi_0 psi_1 -> sqrt(2/pi) 2x,  psi_0^2 -> sqrt(2/pi),  psi_1^2 -> sqrt(2/pi) 4x^2


# ---------------------------------------------------------------------------
# measurement functions
# ---------------------------------------------------------------------------

class MeasurementFunction:
    """An odd real function of a single quadrature outcome.

    Instances are callable on scalars or arrays.  All concrete variants are
    odd by construction, which the operator builders rely on (odd functions
    have exactly vanishing diagonal Fock elements in the qubit subspace).
    """

    is_odd = True
    label = "abstract"

    def __call__(self, x):
        raise NotImplementedError


@dataclass(frozen=True)
class Identity(MeasurementFunction):
    """f(x) = x: plain homodyne outcome, the moment-correlation choice."""

    label = "identity"

    def __call__(self, x):
        return np.asarray(x, dtype=float)


@dataclass(frozen=True)
class Optimal(MeasurementFunction):
    """f(x) = x / (1 + epsilon x^2), the stationary family of the Bell ratio."""

    epsilon: float

    def __post_init__(self):
        if not (np.isfinite(self.epsilon) and self.epsilon > 0.0):
            raise ValueError(f"epsilon must be positive and finite, got {self.epsilon!r}")

    @property
    def label(self) -> str:
        return f"optimal(epsilon={self.epsilon:.12g})"

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        return x / (1.0 + self.epsilon * x * x)


@dataclass(frozen=True)
class SignBin(MeasurementFunction):
    """Binary binning of the outcome: +1 for x >= 0, -1 otherwise.

    The threshold sits exactly at 0 with f(0) = +1 (a measure-zero choice,
    fixed for determinism).
    """

    label = "sign_bin"

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        return np.where(x >= 0.0, 1.0, -1.0)


class Basis(MeasurementFunction):
    """Free odd function given by its values on a positive-axis node grid.

    Values are extended to negative x by oddness and to off-grid points by
    linear interpolation through (0, 0); beyond the last node the last value
    is held.  When evaluated exactly on its own grid the stored values are
    returned unchanged, so quadrature consumers built on the same rule see no
    interpolation error.
    """

    def __init__(self, nodes, values):
        nodes = np.asarray(nodes, dtype=float)
        values = np.asarray(values, dtype=float)
        if nodes.ndim != 1 or nodes.shape != values.shape:
            raise ValueError("nodes and values must be 1-D arrays of equal length")
        if nodes.size == 0 or np.any(nodes <= 0.0) or np.any(np.diff(nodes) <= 0.0):
            raise ValueError("nodes must be strictly increasing and positive")
        if not np.isfinite(values).all():
            raise ValueError("node values must be finite")
        self.nodes = nodes
        self.values = values
        self._xp = np.concatenate(([0.0], nodes))
        self._fp = np.concatenate(([0.0], values))

    @classmethod
    def from_function(cls, fn: Callable, rule: QuadratureRule) -> "Basis":
        x = rule.positive_nodes
        return cls(x, np.asarray(fn(x), dtype=float))

    @property
    def label(self) -> str:
        return f"basis[{self.nodes.size}]"

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        return np.sign(x) * np.interp(np.abs(x), self._xp, self._fp)


def _as_odd_callable(f) -> Callable:
    if isinstance(f, MeasurementFunction):
        return f
    if callable(f):
        return f
    raise ValueError(f"expected a measurement function or callable, got {type(f)!r}")


# ---------------------------------------------------------------------------
# scenario description
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class StateSpec:
    """Physical scenario: mode count N, photon split r, purity p, efficiency eta.

    The state superposes r occupied modes against the complementary pattern;
    ``purity`` is the weight of the pure state against its occupation-basis
    dephased mixture, and ``efficiency`` is the per-mode photon survival
    probability of the detection chain.
    """

    n_modes: int
    r_split: int
    purity: float = 1.0
    efficiency: float = 1.0

    def __post_init__(self):
        if not isinstance(self.n_modes, (int, np.integer)) or self.n_modes < 1:
            raise ValueError(f"n_modes must be a positive integer, got {self.n_modes!r}")
        if not isinstance(self.r_split, (int, np.integer)) or not 0 <= self.r_split <= self.n_modes:
            raise ValueError(
                f"r_split must be an integer in [0, {self.n_modes}], got {self.r_split!r}"
            )
        if not (np.isfinite(self.purity) and 0.0 <= self.purity <= 1.0):
            raise ValueError(f"purity must lie in [0, 1], got {self.purity!r}")
        if not (np.isfinite(self.efficiency) and 0.0 < self.efficiency <= 1.0):
            raise ValueError(f"efficiency must lie in (0, 1], got {self.efficiency!r}")


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
class DensityMatrix:
    """2^N-dimensional density matrix over occupation bitstrings (mode 0 = MSB).

    ``matrix`` may be given dense or sparse; it is stored as a COO array of
    its nonzero entries with duplicates summed.
    """

    n_modes: int
    matrix: coo_array

    def __post_init__(self):
        m = coo_array(self.matrix, dtype=complex)
        dim = 2 ** self.n_modes
        if m.shape != (dim, dim):
            raise ValueError(f"matrix shape {m.shape} does not match 2^{self.n_modes}")
        m.sum_duplicates()
        object.__setattr__(self, "matrix", m)

    @property
    def dim(self) -> int:
        return 2 ** self.n_modes

    def check(self, herm_tol: float = 1e-12, trace_tol: float = 1e-12,
              psd_tol: float = -1e-10) -> None:
        """Validate Hermiticity, unit trace, and positive semidefiniteness."""
        m = self.matrix.toarray()
        herm = np.max(np.abs(m - m.conj().T))
        if herm > herm_tol:
            raise ValueError(f"matrix is not Hermitian: max asymmetry {herm:.3e}")
        tr = np.trace(m)
        if abs(tr - 1.0) > trace_tol:
            raise ValueError(f"trace is {tr!r}, expected 1")
        smallest = float(np.linalg.eigvalsh(m)[0])
        if smallest < psd_tol:
            raise ValueError(f"matrix is not PSD: smallest eigenvalue {smallest:.3e}")

    def to_debug_json(self, threshold: float = 0.0) -> str:
        """Serialize nonzero entries keyed by 'rowbits|colbits' for fixtures."""
        n = self.n_modes
        m = self.matrix
        keep = np.abs(m.data) > threshold
        entries = {
            f"{i:0{n}b}|{j:0{n}b}": [v.real, v.imag]
            for i, j, v in zip(m.row[keep].tolist(), m.col[keep].tolist(),
                               m.data[keep].tolist())
        }
        return json.dumps({"n_modes": n, "entries": entries}, sort_keys=True)

    @classmethod
    def from_debug_json(cls, payload: str) -> "DensityMatrix":
        data = json.loads(payload)
        n = int(data["n_modes"])
        rows, cols, vals = [], [], []
        for key, (re, im) in data["entries"].items():
            row, col = key.split("|")
            rows.append(int(row, 2))
            cols.append(int(col, 2))
            vals.append(complex(re, im))
        m = coo_array((np.array(vals), (rows, cols)), shape=(2 ** n, 2 ** n))
        return cls(n_modes=n, matrix=m)


def loss_kraus(eta: float):
    """Amplitude-damping Kraus pair for photon survival probability eta.

    K0 = |0><0| + sqrt(eta)|1><1|, K1 = sqrt(1-eta)|0><1|;
    K0^dag K0 + K1^dag K1 = 1 exactly (trace preserving).
    """
    k0 = np.array([[1.0, 0.0], [0.0, np.sqrt(eta)]], dtype=complex)
    k1 = np.array([[0.0, np.sqrt(1.0 - eta)], [0.0, 0.0]], dtype=complex)
    return k0, k1


def branch_indices(n: int, r: int) -> Tuple[int, int]:
    """Bitstring indices of the two superposed occupation patterns.

    Branch A has modes 0..r-1 occupied, branch B the complement.
    """
    a = ((1 << r) - 1) << (n - r)
    b = (1 << (n - r)) - 1
    return a, b


def density_matrix(spec: StateSpec) -> DensityMatrix:
    """Detected-state density matrix for the given scenario.

    Construction order: the two-branch superposition, occupation-basis
    dephasing to weight ``purity`` (which only scales the two off-diagonal
    entries), then the per-mode amplitude-damping channel, applied to every
    stored entry |i><j| as sum_K K|i_k><j_k|K^dag on mode k.  Dephasing and
    loss commute for this family, so the order is a documentation choice,
    not a physical one.

    Each branch's diagonal spreads over the 2^r (resp. 2^(N-r)) patterns its
    photons can lose, sharing the vacuum; the two coherences stay single
    entries.  That count, 2^r + 2^(N-r) + 1, is checked against
    ``MAX_STATE_ENTRIES`` before anything is built.
    """
    n, r = spec.n_modes, spec.r_split
    entries = 2 ** r + 2 ** (n - r) + 1
    if entries > MAX_STATE_ENTRIES:
        raise ResourceLimitError(
            f"n_modes={n}, r_split={r} gives a state of {entries} entries, "
            f"above the budget of {MAX_STATE_ENTRIES}"
        )
    a, b = branch_indices(n, r)
    rows = np.array([a, b, a, b], dtype=np.int64)
    cols = np.array([a, b, b, a], dtype=np.int64)
    vals = np.array([0.5, 0.5, 0.5 * spec.purity, 0.5 * spec.purity], dtype=complex)

    kraus = np.stack(loss_kraus(spec.efficiency))      # (Kraus op, out, in)
    levels = np.arange(2, dtype=np.int64)[:, None]
    for shift in range(n):
        # term [K, s, t, e] = K[s, i] rho_e conj(K[t, j]), where i and j are
        # this mode's bits of entry e's row and column, lands on that row with
        # the bit set to s and that column with the bit set to t
        left = kraus[:, :, (rows >> shift) & 1]
        right = kraus[:, :, (cols >> shift) & 1].conj()
        terms = left[:, :, None, :] * right[:, None, :, :] * vals
        new_rows = (rows & ~(1 << shift)) | (levels << shift)
        new_cols = (cols & ~(1 << shift)) | (levels << shift)
        rows = np.broadcast_to(new_rows[None, :, None, :], terms.shape).ravel()
        cols = np.broadcast_to(new_cols[None, None, :, :], terms.shape).ravel()
        vals = terms.ravel()
        keep = vals != 0
        rows, cols, vals = rows[keep], cols[keep], vals[keep]
    dim = 2 ** n
    return DensityMatrix(n_modes=n, matrix=coo_array((vals, (rows, cols)), shape=(dim, dim)))


# ---------------------------------------------------------------------------
# single-mode operators
# ---------------------------------------------------------------------------

def raising_amplitude(f, rule: QuadratureRule) -> float:
    """<0|f(X)|1> = integral of f psi_0 psi_1 for an odd f.

    Sign binning is integrated in closed form (sqrt(2/pi)); a quadrature rule
    sees its jump at 0 and converges only algebraically.
    """
    if isinstance(f, SignBin):
        return float(SQRT_2_OVER_PI)
    fn = _as_odd_callable(f)
    x = rule.nodes
    return integrate(rule, SQRT_2_OVER_PI * 2.0 * x * np.asarray(fn(x), dtype=float))


def squared_moments(f, rule: QuadratureRule) -> Tuple[float, float]:
    """(<0|f^2|0>, <1|f^2|1>); exact (1, 1) for sign binning."""
    if isinstance(f, SignBin):
        return 1.0, 1.0
    fn = _as_odd_callable(f)
    x = rule.nodes
    fx = np.asarray(fn(x), dtype=float)
    q0 = integrate(rule, SQRT_2_OVER_PI * fx * fx)
    q1 = integrate(rule, SQRT_2_OVER_PI * 4.0 * x * x * fx * fx)
    return q0, q1


def single_mode_element(f, m: int, n: int, theta: float, rule: QuadratureRule) -> complex:
    """<m|f(X^theta)|n> on the {|0>,|1>} subspace.

    Equals e^(i theta (m - n)) times the unrotated element; for odd f the
    diagonal elements vanish identically, so they are returned as exact zero.
    """
    if m not in (0, 1) or n not in (0, 1):
        raise ValueError(f"m and n must be 0 or 1, got {(m, n)!r}")
    if m == n:
        check_odd(_as_odd_callable(f), rule)
        return 0.0 + 0.0j
    amp = raising_amplitude(f, rule)
    return np.exp(1j * theta * (m - n)) * amp


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


def site_operator(f, g, theta: float, theta_prime: float, rule: QuadratureRule):
    """Build the pair of 2x2 site operators entering the two inequality sides.

    Returns (O, Q) with O = f(X^theta) + i g(X^theta') (zero diagonal,
    non-Hermitian, enters the correlator) and Q = f(X^theta)^2 + g(X^theta')^2
    (diagonal, angle-independent, enters the bound side).
    """
    for fn in (f, g):
        check_odd(_as_odd_callable(fn), rule)
    O = _site_correlators(raising_amplitude(f, rule), raising_amplitude(g, rule),
                          theta, theta_prime)
    qf0, qf1 = squared_moments(f, rule)
    qg0, qg1 = squared_moments(g, rule)
    Q = np.array([[qf0 + qg0, 0.0], [0.0, qf1 + qg1]], dtype=complex)
    return O, Q
