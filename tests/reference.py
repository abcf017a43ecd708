"""Reference routes that only the tests call.

Each function reaches a quantity the package computes by a route that shares
no shortcut with the package's own:

- ``angle_scan`` maximizes the oracle ratio over every orthogonal sign
  pattern and a common-phase sweep, so ``orthogonal_angles`` is checked
  against a search rather than assumed optimal;
- ``optimize_epsilon_numeric`` maximizes the oracle ratio over eps by
  golden-section search and a parabola through three ratios, a
  derivative-free check of ``optimal_epsilon``'s stationarity root;
- ``product_operator`` converts numpy arrays to the tuples of Python
  numbers that ``ProductOperator`` takes;
- ``random_product_mixture`` draws separable states, on which local realism
  bounds every ratio by 1, to check the bound side;
- ``loss_kraus`` and ``branch_indices`` build the detected state with
  full-size Kraus operators on explicit bitstrings, independently of
  ``density_matrix``'s per-site factors;
- ``mk_bell_value_product_form`` is the per-site decoherence-product
  convention behind ``mk_critical_product``, which the threshold tests
  invert;
- ``mirrored`` spells a quadrature rule out over the whole line, which the
  package never does, so that tests can sum a rule as a dot product;
- ``dense_matrix`` and ``check_density_matrix`` form a product operator's
  full 2^N x 2^N matrix, which no command builds, to check it entry by
  entry;
- ``einsum_expectation`` and ``einsum_expectation_sums`` are the numpy
  contraction the package used before its plain-float kernel, and
  ``einsum_ratio`` and ``einsum_mk_value`` the oracle and binned values on
  top of it with numpy-built site operators, so that tests can require the
  kernel's results bit for bit;
- ``golub_welsch`` computes a quadrature rule from the eigenvalues of the
  Jacobi matrix, a second method beside the package's Newton iteration
  from asymptotic guesses, and ``mp_refined_rule`` refines its roots at 40
  digits, the reference for both;
- ``mp_integrals`` takes the optimal family's kernel integrals from the erfc
  closed form of G(eps) and its derivative in mpmath, at the caller's
  precision, to check ``optimal_integrals``'s continued fraction;
- ``mp_sides``, ``mp_log_ratio``, ``mp_optimal_epsilon``,
  ``mp_optimal_integrals`` and ``mp_thresholds`` take the two closed-form
  sides, the ratio, its maximizing function and the critical efficiency and
  purity in mpmath, at any split and purity, with every root found by
  ``findroot``, and ``mp_figure2_row`` a ``figure2`` row from them, to check
  the printed digits of ``eval`` and the thresholds;
- ``rule_epsilon`` and ``rule_ratio`` are the closed-form optimum on a
  rule's sums of the family, where the free-function optimizer lands.
"""

from __future__ import annotations

import functools
import itertools
from typing import Tuple

import mpmath
import numpy as np

from cvbell.critical import critical_efficiency
from cvbell.mk_binning import _half_power
from cvbell.functional_bell import BellResult, closed_form_sides, optimal_epsilon
from cvbell.model import AngleConfig, DensityMatrix, ProductOperator, density_matrix
from cvbell.oracle import evaluate, orthogonal_angles
from cvbell.quadrature import Optimal, QuadratureRule, SignBin, kernel_integrals
from cvbell.scenario import StateSpec
from cvbell.variational import family_integrals

_GOLDEN = (np.sqrt(5.0) - 1.0) / 2.0


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
    """Maximization of the ratio over the one-parameter family.

    f = g = x/(1 + eps x^2) at the correlator-maximizing angles, eps in
    (0, 64], by golden section to a 1e-8 bracket and then the vertex of the
    parabola through the ratio at eps and eps +/- 1e-4: the oracle-side
    reference for ``optimal_epsilon``.  The bracket alone is only as good as
    the ratio's roundoff allows: about 2e-15 relative against a curvature of
    about 0.05 per unit eps^2 at (N, r) = (9, 0), so it lands anywhere within
    about 2e-7 of the maximum.  Over 1e-4 the curvature is far above the
    roundoff, and the vertex lands within 2e-9 of ``optimal_epsilon`` at
    (N, r) = (5-11, 0-3), orders 64 and 256.
    """
    rho = density_matrix(spec)
    angles = orthogonal_angles(spec.n_modes, spec.r_split)

    def ratio(eps: float) -> float:
        f = Optimal(eps)
        return evaluate(rho, f, f, angles, rule).ratio

    eps = _golden_section_max(ratio, 1e-9, 64.0, 1e-8)
    h = 1e-4
    below, mid, above = ratio(eps - h), ratio(eps), ratio(eps + h)
    eps += 0.5 * h * (below - above) / (below - 2.0 * mid + above)
    f = Optimal(eps)
    return eps, evaluate(rho, f, f, angles, rule)


def mp_integrals(eps) -> Tuple:
    """(Ip, I, I0) of x/(1 + eps x^2) in mpmath, at its working precision.

    G(eps) = int e^(-2x^2)/(1 + eps x^2) dx = pi a e^(2a^2) erfc(sqrt2 a),
    a = eps^(-1/2); then Ip = (4/eps)(sqrt(pi/2) - G), I0 = -4 G'(eps) and
    I = (16/eps)(Ip/4 + G'(eps)), with G' by mpmath's numerical derivative.
    The cancellations cost a few of the working digits at small eps.
    """
    def g(e):
        return mpmath.pi / mpmath.sqrt(e) * mpmath.exp(2 / e) * mpmath.erfc(mpmath.sqrt(2 / e))

    e = mpmath.mpf(eps)
    dg = mpmath.diff(g, e)
    ip = 4 / e * (mpmath.sqrt(mpmath.pi / 2) - g(e))
    return ip, 16 / e * (ip / 4 + dg), -4 * dg


def mp_sides(n: int, r: int, eta, p, ki) -> Tuple:
    """(correlator side, bound side) at split r and purity p for kernel
    integrals ki = (Ip, I, I0), in mpmath: 0.25 p^2 eta^n (2/pi)^n Ip^(2n)
    and 0.5 (2/pi)^(n/2) 2^-n (C^r I0^(n-r) + I0^r C^(n-r)),
    C = eta I + (1 - eta) I0, each formed as written."""
    ip, ii, i0 = ki
    c = eta * ii + (1 - eta) * i0
    lhs = p * p * eta ** n * (2 / mpmath.pi) ** n * ip ** (2 * n) / 4
    rhs = ((2 / mpmath.pi) ** (mpmath.mpf(n) / 2) / 2 ** (n + 1)
           * (c ** r * i0 ** (n - r) + i0 ** r * c ** (n - r)))
    return lhs, rhs


def mp_log_ratio(n: int, eta, ki, r=None):
    """ln B of ``mp_sides`` at p = 1 and split r (by default n // 2)."""
    lhs, rhs = mp_sides(n, n // 2 if r is None else r, eta, 1, ki)
    return mpmath.log(lhs / rhs)


def mp_optimal_epsilon(n: int, eta, r=None):
    """The eps maximizing ``mp_log_ratio`` at (n, eta) and split r (by
    default n // 2), at any purity, which scales B only: the root of its
    numerical eps-derivative, by ``findroot``'s secant from the float
    ``optimal_epsilon`` and a point 1e-9 relative beside it."""
    r = n // 2 if r is None else r

    def slope(e):
        return mpmath.diff(lambda x: mp_log_ratio(n, eta, mp_integrals(x), r), e)

    e0 = optimal_epsilon(n, r, float(eta))
    return mpmath.findroot(slope, (e0, e0 * (1 + 1e-9)))


def mp_optimal_integrals(n: int, eta):
    """``mp_integrals`` at ``mp_optimal_epsilon`` of the split n // 2."""
    return mp_integrals(mp_optimal_epsilon(n, eta))


def mp_thresholds(n: int, integrals_at, eta_start: float) -> Tuple:
    """(critical efficiency at p = 1, critical purity at eta = 1) in mpmath,
    each None where B(1, 1) <= 1; ``integrals_at`` maps eta to the kernel
    integrals of the function used there.

    The purity threshold is B(1, 1)^(-1/2).  The efficiency threshold is the
    root of ln B = 0 by ``findroot``'s Newton steps from ``eta_start``, on
    the slope at fixed integrals (by the envelope theorem that of the
    maximized ratio too).
    """
    top = mp_log_ratio(n, 1, integrals_at(mpmath.mpf(1)))
    if top <= 0:
        return None, None
    at = functools.lru_cache(integrals_at)   # the value and its slope share a solve
    eta = mpmath.findroot(
        lambda e: mp_log_ratio(n, e, at(e)), mpmath.mpf(eta_start), solver="newton",
        df=lambda e: mpmath.diff(lambda x: mp_log_ratio(n, x, at(e)), e))
    return eta, mpmath.exp(-top / 2)


def mp_figure2_row(ineq: str, n: int) -> Tuple:
    """(eta_crit, p_crit, slope of ln B in eta at eta_crit) of ``figure2``'s
    row for ``ineq`` at n modes, in mpmath at its working precision; None
    for each that does not exist.  The binned ones are the exact product
    inversions; the moment ones come from ``mp_thresholds`` at the
    maximizing function (functional) or the identity (CFRD)."""
    if ineq == "mk":
        product = 2 ** (mpmath.mpf(1 - 2 * n) / n) * mpmath.pi
        return (product if product < 1 else None,
                mpmath.sqrt(product) if product <= 1 else None, None)
    if ineq == "functional":
        def integrals_at(eta):
            return mp_optimal_integrals(n, eta)
    else:
        s = mpmath.sqrt(mpmath.pi / 2)   # Identity's (Ip, I, I0) = s (1, 3, 1)

        def integrals_at(eta):
            return s, 3 * s, s
    eta_c, p_c = mp_thresholds(n, integrals_at, critical_efficiency(n, 1.0, ineq) or 0.9)
    if eta_c is None:
        return None, None, None
    ki = integrals_at(eta_c)
    return eta_c, p_c, mpmath.diff(lambda e: mp_log_ratio(n, e, ki), eta_c)


def _hermite_functions(n: int, u):
    """(psi_(n-1)(u), psi_n(u)) of the orthonormal Hermite functions, on an array."""
    prev = np.zeros_like(u)
    last = np.pi ** -0.25 * np.exp(-0.5 * u * u)
    for k in range(n):
        prev, last = last, np.sqrt(2.0 / (k + 1)) * u * last - np.sqrt(k / (k + 1)) * prev
    return prev, last


@functools.cache
def golub_welsch(n: int) -> QuadratureRule:
    """The e^(-2x^2) rule with n nodes, by Golub and Welsch (Math. Comp. 23,
    221 (1969)).

    The e^(-u^2) nodes are the eigenvalues of the Jacobi matrix (zero
    diagonal, off-diagonal sqrt(k/2)), polished by two Newton steps on
    psi_n, whose derivative is sqrt(2 n) psi_(n-1) - u psi_n.  The weights
    are e^(-u^2) / (n psi_(n-1)(u)^2), symmetrised and normalised to
    sqrt(pi); the symmetrised rule is an exact mirror, so its positive half
    and middle weight describe it.
    """
    off = np.sqrt(np.arange(1, n) / 2.0)
    u = np.linalg.eigvalsh(np.diag(off, 1) + np.diag(off, -1))
    for _ in range(2):
        prev, last = _hermite_functions(n, u)
        u = u - last / (np.sqrt(2.0 * n) * prev - u * last)
    prev, _ = _hermite_functions(n, u)
    w = np.exp(-u * u) / (n * prev * prev)
    u = 0.5 * (u - u[::-1])
    w = 0.5 * (w + w[::-1])
    w *= np.sqrt(np.pi) / w.sum()
    x, w = u / np.sqrt(2.0), w / np.sqrt(2.0)
    half = n - n // 2
    return QuadratureRule(order=n, half_nodes=tuple(x[half:].tolist()),
                          half_weights=tuple(w[half:].tolist()),
                          center_weight=float(w[n // 2]) if n % 2 else 0.0)


def mp_refined_rule(n: int) -> Tuple[list, list]:
    """(nodes, weights) of the positive half of the e^(-2x^2) rule with n
    nodes, in mpmath at 40 digits.

    Each positive root of psi_n from ``golub_welsch`` takes two Newton steps
    on the recurrence psi_k = sqrt(2/k) u psi_(k-1) - sqrt((k-1)/k) psi_(k-2)
    at 40 digits, which carry a float root to the working precision; the
    weights are e^(-u^2) / (n psi_(n-1)(u)^2), unnormalised.
    """
    with mpmath.workdps(40):
        def psi(u):
            prev, last = mpmath.mpf(0), mpmath.pi ** mpmath.mpf(-0.25) * mpmath.exp(-u * u / 2)
            for k in range(1, n + 1):
                prev, last = last, mpmath.sqrt(mpmath.mpf(2) / k) * u * last - mpmath.sqrt(
                    mpmath.mpf(k - 1) / k) * prev
            return prev, last

        root2 = mpmath.sqrt(2)
        nodes, weights = [], []
        for x in golub_welsch(n).half_nodes:
            u = mpmath.mpf(x) * root2
            for _ in range(2):
                prev, last = psi(u)
                u -= last / (mpmath.sqrt(2 * n) * prev - u * last)
            prev, _ = psi(u)
            nodes.append(u / root2)
            weights.append(mpmath.exp(-u * u) / (n * prev * prev) / root2)
    return nodes, weights


def rule_epsilon(n: int, r: int, eta: float, rule: QuadratureRule) -> float:
    """``optimal_epsilon`` on the rule's sums of the family: the eps that the
    free-function optimizer over the rule's nodes lands on."""
    return optimal_epsilon(n, r, eta, integrals=family_integrals(rule))


def rule_ratio(spec: StateSpec, rule: QuadratureRule) -> float:
    """The closed-form ratio at ``rule_epsilon`` on the rule's sums: the
    ratio that the free-function optimizer over the rule's nodes reaches."""
    n, r, eta = spec.n_modes, spec.r_split, spec.efficiency
    sums = family_integrals(rule)
    lhs, rhs = closed_form_sides(n, r, eta, spec.purity, sums(rule_epsilon(n, r, eta, rule)))
    return lhs / rhs


def product_operator(weights, factors) -> ProductOperator:
    """A ``ProductOperator`` from arrays of shapes (T,) and (T, N, 2, 2),
    every site factor the nested tuple of Python numbers it takes."""
    return ProductOperator(np.asarray(weights).tolist(),
                           [[tuple(map(tuple, a)) for a in term]
                            for term in np.asarray(factors).tolist()])


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
    return DensityMatrix(n_modes=n, matrix=product_operator(weights, factors))


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


def mk_bell_value_product_form(spec: StateSpec) -> float:
    """Per-site decoherence-product form (sqrt(2)/2) * (4 eta p^2 / pi)^(N/2).

    This treats eta p^2 as a single per-mode monomial, the convention behind
    the critical-product threshold; it coincides with ``mk_bell_value`` at
    p = 1 but is not the mixed-state expectation value at p < 1.
    """
    n = spec.n_modes
    x = 4.0 * spec.efficiency * spec.purity ** 2 / np.pi
    return float((np.sqrt(2.0) / 2.0) * _half_power(x, n))


def dense_matrix(op: ProductOperator) -> np.ndarray:
    """The dense 2^N x 2^N matrix of a product operator, built by ``np.kron``
    (small N only)."""
    return sum(w * functools.reduce(np.kron, np.asarray(sites, dtype=complex))
               for w, sites in zip(op.weights, op.factors))


def check_density_matrix(rho: DensityMatrix) -> None:
    """Validate Hermiticity and unit trace (each to 1e-12) and positive
    semidefiniteness (smallest eigenvalue at least -1e-10)."""
    m = dense_matrix(rho.matrix)
    herm = np.max(np.abs(m - m.conj().T))
    if herm > 1e-12:
        raise ValueError(f"matrix is not Hermitian: max asymmetry {herm:.3e}")
    tr = np.trace(m)
    if abs(tr - 1.0) > 1e-12:
        raise ValueError(f"trace is {tr!r}, expected 1")
    smallest = float(np.linalg.eigvalsh(m)[0])
    if smallest < -1e-10:
        raise ValueError(f"matrix is not PSD: smallest eigenvalue {smallest:.3e}")


def mirrored(rule: QuadratureRule) -> Tuple[np.ndarray, np.ndarray]:
    """(nodes, weights) of the whole rule, increasing in x: the positive half,
    its mirror image and, at an odd order, the node at 0."""
    x = np.array(rule.half_nodes, dtype=float)
    w = np.array(rule.half_weights, dtype=float)
    odd = rule.order % 2
    return (np.concatenate((-x[::-1], [0.0] * odd, x)),
            np.concatenate((w[::-1], [rule.center_weight] * odd, w)))


def _einsum_traces(op: ProductOperator, mats) -> np.ndarray:
    """tr(a_tk M_k) for every term t and site k; (terms, n)."""
    return np.einsum("tkij,kji->tk", np.asarray(op.factors, dtype=complex),
                     np.asarray(mats, dtype=complex))


def einsum_expectation(op: ProductOperator, mats) -> complex:
    """Tr(op M_1 (x) ... (x) M_n) as w @ prod_k einsum("tkij,kji->tk"), over
    the terms with no zero site trace."""
    traces = _einsum_traces(op, mats)
    live = traces.all(axis=1)
    return complex(np.asarray(op.weights, dtype=complex)[live] @ traces[live].prod(axis=1))


def einsum_expectation_sums(op: ProductOperator, mats, replacements):
    """``einsum_expectation`` without the live-term filter, and the sums over
    sites of the contraction with one site's operator replaced, from prefix
    and suffix products of the site traces."""
    w = np.asarray(op.weights, dtype=complex)
    traces = [_einsum_traces(op, m) for m in [mats, *replacements]]
    f = traces[0]
    ones = np.ones_like(f[:, :1])
    prefix = np.concatenate((ones, np.cumprod(f[:, :-1], axis=1)), axis=1)
    suffix = np.concatenate((np.cumprod(f[:, :0:-1], axis=1)[:, ::-1], ones), axis=1)
    others = prefix * suffix
    sums = np.array([(others * d).sum(axis=1) @ w for d in traces[1:]])
    return complex(w @ f.prod(axis=1)), sums


def _numpy_correlators(mf: float, mg: float, theta, theta_prime) -> np.ndarray:
    """(n, 2, 2) stack of f(X^theta_k) + i g(X^theta'_k) built with numpy."""
    th = np.asarray(theta, dtype=float)
    thp = np.asarray(theta_prime, dtype=float)
    o = np.zeros(th.shape + (2, 2), dtype=complex)
    o[..., 0, 1] = np.exp(-1j * th) * mf + 1j * np.exp(-1j * thp) * mg
    o[..., 1, 0] = np.exp(1j * th) * mf + 1j * np.exp(1j * thp) * mg
    return o


def _numpy_scalars(f, rule: QuadratureRule) -> np.ndarray:
    k = kernel_integrals(f, rule)
    return np.sqrt(2.0 / np.pi) * np.array([k.i_plus / 2.0, k.i_zero / 4.0, k.i_cross / 4.0])


def einsum_ratio(rho: DensityMatrix, f, g, angles: AngleConfig,
                 rule: QuadratureRule) -> float:
    """The oracle ratio |<prod O_k>|^2 / <prod Q_k> by the numpy route."""
    mf, qf0, qf1 = _numpy_scalars(f, rule)
    mg, qg0, qg1 = _numpy_scalars(g, rule)
    o = _numpy_correlators(mf, mg, angles.theta, angles.theta_prime)
    q = np.broadcast_to(np.diag([qf0 + qg0, qf1 + qg1]), o.shape)
    corr = einsum_expectation(rho.matrix, o)
    return float(abs(corr) ** 2 / einsum_expectation(rho.matrix, q).real)


def einsum_mk_value(rho: DensityMatrix, angles: AngleConfig) -> float:
    """The binned |S_N| by the numpy route, every second site halved."""
    n = rho.n_modes
    m = _numpy_scalars(SignBin(), None)[0]
    halves = np.where(np.arange(n) % 2 == 1, 0.5, 1.0).reshape(-1, 1, 1)
    values = []
    for th, thp in ((angles.theta, angles.theta_prime), (angles.theta_prime, angles.theta)):
        pi_n = einsum_expectation(rho.matrix, _numpy_correlators(m, m, th, thp) * halves)
        values.append(abs(pi_n) if n % 2 else abs(pi_n.real) + abs(pi_n.imag))
    return max(values)
