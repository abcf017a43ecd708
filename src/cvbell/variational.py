"""Free-function optimization of the Bell ratio over quadrature-node values.

Rather than assuming the x/(1 + eps x^2) family, this module maximizes the
exact Fock-space ratio over the value of the measurement function at every
positive quadrature node (odd extension supplies the negative axis).  The
discretized stationarity condition has the same algebra as the continuum one,
so the optimizer should land on the node samples of x/(1 + eps x^2) up to its
own tolerance; the tests use that as a two-route consistency check.

The ratio is scale invariant, which leaves a flat direction that stalls
quasi-Newton steps.  The gauge pins the value at the smallest positive node
to ``norm_gauge`` times that node (unit slope through the origin by default)
and optimizes the remaining values.

Gradients are exact.  The ratio sees the node values only through the site
scalars of ``oracle.ratio_partials``: the raising amplitude m, linear in the
values, and the squared moments q0 and q1, quadratic in them.  The chain
rule through those takes 3N + 2 contractions per gradient (4N + 2 when f and
g are optimized separately).  BFGS runs on the exact gradient; a few Newton
steps finish the runs whose line searches stop on roundoff short of gtol.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Tuple

import numpy as np

from .errors import ConvergenceError
from .model import SQRT_2_OVER_PI, Basis, StateSpec, density_matrix
from .oracle import BellResult, evaluate, orthogonal_angles, ratio_partials
from .quadrature import QuadratureRule

#: Largest mode count the free-function optimizer accepts.
MAX_MODES = 10


@dataclass(frozen=True)
class FreeFunction:
    """Odd function represented by its values at positive quadrature nodes."""

    nodes: np.ndarray
    values: np.ndarray
    norm_gauge: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "nodes", np.asarray(self.nodes, dtype=float))
        object.__setattr__(self, "values", np.asarray(self.values, dtype=float))
        if self.nodes.shape != self.values.shape or self.nodes.ndim != 1:
            raise ValueError("nodes and values must be 1-D arrays of equal length")
        if not np.isfinite(self.values).all():
            raise ValueError("node values must be finite")

    def normalized(self) -> "FreeFunction":
        """Rescale so that value/node = norm_gauge at the smallest node."""
        v0 = self.values[0]
        if v0 == 0.0:
            raise ValueError("cannot gauge-fix a function vanishing at the first node")
        scale = self.norm_gauge * self.nodes[0] / v0
        return FreeFunction(self.nodes, self.values * scale, self.norm_gauge)

    def as_measurement(self) -> Basis:
        return Basis(self.nodes, self.values)

    def to_csv_rows(self):
        return [(float(x), float(v)) for x, v in zip(self.nodes, self.values)]


def free_function_from(f, rule: QuadratureRule, norm_gauge: float = 1.0) -> FreeFunction:
    """Sample a callable or measurement function onto the rule's positive nodes."""
    x = rule.positive_nodes
    if isinstance(f, FreeFunction):
        if f.nodes.shape == x.shape and np.allclose(f.nodes, x):
            return FreeFunction(x, f.values, norm_gauge)
        return FreeFunction(x, f.as_measurement()(x), norm_gauge)
    fn = f if callable(f) else None
    if fn is None:
        raise ValueError(f"cannot build a free function from {type(f)!r}")
    return FreeFunction(x, np.asarray(fn(x), dtype=float), norm_gauge)


def _fd_hessian(gradient: Callable, x: np.ndarray,
                step: float = 1e-4) -> np.ndarray:
    """Symmetrized central differences of the exact gradient."""
    n = x.size
    h = step * max(float(np.max(np.abs(x))), 1e-3)
    hess = np.empty((n, n))
    for i in range(n):
        xp = x.copy()
        xm = x.copy()
        xp[i] += h
        xm[i] -= h
        hess[:, i] = (gradient(xp) - gradient(xm)) / (2.0 * h)
    return 0.5 * (hess + hess.T)


class _RatioProblem:
    """Ratio and exact node-value gradient at a fixed scenario and angles."""

    def __init__(self, spec: StateSpec, rule: QuadratureRule):
        if spec.n_modes > MAX_MODES:
            raise ValueError(f"free-function optimization is limited to {MAX_MODES} modes")
        self.rule = rule
        self.rho = density_matrix(spec)
        self.angles = orthogonal_angles(spec.n_modes, spec.r_split)
        self.nodes = rule.positive_nodes
        # node-value derivatives of the site scalars; the odd mirror doubles
        # every positive-node weight
        c = 4.0 * SQRT_2_OVER_PI * rule.weights[rule.nodes > 0.0]
        self._dm = c * self.nodes                  # dm/dv
        self._dq0 = c                              # dq0/dv, per unit v
        self._dq1 = 4.0 * c * self.nodes ** 2      # dq1/dv, per unit v

    def result(self, values: np.ndarray, g_values: Optional[np.ndarray] = None) -> BellResult:
        f = Basis(self.nodes, values)
        g = f if g_values is None else Basis(self.nodes, g_values)
        return evaluate(self.rho, f, g, self.angles, self.rule)

    def ratio_and_gradient(self, values: np.ndarray,
                           g_values: Optional[np.ndarray] = None) -> Tuple[float, np.ndarray]:
        """The ratio and its gradient in the node values of f, then of g.

        Without ``g_values`` the same function sits on both quadratures and
        the gradient has one entry per node.
        """
        f = Basis(self.nodes, values)
        g = f if g_values is None else Basis(self.nodes, g_values)
        p = ratio_partials(self.rho, f, g, self.angles, self.rule)
        d_q0, d_q1 = p.d_moments
        d_moments = d_q0 * self._dq0 + d_q1 * self._dq1
        if g_values is None:
            # Q0 = 2 q0 and Q1 = 2 q1 when f is on both quadratures
            return p.ratio, p.d_amplitude[0] * self._dm + 2.0 * d_moments * values
        d_mf, d_mg = p.d_amplitude
        return p.ratio, np.concatenate((d_mf * self._dm + d_moments * values,
                                        d_mg * self._dm + d_moments * g_values))


def _maximize(objective: Callable, x0: np.ndarray, gtol: float, max_iter: int,
              iteration_callback: Optional[Callable[[float], None]]):
    """Drive the gradient max-norm of the objective below gtol; returns (x, norm).

    ``objective`` returns the value to minimize and its exact gradient.  BFGS
    stops short of gtol when the decrease its line search asks for falls
    below the objective's roundoff.  Up to three Newton steps, judged by the
    gradient norm rather than the objective, finish those runs.
    """
    # imported here so that only the optimizer pays for loading scipy.optimize
    from scipy.optimize import minimize

    callback = None
    if iteration_callback is not None:
        callback = lambda intermediate_result: iteration_callback(-intermediate_result.fun)
    res = minimize(objective, np.asarray(x0, dtype=float), jac=True, method="BFGS",
                   callback=callback, options={"gtol": gtol, "maxiter": max_iter})
    x, g = res.x, res.jac
    gradient = lambda z: objective(z)[1]
    for _ in range(3):
        grad_norm = float(np.max(np.abs(g)))
        if grad_norm <= gtol:
            break
        # the valley directions are nearly flat, so the spectrum is clamped
        # before inverting
        evals, evecs = np.linalg.eigh(_fd_hessian(gradient, x))
        floor = 1e-6 * max(evals[-1], 1e-12)
        step = evecs @ ((evecs.T @ g) / np.maximum(evals, floor))
        for scale in (1.0, 0.25, 0.05):
            cand = x - scale * step
            g_cand = gradient(cand)
            if np.max(np.abs(g_cand)) < grad_norm:
                x, g = cand, g_cand
                break
        else:
            break
    return x, float(np.max(np.abs(g)))


def optimize_function(spec: StateSpec, rule: QuadratureRule, init, *,
                      gtol: float = 1e-7, max_iter: int = 500,
                      iteration_callback: Optional[Callable[[float], None]] = None):
    """Maximize the ratio over node values; returns (FreeFunction, BellResult).

    The same function is used on both quadratures of every site, which is the
    stationary configuration.  Gradients are exact (chain rule through the
    site scalars); ``iteration_callback`` receives the ratio at each accepted
    BFGS iterate.

    Raises ConvergenceError with the best (FreeFunction, BellResult) attached
    if the gradient max-norm does not reach ``gtol``.
    """
    problem = _RatioProblem(spec, rule)
    start = free_function_from(init, rule).normalized()
    v0 = start.values[0]

    def objective(free: np.ndarray):
        ratio, grad = problem.ratio_and_gradient(np.concatenate(([v0], free)))
        return -ratio, -grad[1:]

    x, grad_norm = _maximize(objective, start.values[1:], gtol, max_iter,
                             iteration_callback)
    best_values = np.concatenate(([v0], x))
    best = FreeFunction(start.nodes, best_values, start.norm_gauge)
    raw = problem.result(best_values)
    bell = BellResult(
        lhs=raw.lhs, rhs=raw.rhs, ratio=raw.ratio,
        inequality_id="functional", function_id="free_function",
        angles=raw.angles,
    )
    if grad_norm > gtol:
        raise ConvergenceError(
            f"stationarity not reached: gradient max-norm {grad_norm:.3e} > {gtol:.1e}",
            best=(best, bell), residual=grad_norm,
        )
    return best, bell


def optimize_function_pair(spec: StateSpec, rule: QuadratureRule, init, *,
                           gtol: float = 1e-7, max_iter: int = 900):
    """Relaxed variant optimizing f and g independently.

    Returns (f, g, BellResult).  Used by the tests to confirm that the
    g = +/- f relation emerges from the optimization instead of being
    imposed; production paths use ``optimize_function``.
    """
    problem = _RatioProblem(spec, rule)
    start = free_function_from(init, rule).normalized()
    v0 = start.values[0]
    n_free = start.nodes.size - 1

    def objective(packed: np.ndarray):
        fv = np.concatenate(([v0], packed[:n_free]))
        ratio, grad = problem.ratio_and_gradient(fv, packed[n_free:])
        return -ratio, -grad[1:]

    x0 = np.concatenate((start.values[1:], start.values))
    x, grad_norm = _maximize(objective, x0, gtol, max_iter, None)
    fv = np.concatenate(([v0], x[:n_free]))
    gv = x[n_free:]
    f_best = FreeFunction(start.nodes, fv, start.norm_gauge)
    g_best = FreeFunction(start.nodes, gv, start.norm_gauge)
    bell = problem.result(fv, gv)
    if grad_norm > gtol:
        raise ConvergenceError(
            f"stationarity not reached: gradient max-norm {grad_norm:.3e} > {gtol:.1e}",
            best=(f_best, g_best, bell), residual=grad_norm,
        )
    return f_best, g_best, bell


def euler_lagrange_residual(f, spec: StateSpec, rule: QuadratureRule) -> float:
    """Max-norm stationarity defect of the ratio at a given function.

    The function is gauge-normalized first, so the residual is invariant
    under rescaling f -> c f; the exact gradient is taken over all non-gauge
    node directions.  Near zero at a true optimum, order 1e-3 or larger away
    from one.
    """
    problem = _RatioProblem(spec, rule)
    ff = free_function_from(f, rule).normalized()
    _, grad = problem.ratio_and_gradient(ff.values)
    return float(np.max(np.abs(grad[1:])))


def fit_optimal_epsilon(f: FreeFunction, rule: QuadratureRule) -> Tuple[float, float, float]:
    """Weighted least-squares fit of c * x/(1 + eps x^2) to the node values.

    Returns (eps, scale, relative_l2_error) with the Gaussian quadrature
    weights as the error measure.  The scale is eliminated analytically, so
    only eps is searched.
    """
    from scipy.optimize import minimize_scalar

    x = f.nodes
    v = f.values
    if rule.positive_nodes.shape != x.shape or not np.allclose(rule.positive_nodes, x):
        raise ValueError("fit requires the function to live on the rule's positive nodes")
    w = rule.weights[rule.nodes > 0.0]

    def sse(eps: float) -> float:
        phi = x / (1.0 + eps * x * x)
        denom = np.dot(w, phi * phi)
        c = np.dot(w, v * phi) / denom
        r = v - c * phi
        return float(np.dot(w, r * r))

    res = minimize_scalar(sse, bounds=(1e-6, 64.0), method="bounded",
                          options={"xatol": 1e-12})
    eps = float(res.x)
    phi = x / (1.0 + eps * x * x)
    c = float(np.dot(w, v * phi) / np.dot(w, phi * phi))
    rel = float(np.sqrt(sse(eps) / np.dot(w, v * v)))
    return eps, c, rel
