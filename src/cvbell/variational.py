"""Free-function optimization of the Bell ratio over quadrature-node values.

Rather than assuming the x/(1 + eps x^2) family, this module optimizes the
exact Fock-space ratio over the value of the measurement function at every
positive quadrature node (odd extension supplies the negative axis).

The ratio sees the node values only through the site scalars of
``oracle.ratio_partials``: the raising amplitude m, linear in the values,
and the squared moments Q0 and Q1, quadratic in them.  With A = d ratio/d m
and (b0, b1) = d ratio/d (Q0, Q1), the exact node gradient is
grad_i = c_i (A x_i + 2 (b0 + 4 b1 x_i^2) v_i), which vanishes exactly at
v proportional to x/(1 + eps x^2) with eps = 4 b1/b0.  So for any state the
stationary functions are the paper's analytic family, with loss and noise
entering through b0 and b1 only, and the optimizer iterates eps <- 4 b1/b0
with the partials taken at the family member of the current eps.  The first
update takes them at the start function, which projects any start onto the
family.  The map is steep at large eps (at N = 9, r = 0 it falls from 4704
eps at eps = 0.5 to 0.004 eps at eps = 20), so it runs in u = log(1 + eps),
positive exactly where eps is, as the root of log(1 + 4 b1/b0) - u by the
bracketed secant solver of ``functional_bell``.

The ratio is scale invariant.  The gauge pins the value at the smallest
positive node to ``norm_gauge`` times that node.  The stationarity residual
is the gradient max-norm over the other nodes divided by the ratio, free of
the function's scale and of the ratio's (which goes as p^2).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Tuple

import numpy as np

from .errors import ConvergenceError
from .functional_bell import _bracketed_root
from .model import SQRT_2_OVER_PI, Basis, Optimal, StateSpec, density_matrix
from .oracle import (
    BellResult,
    RatioPartials,
    _golden_section_max,
    evaluate,
    orthogonal_angles,
    ratio_partials,
)
from .quadrature import QuadratureRule

# residual |log(1 + 4 b1/b0) - u| at which the map counts as converged
_MAP_TOL = 1e-12
# bound on the relaxed pair's re-solves while its amplitude ratio settles
_MAX_SWEEPS = 100


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


class _RatioProblem:
    """Ratio, site-scalar partials and node-value gradient at a fixed
    scenario and angles."""

    def __init__(self, spec: StateSpec, rule: QuadratureRule):
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

    def partials(self, values: np.ndarray,
                 g_values: Optional[np.ndarray] = None) -> RatioPartials:
        f = Basis(self.nodes, values)
        g = f if g_values is None else Basis(self.nodes, g_values)
        return ratio_partials(self.rho, f, g, self.angles, self.rule)

    def ratio_and_gradient(self, values: np.ndarray,
                           g_values: Optional[np.ndarray] = None) -> Tuple[float, np.ndarray]:
        """The ratio and its gradient in the node values of f, then of g.

        Without ``g_values`` the same function sits on both quadratures and
        the gradient has one entry per node.
        """
        p = self.partials(values, g_values)
        d_q0, d_q1 = p.d_moments
        d_moments = d_q0 * self._dq0 + d_q1 * self._dq1
        if g_values is None:
            # Q0 = 2 q0 and Q1 = 2 q1 when f is on both quadratures
            return p.ratio, p.d_amplitude[0] * self._dm + 2.0 * d_moments * values
        d_mf, d_mg = p.d_amplitude
        return p.ratio, np.concatenate((d_mf * self._dm + d_moments * values,
                                        d_mg * self._dm + d_moments * g_values))

    def residual(self, values: np.ndarray, g_values: Optional[np.ndarray] = None) -> float:
        """Gradient max-norm over all but the gauge node, relative to the ratio."""
        ratio, grad = self.ratio_and_gradient(values, g_values)
        return float(np.max(np.abs(grad[1:])) / ratio)

    def family(self, u: float) -> np.ndarray:
        """Node values of x/(1 + eps x^2) at eps = exp(u) - 1, scaled to value/node 1
        at the gauge node: the ratio and the map ignore the scale, and it keeps
        the bound side in the float range at large eps."""
        eps = np.expm1(u)
        return Optimal(eps)(self.nodes) * (1.0 + eps * self.nodes[0] ** 2)


def _stationary_epsilon(p: RatioPartials) -> float:
    """The eps at which the node gradient of ``p`` vanishes: 4 b1/b0."""
    b0, b1 = p.d_moments
    if not b0 < 0.0:
        # every bound-side weight is nonnegative, so b0 < 0 whenever ratio > 0
        raise ValueError("the ratio vanishes for every function (zero purity or a "
                         "correlator below the float range): nothing to optimize")
    return 4.0 * b1 / b0


def optimize_function(spec: StateSpec, rule: QuadratureRule, init, *,
                      gtol: float = 1e-7,
                      iteration_callback: Optional[Callable[[float], None]] = None):
    """Solve the stationarity condition of the ratio in the node values;
    returns (FreeFunction, BellResult).

    The same function is used on both quadratures of every site, which is
    the stationary configuration.  ``iteration_callback`` receives the ratio
    at every map update: first at the start function, then on the family.

    Raises ConvergenceError with the last (FreeFunction, BellResult)
    attached if the relative stationarity residual exceeds ``gtol``, and
    ValueError if the ratio is zero at the start.
    """
    problem = _RatioProblem(spec, rule)
    start = free_function_from(init, rule).normalized()

    def update(values: np.ndarray) -> float:
        p = problem.partials(values)
        if iteration_callback is not None:
            iteration_callback(p.ratio)
        return _stationary_epsilon(p)

    try:
        u = _bracketed_root(lambda u: np.log1p(update(problem.family(u))) - u,
                            np.log1p(update(start.values)), _MAP_TOL, "free-function")
    except ConvergenceError as exc:
        u = exc.best        # judged by its gradient like any other end point
    best = FreeFunction(start.nodes, problem.family(u), start.norm_gauge).normalized()
    raw = problem.result(best.values)
    bell = BellResult(lhs=raw.lhs, rhs=raw.rhs, ratio=raw.ratio, inequality_id="functional",
                      function_id="free_function", angles=raw.angles)
    residual = problem.residual(best.values)
    if residual > gtol:
        raise ConvergenceError(
            f"stationarity not reached: relative gradient max-norm {residual:.3e} > {gtol:.1e}",
            best=(best, bell), residual=residual,
        )
    return best, bell


def optimize_function_pair(spec: StateSpec, rule: QuadratureRule, init, init_g, *,
                           gtol: float = 1e-7):
    """Relaxed variant with f and g free; returns (f, g, BellResult).

    Stationarity in g gives g proportional to x/(1 + eps x^2) with the same
    eps = 4 b1/b0 as f, so the map carries eps and the scale s of g = s f,
    s <- (d ratio/d mg) / (d ratio/d mf).  f is gauge-fixed; g starts from
    ``init_g`` as given.  s takes a plain step at every update; once eps has
    converged each further solve returns after one update, and the solves
    repeat until s settles too.  Used by the tests to confirm that g = +/- f
    emerges instead of being imposed; production paths use
    ``optimize_function``.
    """
    problem = _RatioProblem(spec, rule)
    start = free_function_from(init, rule).normalized()
    scales = []

    def update(fv: np.ndarray, gv: np.ndarray) -> float:
        p = problem.partials(fv, gv)
        d_mf, d_mg = p.d_amplitude
        scales.append(d_mg / d_mf)
        return _stationary_epsilon(p)

    def map_residual(u: float) -> float:
        fv = problem.family(u)
        return np.log1p(update(fv, scales[-1] * fv)) - u

    u = np.log1p(update(start.values, free_function_from(init_g, rule).values))
    for _ in range(_MAX_SWEEPS):
        u = _bracketed_root(map_residual, u, _MAP_TOL, "relaxed-pair")
        if abs(scales[-1] - scales[-2]) <= _MAP_TOL * abs(scales[-1]):
            break
    f_best = FreeFunction(start.nodes, problem.family(u), start.norm_gauge).normalized()
    g_best = FreeFunction(start.nodes, scales[-1] * f_best.values, start.norm_gauge)
    bell = problem.result(f_best.values, g_best.values)
    residual = problem.residual(f_best.values, g_best.values)
    if residual > gtol:
        raise ConvergenceError(
            f"stationarity not reached: relative gradient max-norm {residual:.3e} > {gtol:.1e}",
            best=(f_best, g_best, bell), residual=residual,
        )
    return f_best, g_best, bell


def euler_lagrange_residual(f, spec: StateSpec, rule: QuadratureRule) -> float:
    """Relative stationarity defect of the ratio at a given function.

    The exact gradient max-norm over all non-gauge node directions of the
    gauge-normalized function, divided by the ratio; invariant under
    f -> c f and under the overall scale of the ratio.  At roundoff level
    (1e-12 and below) at a true optimum, order 1e-3 or larger away from one.
    """
    problem = _RatioProblem(spec, rule)
    return problem.residual(free_function_from(f, rule).normalized().values)


def fit_optimal_epsilon(f: FreeFunction, rule: QuadratureRule) -> Tuple[float, float, float]:
    """Weighted least-squares fit of c * x/(1 + eps x^2) to the node values.

    Returns (eps, scale, relative_l2_error) with the Gaussian quadrature
    weights as the error measure.  The scale is eliminated analytically, so
    only eps is searched, by golden section on [1e-9, 64].
    """
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

    eps = _golden_section_max(lambda e: -sse(e), 1e-9, 64.0, 1e-12)
    phi = x / (1.0 + eps * x * x)
    c = float(np.dot(w, v * phi) / np.dot(w, phi * phi))
    rel = float(np.sqrt(sse(eps) / np.dot(w, v * v)))
    return eps, c, rel
