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
entering through b0 and b1 only.  A free g obeys the same relation with its
own amplitude partial, and the optimum has g = +/- f (the tests check every
node value of g on the oracle), so the optimizer puts f on both quadratures
and iterates eps <- 4 b1/b0 with the partials taken at the family member of
the current eps.  The first update takes them at the start function, which
projects any start onto the family.  The map is steep at large eps (at
N = 9, r = 0 it falls from 4704 eps at eps = 0.5 to 0.004 eps at eps = 20),
so it runs in u = log(1 + eps), positive exactly where eps is, as the root of
log(1 + 4 b1/b0) - u by the bracketed secant solver of ``functional_bell``.
The optimizer returns the eps it solved, eps = exp(u) - 1, with the node
values of that family member as a list of floats; no fit recovers it
afterwards.  The oracle sees node values as their kernel integrals
(``_node_integrals``).  The module computes in plain floats; a free start
function is called once per node by ``quadrature.node_values``.

So the optimum it lands on is the stationarity root on the rule's sums of
the family (``family_integrals``), not on their exact values: at order 64
the two roots differ by 2.7e-5 at (N, r) = (7, 3).

The ratio is scale invariant.  The gauge pins the value at the smallest
positive node to that node.  The stationarity residual is the gradient
max-norm over the other nodes divided by the ratio, free of the function's
scale and of the ratio's (which goes as p^2); a result counts as stationary
when it is at most 1e-7.
"""

from __future__ import annotations

import math
import sys
from typing import Callable, List, Optional, Tuple

from .errors import ConvergenceError, NumericalDomainError
from .functional_bell import _bracketed_root, closed_form_log_ratio
from .model import SQRT_2_OVER_PI, density_matrix
from .oracle import RatioPartials, orthogonal_angles, ratio_partials
from .quadrature import KernelIntegrals, Optimal, QuadratureRule, _node_integrals, node_values
from .scenario import StateSpec

# residual |log(1 + 4 b1/b0) - u| at which the map counts as converged
_MAP_TOL = 1e-12
# relative gradient max-norm above which a result is not stationary
_GTOL = 1e-7
# natural logs of the smallest normal, the largest and the smallest subnormal float
_LOG_NORMAL, _LOG_MAX, _LOG_SUBNORMAL = (
    math.log(x) for x in (sys.float_info.min, sys.float_info.max, math.ulp(0.0)))
_TINY_AT_GAUGE = "cannot gauge-fix a function this small at the first node against the others"


class _RatioProblem:
    """Ratio, site-scalar partials and node-value gradient at a fixed
    scenario and angles, with the same function on both quadratures."""

    def __init__(self, spec: StateSpec, rule: QuadratureRule):
        self.rho = density_matrix(spec)
        self.angles = orthogonal_angles(spec.n_modes, spec.r_split)
        self.nodes, self.weights = rule.half_nodes, rule.half_weights
        # node-value derivatives of the site scalars; the odd mirror doubles
        # every positive-node weight
        scale = 4.0 * SQRT_2_OVER_PI
        c = [scale * w for w in self.weights]
        self._dm = [ci * x for ci, x in zip(c, self.nodes)]                # dm/dv
        self._dq0 = c                                                       # dq0/dv, per unit v
        self._dq1 = [(4.0 * ci) * (x * x) for ci, x in zip(c, self.nodes)]  # dq1/dv, per unit v

    def partials(self, values: List[float]) -> RatioPartials:
        k = _node_integrals(self.nodes, self.weights, values)
        return ratio_partials(self.rho, k, k, self.angles)

    def ratio_and_gradient(self, values: List[float]) -> Tuple[float, List[float]]:
        """The ratio and its gradient in the node values."""
        p = self.partials(values)
        d_q0, d_q1 = p.d_moments
        a = p.d_amplitude[0]
        # Q0 = 2 q0 and Q1 = 2 q1 with f on both quadratures
        return p.ratio, [a * dm + (2.0 * (d_q0 * dq0 + d_q1 * dq1)) * v
                         for dm, dq0, dq1, v in zip(self._dm, self._dq0, self._dq1, values)]

    def ratio_and_residual(self, values: List[float]) -> Tuple[float, float]:
        """The ratio, and the gradient max-norm over all but the gauge node
        relative to it."""
        ratio, grad = self.ratio_and_gradient(values)
        return ratio, max(abs(g) for g in grad[1:]) / ratio

    def family(self, u: float) -> List[float]:
        """Node values of x/(1 + eps x^2) at eps = exp(u) - 1, scaled to value/node 1
        at the gauge node: the ratio and the map ignore the scale, and it keeps
        the bound side in the float range at large eps."""
        eps = math.expm1(u)
        x0 = self.nodes[0]
        scale = 1.0 + eps * (x0 * x0)
        return [v * scale for v in node_values(Optimal(eps), self.nodes)]


def _stationary_epsilon(p: RatioPartials, n: int) -> float:
    """The eps at which the node gradient of ``p`` vanishes: 4 b1/b0."""
    b0, b1 = p.d_moments
    if not b0 < 0.0:
        # every bound-side weight is nonnegative, so b0 < 0 whenever ratio > 0;
        # at nonzero purity a zero ratio is an underflow of the correlator side
        raise NumericalDomainError(f"oracle correlator side at n = {n} is below the "
                                   "float range: the ratio underflows to 0")
    return 4.0 * b1 / b0


def _check_float_range(spec: StateSpec, ki: KernelIntegrals, peak: float = 1.0) -> None:
    """NumericalDomainError naming n where the first oracle pass, at the
    gauged start function, must fail: its bound side lies a factor e beyond
    the normal float range or its ratio a factor e below the smallest
    subnormal, by the closed form in logs (which holds for any odd f at the
    orthogonal angles), so no O(n) state is built for it.

    ``ki`` are the kernel integrals of the start scaled to a largest
    value/node of 1, which keeps their products finite; the gauged start is
    ``peak`` times that, so its bound side is peak^(2n) times theirs.  Where
    only this factor takes it beyond the float range, the start is tiny at
    the gauge node against the others, and ValueError names that node."""
    n, r, eta, p = spec.n_modes, spec.r_split, spec.efficiency, spec.purity
    if ki.i_plus == 0.0:
        return      # a zero correlator side, which the oracle names
    # at p = 1, since p^2 may underflow; the bound side does not depend on p
    log_ratio = closed_form_log_ratio(n, r, eta, 1.0, ki)[0]
    log_rhs = (math.log(0.25) - log_ratio
               + n * (math.log(2.0 * eta / math.pi) + 2.0 * math.log(abs(ki.i_plus))))
    gauged = log_rhs + 2.0 * n * math.log(peak)
    if not _LOG_NORMAL - 1.0 < gauged < _LOG_MAX + 1.0:
        if log_rhs < _LOG_MAX + 1.0 <= gauged:
            raise ValueError(f"{_TINY_AT_GAUGE}: scaled to value/node 1 there, its "
                             f"oracle bound side at n = {n} overflows")
        raise NumericalDomainError(
            f"oracle bound side at n = {n} is outside the normal float range")
    if log_ratio + 2.0 * math.log(p) <= _LOG_SUBNORMAL - 1.0:
        raise NumericalDomainError(f"oracle correlator side at n = {n} is below the "
                                   "float range: the ratio underflows to 0")


def _gauged(nodes, values) -> List[float]:
    """Node values rescaled to value/node 1 at the smallest node; ValueError
    unless there is one finite value per node, nonzero at the first, and
    every rescaled value/node is finite."""
    if not isinstance(values, list) or len(values) != len(nodes):
        got = f"{len(values)} values" if isinstance(values, list) else repr(values)
        raise ValueError(f"expected one value per node ({len(nodes)}), got {got}")
    if not all(math.isfinite(v) for v in values):
        raise ValueError("node values must be finite")
    if values[0] == 0.0:
        raise ValueError("cannot gauge-fix a function vanishing at the first node")
    scale = nodes[0] / values[0]
    gauged = [v * scale for v in values]
    if not all(math.isfinite(v / x) for v, x in zip(gauged, nodes)):
        raise ValueError(f"{_TINY_AT_GAUGE}: scaled to value/node 1 there, its values overflow")
    return gauged


def family_integrals(rule: QuadratureRule) -> Callable[[float], KernelIntegrals]:
    """eps -> the rule's sums of the kernel integrals of x/(1 + eps x^2) over
    its positive half, as the optimizer takes them; ``optimal_epsilon`` on
    these gives the root that ``optimize_function`` converges to."""
    nodes, weights = rule.half_nodes, rule.half_weights
    return lambda eps: _node_integrals(nodes, weights, node_values(Optimal(eps), nodes))


def optimize_function(spec: StateSpec, rule: QuadratureRule, init, *,
                      iteration_callback: Optional[Callable[[float], None]] = None):
    """Solve the stationarity condition of the ratio in the node values;
    returns (eps, values, ratio, residual) with values the gauge-fixed node
    values of x/(1 + eps x^2) at ``rule.half_nodes``, ratio the oracle ratio
    there and residual its relative stationarity residual, both from one pass
    of ``ratio_partials``.

    ``iteration_callback`` receives the ratio at every map update: first at
    the start function, then on the family.

    Raises ConvergenceError with the last (eps, values, ratio) attached as
    ``best`` and the residual as ``residual`` if the residual exceeds 1e-7,
    ValueError if ``init`` at the positive nodes is not one finite value per
    node, vanishes at the first node or is so small there against the others
    that the gauge takes it beyond the float range, or if the purity is 0,
    and NumericalDomainError naming n when a side of the ratio leaves the
    float range.
    """
    if spec.purity == 0.0:
        raise ValueError("the ratio vanishes for every function at purity 0")
    start = _gauged(rule.half_nodes, node_values(init, rule.half_nodes))
    # value/node is 1 at the gauge node, so the peak is at least 1
    peak = max(abs(v) / x for v, x in zip(start, rule.half_nodes))
    _check_float_range(spec, _node_integrals(rule.half_nodes, rule.half_weights,
                                             [v / peak for v in start]), peak)
    problem = _RatioProblem(spec, rule)

    def update(values: List[float]) -> float:
        p = problem.partials(values)
        if iteration_callback is not None:
            iteration_callback(p.ratio)
        return _stationary_epsilon(p, spec.n_modes)

    try:
        u = _bracketed_root(lambda u: math.log1p(update(problem.family(u))) - u,
                            math.log1p(update(start)), _MAP_TOL, "free-function")
    except ConvergenceError as exc:
        u = exc.best        # judged by its gradient like any other end point
    best = _gauged(problem.nodes, problem.family(u))
    eps = math.expm1(u)
    ratio, residual = problem.ratio_and_residual(best)
    if residual > _GTOL:
        raise ConvergenceError(
            f"stationarity not reached: relative gradient max-norm {residual:.3e} > {_GTOL:.1e}",
            best=(eps, best, ratio), residual=residual,
        )
    return eps, best, ratio, residual


def euler_lagrange_residual(f, spec: StateSpec, rule: QuadratureRule) -> float:
    """Relative stationarity defect of the ratio at a given function.

    The exact gradient max-norm over all non-gauge node directions of the
    gauge-normalized function, divided by the ratio; invariant under
    f -> c f and under the overall scale of the ratio.  At roundoff level
    (1e-12 and below) at a true optimum, order 1e-3 or larger away from one.
    """
    problem = _RatioProblem(spec, rule)
    return problem.ratio_and_residual(_gauged(problem.nodes, node_values(f, problem.nodes)))[1]
