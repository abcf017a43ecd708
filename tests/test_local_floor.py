"""No violation at eta <= 1/2: a bound from physics, not from the package.

Loss of transmission eta <= 1/2 turns any state's Wigner function into a
rescaled Husimi Q function, which is nonnegative, and a nonnegative Wigner
function is a local hidden-variable model for every quadrature measurement
(J. S. Bell, "EPR correlations and EPW distributions", 1986).  So at
eta <= 1/2 no function, angle, split, purity or mode count may give B > 1.
The closed forms and the oracle share their kernel integrals; this bound
shares nothing with either.  The largest values seen here are about 0.45
(the binned closed form at N = 2, eta = 1/2), so B <= 1 holds with a margin
far beyond roundoff.  ``critical_efficiency`` relies on this floor: it
solves for no efficiency below 1/2.
"""

import math

from hypothesis import example, given, settings
from hypothesis import strategies as st

from cvbell.errors import ConvergenceError
from cvbell.functional_bell import (
    IDEAL_EPSILON,
    bell_value,
    closed_form_log_ratio,
    closed_form_sides,
    moment_function,
)
from cvbell.mk_binning import mk_bell_value
from cvbell.model import AngleConfig, density_matrix
from cvbell.oracle import evaluate, mk_evaluate, mk_optimal_angles, orthogonal_angles
from cvbell.quadrature import (
    Optimal,
    SignBin,
    _node_integrals,
    gauss_hermite_rule,
    kernel_integrals,
    optimal_integrals,
)
from cvbell.scenario import StateSpec
from cvbell.variational import optimize_function

RULE = gauss_hermite_rule(64)
ETAS = st.floats(0.0, 0.5, exclude_min=True)
PURITIES = st.floats(0.0, 1.0, exclude_min=True)
ANGLES = st.floats(-math.pi, math.pi)
# an odd function as its values at the rule's positive nodes, not all near zero
NODE_VALUES = st.lists(st.floats(-1.0, 1.0), min_size=len(RULE.half_nodes),
                       max_size=len(RULE.half_nodes)).filter(
                           lambda v: max(map(abs, v)) >= 1e-3)
# the noise-free optimal function's node values, near the ratio's maximum
OPTIMAL_VALUES = [Optimal(IDEAL_EPSILON)(x) for x in RULE.half_nodes]


@st.composite
def _states(draw, n_max):
    """A scenario of 2 to ``n_max`` modes at any split, purity and eta <= 1/2."""
    n = draw(st.integers(2, n_max))
    return StateSpec(n, draw(st.integers(0, n)), draw(PURITIES), draw(ETAS))


@st.composite
def _scenes(draw, n_max):
    """A scenario of ``_states`` with independent random phases
    (theta_k, theta'_k) at each site."""
    spec = draw(_states(n_max))
    sites = st.lists(ANGLES, min_size=spec.n_modes, max_size=spec.n_modes)
    return spec, AngleConfig(draw(sites), draw(sites))


@st.composite
def _splits(draw):
    """(N, r): N log-uniform in [2, 10^4], r any split of it."""
    n = round(math.exp(draw(st.floats(math.log(2), math.log(1e4)))))
    return n, draw(st.integers(0, n))


def _node_function(values):
    return _node_integrals(RULE.half_nodes, RULE.half_weights, values)


# an odd function: node values on the rule, sign binning, or a member of the
# optimal family at eps log-uniform in [1e-3, 1e3]
FUNCTIONS = st.one_of(
    NODE_VALUES.map(_node_function), st.just(SignBin()),
    st.floats(math.log(1e-3), math.log(1e3)).map(lambda u: Optimal(math.exp(u))))


def _node_lookup(values):
    """The odd function taking ``values`` at the rule's positive nodes, looked
    up node by node."""
    table = dict(zip(RULE.half_nodes, values))
    return lambda x: math.copysign(table[abs(x)], x)


# the largest values lie at eta = 1/2, p = 1 and few modes, where the closed
# forms peak (0.45 for the binned one at N = 2)
@settings(max_examples=200, deadline=None)
@given(spec=_states(60))
@example(spec=StateSpec(2, 1, 1.0, 0.5))
@example(spec=StateSpec(5, 2, 1.0, 0.5))
def test_closed_forms_at_their_functions(spec):
    assert bell_value(spec, "functional").ratio <= 1.0
    assert bell_value(spec, "cfrd").ratio <= 1.0
    assert mk_bell_value(spec) <= 1.0


# in logs, at every mode count a threshold is solved for, down to values of
# p and eta whose squares underflow
@settings(max_examples=300, deadline=None)
@given(split=_splits(), eta=ETAS, p=PURITIES, ineq=st.sampled_from(("functional", "cfrd")))
@example(split=(2, 1), eta=0.5, p=1.0, ineq="functional")
@example(split=(10**4, 0), eta=0.5, p=1.0, ineq="functional")
@example(split=(10, 5), eta=5e-324, p=5e-324, ineq="cfrd")
def test_log_ratio_at_any_mode_count(split, eta, p, ineq):
    n, r = split
    ki = kernel_integrals(moment_function(ineq, n, r, eta))
    assert closed_form_log_ratio(n, r, eta, p, ki)[0] < 0.0


@settings(max_examples=200, deadline=None)
@given(spec=_states(60), eps=st.floats(0.05, 20.0))
@example(spec=StateSpec(2, 1, 1.0, 0.5), eps=2.0)
def test_closed_form_at_any_family_member(spec, eps):
    lhs, rhs = closed_form_sides(spec.n_modes, spec.r_split, spec.efficiency, spec.purity,
                                 optimal_integrals(eps))
    assert lhs / rhs <= 1.0


@settings(max_examples=200, deadline=None)
@given(scene=_scenes(12), f=FUNCTIONS, g=FUNCTIONS)
@example(scene=(StateSpec(2, 1, 1.0, 0.5), orthogonal_angles(2, 1)),
         f=_node_function(OPTIMAL_VALUES), g=_node_function(OPTIMAL_VALUES))
def test_oracle_at_two_random_functions_and_angles(scene, f, g):
    spec, angles = scene
    assert evaluate(density_matrix(spec), f, g, angles).ratio <= 1.0


# from random odd starts the optimizer ends on the optimal family; eta and p
# stay above 1e-3, where the ratio (about eta^N p^2) is a normal float, and
# the start is not near zero at the gauge node, where the gauge's rescaling
# overflows the other values
@settings(max_examples=60, deadline=None)
@given(spec=_states(8).filter(lambda s: s.efficiency >= 1e-3 and s.purity >= 1e-3),
       values=NODE_VALUES.filter(lambda v: abs(v[0]) >= 1e-3))
@example(spec=StateSpec(2, 1, 1.0, 0.5), values=OPTIMAL_VALUES)
def test_optimizer_from_random_starts(spec, values):
    try:
        ratio = optimize_function(spec, RULE, _node_lookup(values))[2]
    except ConvergenceError as exc:
        ratio = exc.best[2]
    assert ratio <= 1.0


@settings(max_examples=100, deadline=None)
@given(scene=_scenes(8))
@example(scene=(StateSpec(2, 1, 1.0, 0.5), mk_optimal_angles(2, 1)))
@example(scene=(StateSpec(3, 1, 1.0, 0.5), mk_optimal_angles(3, 1)))
def test_binned_oracle_at_random_angles(scene):
    spec, angles = scene
    assert mk_evaluate(density_matrix(spec), angles) <= 1.0
