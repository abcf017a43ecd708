"""No violation at eta <= 1/2: a bound from physics, not from the package.

Loss of transmission eta <= 1/2 turns any state's Wigner function into a
rescaled Husimi Q function, which is nonnegative, and a nonnegative Wigner
function is a local hidden-variable model for every quadrature measurement
(J. S. Bell, "EPR correlations and EPW distributions", 1986).  So at
eta <= 1/2 no function, angle, split, purity or mode count may give B > 1.
The closed forms and the oracle share their kernel integrals; this bound
shares nothing with either.  The largest values seen here are about 0.45
(the binned closed form at N = 2, eta = 1/2), so B <= 1 holds with a margin
far beyond roundoff.
"""

import math

from hypothesis import example, given, settings
from hypothesis import strategies as st

from cvbell.functional_bell import IDEAL_EPSILON, bell_value, closed_form_sides
from cvbell.mk_binning import mk_bell_value
from cvbell.model import AngleConfig, density_matrix
from cvbell.oracle import evaluate, mk_evaluate, mk_optimal_angles, orthogonal_angles
from cvbell.quadrature import Optimal, _node_integrals, gauss_hermite_rule, optimal_integrals
from cvbell.scenario import StateSpec

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


def _node_function(values):
    return _node_integrals(RULE.half_nodes, RULE.half_weights, values)


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


@settings(max_examples=200, deadline=None)
@given(spec=_states(60), eps=st.floats(0.05, 20.0))
@example(spec=StateSpec(2, 1, 1.0, 0.5), eps=2.0)
def test_closed_form_at_any_family_member(spec, eps):
    lhs, rhs = closed_form_sides(spec.n_modes, spec.r_split, spec.efficiency, spec.purity,
                                 optimal_integrals(eps))
    assert lhs / rhs <= 1.0


@settings(max_examples=100, deadline=None)
@given(scene=_scenes(12), f=NODE_VALUES, g=NODE_VALUES)
@example(scene=(StateSpec(2, 1, 1.0, 0.5), orthogonal_angles(2, 1)),
         f=OPTIMAL_VALUES, g=OPTIMAL_VALUES)
def test_oracle_at_two_random_functions_and_angles(scene, f, g):
    spec, angles = scene
    res = evaluate(density_matrix(spec), _node_function(f), _node_function(g), angles)
    assert res.ratio <= 1.0


@settings(max_examples=100, deadline=None)
@given(scene=_scenes(8))
@example(scene=(StateSpec(2, 1, 1.0, 0.5), mk_optimal_angles(2, 1)))
@example(scene=(StateSpec(3, 1, 1.0, 0.5), mk_optimal_angles(3, 1)))
def test_binned_oracle_at_random_angles(scene):
    spec, angles = scene
    assert mk_evaluate(density_matrix(spec), angles) <= 1.0
