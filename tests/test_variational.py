import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cvbell.errors import NumericalDomainError
from cvbell.functional_bell import bell_value, solve_epsilon_even, solve_epsilon_odd
from cvbell.model import SQRT_2_OVER_PI, density_matrix
from cvbell.oracle import evaluate, orthogonal_angles, ratio_partials
from cvbell.quadrature import Identity, Optimal, SignBin, _node_integrals, node_values
from cvbell.scenario import StateSpec
from cvbell.variational import (
    _check_float_range,
    _gauged,
    _RatioProblem,
    _stationary_epsilon,
    euler_lagrange_residual,
    optimize_function,
)
from reference import rule_epsilon, rule_ratio


def node_integrals(values, rule):
    """The kernel integrals of the odd function with ``values`` at the rule's
    positive nodes, which the oracle takes in place of the function."""
    return _node_integrals(rule.half_nodes, rule.half_weights, np.asarray(values).tolist())


@pytest.fixture(scope="module")
def six_mode_run(quick_rule):
    history = []
    eps, best, ratio, _ = optimize_function(StateSpec(6, 3), quick_rule, Identity(),
                                            iteration_callback=history.append)
    return eps, best, ratio, history


class TestRecovery:
    def test_six_modes_recovers_rational_family(self, quick_rule, six_mode_run, family_fit):
        eps, best, ratio, _ = six_mode_run
        eps_fit, rel_err = family_fit(best, quick_rule)
        eps_ref = solve_epsilon_even(1.0, quick_rule).epsilon_lossy
        assert rel_err < 1e-3
        assert abs(eps_fit - eps_ref) < 1e-3
        assert abs(eps - rule_epsilon(6, 3, 1.0, quick_rule)) <= 1e-9
        closed = bell_value(StateSpec(6, 3)).ratio
        assert abs(ratio - closed) / closed < 1e-6

    def test_basin_robustness_from_binned_start(self, quick_rule, six_mode_run, family_fit):
        _, _, ratio_identity, _ = six_mode_run
        eps, best, ratio, _ = optimize_function(StateSpec(6, 3), quick_rule, SignBin())
        assert abs(ratio - ratio_identity) < 1e-6 * ratio
        _, rel_err = family_fit(best, quick_rule)
        assert rel_err < 1e-3
        assert abs(eps - rule_epsilon(6, 3, 1.0, quick_rule)) <= 1e-9

    def test_five_modes_recovers_odd_parameter(self, quick_rule, family_fit):
        eps, best, ratio, _ = optimize_function(StateSpec(5, 2), quick_rule, SignBin())
        eps_fit, rel_err = family_fit(best, quick_rule)
        eps_ref = solve_epsilon_odd(5, 1.0, quick_rule).epsilon_odd
        assert rel_err < 1e-3
        assert abs(eps_fit - eps_ref) < 1e-3
        assert abs(eps - rule_epsilon(5, 2, 1.0, quick_rule)) <= 1e-9

    def test_scaled_init_reaches_identical_ratio(self, quick_rule, six_mode_run):
        # gauge normalization cancels the overall scale up to float rounding,
        # so both runs converge to the same ratio within optimizer precision
        _, _, ratio_ref, _ = six_mode_run
        scaled = lambda x: 10.0 * Identity()(x)
        _, _, ratio, _ = optimize_function(StateSpec(6, 3), quick_rule, scaled)
        assert ratio == pytest.approx(ratio_ref, rel=1e-8)

    def test_never_exceeds_analytic_optimum(self, six_mode_run):
        _, _, ratio, _ = six_mode_run
        closed = bell_value(StateSpec(6, 3)).ratio
        assert ratio <= closed * (1 + 1e-6)

    def test_ascent_is_monotone(self, six_mode_run):
        _, _, _, history = six_mode_run
        assert len(history) > 2
        diffs = np.diff(history)
        assert np.all(diffs >= -1e-12)

    @pytest.mark.parametrize("n, r, eta, init", [
        pytest.param(100, 50, 1.0, Identity(), id="100-50-1.0"),
        pytest.param(60, 30, 0.9, Identity(), id="60-30-0.9"),
        pytest.param(7, 3, 1.0, SignBin(), id="7-3-1.0-signbin"),
        pytest.param(9, 0, 1.0, Identity(), id="9-0-1.0"),
    ])
    def test_large_n_lands_on_the_analytic_family(self, quick_rule, n, r, eta, init):
        # the node values are free, and the reference eps comes from the
        # closed-form stationarity relation, not from the oracle
        eps, best, _, _ = optimize_function(StateSpec(n, r, 1.0, eta), quick_rule, init)
        x = np.array(quick_rule.half_nodes)
        eps_ref = rule_epsilon(n, r, eta, quick_rule)
        assert abs(eps - eps_ref) <= 1e-9 * eps_ref
        # c fixed by the gauge: value/node = 1 at the smallest node
        ref = (1.0 + eps_ref * x[0] ** 2) * x / (1.0 + eps_ref * x * x)
        assert np.max(np.abs(best - ref)) <= 1e-12 * np.max(np.abs(ref))

    @pytest.mark.parametrize("n, r, eta, p", [
        (5, 2, 1.0, 1.0), (6, 3, 0.8, 0.9), (9, 0, 1.0, 1.0),
    ])
    def test_equal_functions_stationary_in_every_node_of_g(self, quick_rule, n, r, eta, p):
        # g is a function of its own on the oracle, so g = +/- f is checked in
        # every node value rather than imposed
        spec = StateSpec(n, r, p, eta)
        _, fv, _, _ = optimize_function(spec, quick_rule, Identity())
        fv = np.asarray(fv)
        rho, angles = density_matrix(spec), orthogonal_angles(n, r)
        x = np.array(quick_rule.half_nodes)
        f = node_integrals(fv, quick_rule)
        # node-value derivatives of the site scalars m, Q0 and Q1
        c = 4.0 * SQRT_2_OVER_PI * np.array(quick_rule.half_weights)
        rng = np.random.default_rng(n)
        for sign in (1.0, -1.0):
            gv = sign * fv
            g = node_integrals(gv, quick_rule)
            partials = ratio_partials(rho, f, g, angles, quick_rule)
            b0, b1 = partials.d_moments
            grad = np.concatenate([c * (a * x + (b0 + 4.0 * b1 * x * x) * v) for a, v in
                                   zip(partials.d_amplitude, (fv, gv))])
            scale = np.max(np.abs(fv))
            assert np.max(np.abs(grad)) * scale <= 1e-10 * partials.ratio
            ratio = evaluate(rho, f, g, angles, quick_rule).ratio
            for _ in range(50):
                d = rng.normal(size=x.size)
                moved = node_integrals(gv + 1e-2 * scale * d / np.linalg.norm(d), quick_rule)
                assert evaluate(rho, f, moved, angles, quick_rule).ratio <= ratio * (1 + 1e-13)


class TestStationarityResidual:
    def test_small_at_analytic_optimum(self, quick_rule):
        eps = rule_epsilon(6, 3, 1.0, quick_rule)
        res = euler_lagrange_residual(Optimal(eps), StateSpec(6, 3), quick_rule)
        assert res < 1e-7

    def test_large_at_identity(self, quick_rule):
        res = euler_lagrange_residual(Identity(), StateSpec(6, 3), quick_rule)
        assert res > 1e-3

    def test_scale_invariant(self, quick_rule):
        # away from stationarity the residual is far above the differencing
        # noise and must not depend on the overall scale of f
        base = euler_lagrange_residual(Optimal(1.0), StateSpec(6, 3), quick_rule)
        assert base > 1e-3
        for c in (0.2, 5.0):
            scaled = lambda x, c=c: c * Optimal(1.0)(x)
            res = euler_lagrange_residual(scaled, StateSpec(6, 3), quick_rule)
            assert res == pytest.approx(base, rel=1e-6)

    def test_scale_invariant_at_optimum(self, quick_rule):
        # at the optimum both the scaled and unscaled residuals sit at the
        # noise floor, below the convergence gate
        eps = rule_epsilon(6, 3, 1.0, quick_rule)
        for c in (1.0, 5.0):
            scaled = lambda x, c=c: c * Optimal(eps)(x)
            res = euler_lagrange_residual(scaled, StateSpec(6, 3), quick_rule)
            assert res < 1e-7


class TestGradientMachinery:
    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), n=st.integers(2, 8), eta=st.floats(0.3, 1.0),
           p=st.floats(0.1, 1.0), seed=st.integers(0, 2 ** 32 - 1))
    def test_exact_gradient_matches_central_differences(self, quick_rule, data,
                                                        n, eta, p, seed):
        r = data.draw(st.integers(0, n), label="r")
        spec = StateSpec(n, r, p, eta)
        problem = _RatioProblem(spec, quick_rule)
        rho, angles = density_matrix(spec), orthogonal_angles(n, r)
        rng = np.random.default_rng(seed)
        nodes = np.array(quick_rule.half_nodes)
        x = Optimal(rng.uniform(0.2, 5.0))(nodes) * (1.0 + 0.1 * rng.normal(size=nodes.size))
        ratio, grad = problem.ratio_and_gradient(x)

        def ratio_at(z):
            k = node_integrals(z, quick_rule)
            return evaluate(rho, k, k, angles, quick_rule).ratio

        scale = np.max(np.abs(x))
        h = 1e-5 * scale
        for _ in range(3):
            d = rng.normal(size=x.size)
            d /= np.linalg.norm(d)
            fd = (ratio_at(x + h * d) - ratio_at(x - h * d)) / (2.0 * h)
            # the floor covers the stencil's roundoff, about 1e-11 ratio/scale
            assert np.dot(grad, d) == pytest.approx(fd, rel=1e-5, abs=1e-8 * ratio / scale)

    @pytest.mark.parametrize("n, r", [(7, 1), (9, 0), (10, 0)])
    def test_converges_on_noncanonical_splits(self, quick_rule, n, r):
        # the identity projects to eps = 26244 at (9, 0) and 78732 at (10, 0),
        # x^3 further still
        for init in (Identity(), lambda x: np.asarray(x) ** 3):
            eps, _, _, residual = optimize_function(StateSpec(n, r), quick_rule, init)
            assert residual <= 1e-9
            assert euler_lagrange_residual(Optimal(eps), StateSpec(n, r), quick_rule) <= 1e-9

    @settings(max_examples=40, deadline=None)
    @given(data=st.data(), n=st.integers(2, 10), eta=st.floats(0.3, 1.0),
           p=st.floats(0.1, 1.0), init=st.sampled_from([Identity(), SignBin()]))
    def test_map_reaches_stationarity(self, quick_rule, data, n, eta, p, init):
        r = data.draw(st.integers(0, n), label="r")
        spec = StateSpec(n, r, p, eta)
        eps, _, ratio, residual = optimize_function(spec, quick_rule, init)
        assert residual <= 1e-9
        assert euler_lagrange_residual(Optimal(eps), spec, quick_rule) <= 1e-9
        if r == n // 2:
            assert ratio == pytest.approx(rule_ratio(spec, quick_rule), rel=1e-10)


class TestFloatRangeGuard:
    def test_first_named_mode_count_fails_the_first_oracle_pass(self, quick_rule):
        # the first n the O(1) guard names in each series fails the first
        # oracle pass, at the start function, with the same message
        nodes = quick_rule.half_nodes
        named = set()
        for init in (Identity(), SignBin()):
            start = _gauged(nodes, node_values(init, nodes))
            ki = _node_integrals(nodes, quick_rule.half_weights, start)
            for split in (lambda n: 0, lambda n: n // 2):
                for eta, p in ((1.0, 1.0), (0.5, 0.2)):
                    for n in range(2, 20000):
                        spec = StateSpec(n, split(n), p, eta)
                        try:
                            _check_float_range(spec, ki)
                        except NumericalDomainError as exc:
                            message = str(exc)
                            break
                    named.add(message.split(" at ")[0])
                    with pytest.raises(NumericalDomainError) as err:
                        _stationary_epsilon(_RatioProblem(spec, quick_rule).partials(start), n)
                    assert str(err.value) == message
        assert named == {"oracle bound side", "oracle correlator side"}


class TestFreeFunctionType:
    """The start function's node values: gauge and validation."""

    def test_normalization_gauge(self, quick_rule):
        _, f, _, _ = optimize_function(StateSpec(6, 3), quick_rule,
                                       lambda x: 3.7 * np.asarray(x))
        assert f[0] == pytest.approx(quick_rule.half_nodes[0], rel=1e-14)

    def test_zero_first_value_rejected(self, quick_rule):
        first = quick_rule.half_nodes[0]
        with pytest.raises(ValueError, match="first node"):
            optimize_function(StateSpec(6, 3), quick_rule,
                              lambda x: 0.0 if x == first else 1.0)

    @pytest.mark.parametrize("first", [5e-324, 4.8e-223, 1e-40])
    def test_tiny_first_value_rejected(self, quick_rule, first):
        # gauged to value/node 1 at the first node, the other values leave
        # the float range, or Ip^4 does, or the oracle's bound side does,
        # which at this n is no fault of n
        x0 = quick_rule.half_nodes[0]
        with pytest.raises(ValueError, match="this small at the first node"):
            optimize_function(StateSpec(4, 2), quick_rule,
                              lambda x: first if x == x0 else 1.0)

    def test_nonfinite_values_rejected(self, quick_rule):
        last = quick_rule.half_nodes[-1]
        with pytest.raises(ValueError, match="finite"):
            optimize_function(StateSpec(6, 3), quick_rule,
                              lambda x: math.nan if x == last else 1.0)

    @pytest.mark.parametrize("value, kind", [
        ([1.0, 2.0], "list"), (np.ones(3), "ndarray"), ("1.0", "str"), (None, "NoneType"),
    ])
    def test_one_real_number_per_node(self, quick_rule, value, kind):
        # a callable is called once per node; anything but one real number
        # there is rejected, naming the node
        first = quick_rule.half_nodes[0]
        with pytest.raises(ValueError) as err:
            optimize_function(StateSpec(6, 3), quick_rule,
                              lambda x: value if x == first else x)
        assert str(err.value) == ("measurement function must return one real number, "
                                  f"got {kind} at x={first!r}")
