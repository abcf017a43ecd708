import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cvbell.functional_bell import (
    bell_value,
    optimal_epsilon,
    solve_epsilon_even,
    solve_epsilon_odd,
)
from cvbell.model import Identity, Optimal, SignBin, StateSpec
from cvbell.variational import (
    FreeFunction,
    _RatioProblem,
    euler_lagrange_residual,
    fit_optimal_epsilon,
    free_function_from,
    optimize_function,
    optimize_function_pair,
)


@pytest.fixture(scope="module")
def six_mode_run(quick_rule):
    history = []
    best, bell = optimize_function(StateSpec(6, 3), quick_rule, Identity(),
                                   iteration_callback=history.append)
    return best, bell, history


class TestRecovery:
    def test_six_modes_recovers_rational_family(self, quick_rule, six_mode_run):
        best, bell, _ = six_mode_run
        eps_fit, scale, rel_err = fit_optimal_epsilon(best, quick_rule)
        eps_ref = solve_epsilon_even(1.0, quick_rule).epsilon_lossy
        assert rel_err < 1e-3
        assert abs(eps_fit - eps_ref) < 1e-3
        closed = bell_value(StateSpec(6, 3), quick_rule).ratio
        assert abs(bell.ratio - closed) / closed < 1e-6

    def test_basin_robustness_from_binned_start(self, quick_rule, six_mode_run):
        _, bell_identity, _ = six_mode_run
        best, bell = optimize_function(StateSpec(6, 3), quick_rule, SignBin())
        assert abs(bell.ratio - bell_identity.ratio) < 1e-6 * bell.ratio
        eps_fit, _, rel_err = fit_optimal_epsilon(best, quick_rule)
        assert rel_err < 1e-3

    def test_five_modes_recovers_odd_parameter(self, quick_rule):
        best, bell = optimize_function(StateSpec(5, 2), quick_rule, SignBin())
        eps_fit, _, rel_err = fit_optimal_epsilon(best, quick_rule)
        eps_ref = solve_epsilon_odd(5, 1.0, quick_rule).epsilon_odd
        assert rel_err < 1e-3
        assert abs(eps_fit - eps_ref) < 1e-3

    def test_scaled_init_reaches_identical_ratio(self, quick_rule, six_mode_run):
        # gauge normalization cancels the overall scale up to float rounding,
        # so both runs converge to the same ratio within optimizer precision
        _, bell_ref, _ = six_mode_run
        scaled = lambda x: 10.0 * Identity()(x)
        _, bell = optimize_function(StateSpec(6, 3), quick_rule, scaled)
        assert bell.ratio == pytest.approx(bell_ref.ratio, rel=1e-8)

    def test_never_exceeds_analytic_optimum(self, quick_rule, six_mode_run):
        _, bell, _ = six_mode_run
        closed = bell_value(StateSpec(6, 3), quick_rule).ratio
        assert bell.ratio <= closed * (1 + 1e-6)

    def test_ascent_is_monotone(self, six_mode_run):
        _, _, history = six_mode_run
        assert len(history) > 2
        diffs = np.diff(history)
        assert np.all(diffs >= -1e-12)

    @pytest.mark.parametrize("n, r, eta", [(100, 50, 1.0), (60, 30, 0.9)])
    def test_large_n_lands_on_the_analytic_family(self, quick_rule, n, r, eta):
        # the node values are free, and the reference eps comes from the
        # closed-form stationarity relation, not from the oracle
        best, _ = optimize_function(StateSpec(n, r, 1.0, eta), quick_rule, Identity())
        x = best.nodes
        eps = optimal_epsilon(n, r, eta, quick_rule)
        # c fixed by the gauge: value/node = 1 at the smallest node
        ref = (1.0 + eps * x[0] ** 2) * x / (1.0 + eps * x * x)
        assert np.max(np.abs(best.values - ref)) <= 1e-12 * np.max(np.abs(ref))

    def test_relaxed_pair_collapses_to_equal_functions(self, quick_rule):
        # g starts away from f, so g = +f or g = -f has to come out of the map
        closed = bell_value(StateSpec(5, 2), quick_rule).ratio
        for g_init, sign in ((SignBin(), 1.0), (lambda x: -np.asarray(x) ** 3, -1.0)):
            f, g, bell = optimize_function_pair(StateSpec(5, 2), quick_rule, Identity(), g_init)
            assert np.max(np.abs(g.values - sign * f.values)) < 1e-10 * np.max(np.abs(f.values))
            assert abs(bell.ratio - closed) / closed < 1e-10


class TestStationarityResidual:
    def test_small_at_analytic_optimum(self, quick_rule):
        eps = solve_epsilon_even(1.0, quick_rule).epsilon_lossy
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
        eps = solve_epsilon_even(1.0, quick_rule).epsilon_lossy
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
        problem = _RatioProblem(StateSpec(n, r, p, eta), quick_rule)
        rng = np.random.default_rng(seed)
        nodes = quick_rule.positive_nodes
        fv, gv = (Optimal(rng.uniform(0.2, 5.0))(nodes)
                  * (1.0 + 0.1 * rng.normal(size=nodes.size)) for _ in range(2))
        for g_values in (None, gv):
            ratio, grad = problem.ratio_and_gradient(fv, g_values)
            x = fv if g_values is None else np.concatenate((fv, g_values))

            def ratio_at(z, pair=g_values is not None):
                return problem.result(z[:nodes.size], z[nodes.size:] if pair else None).ratio

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
            best, _ = optimize_function(StateSpec(n, r), quick_rule, init)
            assert euler_lagrange_residual(best, StateSpec(n, r), quick_rule) <= 1e-9

    @settings(max_examples=40, deadline=None)
    @given(data=st.data(), n=st.integers(2, 10), eta=st.floats(0.3, 1.0),
           p=st.floats(0.1, 1.0), init=st.sampled_from([Identity(), SignBin()]))
    def test_map_reaches_stationarity(self, quick_rule, data, n, eta, p, init):
        r = data.draw(st.integers(0, n), label="r")
        spec = StateSpec(n, r, p, eta)
        best, bell = optimize_function(spec, quick_rule, init)
        assert euler_lagrange_residual(best, spec, quick_rule) <= 1e-9
        if r == n // 2:
            closed = bell_value(spec, quick_rule).ratio
            assert bell.ratio == pytest.approx(closed, rel=1e-10)


class TestFreeFunctionType:
    def test_normalization_gauge(self, quick_rule):
        ff = free_function_from(lambda x: 3.7 * np.asarray(x), quick_rule).normalized()
        assert ff.values[0] == pytest.approx(ff.nodes[0], rel=1e-14)

    def test_zero_first_value_rejected(self, quick_rule):
        vals = np.ones_like(quick_rule.positive_nodes)
        vals[0] = 0.0
        with pytest.raises(ValueError):
            FreeFunction(quick_rule.positive_nodes, vals).normalized()

    def test_fit_requires_matching_nodes(self, quick_rule, rule):
        ff = free_function_from(Identity(), quick_rule)
        with pytest.raises(ValueError):
            fit_optimal_epsilon(ff, rule)

    def test_csv_rows(self, quick_rule):
        ff = free_function_from(Identity(), quick_rule)
        rows = ff.to_csv_rows()
        assert len(rows) == quick_rule.positive_nodes.size
        assert rows[0][0] == pytest.approx(quick_rule.positive_nodes[0])
