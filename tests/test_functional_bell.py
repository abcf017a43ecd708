import numpy as np
import pytest

from cvbell.functional_bell import (
    bell_value,
    cfrd_bell_value,
    closed_form_sides,
    ideal_epsilon,
    lossy_epsilon_map,
    solve_epsilon_even,
    solve_epsilon_odd,
)
from cvbell.model import Identity, Optimal, StateSpec, density_matrix
from cvbell.oracle import evaluate, optimize_epsilon_numeric, orthogonal_angles
from cvbell.quadrature import kernel_integrals

# frozen from two independent numeric routes (damped fixed point and
# golden-section maximization of the six-mode ratio)
IDEAL_EPSILON = 2.9648362177


class TestEpsilonEven:
    def test_ideal_value_and_residual(self, rule):
        sol = solve_epsilon_even(1.0, rule)
        assert sol.epsilon_ideal == pytest.approx(IDEAL_EPSILON, abs=1e-8)
        assert sol.residual < 1e-10
        assert sol.epsilon_odd is None

    def test_unit_efficiency_identity(self, rule):
        sol = solve_epsilon_even(1.0, rule)
        assert sol.epsilon_lossy == sol.epsilon_ideal

    def test_map_algebra_at_half(self):
        for e in (0.5, 1.0, 2.9648, 7.0):
            assert lossy_epsilon_map(e, 0.5) == pytest.approx(e / (1 + e / 2), rel=1e-15)
            assert lossy_epsilon_map(e, 0.5) < e

    def test_residual_small_for_any_eta(self, rule):
        for eta in (1.0, 0.9, 0.6, 0.3, 0.08):
            assert solve_epsilon_even(eta, rule).residual < 1e-10

    def test_self_consistent_maximizes_ratio(self, rule):
        # the self-consistent parameter reaches the free numeric maximum;
        # the one-shot mapped ideal measurably undershoots it
        eta = 0.9
        n = 6
        sol_sc = solve_epsilon_even(eta, rule)
        eps_1s = lossy_epsilon_map(ideal_epsilon(rule), eta)

        def ratio(eps):
            ki = kernel_integrals(Optimal(eps), rule)
            lhs, rhs = closed_form_sides(n, 3, eta, 1.0, ki)
            return lhs / rhs

        b_sc = ratio(sol_sc.epsilon_lossy)
        b_1s = ratio(eps_1s)
        eps_num, res_num = optimize_epsilon_numeric(StateSpec(n, 3, 1.0, eta), rule)
        assert abs(b_sc - res_num.ratio) / res_num.ratio < 1e-9
        assert abs(eps_num - sol_sc.epsilon_lossy) < 1e-5
        gap = (b_sc - b_1s) / b_sc
        assert gap > 1e-4   # the readings genuinely differ at eta = 0.9
        assert b_1s < b_sc

    def test_eta_validation(self, rule):
        for eta in (0.0, -0.2, 1.5):
            with pytest.raises(ValueError):
                solve_epsilon_even(eta, rule)


class TestEpsilonOdd:
    def test_large_n_approaches_even_fixed_point(self, rule):
        sol = solve_epsilon_odd(101, 1.0, rule)
        assert abs(sol.epsilon_odd / sol.epsilon_ideal - 1.0) < 1e-2
        assert sol.residual < 1e-10

    def test_five_modes_violate(self, rule):
        res = bell_value(StateSpec(5, 2), rule)
        assert res.ratio > 1

    def test_matches_numeric_search(self, rule):
        sol = solve_epsilon_odd(5, 1.0, rule)
        eps_num, _ = optimize_epsilon_numeric(StateSpec(5, 2), rule)
        assert abs(sol.epsilon_odd - eps_num) < 1e-4

    def test_reading_adjudication(self, rule):
        # exactly one algebraic reading of the lossy denominator agrees with
        # the free numeric maximization; the symmetrized one does not
        n = 5
        for eta in (0.9, 0.8):
            lit = solve_epsilon_odd(n, eta, rule, reading="literal").epsilon_odd
            mat = solve_epsilon_odd(n, eta, rule, reading="matched").epsilon_odd

            def ratio(eps):
                ki = kernel_integrals(Optimal(eps), rule)
                lhs, rhs = closed_form_sides(n, 2, eta, 1.0, ki)
                return lhs / rhs

            from scipy.optimize import minimize_scalar
            res = minimize_scalar(lambda e: -ratio(e), bracket=(0.5, 3.0),
                                  options={"xtol": 1e-12})
            argmax = res.x
            assert abs(lit - argmax) < 1e-4
            assert abs(mat - argmax) > 1e-3

    def test_readings_coincide_without_loss(self, rule):
        lit = solve_epsilon_odd(7, 1.0, rule, reading="literal").epsilon_odd
        mat = solve_epsilon_odd(7, 1.0, rule, reading="matched").epsilon_odd
        assert lit == pytest.approx(mat, abs=1e-11)

    def test_validation(self, rule):
        with pytest.raises(ValueError):
            solve_epsilon_odd(4, 1.0, rule)
        with pytest.raises(ValueError):
            solve_epsilon_odd(5, 1.0, rule, reading="bogus")


class TestBellValue:
    def test_onset_at_five_modes(self, rule):
        assert bell_value(StateSpec(5, 2), rule).ratio > 1
        assert bell_value(StateSpec(4, 2), rule).ratio <= 1

    def test_unsupported_split_directs_to_oracle(self, rule):
        with pytest.raises(ValueError) as err:
            bell_value(StateSpec(6, 2), rule)
        assert "oracle" in str(err.value)

    def test_lhs_rhs_consistent(self, rule):
        res = bell_value(StateSpec(6, 3, 0.9, 0.9), rule)
        assert res.ratio == pytest.approx(res.lhs / res.rhs, rel=1e-14)

    def test_matches_oracle_lossy_impure(self, rule):
        spec = StateSpec(6, 3, 0.9, 0.9)
        closed = bell_value(spec, rule)
        f = Optimal(solve_epsilon_even(0.9, rule).epsilon_lossy)
        orc = evaluate(density_matrix(spec), f, f, orthogonal_angles(6, 3), rule)
        assert abs(closed.ratio - orc.ratio) / orc.ratio < 1e-6

    def test_oracle_grid_agreement(self, rule):
        # closed forms against the exact trace for both parities, loss, impurity
        for n in (4, 5, 6, 7, 8):
            r = n // 2
            for eta in (1.0, 0.9, 0.8):
                for p in (1.0, 0.9):
                    spec = StateSpec(n, r, p, eta)
                    closed = bell_value(spec, rule)
                    if n % 2 == 0:
                        eps = solve_epsilon_even(eta, rule).epsilon_lossy
                    else:
                        eps = solve_epsilon_odd(n, eta, rule).epsilon_odd
                    f = Optimal(eps)
                    orc = evaluate(density_matrix(spec), f, f,
                                   orthogonal_angles(n, r), rule)
                    assert abs(closed.ratio - orc.ratio) / orc.ratio < 1e-6

    def test_monotone_in_efficiency_and_purity(self, rule):
        etas = np.linspace(0.55, 1.0, 20)
        vals = [bell_value(StateSpec(6, 3, 1.0, e), rule).ratio for e in etas]
        assert np.all(np.diff(vals) > 0)
        ps = np.linspace(0.05, 1.0, 20)
        vals = [bell_value(StateSpec(6, 3, p, 1.0), rule).ratio for p in ps]
        assert np.all(np.diff(vals) > 0)

    def test_exponential_growth(self, rule):
        ns = np.arange(6, 21)
        logs = [np.log(bell_value(StateSpec(int(n), int(n) // 2), rule).ratio)
                for n in ns]
        slope = np.polyfit(ns, logs, 1)[0]
        assert slope > 0

    def test_optimized_function_beats_plain_moments(self, rule):
        for n in (4, 5, 6, 8, 10, 12):
            for eta in (1.0, 0.9):
                for p in (1.0, 0.9):
                    spec = StateSpec(n, n // 2, p, eta)
                    assert bell_value(spec, rule).ratio >= cfrd_bell_value(spec, rule).ratio


class TestMomentCorrelationValue:
    def test_even_values_are_rational(self, rule):
        # 2^(N-2) (eta^2/(1+2eta))^(N/2) at eta=1: 4^(N/2-1)/3^(N/2)
        assert cfrd_bell_value(StateSpec(10, 5), rule).ratio == pytest.approx(
            256 / 243, rel=1e-12)
        assert cfrd_bell_value(StateSpec(2, 1), rule).ratio == pytest.approx(
            1 / 3, rel=1e-12)

    def test_onset_at_ten_modes(self, rule):
        assert cfrd_bell_value(StateSpec(10, 5), rule).ratio > 1
        assert cfrd_bell_value(StateSpec(9, 4), rule).ratio <= 1
        assert cfrd_bell_value(StateSpec(9, 4), rule).ratio == pytest.approx(
            64 / 81, rel=1e-12)

    def test_arbitrary_split_matches_oracle(self, rule):
        spec = StateSpec(6, 2, 0.9, 0.85)
        closed = cfrd_bell_value(spec, rule)
        ident = Identity()
        orc = evaluate(density_matrix(spec), ident, ident,
                       orthogonal_angles(6, 2), rule)
        assert abs(closed.ratio - orc.ratio) / orc.ratio < 1e-10

    def test_purity_enters_squared(self, rule):
        base = cfrd_bell_value(StateSpec(10, 5, 1.0, 0.95), rule).ratio
        dimmed = cfrd_bell_value(StateSpec(10, 5, 0.7, 0.95), rule).ratio
        assert dimmed == pytest.approx(0.49 * base, rel=1e-12)
