from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cvbell import functional_bell
from cvbell.errors import ConvergenceError, NumericalDomainError
from cvbell.functional_bell import (
    bell_value,
    cfrd_bell_value,
    closed_form_log_ratio,
    closed_form_sides,
    ideal_epsilon,
    lossy_epsilon_map,
    optimal_epsilon,
    solve_epsilon_even,
    solve_epsilon_odd,
)
from cvbell.model import Identity, Optimal, StateSpec, density_matrix
from cvbell.oracle import evaluate, optimize_epsilon_numeric, orthogonal_angles
from cvbell.quadrature import gauss_hermite_rule, kernel_integrals

# frozen from two independent numeric routes (damped fixed point and
# golden-section maximization of the six-mode ratio)
IDEAL_EPSILON = 2.9648362177

# per-solve budgets of the bracketed root solver: quadratures (the plain
# damped iteration needed 51-78) and the residual the plain iteration reached
MAX_QUADRATURES = 16
MAX_RESIDUAL = 1.3e-12
RULES = {order: gauss_hermite_rule(order) for order in (64, 256)}


def _counted_quadratures():
    return mock.patch.object(functional_bell, "_integral_epsilon",
                             wraps=functional_bell._integral_epsilon)


def _literal_odd_update(n, eps, eta):
    """The odd-N relation as first written, with the asymmetric eps^2 power."""
    eps_l = lossy_epsilon_map(eps, eta)
    e_minus = eps - 4.0
    e_plus_l = eps_l + 4.0
    num = n * e_plus_l - eps_l * e_minus / eps
    den = n * e_plus_l + eps_l * eps_l * e_minus / (eps * eps)
    return eps_l * num / den


def _matched_odd_update(n, eps, eta):
    """The odd-N relation with its lossy denominator symmetrized ("matched")."""
    eps_l = lossy_epsilon_map(eps, eta)
    skew = eps_l * (eps - 4.0) / eps
    return eps_l * (n * (eps_l + 4.0) - skew) / (n * (eps_l + 4.0) + skew)


def _plain_damped_fixed_point(update, x, tol):
    while True:
        nxt = 0.5 * x + 0.5 * update(x)
        if abs(nxt - x) < tol:
            return nxt
        x = nxt


class TestAcceleratedFixedPoint:
    """Budgets and safeguards of the epsilon solves' root finder,
    ``functional_bell._bracketed_root``."""

    @settings(max_examples=40, deadline=None)
    @given(eta=st.floats(0.3, 1.0), order=st.sampled_from(sorted(RULES)))
    @example(eta=0.99684, order=64)
    def test_even_solve_budget(self, eta, order):
        rule = RULES[order]
        ideal_epsilon(rule)
        with _counted_quadratures() as counted:
            sol = solve_epsilon_even(eta, rule)
        assert counted.call_count <= MAX_QUADRATURES
        assert sol.residual <= MAX_RESIDUAL

    @settings(max_examples=60, deadline=None)
    @given(half=st.integers(1, 150), eta=st.floats(0.3, 1.0),
           order=st.sampled_from(sorted(RULES)))
    @example(half=31, eta=1.0, order=64)
    def test_odd_solve_budget(self, half, eta, order):
        rule = RULES[order]
        ideal_epsilon(rule)
        with _counted_quadratures() as counted:
            sol = solve_epsilon_odd(2 * half + 1, eta, rule)
        assert counted.call_count <= MAX_QUADRATURES
        assert sol.residual <= MAX_RESIDUAL

    @pytest.mark.parametrize("order", sorted(RULES))
    def test_ideal_solve_budget(self, order):
        rule = RULES[order]
        with mock.patch.dict(functional_bell._IDEAL_CACHE, clear=True), \
                _counted_quadratures() as counted:
            eps = ideal_epsilon(rule)
        assert counted.call_count <= MAX_QUADRATURES
        assert abs(eps - functional_bell._integral_epsilon(eps, rule)) <= MAX_RESIDUAL

    @pytest.mark.parametrize("n, eta", [(2, 0.9), (2, 0.3), (3, 1.0), (7, 0.55), (101, 0.8)])
    def test_lands_on_the_plain_damped_fixed_point(self, rule, n, eta):
        t = functional_bell._integral_epsilon
        if n % 2 == 0:
            solved = solve_epsilon_even(eta, rule).epsilon_lossy
            plain = _plain_damped_fixed_point(
                lambda e: lossy_epsilon_map(t(e, rule), eta), ideal_epsilon(rule), 1e-12)
        else:
            solved = solve_epsilon_odd(n, eta, rule).epsilon_odd
            plain = _plain_damped_fixed_point(
                lambda e: _literal_odd_update(n, t(e, rule), eta),
                ideal_epsilon(rule), 1e-12)
        assert solved == pytest.approx(plain, abs=5e-12)

    @pytest.mark.parametrize("eta", [1e-16, 1e-300])
    def test_fixed_point_within_roundoff_of_zero(self, rule, eta):
        # the root lies within roundoff of zero here; the solve must stay above it
        assert solve_epsilon_even(eta, rule).epsilon_lossy > 0.0
        assert solve_epsilon_odd(7, eta, rule).epsilon_odd > 0.0

    def test_map_without_fixed_point_raises(self):
        calls = []

        def no_root(x):
            calls.append(x)
            return 1.0

        with pytest.raises(ConvergenceError) as err:
            functional_bell._bracketed_root(no_root, 0.0, 1e-12, "no-root")
        assert err.value.best is not None and np.isfinite(err.value.best)
        assert err.value.residual == 1.0
        assert len(calls) <= 100


def _log_ratio(n, r, eta, eps, rule):
    """ln B at p = 1 in logarithms throughout, free of the float range."""
    ki = kernel_integrals(Optimal(eps), rule)
    ln_c = np.log(eta * ki.i_cross + (1.0 - eta) * ki.i_zero)
    ln_i0 = np.log(ki.i_zero)
    ln_d = np.logaddexp(r * ln_c + (n - r) * ln_i0, r * ln_i0 + (n - r) * ln_c)
    return n * np.log(eta * 2.0 / np.pi * ki.i_plus ** 2) - ln_d


class TestStationarityRoot:
    # explicit examples: steep lopsided maps, nearly a step at the root; on
    # (95, 0) and (180, 0) secant steps alone creep along one end of the bracket
    @settings(max_examples=60, deadline=None)
    @given(split=st.integers(1, 300).flatmap(
        lambda n: st.tuples(st.just(n), st.integers(0, n))), eta=st.floats(0.3, 1.0))
    @example(split=(30, 1), eta=1.0)
    @example(split=(95, 0), eta=1.0)
    @example(split=(180, 0), eta=1.0)
    @example(split=(40, 0), eta=0.95)
    @example(split=(202, 27), eta=0.87)
    @example(split=(222, 3), eta=0.855)
    def test_root_maximizes_the_ratio(self, rule, split, eta):
        n, r = split
        eps = optimal_epsilon(n, r, eta, rule)
        top = _log_ratio(n, r, eta, eps, rule)
        for shift in (1.0 - 1e-4, 1.0 + 1e-4):
            assert top >= _log_ratio(n, r, eta, eps * shift, rule)

    @pytest.mark.parametrize("n, r", [(1, 2), (5, 6), (5, -1)])
    def test_split_validation(self, rule, n, r):
        with pytest.raises(ValueError, match="split r"):
            optimal_epsilon(n, r, 1.0, rule)


class TestClosedFormLogRatio:
    @settings(max_examples=60, deadline=None)
    @given(split=st.integers(1, 3000).flatmap(
        lambda n: st.tuples(st.just(n), st.integers(0, n))),
        eta=st.floats(0.3, 1.0), eps=st.floats(0.5, 10.0))
    def test_matches_the_logaddexp_form(self, rule, split, eta, eps):
        # _log_ratio leaves out the eps- and eta-free term ln(1/2) + (n/2) ln(2 pi)
        n, r = split
        got, _ = closed_form_log_ratio(n, r, eta, 1.0, kernel_integrals(Optimal(eps), rule))
        want = _log_ratio(n, r, eta, eps, rule) + np.log(0.5) + 0.5 * n * np.log(2.0 * np.pi)
        assert got == pytest.approx(want, rel=0, abs=1e-14 * n)

    @pytest.mark.parametrize("n, r, eta", [
        (10, 5, 0.8), (11, 5, 0.9), (40, 3, 0.95), (9, 0, 0.7), (301, 150, 0.7),
    ])
    def test_slope_of_the_maximized_ratio(self, rule, n, r, eta):
        # envelope theorem: the slope at the stationary function is the total one
        def top(e):
            return _log_ratio(n, r, e, optimal_epsilon(n, r, e, rule), rule)

        h = 1e-5
        eps = optimal_epsilon(n, r, eta, rule)
        _, slope = closed_form_log_ratio(n, r, eta, 1.0, kernel_integrals(Optimal(eps), rule))
        assert slope == pytest.approx((top(eta + h) - top(eta - h)) / (2.0 * h), rel=1e-8)


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
            lit = solve_epsilon_odd(n, eta, rule).epsilon_odd
            mat = _plain_damped_fixed_point(
                lambda e: _matched_odd_update(n, functional_bell._integral_epsilon(e, rule), eta),
                ideal_epsilon(rule), 1e-12)

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
        lit = solve_epsilon_odd(7, 1.0, rule).epsilon_odd
        mat = _plain_damped_fixed_point(
            lambda e: _matched_odd_update(7, functional_bell._integral_epsilon(e, rule), 1.0),
            ideal_epsilon(rule), 1e-12)
        assert lit == pytest.approx(mat, abs=1e-11)

    def test_validation(self, rule):
        with pytest.raises(ValueError):
            solve_epsilon_odd(4, 1.0, rule)


class TestBellValue:
    def test_onset_at_five_modes(self, rule):
        assert bell_value(StateSpec(5, 2), rule).ratio > 1
        assert bell_value(StateSpec(4, 2), rule).ratio <= 1

    @pytest.mark.parametrize("n, r", [(1, 0), (6, 2), (9, 0), (40, 3)])
    def test_mirror_splits_agree(self, rule, n, r):
        # the ratio and its optimal function are symmetric under r <-> N - r
        a = bell_value(StateSpec(n, r, 0.9, 0.85), rule)
        b = bell_value(StateSpec(n, n - r, 0.9, 0.85), rule)
        assert a.ratio == pytest.approx(b.ratio, rel=1e-12)
        assert a.function_id == b.function_id

    def test_closed_forms_carry_no_angles(self, rule):
        spec = StateSpec(6, 3, 0.9, 0.9)
        assert bell_value(spec, rule).angles is None
        assert cfrd_bell_value(spec, rule).angles is None

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


class TestFloatRange:
    def test_last_representable_mode_counts(self, rule):
        assert np.isfinite(bell_value(StateSpec(330, 165), rule).ratio)
        assert np.isfinite(cfrd_bell_value(StateSpec(770, 385), rule).ratio)

    @pytest.mark.parametrize("n", [331, 348, 500])
    def test_functional_bound_side_underflow(self, rule, n):
        with pytest.raises(NumericalDomainError, match=f"bound side at n = {n}"):
            bell_value(StateSpec(n, n // 2), rule)

    @pytest.mark.parametrize("n", [771, 811, 2000, 10**5])
    def test_cfrd_prefactor_underflow_and_overflow(self, rule, n):
        with pytest.raises(NumericalDomainError, match=f"bound side at n = {n}"):
            cfrd_bell_value(StateSpec(n, n // 2), rule)

    @pytest.mark.parametrize("n, r, eta", [(5000, 1, 0.95), (100000, 25000, 1.0)])
    def test_prefactor_checked_before_the_solve(self, rule, n, r, eta):
        # at such splits the stationarity solve would not converge
        with mock.patch.object(functional_bell, "optimal_epsilon") as solve:
            with pytest.raises(NumericalDomainError, match=f"bound side at n = {n}"):
                bell_value(StateSpec(n, r, 1.0, eta), rule)
        solve.assert_not_called()

    def test_underflowing_correlator_side_is_a_zero_ratio(self, rule):
        res = bell_value(StateSpec(600, 300, 1.0, 0.3), rule)
        assert res.lhs == 0.0 and res.rhs > 0.0 and res.ratio == 0.0


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
