import math
import sys
from unittest import mock

import mpmath
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
from cvbell.mk_binning import mk_bell_value
from cvbell.model import density_matrix
from cvbell.oracle import evaluate, orthogonal_angles
from cvbell.quadrature import (Identity, Optimal, gauss_hermite_rule, kernel_integrals,
                               optimal_integrals)
from cvbell.scenario import StateSpec
from cvbell.variational import family_integrals
from reference import mp_integrals, optimize_epsilon_numeric

# frozen from two independent numeric routes (damped fixed point and
# golden-section maximization of the six-mode ratio)
IDEAL_EPSILON = 2.9648362177

# per-solve budgets of the bracketed root solver: quadratures (the plain
# damped iteration needed 51-78) and the residual the plain iteration reached
MAX_QUADRATURES = 16
MAX_RESIDUAL = 1.3e-12
RULES = {order: gauss_hermite_rule(order) for order in (64, 256)}
# the power of the purity that each closed form scales with
PURITY_POWER = {"functional": 2, "cfrd": 2, "mk": 1}


def _counted_quadratures():
    return mock.patch.object(functional_bell, "_integral_epsilon",
                             wraps=functional_bell._integral_epsilon)


def _ideal_root(integrals):
    """The fixed point of eps = 4*I0/I on ``integrals``, solved as
    ``IDEAL_EPSILON`` was."""
    return functional_bell._bracketed_root(
        lambda e: functional_bell._integral_epsilon(e, integrals) - e, 1.0, 1e-13, "ideal")


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


def _closed_value(ineq, n, r, eta, p):
    """The closed-form value, or None where a partial
    product of it leaves the normal float range: 0.25 p^2 (2 eta/pi)^N and
    the correlator side for the moment inequalities, p and the value for MK.
    There its digits are lost although the value itself may be representable
    (``TestBellValue.test_ratio_outlives_its_correlator_side``)."""
    spec = StateSpec(n, r, p, eta)
    if ineq == "mk":
        value = mk_bell_value(spec)
        return value if min(p, value) >= sys.float_info.min else None
    res = (bell_value if ineq == "functional" else cfrd_bell_value)(spec)
    if min(0.25 * p * p * (2.0 * eta / math.pi) ** n, res.lhs) < sys.float_info.min:
        return None
    return res.ratio


@st.composite
def _splits(draw):
    n = draw(st.integers(2, 60))
    return n, draw(st.integers(0, n))


def _old_grid(test):
    """The fixed N = 6 grid the properties replaced: consecutive efficiencies
    at p = 1, and purities at eta = 1."""
    etas = np.linspace(0.55, 1.0, 20).tolist()
    for lo, hi in zip(etas, etas[1:]):
        test = example(ineq="functional", nr=(6, 3), etas=(lo, hi), p=1.0)(test)
    for p in np.linspace(0.05, 1.0, 20).tolist():
        test = example(ineq="functional", nr=(6, 3), etas=(0.55, 1.0), p=p)(test)
    return test


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
        # the fixed point on a rule's sums of the family, as the optimizer has them
        sums = family_integrals(RULES[order])
        with _counted_quadratures() as counted:
            eps = _ideal_root(sums)
        assert counted.call_count <= MAX_QUADRATURES
        assert abs(eps - functional_bell._integral_epsilon(eps, sums)) <= MAX_RESIDUAL

    def test_ideal_epsilon_rederived(self):
        # the constant is the solve on the exact integrals, bit for bit, and
        # within 1e-14 of the fixed point of the integrals in 40-digit mpmath
        assert _ideal_root(optimal_integrals) == functional_bell.IDEAL_EPSILON
        assert ideal_epsilon() == ideal_epsilon(RULES[64]) == functional_bell.IDEAL_EPSILON
        with mpmath.workdps(40):
            def ratio(e):
                ip, ii, i0 = mp_integrals(e)
                return 4 * i0 / ii

            fixed = mpmath.findroot(lambda e: ratio(e) - e, mpmath.mpf(3))
            assert abs(functional_bell.IDEAL_EPSILON - fixed) <= 1e-14 * fixed

    @pytest.mark.parametrize("n, eta", [(2, 0.9), (2, 0.3), (3, 1.0), (7, 0.55), (101, 0.8)])
    def test_lands_on_the_plain_damped_fixed_point(self, rule, n, eta):
        t = functional_bell._integral_epsilon
        if n % 2 == 0:
            solved = solve_epsilon_even(eta, rule).epsilon_lossy
            plain = _plain_damped_fixed_point(
                lambda e: lossy_epsilon_map(t(e), eta), ideal_epsilon(rule), 1e-12)
        else:
            solved = solve_epsilon_odd(n, eta, rule).epsilon_odd
            plain = _plain_damped_fixed_point(
                lambda e: _literal_odd_update(n, t(e), eta),
                ideal_epsilon(rule), 1e-12)
        assert solved == pytest.approx(plain, abs=5e-12)

    @pytest.mark.parametrize("eta", [1e-16, 1e-300])
    def test_fixed_point_within_roundoff_of_zero(self, rule, eta):
        # the root lies within roundoff of zero here; the solve must stay above it
        assert solve_epsilon_even(eta, rule).epsilon_lossy > 0.0
        assert solve_epsilon_odd(7, eta, rule).epsilon_odd > 0.0

    def test_open_bracket_is_never_narrow(self):
        # with no upper end the bracket is (lo, inf), and math.ulp(inf) is inf:
        # the first step must still be taken, not the start returned
        assert functional_bell._bracketed_root(lambda x: 5.0 - x, 1.0, 1e-13, "t") == 5.0

    @pytest.mark.parametrize("order, before", [(64, 2.9648570205240925),
                                               (256, 2.9648362177243106)])
    def test_ideal_epsilon_unchanged(self, order, before):
        # ``before`` is the fixed point on the rule's sums of the family, summed
        # by numpy's dot product; the plain-float sums round differently (1 ulp
        # at order 256), well inside the solve's tolerance 1e-13
        root = _ideal_root(family_integrals(RULES[order]))
        assert root == pytest.approx(before, rel=0, abs=1e-13)

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
        eps = optimal_epsilon(n, r, eta)
        top = _log_ratio(n, r, eta, eps, rule)
        for shift in (1.0 - 1e-4, 1.0 + 1e-4):
            assert top >= _log_ratio(n, r, eta, eps * shift, rule)

    @pytest.mark.parametrize("n, r", [(1, 2), (5, 6), (5, -1)])
    def test_split_validation(self, n, r):
        with pytest.raises(ValueError, match="split r"):
            optimal_epsilon(n, r, 1.0)


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
            return _log_ratio(n, r, e, optimal_epsilon(n, r, e), rule)

        h = 1e-5
        eps = optimal_epsilon(n, r, eta)
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

    def test_five_modes_violate(self):
        res = bell_value(StateSpec(5, 2))
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
                lambda e: _matched_odd_update(n, functional_bell._integral_epsilon(e), eta),
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
            lambda e: _matched_odd_update(7, functional_bell._integral_epsilon(e), 1.0),
            ideal_epsilon(rule), 1e-12)
        assert lit == pytest.approx(mat, abs=1e-11)

    def test_validation(self, rule):
        with pytest.raises(ValueError):
            solve_epsilon_odd(4, 1.0, rule)


class TestBellValue:
    def test_onset_at_five_modes(self):
        assert bell_value(StateSpec(5, 2)).ratio > 1
        assert bell_value(StateSpec(4, 2)).ratio <= 1

    @pytest.mark.parametrize("n, r", [(1, 0), (6, 2), (9, 0), (40, 3)])
    def test_mirror_splits_agree(self, n, r):
        # the ratio and its optimal function are symmetric under r <-> N - r
        a = bell_value(StateSpec(n, r, 0.9, 0.85))
        b = bell_value(StateSpec(n, n - r, 0.9, 0.85))
        assert a.ratio == pytest.approx(b.ratio, rel=1e-12)
        assert a.function_id == b.function_id

    def test_lhs_rhs_consistent(self):
        res = bell_value(StateSpec(6, 3, 0.9, 0.9))
        assert res.ratio == pytest.approx(res.lhs / res.rhs, rel=1e-14)

    def test_matches_oracle_lossy_impure(self, rule):
        spec = StateSpec(6, 3, 0.9, 0.9)
        closed = bell_value(spec)
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
                    closed = bell_value(spec)
                    if n % 2 == 0:
                        eps = solve_epsilon_even(eta, rule).epsilon_lossy
                    else:
                        eps = solve_epsilon_odd(n, eta, rule).epsilon_odd
                    f = Optimal(eps)
                    orc = evaluate(density_matrix(spec), f, f,
                                   orthogonal_angles(n, r), rule)
                    assert abs(closed.ratio - orc.ratio) / orc.ratio < 1e-6

    @settings(max_examples=150, deadline=None)
    @given(ineq=st.sampled_from(sorted(PURITY_POWER)), nr=_splits(),
           etas=st.tuples(st.floats(0.3, 1.0), st.floats(0.3, 1.0)).map(sorted).filter(
               lambda e: e[1] - e[0] >= 1e-9),
           p=st.floats(0.0, 1.0, exclude_min=True))
    # the correlator side at eta = 1 is 1.9e-308, below the normal range,
    # while the ratio rises from 9.5e-271 at eta = 0.5 to 2.7e-260
    @example(ineq="functional", nr=(38, 30), etas=(0.5, 1.0), p=9.1e-133)
    @_old_grid
    def test_monotone_in_efficiency_and_purity(self, ineq, nr, etas, p):
        # each value rises strictly in eta (across a gap above its roundoff)
        # and scales as a power of p, so it rises in p too
        (n, r), (lo, hi) = nr, etas
        at_lo, at_hi = _closed_value(ineq, n, r, lo, p), _closed_value(ineq, n, r, hi, p)
        if at_lo is not None and at_hi is not None:
            assert at_lo < at_hi
        elif at_lo is not None:
            # at a lopsided split the correlator side can shrink as eta rises:
            # the break that test_ratio_outlives_its_correlator_side pins
            assert ineq != "mk"
            spec = StateSpec(n, r, p, hi)
            lhs = (bell_value if ineq == "functional" else cfrd_bell_value)(spec).lhs
            assert lhs < sys.float_info.min
        if at_hi is not None:
            unit = _closed_value(ineq, n, r, hi, 1.0)
            assert at_hi == pytest.approx(p ** PURITY_POWER[ineq] * unit, rel=1e-14, abs=0.0)

    @pytest.mark.xfail(strict=True, reason="the correlator side underflows before the "
                       "ratio does; the log-space closed forms of ROADMAP item 4 mend it")
    def test_ratio_outlives_its_correlator_side(self):
        # p^2 B(p = 1) = 2.7e-253 is a normal float; the correlator side
        # 1.4e-331 is not, and the ratio comes out 0
        unit = bell_value(StateSpec(60, 0, 1.0, 1.0)).ratio
        ratio = bell_value(StateSpec(60, 0, 1e-130, 1.0)).ratio
        assert ratio == pytest.approx(1e-260 * unit, rel=1e-14, abs=0.0)

    def test_exponential_growth(self):
        ns = np.arange(6, 21)
        logs = [np.log(bell_value(StateSpec(int(n), int(n) // 2)).ratio)
                for n in ns]
        slope = np.polyfit(ns, logs, 1)[0]
        assert slope > 0

    def test_optimized_function_beats_plain_moments(self):
        for n in (4, 5, 6, 8, 10, 12):
            for eta in (1.0, 0.9):
                for p in (1.0, 0.9):
                    spec = StateSpec(n, n // 2, p, eta)
                    assert bell_value(spec).ratio >= cfrd_bell_value(spec).ratio


class TestFloatRange:
    def test_last_representable_mode_counts(self):
        assert np.isfinite(bell_value(StateSpec(330, 165)).ratio)
        assert np.isfinite(cfrd_bell_value(StateSpec(770, 385)).ratio)

    @pytest.mark.parametrize("n", [331, 348, 500])
    def test_functional_bound_side_underflow(self, n):
        with pytest.raises(NumericalDomainError, match=f"bound side at n = {n}"):
            bell_value(StateSpec(n, n // 2))

    @pytest.mark.parametrize("n", [771, 811, 2000, 10**5])
    def test_cfrd_prefactor_underflow_and_overflow(self, n):
        with pytest.raises(NumericalDomainError, match=f"bound side at n = {n}"):
            cfrd_bell_value(StateSpec(n, n // 2))

    @pytest.mark.parametrize("n, r, eta", [(5000, 1, 0.95), (100000, 25000, 1.0)])
    def test_prefactor_checked_before_the_solve(self, n, r, eta):
        # at such splits the stationarity solve would not converge
        with mock.patch.object(functional_bell, "optimal_epsilon") as solve:
            with pytest.raises(NumericalDomainError, match=f"bound side at n = {n}"):
                bell_value(StateSpec(n, r, 1.0, eta))
        solve.assert_not_called()

    def test_underflowing_correlator_side_is_a_zero_ratio(self):
        res = bell_value(StateSpec(600, 300, 1.0, 0.3))
        assert res.lhs == 0.0 and res.rhs > 0.0 and res.ratio == 0.0


class TestMomentCorrelationValue:
    def test_even_values_are_rational(self):
        # 2^(N-2) (eta^2/(1+2eta))^(N/2) at eta=1: 4^(N/2-1)/3^(N/2)
        assert cfrd_bell_value(StateSpec(10, 5)).ratio == pytest.approx(
            256 / 243, rel=1e-12)
        assert cfrd_bell_value(StateSpec(2, 1)).ratio == pytest.approx(
            1 / 3, rel=1e-12)

    def test_onset_at_ten_modes(self):
        assert cfrd_bell_value(StateSpec(10, 5)).ratio > 1
        assert cfrd_bell_value(StateSpec(9, 4)).ratio <= 1
        assert cfrd_bell_value(StateSpec(9, 4)).ratio == pytest.approx(
            64 / 81, rel=1e-12)

    def test_arbitrary_split_matches_oracle(self, rule):
        spec = StateSpec(6, 2, 0.9, 0.85)
        closed = cfrd_bell_value(spec)
        ident = Identity()
        orc = evaluate(density_matrix(spec), ident, ident,
                       orthogonal_angles(6, 2), rule)
        assert abs(closed.ratio - orc.ratio) / orc.ratio < 1e-10

    def test_purity_enters_squared(self):
        base = cfrd_bell_value(StateSpec(10, 5, 1.0, 0.95)).ratio
        dimmed = cfrd_bell_value(StateSpec(10, 5, 0.7, 0.95)).ratio
        assert dimmed == pytest.approx(0.49 * base, rel=1e-12)
