import functools
import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import cvbell.quadrature as quadrature
from cvbell.errors import NumericalDomainError
from cvbell.functional_bell import cfrd_bell_value, ideal_epsilon
from cvbell.model import density_matrix, site_operator
from cvbell.oracle import evaluate, orthogonal_angles
from cvbell.quadrature import (
    DEFAULT_ORDER,
    GAUSS_NORM,
    QUICK_ORDER,
    Identity,
    KernelIntegrals,
    Optimal,
    SignBin,
    _newton_rule,
    _node_integrals,
    gauss_hermite_rule,
    kernel_integrals,
    optimal_integrals,
)
from cvbell.scenario import StateSpec
from cvbell.variational import family_integrals
from gen_gauss_hermite_tables import _golub_welsch
from reference import mirrored, mp_integrals

SQ = GAUSS_NORM  # sqrt(pi/2)


@functools.cache
def cached_rule(order):
    return gauss_hermite_rule(order)


@functools.cache
def cached_golub_welsch(order):
    return _golub_welsch(order)


def full_loop(eps, rule):
    """The optimal family's kernel integrals summed over every positive node,
    outermost first: the reference for a rule's sums of the family."""
    s_xf = s_xxff = s_ff = 0.0
    for x, w in zip(reversed(rule.half_nodes), reversed(rule.half_weights)):
        xx = x * x
        f = x / (1.0 + eps * xx)
        wf = w * f
        wff = wf * f
        s_xf += wf * x
        s_ff += wff
        s_xxff += wff * xx
    return (8.0 * s_xf, 32.0 * s_xxff, 8.0 * s_ff)


def integrate(rule, f):
    """int f(x) e^(-2x^2) dx by the rule."""
    x, w = mirrored(rule)
    return float(w @ f(x))


def gaussian_moment(k):
    """int x^k e^(-2x^2) dx: (k-1)!! / 4^(k/2) * sqrt(pi/2) for even k, else 0."""
    if k % 2 == 1:
        return 0.0
    val = SQ
    for j in range(1, k, 2):
        val *= j / 4.0
    return val


class TestRule:
    def test_weight_normalization(self):
        for order in (1, 2, 7, 64, 256, 512):
            r = cached_rule(order)
            assert abs(mirrored(r)[1].sum() - SQ) / SQ < 1e-12

    def test_nodes_increasing_and_symmetric(self):
        # symmetric by storage: the positive half, mirrored
        r = gauss_hermite_rule(51)
        x, w = np.array(r.half_nodes), np.array(r.half_weights)
        assert len(x) == len(w) == 25
        assert x[0] > 0 and np.all(np.diff(x) > 0)
        assert np.all(w > 0) and r.center_weight > 0

    def test_polynomial_exactness(self):
        # degree <= 2*order - 1 is exact
        r = gauss_hermite_rule(6)
        for k in range(0, 12):
            approx = integrate(r, lambda x, k=k: x ** k)
            assert abs(approx - gaussian_moment(k)) < 1e-12 * max(1.0, abs(gaussian_moment(k)))

    def test_order_one(self):
        r = gauss_hermite_rule(1)
        assert r.half_nodes == r.half_weights == ()
        assert abs(r.center_weight - 1.2533141) < 1e-6

    def test_second_and_fourth_moments(self):
        r = gauss_hermite_rule(8)
        assert abs(integrate(r, lambda x: x ** 2) - 0.3133285) < 1e-6
        assert abs(integrate(r, lambda x: x ** 4) - 0.2349964) < 1e-6

    @pytest.mark.parametrize("order", [64, 256, 512])
    def test_cfrd_ratio_matches_exact_fraction(self, order):
        # the ideal CFRD ratio is (4/3)^floor(N/2) / 4 exactly and carries the
        # rule's second and fourth moments to powers of order N
        rule = cached_rule(order)
        for n in range(4, 301):
            exact = float(Fraction(4, 3) ** (n // 2) / 4)
            assert cfrd_bell_value(StateSpec(n, n // 2)).ratio == pytest.approx(
                exact, rel=2e-13), n

    def test_order_bounds(self):
        for bad in (0, -3, 513, 2.5, "8", True):
            with pytest.raises(ValueError):
                gauss_hermite_rule(bad)


class TestTable:
    """The default orders are an exact table of the generator's Golub-Welsch
    output, which the package's own Newton rule reproduces."""

    @pytest.mark.parametrize("order", [QUICK_ORDER, DEFAULT_ORDER])
    def test_matches_the_computed_rule(self, order):
        # the two methods round differently: the nodes agree to 2.8e-16
        # relative and the weights to 2.8e-13, largest in the far tail
        table, computed = gauss_hermite_rule(order), _newton_rule(order)
        assert table.order == computed.order == order
        assert table.center_weight == computed.center_weight == 0.0
        np.testing.assert_allclose(table.half_nodes, computed.half_nodes, rtol=1e-14, atol=0)
        np.testing.assert_allclose(table.half_weights, computed.half_weights, rtol=1e-12, atol=0)

    def test_table_orders_build_nothing(self, monkeypatch):
        def no_build(order):
            raise AssertionError("rule built")

        monkeypatch.setattr(quadrature, "_newton_rule", no_build)
        for order in (QUICK_ORDER, DEFAULT_ORDER):
            assert len(gauss_hermite_rule(order).half_nodes) == order // 2
        with pytest.raises(AssertionError, match="rule built"):
            gauss_hermite_rule(255)


# every order up to 40, and orders on both sides of the powers of two and
# of the tables, up to MAX_ORDER
NEWTON_ORDERS = [*range(1, 41), 63, 100, 127, 255, 300, 511, 512]


class TestNewtonRule:
    """The computed rule of every order that has no table."""

    @pytest.mark.parametrize("order", NEWTON_ORDERS)
    def test_shape(self, order):
        rule = cached_rule(order)
        x, w = rule.half_nodes, rule.half_weights
        assert len(x) == len(w) == order // 2
        assert all(a < b for a, b in zip((0.0,) + x, x))  # positive, increasing
        assert min(w, default=0.0) >= 0.0 and rule.center_weight >= 0.0
        assert (rule.center_weight > 0.0) == bool(order % 2)
        total = 2.0 * math.fsum(w) + rule.center_weight
        assert abs(total - SQ) <= 1e-13 * SQ

    @pytest.mark.parametrize("order", range(1, 13))
    def test_polynomial_exactness(self, order):
        # odd moments vanish by the mirror; the even ones up to degree
        # 2 order - 2 are exact
        rule = cached_rule(order)
        for k in range(0, 2 * order, 2):
            approx = 2.0 * math.fsum(w * x ** k for x, w in
                                     zip(rule.half_nodes, rule.half_weights))
            approx += rule.center_weight if k == 0 else 0.0
            assert approx == pytest.approx(gaussian_moment(k), rel=1e-13, abs=0), k

    @pytest.mark.parametrize("order", NEWTON_ORDERS)
    def test_matches_golub_welsch(self, order):
        # over every order 1-512 the nodes agree to 5.8e-16 relative and the
        # weights to 7.1e-13
        rule, gw = cached_rule(order), cached_golub_welsch(order)
        np.testing.assert_allclose(rule.half_nodes, gw.half_nodes, rtol=1e-14, atol=0)
        np.testing.assert_allclose(rule.half_weights, gw.half_weights, rtol=1e-12, atol=0)
        assert rule.center_weight == pytest.approx(gw.center_weight, rel=1e-12, abs=0)


class TestIntegrate:
    """Integration by the rule, sum(weights * f(nodes))."""

    def test_constant(self):
        r = gauss_hermite_rule(32)
        assert abs(integrate(r, np.ones_like) - SQ) < 1e-14

    def test_odd_function_exact_zero(self):
        # node symmetry cancels odd integrands pairwise
        r = gauss_hermite_rule(32)
        assert abs(integrate(r, lambda x: x)) < 1e-16

    def test_convergence_self_check(self):
        f = lambda x: x / (1.0 + x * x)
        v200 = integrate(gauss_hermite_rule(200), f)
        v400 = integrate(gauss_hermite_rule(400), f)
        assert abs(v200 - v400) < 1e-12

    def test_nonfinite_integrand_names_node(self):
        r = gauss_hermite_rule(16)
        node = r.half_nodes[3]

        def bad(x):
            return math.inf if x == node else x

        bad.is_odd = True   # declared odd, so only the finiteness check sees it
        with pytest.raises(NumericalDomainError) as err:
            kernel_integrals(bad, r)
        assert f"node x={node!r}" in str(err.value)

    def test_scalar_valued_callable_broadcasts(self):
        # the zero function, written as a constant, is odd and integrates to 0
        ki = kernel_integrals(lambda x: 0.0, gauss_hermite_rule(16))
        assert tuple(ki) == (0.0, 0.0, 0.0)

    @pytest.mark.parametrize("declared_odd", [False, True])
    @pytest.mark.parametrize("value, kind", [
        ([1.0, 2.0], "list"), (np.ones(3), "ndarray"), ("1.0", "str"), (None, "NoneType"),
    ])
    def test_one_real_number_per_node(self, value, kind, declared_odd):
        # a callable is called once per node, by the oddness check and by the
        # sums alike; anything but one real number there is rejected, naming
        # the node
        r = gauss_hermite_rule(16)
        node = r.half_nodes[2]

        def bad(x):
            return value if x == node else x

        if declared_odd:
            bad.is_odd = True
        with pytest.raises(ValueError) as err:
            kernel_integrals(bad, r)
        assert str(err.value) == ("measurement function must return one real number, "
                                  f"got {kind} at x={node!r}")


class TestKernelIntegrals:
    def test_identity_values(self, rule):
        ki = kernel_integrals(Identity(), rule)
        assert abs(ki.i_plus - SQ) < 1e-12
        assert abs(ki.i_cross - 3 * SQ) < 1e-12
        assert abs(ki.i_zero - SQ) < 1e-12

    def test_optimal_small_epsilon_limit(self, rule):
        ki = kernel_integrals(Optimal(1e-9), rule)
        assert abs(ki.i_plus - SQ) < 1e-7
        assert abs(ki.i_cross - 3 * SQ) < 1e-6
        assert abs(ki.i_zero - SQ) < 1e-7

    def test_fixed_point_residual(self, rule):
        eps = ideal_epsilon(rule)
        ki = kernel_integrals(Optimal(eps), rule)
        assert abs(eps - 4.0 * ki.i_zero / ki.i_cross) < 1e-10

    def test_rejects_even_function(self, rule):
        with pytest.raises(ValueError):
            kernel_integrals(lambda x: x * x, rule)

    def test_operator_builders_reject_even_function(self, rule):
        even = lambda x: x * x
        angles = orthogonal_angles(2, 1)
        rho = density_matrix(StateSpec(2, 1))
        with pytest.raises(ValueError, match="not odd"):
            evaluate(rho, even, even, angles, rule)
        with pytest.raises(ValueError, match="not odd"):
            site_operator(even, Identity(), 0.0, np.pi / 2, rule)

    def test_integrals_pass_through(self, rule):
        # integrals stand for the function they were taken from
        for k in (kernel_integrals(Optimal(1.5), rule), KernelIntegrals(1.0, 2.0, 3.0)):
            assert kernel_integrals(k, rule) is k

    def test_free_callable_needs_a_rule(self, rule):
        with pytest.raises(ValueError, match="a quadrature rule is needed"):
            kernel_integrals(lambda x: x)
        assert kernel_integrals(lambda x: x, rule) == pytest.approx(Identity.exact_integrals)
        # the named functions carry their integrals and need none
        for f in (Identity(), SignBin(), Optimal(2.5)):
            assert kernel_integrals(f) == kernel_integrals(f, rule)

    def test_rejects_non_callable(self, rule):
        rho = density_matrix(StateSpec(2, 1))
        angles = orthogonal_angles(2, 1)
        for call in (lambda: kernel_integrals(0.5, rule),
                     lambda: site_operator(Identity(), "x", 0.0, np.pi / 2, rule),
                     lambda: evaluate(rho, 0.5, 0.5, angles, rule)):
            with pytest.raises(ValueError, match="expected a measurement function"):
                call()

    @pytest.mark.parametrize("order", [33, 64, 256])
    def test_sign_bin_exact(self, order):
        # 4 int |x| e^(-2x^2) = 2 and 4 int e^(-2x^2) = 16 int x^2 e^(-2x^2) = 4 sqrt(pi/2);
        # a rule sees the jump at 0 and would miss i_plus by 2.5% at order 33
        ki = kernel_integrals(SignBin(), gauss_hermite_rule(order))
        assert (ki.i_plus, ki.i_cross, ki.i_zero) == (2.0, 4.0 * SQ, 4.0 * SQ)

    def test_sign_bin_zero_node_tolerated(self):
        # odd order puts a node at 0 where the binning jump sits
        r = gauss_hermite_rule(33)
        ki = kernel_integrals(SignBin(), r)
        assert ki.i_zero > 0 and ki.i_cross > 0

    def test_homogeneity(self, rule):
        base = kernel_integrals(Optimal(2.0), rule)
        for c in (0.5, 2.0, 10.0, -3.0):
            f = lambda x, c=c: c * Optimal(2.0)(x)
            ki = kernel_integrals(f, rule)
            assert abs(ki.i_plus - c * base.i_plus) < 1e-12 * abs(c * base.i_plus)
            assert abs(ki.i_cross - c * c * base.i_cross) < 1e-12 * abs(c * c * base.i_cross)
            assert abs(ki.i_zero - c * c * base.i_zero) < 1e-12 * abs(c * c * base.i_zero)

    def test_positive_for_nonzero_function(self, rule):
        for f in (Identity(), Optimal(3.0), SignBin()):
            ki = kernel_integrals(f, rule)
            assert ki.i_cross > 0
            assert ki.i_zero > 0

    def test_doubling_stability(self):
        # spectral convergence: doubling the production order moves the
        # rule's sums of the optimal family by less than 1e-12 relative, and
        # the doubled order's sums meet the exact integrals (2.6e-15 apart)
        r1 = gauss_hermite_rule(DEFAULT_ORDER)
        r2 = cached_rule(2 * DEFAULT_ORDER)
        eps = ideal_epsilon(r1)
        k1 = family_integrals(r1)(eps)
        k2 = family_integrals(r2)(eps)
        exact = kernel_integrals(Optimal(eps), r1)
        for a, b, c in zip(k1, k2, exact):
            assert abs(a - b) / abs(b) < 1e-12
            assert abs(b - c) / abs(c) < 5e-15


class TestScalarIntegrals:
    """The named functions' integrals against the sum over the positive half
    that every other callable takes."""

    @settings(max_examples=150, deadline=None)
    @given(eps=st.floats(1e-3, 1e3), order=st.sampled_from([2, 3, 64, 255, 256, 512]))
    def test_optimal_matches_the_numpy_route(self, eps, order):
        # the family as an opaque callable takes the general route: one sum
        # over the whole positive half (a node at 0 adds exact zeros), bit
        # for bit, and the same function written out differs by roundoff
        rule = cached_rule(order)
        f = Optimal(eps)
        general = tuple(kernel_integrals(lambda x: f(x), rule))
        half = _node_integrals(rule.half_nodes, rule.half_weights, f.values_at(rule.half_nodes))
        assert general == tuple(half) == full_loop(eps, rule)
        plain = tuple(kernel_integrals(lambda x: x / (1.0 + eps * x * x), rule))
        for a, b in zip(general, plain):
            assert abs(a - b) <= 1e-14 * abs(b)

    @pytest.mark.parametrize("order", [3, 4, 7, 64, 255, 256, 512])
    def test_identity_constants_match_the_rule(self, order):
        # (Ip, I, I0) = sqrt(pi/2) (1, 3, 1): degree-4 moments, exact for
        # order >= 3, so only the rule's roundoff separates them (at most
        # 2.1e-15 relative over orders 3-512, 1.1e-15 at order 256)
        exact = kernel_integrals(Identity(), cached_rule(order))
        assert tuple(exact) == (SQ, 3.0 * SQ, SQ)
        plain = kernel_integrals(lambda x: np.asarray(x, dtype=float), cached_rule(order))
        for a, b in zip(tuple(plain), tuple(exact)):
            assert abs(a - b) <= 4e-15 * b

    @pytest.mark.parametrize("order", [1, 2, 33, 64])
    def test_views_mirror_the_half(self, order):
        # the whole rule that the tests sum against is the positive half
        # mirrored, with the node at 0 of an odd order
        rule = gauss_hermite_rule(order)
        half = len(rule.half_nodes)
        assert half == len(rule.half_weights) == order // 2
        assert (rule.center_weight > 0.0) == bool(order % 2)
        x, w = mirrored(rule)
        np.testing.assert_array_equal(x[order - half:], rule.half_nodes)
        np.testing.assert_array_equal(x[:half], -x[order - half:][::-1])
        np.testing.assert_array_equal(w[order - half:], rule.half_weights)
        np.testing.assert_array_equal(w[:half], w[order - half:][::-1])
        if order % 2:
            assert x[half] == 0.0 and w[half] == rule.center_weight

    @pytest.mark.parametrize("order", [1, 33])
    def test_center_node_counts_once(self, order):
        # a declared-odd callable with f(0) = 1 adds the node at 0 once to
        # i_zero and nothing to the other two integrals
        def step(x):
            return np.where(np.asarray(x) >= 0.0, 1.0, -1.0)

        step.is_odd = True
        rule = gauss_hermite_rule(order)
        x, w = mirrored(rule)
        ki = kernel_integrals(step, rule)
        assert ki.i_zero == pytest.approx(4.0 * w.sum(), rel=1e-15)
        assert ki.i_plus == pytest.approx(4.0 * (w @ np.abs(x)), rel=1e-15)
        assert ki.i_cross == pytest.approx(16.0 * (w @ (x * x)), rel=1e-15)

    def test_not_finite_on_the_negative_axis_is_not_odd(self):
        # the sums read the positive half only, so a value that is not finite
        # at -x alone must fail the oddness check
        def one_sided(x):
            x = np.asarray(x, dtype=float)
            return np.where(x >= 0.0, x, np.nan)

        with pytest.raises(ValueError, match="not odd"):
            kernel_integrals(one_sided, gauss_hermite_rule(16))


class TestNodeIntegrals:
    """The sum over values at the positive nodes, which the optimizer passes
    to the oracle in place of a function."""

    @pytest.mark.parametrize("order", [2, 5, 33, 64, 255, 256])
    def test_matches_kernel_integrals(self, order):
        # kernel_integrals adds the node at 0 of an odd order, where an odd
        # callable contributes exact zeros
        def f(x):
            return np.arctan(3.0 * np.asarray(x, dtype=float))

        rule = cached_rule(order)
        values = f(np.array(rule.half_nodes)).tolist()
        summed = _node_integrals(rule.half_nodes, rule.half_weights, values)
        assert tuple(summed) == tuple(kernel_integrals(f, rule))

    @pytest.mark.parametrize("order", [2, 5, 33, 64, 255, 256, 512])
    def test_family_sums_are_the_general_route(self, order):
        # the optimizer's sums of the family, which its reference root reads,
        # are the general route's sums of the family as a plain callable
        rule = cached_rule(order)
        sums = family_integrals(rule)
        for eps in (0.05, 1.0, 2.96, 6.585, 20.0):
            f = Optimal(eps)
            assert sums(eps) == kernel_integrals(lambda x: f(x), rule)

    @pytest.mark.parametrize("order", [16, 17])
    def test_free_callable_called_once_per_point(self, order):
        # once at each positive node and once at its mirror for the oddness
        # check, whose values the sums reuse, plus x = 0 at an odd order
        calls = []

        def f(x):
            calls.append(x)
            return math.atan(3.0 * x)

        rule = gauss_hermite_rule(order)
        kernel_integrals(f, rule)
        assert len(calls) == len(set(calls)) == order


def _log_grid(lo, hi, count):
    return [lo * (hi / lo) ** (k / (count - 1)) for k in range(count)]


class TestOptimalIntegrals:
    """The exact kernel integrals of x/(1 + eps x^2), ``optimal_integrals``."""

    def test_matches_the_erfc_closed_form(self):
        # both routes of the continued fraction: backward below eps = 1,
        # forward from math.erfc above
        for eps in _log_grid(1e-3, 50.0, 61) + [0.999999, 1.0, 1.2]:
            got = kernel_integrals(Optimal(eps), cached_rule(2))
            with mpmath.workdps(40):
                want = mp_integrals(eps)
            for a, b in zip(got, want):
                assert abs(a - b) <= 2e-14 * b, eps

    @pytest.mark.parametrize("eps", [2.96, 6.585])
    def test_matches_quadrature(self, eps):
        with mpmath.workdps(30):
            e = mpmath.mpf(eps)
            line = [-mpmath.inf, 0, mpmath.inf]
            f = lambda x: x / (1 + e * x * x)
            w = lambda x: mpmath.exp(-2 * x * x)
            want = (mpmath.quad(lambda x: 4 * w(x) * x * f(x), line),
                    mpmath.quad(lambda x: 16 * x * x * w(x) * f(x) ** 2, line),
                    mpmath.quad(lambda x: 4 * w(x) * f(x) ** 2, line))
        for a, b in zip(optimal_integrals(eps), want):
            assert abs(a - b) <= 2e-14 * b

    def test_no_rule_is_read(self):
        for eps in (0.05, 2.96, 6.585):
            exact = optimal_integrals(eps)
            assert all(kernel_integrals(Optimal(eps), cached_rule(order)) == exact
                       for order in (2, 3, 64, 256))

    @settings(max_examples=200, deadline=None)
    @given(log_eps=st.floats(-300.0, 300.0))
    @example(log_eps=-300.0)
    @example(log_eps=100.0)
    @example(log_eps=300.0)
    @example(log_eps=0.0)
    def test_cauchy_schwarz_bounds(self, log_eps):
        # (int w x f)^2 <= int w x^2 int w f^2 and int w int w x^2 f^2 give
        # Ip^2 <= I0 sqrt(pi/2), tight as eps -> 0, and Ip^2 <= I sqrt(pi/2),
        # tight as eps -> inf; near the float range's bottom a few subnormal
        # spacings of slack
        eps = 10.0 ** log_eps
        ip, ii, i0 = optimal_integrals(eps)
        assert all(math.isfinite(v) and v >= 0.0 for v in (ip, ii, i0))
        if eps <= 1e150:   # below, I ~ 16 sqrt(pi/2)/eps^2 is a normal float
            assert min(ip, ii, i0) > 0.0
        slack = 4 * math.ulp(0.0)
        assert ip * ip <= (1 + 1e-14) * (i0 * SQ) + slack
        assert ip * ip <= (1 + 1e-14) * (ii * SQ) + slack
        if eps <= 1e-100:
            assert ip * ip == pytest.approx(i0 * SQ, rel=1e-14)
        if 1e100 <= eps <= 1e150:
            assert ip * ip == pytest.approx(ii * SQ, rel=1e-14)
