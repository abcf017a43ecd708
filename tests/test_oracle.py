from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cvbell._accel import tensor_expectation
from cvbell.errors import NumericalDomainError
from cvbell.functional_bell import (
    bell_value,
    closed_form_sides,
    ideal_epsilon,
    optimal_epsilon,
    solve_epsilon_even,
)
from cvbell.mk_binning import mk_bell_value
from cvbell.model import (
    AngleConfig,
    DensityMatrix,
    _site_scalars,
    density_matrix,
)
from cvbell.oracle import (evaluate, mk_evaluate, mk_optimal_angles, orthogonal_angles,
                           ratio_partials)
from cvbell.quadrature import Identity, Optimal, SignBin, kernel_integrals
from cvbell.scenario import StateSpec
from reference import (angle_scan, dense_matrix, optimize_epsilon_numeric, product_operator,
                       random_product_mixture)


def site_scalars(f, rule):
    """(<0|f|1>, <0|f^2|0>, <1|f^2|1>), the scalars the site operators read."""
    return _site_scalars(kernel_integrals(f, rule))


def vacuum(n):
    factors = np.zeros((1, n, 2, 2))
    factors[0, :, 0, 0] = 1.0
    return DensityMatrix(n_modes=n, matrix=product_operator([1.0], factors))


def cfrd_even_ideal(n):
    """Analytic pure-state moment-correlation ratio: 4^(n/2-1) / 3^(n/2)."""
    return float(Fraction(4 ** (n // 2 - 1), 3 ** (n // 2)))


class TestEvaluate:
    def test_vacuum_has_zero_correlator(self, rule):
        for f in (Identity(), Optimal(2.0)):
            res = evaluate(vacuum(3), f, f, orthogonal_angles(3, 1), rule)
            assert res.lhs == pytest.approx(0.0, abs=1e-28)
            assert res.ratio == pytest.approx(0.0, abs=1e-28)
            assert res.rhs > 0

    def test_moment_correlation_onset(self, rule):
        # plain moments need ten modes: 256/243 > 1 at N=10, 64/81 < 1 at N=9
        ident = Identity()
        r10 = evaluate(density_matrix(StateSpec(10, 5)), ident, ident,
                       orthogonal_angles(10, 5), rule)
        assert r10.ratio == pytest.approx(256 / 243, rel=1e-12)
        assert r10.ratio > 1
        r9 = evaluate(density_matrix(StateSpec(9, 4)), ident, ident,
                      orthogonal_angles(9, 4), rule)
        assert r9.ratio == pytest.approx(64 / 81, rel=1e-12)
        assert r9.ratio <= 1

    def test_matches_closed_form_n6(self, rule):
        eps = solve_epsilon_even(1.0, rule).epsilon_lossy
        f = Optimal(eps)
        res = evaluate(density_matrix(StateSpec(6, 3)), f, f,
                       orthogonal_angles(6, 3), rule)
        closed = bell_value(StateSpec(6, 3))
        assert abs(res.ratio - closed.ratio) / closed.ratio < 1e-8

    def test_ratio_consistency_field(self, rule):
        res = evaluate(density_matrix(StateSpec(4, 2, 0.9, 0.9)), Identity(),
                       Identity(), orthogonal_angles(4, 2), rule)
        assert res.ratio == pytest.approx(res.lhs / res.rhs, rel=1e-14)

    def test_free_callable_needs_a_rule(self, rule):
        rho, angles = density_matrix(StateSpec(4, 2, 0.9, 0.9)), orthogonal_angles(4, 2)
        with pytest.raises(ValueError, match="a quadrature rule is needed"):
            evaluate(rho, lambda x: x, lambda x: x, angles)
        assert evaluate(rho, Identity(), Identity(), angles) == evaluate(
            rho, Identity(), Identity(), angles, rule)

    def test_dimension_mismatch(self, rule):
        with pytest.raises(ValueError):
            evaluate(vacuum(3), Identity(), Identity(), orthogonal_angles(4, 2), rule)

    def test_scale_invariance(self, rule):
        rho = density_matrix(StateSpec(4, 2, 0.95, 0.9))
        angles = orthogonal_angles(4, 2)
        base = evaluate(rho, Optimal(2.0), Optimal(2.0), angles, rule).ratio
        for c in (0.1, 3.0):
            f = lambda x, c=c: c * Optimal(2.0)(x)
            scaled = evaluate(rho, f, f, angles, rule).ratio
            assert abs(scaled - base) < 1e-12 * base

    def test_block_permutation_symmetry(self, rule):
        # permuting sites within the occupied block and within the empty block
        # permutes identical factors of the site product
        rng = np.random.default_rng(3)
        n, r = 5, 2
        rho = density_matrix(StateSpec(n, r, 0.9, 0.85))
        th = rng.uniform(-np.pi, np.pi, n)
        thp = th + np.where(np.arange(n) < r, np.pi / 2, -np.pi / 2)
        base = evaluate(rho, Optimal(1.3), Optimal(1.3),
                        AngleConfig(tuple(th), tuple(thp)), rule).ratio
        perm = np.array([1, 0, 4, 2, 3])  # swaps inside [0,r) and inside [r,n)
        res = evaluate(rho, Optimal(1.3), Optimal(1.3),
                       AngleConfig(tuple(th[perm]), tuple(thp[perm])), rule).ratio
        assert res == pytest.approx(base, rel=1e-12)

    def test_separable_mixtures_respect_bound(self, rule):
        rng = np.random.default_rng(11)
        f = Optimal(1.5)
        for _ in range(50):
            n = int(rng.integers(2, 51))
            rho = random_product_mixture(n, rng, n_states=int(rng.integers(1, 5)))
            th = rng.uniform(-np.pi, np.pi, n)
            thp = rng.uniform(-np.pi, np.pi, n)
            res = evaluate(rho, f, f, AngleConfig(tuple(th), tuple(thp)), rule)
            assert res.ratio <= 1.0 + 1e-10

    def test_bound_side_outside_float_range(self, rule):
        # the bound side underflows at N = 1000; a zero correlator would not
        # be an error, a zero bound side is
        rho = density_matrix(StateSpec(1000, 500))
        f = Optimal(1.0)
        angles = orthogonal_angles(1000, 500)
        for fn in (evaluate, ratio_partials):
            with pytest.raises(NumericalDomainError, match="bound side at n = 1000"):
                fn(rho, f, f, angles, rule)

    def test_binning_reduces_to_binary_form(self, rule):
        # sign^2 + sign^2 = 2 per site: the bound side is exactly 2^N, so the
        # normalized statement is |2^(-N/2) Pi_N| <= 1, the binary inequality
        n, r = 4, 2
        rho = density_matrix(StateSpec(n, r, 0.9, 0.9))
        sb = SignBin()
        res = evaluate(rho, sb, sb, orthogonal_angles(n, r), rule)
        assert res.rhs == pytest.approx(2.0 ** n, abs=1e-12)
        s_sq = res.lhs / 2.0 ** n
        assert res.ratio == pytest.approx(s_sq, rel=1e-14)

    @pytest.mark.parametrize("n", [6, 20])
    def test_sign_bin_closed_form_matches_oracle(self, rule, n):
        # the closed form and the oracle read the same exact sign-binning
        # integrals; a quadrature of the jump would miss by 1.9% at N = 6
        sb = SignBin()
        ki = kernel_integrals(sb, rule)
        for r, eta, p in ((n // 2, 1.0, 1.0), (n // 2, 0.8, 0.9), (1, 0.9, 0.5),
                          (0, 0.6, 1.0)):
            lhs, rhs = closed_form_sides(n, r, eta, p, ki)
            res = evaluate(density_matrix(StateSpec(n, r, p, eta)), sb, sb,
                           orthogonal_angles(n, r), rule)
            assert res.ratio == pytest.approx(lhs / rhs, rel=1e-12)


class TestAngleScan:
    def test_finds_orthogonal_maximizer(self, rule):
        eps = ideal_epsilon(rule)
        f = Optimal(eps)
        rho = density_matrix(StateSpec(6, 3))
        cfg, best = angle_scan(rho, f, f, rule, resolution=4)
        canonical = orthogonal_angles(6, 3)
        conjugate = AngleConfig(
            canonical.theta, tuple(-t for t in canonical.theta_prime)
        )
        deltas = [
            max(abs(a - b) for a, b in zip(cfg.theta_prime, ref.theta_prime))
            for ref in (canonical, conjugate)
        ]
        assert min(deltas) < 1e-12
        closed = bell_value(StateSpec(6, 3))
        assert best.ratio == pytest.approx(closed.ratio, rel=1e-10)

    def test_bound_side_invariant_across_scan(self, rule):
        # the scan itself raises if the bound side varied; also compare two
        # explicit configurations directly
        rho = density_matrix(StateSpec(4, 2, 0.9, 0.8))
        f = Optimal(2.0)
        r1 = evaluate(rho, f, f, orthogonal_angles(4, 2, base=0.0), rule)
        r2 = evaluate(rho, f, f, orthogonal_angles(4, 2, base=1.1), rule)
        assert abs(r1.rhs - r2.rhs) < 1e-10
        angle_scan(rho, f, f, rule, resolution=3)

    def test_product_state_scan_is_zero(self, rule):
        cfg, best = angle_scan(vacuum(2), Identity(), Identity(), rule, resolution=2)
        assert best.ratio == pytest.approx(0.0, abs=1e-28)

    def test_resolution_validation(self, rule):
        with pytest.raises(ValueError):
            angle_scan(vacuum(2), Identity(), Identity(), rule, resolution=1)


class TestEpsilonSearch:
    def test_matches_fixed_point_at_unit_efficiency(self, rule):
        eps, res = optimize_epsilon_numeric(StateSpec(6, 3), rule)
        assert abs(eps - solve_epsilon_even(1.0, rule).epsilon_lossy) < 1e-5
        assert res.ratio > 1

    def test_five_mode_violation(self, rule):
        eps, res = optimize_epsilon_numeric(StateSpec(5, 2), rule)
        assert res.ratio > 1

    def test_four_modes_no_violation(self, rule):
        eps, res = optimize_epsilon_numeric(StateSpec(4, 2), rule)
        assert res.ratio <= 1


class TestFullAngleGrid:
    """One-off validation that the pi/2 patterns are global maximizers."""

    @staticmethod
    def _grid_correlators(rho, m01, resolution):
        """All correlator values on the full (theta, theta') product grid."""
        n = rho.n_modes
        angles = np.linspace(0.0, 2 * np.pi, resolution, endpoint=False)
        th, thp = np.meshgrid(angles, angles, indexing="ij")
        th, thp = th.ravel(), thp.ravel()
        combos = np.zeros((th.size, 2, 2), dtype=complex)
        combos[:, 0, 1] = m01 * (np.exp(-1j * th) + 1j * np.exp(-1j * thp))
        combos[:, 1, 0] = m01 * (np.exp(1j * th) + 1j * np.exp(1j * thp))
        letters = "abcdefgh"
        rows, cols = letters[:n], letters[n:2 * n]
        combo_axes = "uvwz"[:n]
        terms = ",".join(
            f"{combo_axes[k]}{cols[k]}{rows[k]}" for k in range(n)
        )
        sub = f"{rows}{cols},{terms}->{combo_axes}"
        t = dense_matrix(rho.matrix).reshape((2,) * (2 * n))
        return np.einsum(sub, t, *([combos] * n))

    def test_einsum_helper_agrees_with_evaluate(self, rule):
        rho = density_matrix(StateSpec(2, 1, 0.9, 0.8))
        f = Optimal(1.3)
        m01 = site_scalars(f, rule)[0]
        grid = self._grid_correlators(rho, m01, 4)
        angles = np.linspace(0.0, 2 * np.pi, 4, endpoint=False)
        for i, t1 in enumerate(angles):
            for j, t1p in enumerate(angles):
                cfg = AngleConfig((t1, angles[1]), (t1p, angles[3]))
                res = evaluate(rho, f, f, cfg, rule)
                combo = grid[i * 4 + j, 1 * 4 + 3]
                assert abs(combo) ** 2 == pytest.approx(res.lhs, rel=1e-12, abs=1e-20)

    def test_orthogonal_patterns_are_global_maximum(self, rule):
        n, r = 3, 1
        rho = density_matrix(StateSpec(n, r))
        eps = ideal_epsilon(rule)
        f = Optimal(eps)
        m01 = site_scalars(f, rule)[0]
        grid = np.abs(self._grid_correlators(rho, m01, 8)) ** 2
        res = evaluate(rho, f, f, orthogonal_angles(n, r), rule)
        assert grid.max() <= res.lhs * (1 + 1e-12)
        assert grid.max() == pytest.approx(res.lhs, rel=1e-12)


class TestContractionBackend:
    def test_against_dense_kron(self):
        rng = np.random.default_rng(5)
        n = 3
        weights = rng.normal(size=2) + 1j * rng.normal(size=2)
        factors = rng.normal(size=(2, n, 2, 2)) + 1j * rng.normal(size=(2, n, 2, 2))
        rho = product_operator(weights, factors)
        mats = rng.normal(size=(n, 2, 2)) + 1j * rng.normal(size=(n, 2, 2))
        dense = np.kron(np.kron(mats[0], mats[1]), mats[2])
        expected = np.trace(dense_matrix(rho) @ dense)
        got = tensor_expectation(rho, mats)
        assert got == pytest.approx(expected, rel=1e-13)


class TestRatioPartials:
    """Site-scalar partials on generic states and angles, along f -> (1 + t) f."""

    def test_scaling_one_function_on_random_states(self, rule):
        # scaling f by (1 + t) moves mf by t mf and its moments by 2 t qf
        rng = np.random.default_rng(11)
        f, g = Optimal(1.5), Optimal(0.4)
        h = 1e-5
        for n in (2, 3, 5):
            rho = random_product_mixture(n, rng)
            angles = AngleConfig(tuple(rng.uniform(-np.pi, np.pi, n)),
                                 tuple(rng.uniform(-np.pi, np.pi, n)))
            p = ratio_partials(rho, f, g, angles, rule)
            assert p.ratio == evaluate(rho, f, g, angles, rule).ratio
            for k, fn in enumerate((f, g)):
                m, q0, q1 = site_scalars(fn, rule)
                exact = (p.d_amplitude[k] * m
                         + 2.0 * (p.d_moments[0] * q0 + p.d_moments[1] * q1))

                def ratio_at(t, k=k):
                    scaled = lambda x, c=1.0 + t: c * (f, g)[k](x)
                    pair = (scaled, g) if k == 0 else (f, scaled)
                    return evaluate(rho, *pair, angles, rule).ratio

                fd = (ratio_at(h) - ratio_at(-h)) / (2.0 * h)
                assert exact == pytest.approx(fd, rel=1e-6, abs=1e-9 * p.ratio)

    def test_tied_partials_respect_scale_invariance(self, rule):
        # with g = f the ratio is invariant under f -> c f, so the partials
        # along the amplitude and the moments cancel
        rho = density_matrix(StateSpec(5, 2, 0.9, 0.8))
        f = Optimal(2.0)
        p = ratio_partials(rho, f, f, orthogonal_angles(5, 2), rule)
        assert len(p.d_amplitude) == 1
        m, q0, q1 = site_scalars(f, rule)
        along_scale = (p.d_amplitude[0] * m
                       + 4.0 * (p.d_moments[0] * q0 + p.d_moments[1] * q1))
        assert abs(along_scale) < 1e-12 * abs(p.d_amplitude[0] * m)


def close(got, want, rel):
    # a side that underflows into subnormals keeps fewer than 53 bits
    return abs(got - want) <= rel * abs(want) + 1e-300


class TestSparseOracleProperties:
    """Closed forms against the sparse Fock-space oracle on random scenarios."""

    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(3, 24), eta=st.floats(0.3, 1.0), p=st.floats(0.0, 1.0),
           data=st.data())
    def test_closed_forms_match_oracle(self, rule, n, eta, p, data):
        r = data.draw(st.integers(0, n), label="r")
        spec = StateSpec(n, r, p, eta)
        rho = density_matrix(spec)
        angles = orthogonal_angles(n, r)
        f_opt = Optimal(optimal_epsilon(n, r, eta))
        for closed, f in ((bell_value(spec), f_opt),
                          (bell_value(spec, "cfrd"), Identity())):
            assert close(evaluate(rho, f, f, angles, rule).ratio, closed.ratio, 1e-9)

        for r_mk in range(1, n + 1):
            spec_mk = StateSpec(n, r_mk, p, eta)
            s_value = mk_evaluate(density_matrix(spec_mk), mk_optimal_angles(n, r_mk))
            assert close(s_value, mk_bell_value(spec_mk), 1e-9)


class TestIntegralsInPlaceOfFunctions:
    """A function's ``KernelIntegrals`` give the oracle the same bits as the
    function itself; g is f ties the amplitude either way."""

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(1, 6), eps=st.floats(0.05, 20.0), i=st.integers(0, 3),
           j=st.integers(0, 3), seed=st.integers(0, 2 ** 32 - 1))
    def test_same_bits(self, quick_rule, n, eps, i, j, seed):
        def plain(x):
            return np.sin(np.asarray(x, dtype=float))

        functions = (Optimal(eps), Identity(), SignBin(), plain)
        f, g = functions[i], functions[j]
        kf = kernel_integrals(f, quick_rule)
        kg = kf if g is f else kernel_integrals(g, quick_rule)
        rng = np.random.default_rng(seed)
        rho = random_product_mixture(n, rng)
        angles = AngleConfig(tuple(rng.uniform(-np.pi, np.pi, n)),
                             tuple(rng.uniform(-np.pi, np.pi, n)))
        direct = evaluate(rho, f, g, angles, quick_rule)
        passed = evaluate(rho, kf, kg, angles, quick_rule)
        assert (passed.lhs, passed.rhs, passed.ratio) == (direct.lhs, direct.rhs, direct.ratio)
        direct = ratio_partials(rho, f, g, angles, quick_rule)
        passed = ratio_partials(rho, kf, kg, angles, quick_rule)
        assert passed.ratio == direct.ratio
        np.testing.assert_array_equal(passed.d_amplitude, direct.d_amplitude)
        np.testing.assert_array_equal(passed.d_moments, direct.d_moments)
