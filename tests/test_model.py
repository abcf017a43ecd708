import numpy as np
import pytest

from cvbell.errors import ResourceLimitError
from cvbell.model import (
    AngleConfig,
    Basis,
    DensityMatrix,
    Identity,
    Optimal,
    SignBin,
    StateSpec,
    branch_indices,
    density_matrix,
    loss_kraus,
    raising_amplitude,
    single_mode_element,
    site_operator,
)

SQRT_2_OVER_PI = np.sqrt(2.0 / np.pi)


class TestStateSpec:
    def test_valid(self):
        StateSpec(4, 2, 0.9, 0.8)
        StateSpec(1, 0)
        StateSpec(3, 3)

    @pytest.mark.parametrize("args", [
        (0, 0, 1.0, 1.0),
        (4, 5, 1.0, 1.0),
        (4, -1, 1.0, 1.0),
        (4, 2, 1.2, 1.0),
        (4, 2, -0.1, 1.0),
        (4, 2, 1.0, 0.0),
        (4, 2, 1.0, 1.3),
    ])
    def test_invalid(self, args):
        with pytest.raises(ValueError):
            StateSpec(*args)


class TestAngleConfig:
    def test_wrap_to_half_open_interval(self):
        cfg = AngleConfig(theta=(3 * np.pi, -np.pi, 0.0), theta_prime=(np.pi, 2 * np.pi, -np.pi / 2))
        for a in cfg.theta + cfg.theta_prime:
            assert -np.pi < a <= np.pi
        assert cfg.theta[0] == pytest.approx(np.pi)
        assert cfg.theta[1] == pytest.approx(np.pi)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            AngleConfig(theta=(0.0,), theta_prime=(0.0, 1.0))

    def test_wrap_matches_scalar_reduction_bit_for_bit(self):
        rng = np.random.default_rng(7)
        special = [0.0, -0.0, np.pi / 2, -np.pi / 2, np.pi, -np.pi, 3 * np.pi, -3 * np.pi]
        angles = special + list(rng.uniform(-50.0, 50.0, 2000))
        cfg = AngleConfig(theta=tuple(angles), theta_prime=tuple(angles))
        scalar = [float(np.pi - (np.pi - a) % (2.0 * np.pi)) for a in angles]
        assert np.array_equal(np.array(cfg.theta).view(np.int64),
                              np.array(scalar).view(np.int64))
        assert all(type(a) is float for a in cfg.theta_prime)


class TestDensityMatrix:
    def test_two_mode_pure(self):
        rho = density_matrix(StateSpec(2, 1, 1.0, 1.0))
        # superposition of |01> and |10>; off-diagonal exactly 1/2
        m = rho.matrix
        assert m[int("10", 2), int("01", 2)] == pytest.approx(0.5, abs=1e-15)
        assert m[int("10", 2), int("10", 2)] == pytest.approx(0.5, abs=1e-15)
        assert abs(m[0, 0]) < 1e-15

    def test_full_damping_limit(self):
        rho = density_matrix(StateSpec(3, 1, 1.0, 1e-12))
        assert rho.matrix[0, 0].real == pytest.approx(1.0, abs=1e-11)

    def test_coherence_entry_by_hand(self):
        # purity and per-mode sqrt(eta) multiply the cross-branch entry:
        # 0.9 * (1/2) * (sqrt(0.8))^4 = 0.288
        rho = density_matrix(StateSpec(4, 2, 0.9, 0.8))
        a, b = branch_indices(4, 2)
        assert rho.matrix[a, b].real == pytest.approx(0.288, abs=1e-14)
        assert rho.matrix.trace().real == pytest.approx(1.0, abs=1e-13)
        rho.check()

    def test_random_grid_is_physical(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            n = int(rng.integers(1, 9))
            r = int(rng.integers(0, n + 1))
            p = float(rng.uniform(0, 1))
            eta = float(rng.uniform(0.05, 1.0))
            rho = density_matrix(StateSpec(n, r, p, eta))
            rho.check()

    def test_memory_guard(self):
        with pytest.raises(ResourceLimitError):
            density_matrix(StateSpec(40, 0, 1.0, 1.0))

    def test_debug_json_roundtrip(self):
        rho = density_matrix(StateSpec(3, 1, 0.8, 0.9))
        clone = DensityMatrix.from_debug_json(rho.to_debug_json())
        np.testing.assert_allclose(clone.matrix.toarray(), rho.matrix.toarray(), atol=1e-15)

    def test_loss_channel_trace_preserving(self):
        for eta in (1.0, 0.8, 0.33, 0.05):
            k0, k1 = loss_kraus(eta)
            total = k0.conj().T @ k0 + k1.conj().T @ k1
            np.testing.assert_allclose(total, np.eye(2), rtol=0, atol=5e-16)


class TestSingleModeElements:
    def test_sign_bin_amplitude(self, rule):
        val = single_mode_element(SignBin(), 0, 1, 0.0, rule)
        assert val == pytest.approx(SQRT_2_OVER_PI, abs=1e-15)
        assert abs(val - 0.7978846) < 1e-6

    def test_identity_amplitude(self, rule):
        # <0|X|1> = 1/2 in the variance-1/4 convention
        val = single_mode_element(Identity(), 0, 1, 0.0, rule)
        assert val == pytest.approx(0.5, abs=1e-13)

    def test_odd_diagonal_exactly_zero(self, rule):
        for f in (Identity(), Optimal(1.7), SignBin()):
            assert single_mode_element(f, 0, 0, 0.3, rule) == 0.0
            assert single_mode_element(f, 1, 1, -0.7, rule) == 0.0

    def test_conjugation_symmetry(self, rule):
        for theta in (0.0, 0.4, -2.2):
            up = single_mode_element(Optimal(2.5), 0, 1, theta, rule)
            down = single_mode_element(Optimal(2.5), 1, 0, theta, rule)
            assert up == pytest.approx(np.conj(down), abs=1e-14)

    def test_two_pi_periodicity(self, rule):
        a = single_mode_element(Identity(), 1, 0, 0.9, rule)
        b = single_mode_element(Identity(), 1, 0, 0.9 + 2 * np.pi, rule)
        assert a == pytest.approx(b, abs=1e-13)

    def test_invalid_levels(self, rule):
        with pytest.raises(ValueError):
            single_mode_element(Identity(), 2, 0, 0.0, rule)

    def test_quadrature_cross_check(self, rule):
        # independent evaluation of the raising amplitude for f = x/(1+2x^2)
        f = Optimal(2.0)
        x, w = rule.nodes, rule.weights
        ref = float(np.dot(w, SQRT_2_OVER_PI * 2.0 * x * f(x)))
        assert raising_amplitude(f, rule) == pytest.approx(ref, rel=1e-14)


class TestSiteOperator:
    def test_identity_gives_lowering_operator(self, rule):
        # f = g = x with orthogonal phases reproduces the mode operator a
        O, Q = site_operator(Identity(), Identity(), 0.0, np.pi / 2, rule)
        assert O[0, 1] == pytest.approx(1.0, abs=1e-12)
        assert abs(O[1, 0]) < 1e-12
        assert abs(O[0, 0]) == 0.0 and abs(O[1, 1]) == 0.0

    def test_sign_bin_bound_operator(self, rule):
        # sign^2 = 1 on each quadrature, so the bound side is 2 per site
        for angles in ((0.0, np.pi / 2), (0.3, -1.0)):
            _, Q = site_operator(SignBin(), SignBin(), *angles, rule)
            np.testing.assert_array_equal(Q, 2.0 * np.eye(2))

    def test_optimal_raising_structure(self, rule):
        eps = 1.9
        theta = 0.7
        O, _ = site_operator(Optimal(eps), Optimal(eps), theta, theta - np.pi / 2, rule)
        m = raising_amplitude(Optimal(eps), rule)
        assert abs(O[0, 1]) < 1e-12
        assert O[1, 0] == pytest.approx(2.0 * np.exp(1j * theta) * m, abs=1e-12)

    def test_bound_side_angle_independent(self, rule):
        _, q1 = site_operator(Optimal(1.0), Optimal(1.0), 0.0, 1.0, rule)
        _, q2 = site_operator(Optimal(1.0), Optimal(1.0), 2.0, -0.5, rule)
        np.testing.assert_allclose(q1, q2, atol=1e-15)


class TestBasis:
    def test_exact_on_own_grid(self, rule):
        f = Optimal(2.4)
        b = Basis.from_function(f, rule)
        np.testing.assert_allclose(b(rule.nodes), f(rule.nodes), atol=1e-15)

    def test_odd_extension(self, rule):
        b = Basis.from_function(Optimal(1.1), rule)
        x = np.array([0.3, 1.7, 5.0])
        np.testing.assert_allclose(b(-x), -b(x), atol=1e-15)
        assert b(0.0) == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            Basis([1.0, 0.5], [1.0, 1.0])   # not increasing
        with pytest.raises(ValueError):
            Basis([0.5, 1.0], [1.0, np.nan])
