import numpy as np
import pytest

from cvbell.functional_bell import bell_value, optimal_epsilon
from cvbell.model import AngleConfig, density_matrix, site_operator
from cvbell.oracle import evaluate, orthogonal_angles
from cvbell.quadrature import Identity, Optimal, SignBin
from cvbell.scenario import StateSpec
from reference import branch_indices, check_density_matrix, dense_matrix, loss_kraus, mirrored

SQRT_2_OVER_PI = np.sqrt(2.0 / np.pi)


def zero(x):
    return np.zeros_like(np.asarray(x, dtype=float))


def element(f, theta, rule):
    """<m|f(X^theta)|n> on the {|0>, |1>} subspace: site_operator's O with g = 0."""
    O, _ = site_operator(f, zero, theta, 0.0, rule)
    return np.asarray(O)


def raising_reference(f, rule):
    """<0|f(X)|1> = int psi_0 psi_1 f, summed over the rule's nodes here."""
    x, w = mirrored(rule)
    return float(np.dot(w, SQRT_2_OVER_PI * 2.0 * x * f(x)))


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
        (True, 0, 1.0, 1.0),
        (4, True, 1.0, 1.0),
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
        m = dense_matrix(rho.matrix)
        assert m[int("10", 2), int("01", 2)] == pytest.approx(0.5, abs=1e-15)
        assert m[int("10", 2), int("10", 2)] == pytest.approx(0.5, abs=1e-15)
        assert abs(m[0, 0]) < 1e-15

    def test_full_damping_limit(self):
        rho = density_matrix(StateSpec(3, 1, 1.0, 1e-12))
        assert dense_matrix(rho.matrix)[0, 0].real == pytest.approx(1.0, abs=1e-11)

    def test_coherence_entry_by_hand(self):
        # purity and per-mode sqrt(eta) multiply the cross-branch entry:
        # 0.9 * (1/2) * (sqrt(0.8))^4 = 0.288
        rho = density_matrix(StateSpec(4, 2, 0.9, 0.8))
        a, b = branch_indices(4, 2)
        assert dense_matrix(rho.matrix)[a, b].real == pytest.approx(0.288, abs=1e-14)
        assert np.trace(dense_matrix(rho.matrix)).real == pytest.approx(1.0, abs=1e-13)
        check_density_matrix(rho)

    def test_random_grid_is_physical(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            n = int(rng.integers(1, 9))
            r = int(rng.integers(0, n + 1))
            p = float(rng.uniform(0, 1))
            eta = float(rng.uniform(0.05, 1.0))
            rho = density_matrix(StateSpec(n, r, p, eta))
            check_density_matrix(rho)

    def test_forty_modes_match_closed_forms(self, rule):
        # r = 0 puts all 40 photons in one branch: 2^40 + 2 nonzero entries
        # in the occupation basis, still four product terms
        spec = StateSpec(40, 0, 1.0, 1.0)
        rho = density_matrix(spec)
        angles = orthogonal_angles(40, 0)
        f = Optimal(optimal_epsilon(40, 0, 1.0))
        for closed, fn in ((bell_value(spec), f), (bell_value(spec, "cfrd"), Identity())):
            got = evaluate(rho, fn, fn, angles, rule).ratio
            assert got == pytest.approx(closed.ratio, rel=1e-9)

    def test_loss_channel_trace_preserving(self):
        for eta in (1.0, 0.8, 0.33, 0.05):
            k0, k1 = loss_kraus(eta)
            total = k0.conj().T @ k0 + k1.conj().T @ k1
            np.testing.assert_allclose(total, np.eye(2), rtol=0, atol=5e-16)


class TestSingleModeElements:
    """Single-mode elements read from ``site_operator``'s correlator O."""

    def test_sign_bin_amplitude(self, rule):
        val = element(SignBin(), 0.0, rule)[0, 1]
        assert val == pytest.approx(SQRT_2_OVER_PI, abs=1e-15)
        assert abs(val - 0.7978846) < 1e-6

    def test_identity_amplitude(self, rule):
        # <0|X|1> = 1/2 in the variance-1/4 convention
        val = element(Identity(), 0.0, rule)[0, 1]
        assert val == pytest.approx(0.5, abs=1e-13)

    def test_odd_diagonal_exactly_zero(self, rule):
        for f in (Identity(), Optimal(1.7), SignBin()):
            for theta in (0.3, -0.7):
                O = element(f, theta, rule)
                assert O[0, 0] == 0.0 and O[1, 1] == 0.0

    def test_conjugation_symmetry(self, rule):
        for theta in (0.0, 0.4, -2.2):
            O = element(Optimal(2.5), theta, rule)
            assert O[0, 1] == pytest.approx(np.conj(O[1, 0]), abs=1e-14)

    def test_two_pi_periodicity(self, rule):
        a = element(Identity(), 0.9, rule)
        b = element(Identity(), 0.9 + 2 * np.pi, rule)
        np.testing.assert_allclose(a, b, rtol=0, atol=1e-13)

    def test_quadrature_cross_check(self, rule):
        # independent evaluation of the raising amplitude for f = x/(1+2x^2)
        f = Optimal(2.0)
        assert element(f, 0.0, rule)[0, 1].real == pytest.approx(
            raising_reference(f, rule), rel=1e-14)


class TestSiteOperator:
    def test_identity_gives_lowering_operator(self, rule):
        # f = g = x with orthogonal phases reproduces the mode operator a
        O, Q = site_operator(Identity(), Identity(), 0.0, np.pi / 2, rule)
        O = np.asarray(O)
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
        O = np.asarray(O)
        m = raising_reference(Optimal(eps), rule)
        assert abs(O[0, 1]) < 1e-12
        assert O[1, 0] == pytest.approx(2.0 * np.exp(1j * theta) * m, abs=1e-12)

    def test_bound_side_angle_independent(self, rule):
        _, q1 = site_operator(Optimal(1.0), Optimal(1.0), 0.0, 1.0, rule)
        _, q2 = site_operator(Optimal(1.0), Optimal(1.0), 2.0, -0.5, rule)
        np.testing.assert_allclose(q1, q2, atol=1e-15)
