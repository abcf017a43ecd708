import numpy as np
import pytest

from cvbell.errors import NumericalDomainError
from cvbell.mk_binning import mk_bell_value, mk_critical_product
from cvbell.model import AngleConfig, DensityMatrix, density_matrix
from cvbell.oracle import mk_evaluate, mk_optimal_angles
from cvbell.scenario import StateSpec
from reference import mk_bell_value_product_form, product_operator

SQRT2_HALF = np.sqrt(2.0) / 2.0


def closed_form(n, eta=1.0, p=1.0):
    """Mixed-state maximal |S_N|: one power of p, sqrt(eta) per mode."""
    return p * SQRT2_HALF * (4.0 * eta / np.pi) ** (n / 2.0)


class TestOptimalAngles:
    def test_three_mode_pattern(self):
        cfg = mk_optimal_angles(3, 3)
        np.testing.assert_allclose(cfg.theta, (0.0, np.pi / 6, np.pi / 3), atol=1e-15)
        np.testing.assert_allclose(
            cfg.theta_prime,
            tuple(t + np.pi / 2 for t in cfg.theta), atol=1e-15)

    def test_two_mode_pattern(self):
        # site formula: back block carries the opposite alternation sign, so
        # theta_2 = +pi/4 with theta'_2 = -pi/4; the globally conjugated
        # assignment (-pi/4, -3pi/4) reaches the identical |S|
        cfg = mk_optimal_angles(2, 1)
        assert cfg.theta[0] == pytest.approx(0.0, abs=1e-15)
        assert cfg.theta_prime[0] == pytest.approx(np.pi / 2, abs=1e-15)
        assert cfg.theta[1] == pytest.approx(np.pi / 4, abs=1e-15)
        assert cfg.theta_prime[1] == pytest.approx(-np.pi / 4, abs=1e-15)

        rho = density_matrix(StateSpec(2, 1))
        direct = mk_evaluate(rho, cfg)
        conj = AngleConfig(
            theta=tuple(-t for t in cfg.theta),
            theta_prime=tuple(-t for t in cfg.theta_prime),
        )
        assert mk_evaluate(rho, conj) == pytest.approx(direct, rel=1e-12)

    def test_angles_reduced_to_principal_range(self):
        for n in (2, 3, 5, 8, 13):
            for r in range(1, n + 1):
                cfg = mk_optimal_angles(n, r)
                for a in cfg.theta + cfg.theta_prime:
                    assert np.isfinite(a)
                    assert -np.pi < a <= np.pi

    def test_split_validation(self):
        with pytest.raises(ValueError):
            mk_optimal_angles(3, 0)
        with pytest.raises(ValueError):
            mk_optimal_angles(3, 4)


class TestEvaluate:
    def test_three_mode_ideal_value(self):
        rho = density_matrix(StateSpec(3, 3))
        s_value = mk_evaluate(rho, mk_optimal_angles(3, 3))
        assert s_value == pytest.approx(SQRT2_HALF * (4 / np.pi) ** 1.5, rel=1e-12)
        assert abs(s_value - 1.0159) < 1e-4

    def test_vacuum_gives_zero(self):
        factors = np.zeros((1, 3, 2, 2))
        factors[0, :, 0, 0] = 1.0
        s_value = mk_evaluate(DensityMatrix(3, product_operator([1.0], factors)),
                              mk_optimal_angles(3, 2))
        assert s_value == pytest.approx(0.0, abs=1e-15)

    def test_lossy_impure_matches_mixed_state_form(self):
        # the mixture weight enters the correlator linearly; the per-site
        # product form with p^2 per mode is not the mixed-state expectation
        rho = density_matrix(StateSpec(4, 2, 0.9, 0.9))
        s_value = mk_evaluate(rho, mk_optimal_angles(4, 2))
        spec = StateSpec(4, 2, 0.9, 0.9)
        assert s_value == pytest.approx(closed_form(4, 0.9, 0.9), rel=1e-8)
        assert s_value == pytest.approx(mk_bell_value(spec), rel=1e-12)
        assert s_value != pytest.approx(mk_bell_value_product_form(spec), rel=1e-3)

    def test_split_independence(self):
        rng = np.random.default_rng(21)
        for n in range(3, 8):
            p = float(rng.uniform(0.5, 1.0))
            eta = float(rng.uniform(0.5, 1.0))
            expected = closed_form(n, eta, p)
            for r in range(1, n + 1):
                rho = density_matrix(StateSpec(n, r, p, eta))
                assert mk_evaluate(rho, mk_optimal_angles(n, r)) == pytest.approx(expected,
                                                                                  rel=1e-8)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            mk_evaluate(density_matrix(StateSpec(3, 1)), mk_optimal_angles(4, 2))

    @pytest.mark.filterwarnings("error")
    def test_float_range(self):
        # unnormalized, the product of site traces (about 1.6 per site)
        # overflows from about N = 1520, where |S_N| is still about 1e72
        spec = StateSpec(1600, 800)
        s_value = mk_evaluate(density_matrix(spec), mk_optimal_angles(1600, 800))
        assert s_value == pytest.approx(mk_bell_value(spec), rel=1e-12)
        with pytest.raises(NumericalDomainError, match="n = 6000"):
            mk_evaluate(density_matrix(StateSpec(6000, 3000)), mk_optimal_angles(6000, 3000))


class TestClosedForms:
    def test_three_mode_number(self):
        assert mk_bell_value(StateSpec(3, 3)) == pytest.approx(1.015898, abs=1e-6)

    def test_unit_value_at_critical_efficiency(self):
        eta = 2.0 ** (-5.0 / 3.0) * np.pi
        assert eta == pytest.approx(0.98954, abs=1e-5)
        assert mk_bell_value(StateSpec(3, 3, 1.0, eta)) == pytest.approx(1.0, rel=1e-12)

    def test_zero_purity(self):
        assert mk_bell_value(StateSpec(3, 2, 0.0, 1.0)) == 0.0

    def test_product_form_matches_at_unit_purity(self):
        for n in (3, 4, 7):
            spec = StateSpec(n, n // 2 or 1, 1.0, 0.91)
            assert mk_bell_value(spec) == pytest.approx(
                mk_bell_value_product_form(spec), rel=1e-14)


class TestCriticalProduct:
    def test_values(self):
        assert mk_critical_product(3) == pytest.approx(0.98954, abs=5e-5)
        assert mk_critical_product(4) == pytest.approx(0.93400, abs=5e-5)
        assert mk_critical_product(5) == pytest.approx(0.90219, abs=5e-5)

    def test_exact_root_of_product_form(self):
        for n in (3, 4, 5, 8):
            prod = mk_critical_product(n)
            spec = StateSpec(n, max(1, n // 2), 1.0, prod)
            assert mk_bell_value_product_form(spec) == pytest.approx(1.0, rel=1e-12)

    def test_decreases_toward_quarter_pi(self):
        vals = [mk_critical_product(n) for n in range(2, 60)]
        assert np.all(np.diff(vals) < 0)
        assert vals[-1] > np.pi / 4

    def test_validation(self):
        with pytest.raises(ValueError):
            mk_critical_product(1)
