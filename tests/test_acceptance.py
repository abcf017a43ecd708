"""Acceptance gate: every shipped claim at its stated tolerance.

Each criterion prints one PASS/FAIL line (run with ``pytest -s`` to see them
on success; failures always show the line plus the assertion detail).
"""

from contextlib import contextmanager

import numpy as np
import pytest
from scipy.optimize import minimize_scalar

from cvbell.critical import asymptotic_product, critical_efficiency
from cvbell.functional_bell import (
    bell_value,
    cfrd_bell_value,
    closed_form_sides,
    ideal_epsilon,
    lossy_epsilon_map,
    solve_epsilon_even,
    solve_epsilon_odd,
)
from cvbell.mk_binning import (
    _correlators,
    mk_bell_value,
    mk_critical_product,
    mk_evaluate,
    mk_optimal_angles,
)
from cvbell.model import AngleConfig, density_matrix, site_operator
from cvbell.oracle import evaluate, orthogonal_angles
from cvbell.quadrature import Identity, Optimal, SignBin, kernel_integrals
from cvbell.scenario import StateSpec
from cvbell.variational import optimize_function
from reference import angle_scan, random_product_mixture, rule_epsilon


@contextmanager
def criterion(num, description):
    try:
        yield
    except Exception:
        print(f"ACCEPTANCE {num} FAIL - {description}")
        raise
    print(f"ACCEPTANCE {num} PASS - {description}")


def test_criterion_1_onset_mode_counts():
    with criterion(1, "violation onsets: optimized N>=5, plain moments N>=10, binned N>=3"):
        assert bell_value(StateSpec(5, 2)).ratio > 1
        assert bell_value(StateSpec(4, 2)).ratio <= 1
        assert cfrd_bell_value(StateSpec(10, 5)).ratio > 1
        assert cfrd_bell_value(StateSpec(9, 4)).ratio <= 1
        assert mk_bell_value(StateSpec(3, 3)) > 1


def test_criterion_2_binned_closed_form_identities(rule):
    with criterion(2, "binned critical products: formula, anchors, pi/4 limit"):
        for n in range(2, 30):
            assert mk_critical_product(n) == 2.0 ** ((1.0 - 2.0 * n) / n) * np.pi
        assert abs(mk_critical_product(3) - 0.9897) < 5e-4
        assert abs(mk_critical_product(4) - 0.9336) < 5e-4
        assert abs(mk_critical_product(5) - 0.9022) < 5e-4
        limit = asymptotic_product("mk")
        assert abs(limit - np.pi / 4.0) < 1e-3
        # the product formula is the exact unit root of the per-site form
        eta3 = critical_efficiency(3, 1.0, "mk", rule)
        assert abs(eta3 - mk_critical_product(3)) < 2e-6


def test_criterion_3_critical_efficiency_anchors(rule):
    with criterion(3, "efficiency anchors: 0.80 @ N=10, CFRD -> 0.81, large-N 0.69 / 0.6918"):
        eta10 = critical_efficiency(10, 1.0, "functional", rule)
        assert abs(eta10 - 0.80) < 0.01

        cfrd = asymptotic_product("cfrd")
        assert abs(cfrd - 0.81) < 0.005

        eta58 = critical_efficiency(58, 1.0, "functional", rule)
        eta60 = critical_efficiency(60, 1.0, "functional", rule)
        x1, x2 = 1.0 / 58, 1.0 / 60
        eta_inf = (eta60 * x1 - eta58 * x2) / (x1 - x2)
        assert abs(eta_inf - 0.69) < 0.01

        prod = asymptotic_product("functional")
        assert abs(prod - 0.6918) < 0.005


def test_criterion_4_crossover_between_inequalities(rule):
    with criterion(4, "binned wins N in {3,4,5}; optimized wins even N>=8; 0.80 near N~40"):
        for n in (3, 4):
            assert critical_efficiency(n, 1.0, "functional", rule) is None
            assert critical_efficiency(n, 1.0, "mk", rule) is not None
        assert (critical_efficiency(5, 1.0, "mk", rule)
                < critical_efficiency(5, 1.0, "functional", rule))
        for n in range(8, 41, 2):
            f = critical_efficiency(n, 1.0, "functional", rule)
            m = critical_efficiency(n, 1.0, "mk", rule)
            assert f is not None and f < m

        crossing = next(
            n for n in range(3, 61) if mk_critical_product(n) <= 0.80
        )
        assert abs(crossing - 40) <= 4
        # the scan above uses the closed form; confirm it at the crossing
        assert critical_efficiency(crossing, 1.0, "mk", rule) <= 0.80 + 1e-6


def _matched_odd_epsilon(n, eta, rule):
    """Fixed point of the odd-N relation with its lossy denominator
    symmetrized the way the noise-free relation is (the "matched" reading),
    by plain damped iteration from the noise-free fixed point."""
    def update(x):
        ki = kernel_integrals(Optimal(x), rule)
        eps = 4.0 * ki.i_zero / ki.i_cross
        eps_l = lossy_epsilon_map(eps, eta)
        skew = eps_l * (eps - 4.0) / eps
        return eps_l * (n * (eps_l + 4.0) - skew) / (n * (eps_l + 4.0) + skew)

    x = ideal_epsilon(rule)
    while True:
        nxt = 0.5 * x + 0.5 * update(x)
        if abs(nxt - x) < 1e-12:
            return nxt
        x = nxt


def test_criterion_5_closed_forms_match_fock_oracle(rule):
    with criterion(5, "closed forms vs exact trace to 1e-6 over the (N, eta, p) grid, N <= 10"):
        for n in range(3, 11):
            r = n // 2
            angles = orthogonal_angles(n, r)
            for eta in (1.0, 0.9, 0.8):
                if n % 2 == 0:
                    eps = solve_epsilon_even(eta, rule).epsilon_lossy
                else:
                    eps = solve_epsilon_odd(n, eta, rule).epsilon_odd
                for p in (1.0, 0.9):
                    spec = StateSpec(n, r, p, eta)
                    rho = density_matrix(spec)

                    closed = bell_value(spec).ratio
                    f = Optimal(eps)
                    orc = evaluate(rho, f, f, angles, rule).ratio
                    assert abs(closed - orc) / orc < 1e-6

                    closed_c = cfrd_bell_value(spec).ratio
                    ident = Identity()
                    orc_c = evaluate(rho, ident, ident, angles, rule).ratio
                    assert abs(closed_c - orc_c) / orc_c < 1e-6

                    closed_m = mk_bell_value(spec)
                    orc_m = mk_evaluate(rho, mk_optimal_angles(n, r)).s_value
                    assert abs(closed_m - orc_m) / orc_m < 1e-6

        # the lossy odd-N parameter relation resolves to exactly one reading
        n = 5
        for eta in (0.9, 0.8):
            lit = solve_epsilon_odd(n, eta, rule).epsilon_odd
            mat = _matched_odd_epsilon(n, eta, rule)

            def ratio(eps, eta=eta):
                ki = kernel_integrals(Optimal(eps), rule)
                lhs, rhs = closed_form_sides(n, 2, eta, 1.0, ki)
                return lhs / rhs

            argmax = minimize_scalar(lambda e: -ratio(e), bracket=(0.5, 3.0),
                                     options={"xtol": 1e-12}).x
            assert abs(lit - argmax) < 1e-4
            assert abs(mat - argmax) > 1e-3


def test_criterion_6_free_function_recovery(quick_rule, family_fit):
    with criterion(6, "free-function optimization recovers x/(1+eps x^2) from 2 starts, N in {5,6}"):
        for n in (5, 6):
            spec = StateSpec(n, n // 2)
            if n % 2 == 0:
                eps_ref = solve_epsilon_even(1.0, quick_rule).epsilon_lossy
            else:
                eps_ref = solve_epsilon_odd(n, 1.0, quick_rule).epsilon_odd
            # the optimizer sums the rule, so it lands on the root on those sums
            eps_rule = rule_epsilon(n, n // 2, 1.0, quick_rule)
            ratios = []
            for init in (Identity(), SignBin()):
                eps, best, ratio, _ = optimize_function(spec, quick_rule, init)
                eps_fit, rel_err = family_fit(best, quick_rule)
                assert rel_err < 1e-3
                assert abs(eps_fit - eps_ref) < 1e-3
                assert abs(eps - eps_rule) <= 1e-9
                ratios.append(ratio)
            assert abs(ratios[0] - ratios[1]) < 1e-6 * max(ratios)


def test_criterion_7_structural_invariants(rule):
    with criterion(7, "local-realism bound, angle invariance, binning reduction, scale, split independence"):
        # convex mixtures of product states never violate
        rng = np.random.default_rng(17)
        f = Optimal(1.5)
        for _ in range(50):
            n = int(rng.integers(2, 7))
            rho = random_product_mixture(n, rng, n_states=int(rng.integers(1, 5)))
            cfg = AngleConfig(tuple(rng.uniform(-np.pi, np.pi, n)),
                              tuple(rng.uniform(-np.pi, np.pi, n)))
            assert evaluate(rho, f, f, cfg, rule).ratio <= 1.0 + 1e-10

        # the bound side never depends on the angles
        rho = density_matrix(StateSpec(5, 2, 0.9, 0.9))
        r1 = evaluate(rho, f, f, orthogonal_angles(5, 2, base=0.2), rule)
        r2 = evaluate(rho, f, f, orthogonal_angles(5, 2, base=-1.3), rule)
        assert abs(r1.rhs - r2.rhs) <= 1e-10 * abs(r1.rhs)
        angle_scan(density_matrix(StateSpec(4, 2, 0.9, 0.8)), f, f, rule,
                   resolution=3)   # raises internally on any variation

        # binning: each site's bound operator is exactly 2, so the statement
        # normalizes to the binary-outcome correlator inequality
        n = 5
        sb = SignBin()
        _, q = site_operator(sb, sb, 0.3, -0.9, rule)
        np.testing.assert_array_equal(q, 2.0 * np.eye(2))
        rho5 = density_matrix(StateSpec(5, 2, 0.9, 0.9))
        cfg = mk_optimal_angles(5, 2)
        res = evaluate(rho5, sb, sb, cfg, rule)
        assert res.rhs == pytest.approx(2.0 ** n, abs=1e-12)
        pi_n = _correlators(rho5, cfg.theta, cfg.theta_prime)[0]
        assert np.sqrt(res.lhs) == pytest.approx(abs(pi_n), rel=1e-12)

        # the ratio ignores a common rescaling of the functions
        rho4 = density_matrix(StateSpec(4, 2, 0.95, 0.9))
        cfg4 = orthogonal_angles(4, 2)
        base = evaluate(rho4, Optimal(2.0), Optimal(2.0), cfg4, rule).ratio
        for c in (0.5, 2.0, 10.0):
            g = lambda x, c=c: c * Optimal(2.0)(x)
            assert evaluate(rho4, g, g, cfg4, rule).ratio == pytest.approx(
                base, rel=1e-12)

        # binned value is split independent at fixed mode count
        rng2 = np.random.default_rng(23)
        p, eta = float(rng2.uniform(0.6, 1.0)), float(rng2.uniform(0.6, 1.0))
        vals = []
        for r in range(1, 6):
            rho_r = density_matrix(StateSpec(5, r, p, eta))
            vals.append(mk_evaluate(rho_r, mk_optimal_angles(5, r)).s_value)
        assert max(vals) - min(vals) < 1e-8 * max(vals)
