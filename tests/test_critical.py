import csv
import math
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cvbell import critical
from cvbell.critical import (
    asymptotic_product,
    bell_ratio,
    critical_efficiency,
    critical_purity,
)
from cvbell.functional_bell import (
    bell_value,
    cfrd_bell_value,
    closed_form_log_ratio,
    ideal_epsilon,
    optimal_epsilon,
)
from cvbell.mk_binning import mk_bell_value, mk_critical_product
from cvbell.quadrature import Optimal, kernel_integrals
from cvbell.scenario import StateSpec, canonical_split
from reference import mk_bell_value_product_form, mp_log_ratio, mp_optimal_integrals, mp_thresholds


class TestCanonicalSplit:
    def test_single_mode_split_is_irrelevant(self):
        # the split n // 2 is 0 at one mode; r = 1 gives the same ratios
        assert canonical_split(1) == 0
        spec = StateSpec(1, 1, 0.8, 0.9)
        for ineq, want in (("functional", bell_value(spec).ratio),
                           ("cfrd", cfrd_bell_value(spec).ratio),
                           ("mk", mk_bell_value(spec))):
            assert bell_ratio(ineq, 1, 0.9, 0.8) == pytest.approx(want, rel=1e-14)


class TestCriticalEfficiency:
    def test_functional_ten_modes(self, rule):
        eta = critical_efficiency(10, 1.0, "functional", rule)
        assert abs(eta - 0.80) < 0.01

    def test_mk_three_modes_exact(self, rule):
        eta = critical_efficiency(3, 1.0, "mk", rule)
        assert abs(eta - 2.0 ** (-5.0 / 3.0) * np.pi) < 2e-6

    def test_functional_four_modes_no_violation(self, rule):
        assert critical_efficiency(4, 1.0, "functional", rule) is None

    def test_root_is_consistent(self, rule):
        for ineq, n in (("functional", 6), ("functional", 10), ("cfrd", 20), ("mk", 5)):
            eta = critical_efficiency(n, 1.0, ineq, rule)
            assert eta is not None
            assert abs(bell_ratio(ineq, n, eta, 1.0) - 1.0) < 1e-4

    def test_monotone_decreasing_in_modes(self, rule):
        for ineq in ("functional", "cfrd", "mk"):
            vals = []
            for n in range(10, 25, 2):
                e = critical_efficiency(n, 1.0, ineq, rule)
                if e is not None:
                    vals.append(e)
            assert len(vals) >= 5
            assert np.all(np.diff(vals) < 0)

    def test_below_floor_never_violates(self):
        for ineq in ("functional", "cfrd", "mk"):
            for n in (4, 10, 20, 30, 40):
                assert bell_ratio(ineq, n, 0.5, 1.0) < 1.0

    def test_large_n_tail_values(self, rule):
        eta60 = critical_efficiency(60, 1.0, "functional", rule)
        assert abs(eta60 - 0.69) < 0.01
        eta40 = critical_efficiency(40, 1.0, "mk", rule)
        assert abs(eta40 - 0.80) < 0.01

    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(5, 300), p=st.floats(0.9, 1.0))
    def test_mk_closed_form_is_the_root(self, rule, n, p):
        eta = critical_efficiency(n, p, "mk", rule)
        if eta is None:
            assert mk_bell_value(StateSpec(n, n // 2, p, 1.0)) <= 1.0
        else:
            b = mk_bell_value(StateSpec(n, n // 2, p, eta))
            assert b == pytest.approx(1.0, rel=1e-12, abs=0)

    @pytest.mark.parametrize("ineq", ["functional", "cfrd"])
    @pytest.mark.parametrize("n", [5, 10, 11, 16, 40, 41, 100, 301])
    def test_newton_matches_a_fine_bisection(self, rule, ineq, n):
        # independent reference: bisect the Bell ratio itself to 1e-13
        lo, hi = 0.3, 1.0
        if bell_ratio(ineq, n, hi, 1.0) <= 1.0:
            assert critical_efficiency(n, 1.0, ineq, rule) is None
            return
        while hi - lo > 1e-13:
            mid = 0.5 * (lo + hi)
            lo, hi = (mid, hi) if bell_ratio(ineq, n, mid, 1.0) <= 1.0 else (lo, mid)
        assert abs(critical_efficiency(n, 1.0, ineq, rule) - 0.5 * (lo + hi)) <= 1e-12

    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(5, 300), p=st.floats(0.85, 1.0),
           ineq=st.sampled_from(("functional", "cfrd")))
    def test_newton_lands_on_the_root(self, rule, n, p, ineq):
        eta = critical_efficiency(n, p, ineq, rule)
        if eta is None:
            assert bell_ratio(ineq, n, 1.0, p) <= 1.0
            return
        assert abs(math.log(bell_ratio(ineq, n, eta, p))) <= 1e-12
        assert bell_ratio(ineq, n, eta - 1e-9, p) < 1.0
        assert bell_ratio(ineq, n, min(eta + 1e-9, 1.0), p) > 1.0

    def test_functional_solve_budget(self, rule, monkeypatch):
        solves = []
        counted = critical.optimal_epsilon

        def counting(*args):
            solves.append(args)
            return counted(*args)

        monkeypatch.setattr(critical, "optimal_epsilon", counting)
        assert critical_efficiency(10, 1.0, "functional", rule) is not None
        assert 3 <= len(solves) <= 10

    def test_parameter_validation(self, rule):
        with pytest.raises(ValueError):
            critical_efficiency(6, 0.0, "functional", rule)
        with pytest.raises(ValueError):
            critical_efficiency(6, 1.0, "bogus", rule)


class TestCriticalPurity:
    def test_mk_five_modes_closed_inversion(self):
        p = critical_purity(5, 1.0, "mk")
        assert p == pytest.approx(np.sqrt(2.0 ** (-9.0 / 5.0) * np.pi), rel=1e-12)
        assert abs(p - 0.9499) < 1e-3

    def test_mk_inversion_matches_the_product_form(self):
        # the exact inversion against the binned product-form observable
        checked = 0
        for n in range(3, 301):
            for eta in (1.0, 0.99, 0.95):
                p = critical_purity(n, eta, "mk")
                if p is None:
                    continue
                b = mk_bell_value_product_form(StateSpec(n, canonical_split(n), p, eta))
                assert abs(b - 1.0) <= 1e-9, (n, eta, p, b)
                checked += 1
        assert checked > 800

    def test_mk_no_violation_below_product(self):
        assert critical_purity(3, 0.9, "mk") is None

    def test_functional_decreasing(self):
        p10 = critical_purity(10, 1.0, "functional")
        p20 = critical_purity(20, 1.0, "functional")
        assert p10 is not None and p20 is not None
        assert p20 < p10 < 1.0

    def test_functional_matches_quadratic_scaling(self):
        # the mixed-state ratio scales as p^2, so p_crit = B(1)^(-1/2)
        p = critical_purity(8, 1.0, "functional")
        b1 = bell_ratio("functional", 8, 1.0, 1.0)
        assert p == pytest.approx(b1 ** -0.5, abs=2e-6)

    def test_no_violation_flag(self):
        assert critical_purity(4, 1.0, "functional") is None

    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(5, 300), eta=st.floats(0.3, 1.0),
           ineq=st.sampled_from(("functional", "cfrd")))
    def test_closed_form_is_the_root(self, n, eta, ineq):
        p = critical_purity(n, eta, ineq)
        if p is None:
            assert bell_ratio(ineq, n, eta, 1.0) <= 1.0
        else:
            assert bell_ratio(ineq, n, eta, p) == pytest.approx(1.0, rel=1e-12, abs=0)


class TestThresholds:
    def test_unknown_inequality(self):
        with pytest.raises(ValueError):
            critical_efficiency(6, 1.0, "bogus")
        with pytest.raises(ValueError):
            critical_purity(6, 1.0, "bogus")


def _twelve_digits(x):
    """(distance from x > 0 to the nearest midpoint between two numbers of 12
    significant digits, the 12-digit rounding of x as a count of its last
    digit's unit, that unit's power of ten)."""
    e = int(mpmath.floor(mpmath.log10(x))) - 11
    scaled = x / mpmath.mpf(10) ** e
    return abs(scaled - mpmath.floor(scaled) - 0.5) * mpmath.mpf(10) ** e, mpmath.nint(scaled), e


class TestGoldenFigure2Digits:
    """Every field of the golden ``figure2`` file against a 40-digit mpmath
    reference.

    Each field has an error budget, which the package's float is checked
    against as well:

    - functional and CFRD ``eta_crit``: the solve stops at |ln B| <= 1e-13,
      so 1e-13 over the slope of ln B at the root, plus 4 ulps;
    - functional and CFRD ``p_crit``: B^(-1/2), with B a product of powers
      of order N of the per-site integrals, so 4 N ulps;
    - binned fields: one power, 4 ulps.

    Where the reference lies farther than the budget from a 12-digit
    rounding boundary the printed digits must be its rounding; the fields
    inside the budget are named.
    """

    GOLDEN = Path(__file__).parent / "data" / "figure2_n3-40.csv"

    @staticmethod
    def _reference(ineq, n):
        """(eta_crit, p_crit, slope of ln B at eta_crit) at 40 digits."""
        if ineq == "mk":
            product = 2 ** (mpmath.mpf(1 - 2 * n) / n) * mpmath.pi
            return (product if product < 1 else None,
                    mpmath.sqrt(product) if product <= 1 else None, None)
        if ineq == "functional":
            def integrals_at(eta):
                return mp_optimal_integrals(n, eta)
        else:
            s = mpmath.sqrt(mpmath.pi / 2)   # Identity's (Ip, I, I0) = s (1, 3, 1)

            def integrals_at(eta):
                return s, 3 * s, s
        eta_c, p_c = mp_thresholds(n, integrals_at, critical_efficiency(n, 1.0, ineq) or 0.9)
        if eta_c is None:
            return None, None, None
        ki = integrals_at(eta_c)
        slope = mpmath.diff(lambda e: mp_log_ratio(n, e, ki), eta_c)
        return eta_c, p_c, slope

    def test_printed_digits_are_the_reference_rounding(self):
        named = []
        with mpmath.workdps(40):
            rows = list(csv.reader(self.GOLDEN.read_text().splitlines()))[1:]
            assert len(rows) == 3 * 38
            for ineq, n, *printed, flag in rows:
                n = int(n)
                eta_c, p_c, slope = self._reference(ineq, n)
                got = (critical_efficiency(n, 1.0, ineq), critical_purity(n, 1.0, ineq))
                assert flag == "+".join(name for name, ref in (("eta", eta_c), ("p", p_c))
                                        if ref is None), (ineq, n)
                for name, field, ref, value in zip(("eta_crit", "p_crit"), printed,
                                                   (eta_c, p_c), got):
                    where = (ineq, n, name)
                    if ref is None:
                        assert field == "" and value is None, where
                        continue
                    ulp = math.ulp(float(ref))
                    if ineq == "mk":
                        budget = 4 * ulp
                    elif name == "eta_crit":
                        budget = critical._LOG_RATIO_TOL / float(slope) + 4 * ulp
                    else:
                        budget = 4 * n * ulp
                    assert abs(value - ref) <= budget, where
                    distance, digits, e = _twelve_digits(ref)
                    if distance <= budget:
                        named.append(where)
                        continue
                    assert mpmath.nint(mpmath.mpf(field) / mpmath.mpf(10) ** e) == digits, where
        # the functional eta_crit at N = 30 lies 5.5e-16 (5 ulps) from its
        # boundary and at N = 16 2.3e-15; the CFRD p_crit at eta = 1 is
        # sqrt((3^r + 3^(N-r)) / 2^(N-1)), at N = 28 and 29 exactly
        # 3^7/2^13 = 0.2669677734375, a tie
        assert named == [("functional", 16, "eta_crit"), ("functional", 30, "eta_crit"),
                         ("cfrd", 28, "p_crit"), ("cfrd", 29, "p_crit")]


class TestAsymptotics:
    def test_functional_product_limit(self):
        res = asymptotic_product("functional")
        assert abs(res - 0.6918) < 0.005

    def test_mk_product_limit(self):
        res = asymptotic_product("mk")
        assert abs(res - np.pi / 4.0) < 1e-3

    def test_cfrd_efficiency_limit(self):
        res = asymptotic_product("cfrd")
        assert abs(res - 0.81) < 0.005
        # exact fixed point of the asymptotic quadratic: (1 + sqrt(5))/4
        assert abs(res - (1 + np.sqrt(5)) / 4.0) < 2e-3

    def test_unknown_inequality(self):
        with pytest.raises(ValueError):
            asymptotic_product("bogus")


class TestLargeN:
    @staticmethod
    def _functional_efficiency_limit(rule):
        # at the even split B = p^2/4 g^(N/2), so the limit is ln g = 0,
        # which is ln B + ln 4 = 0 at N = 2; bisected at the eta-optimal function
        def log_g(eta):
            ki = kernel_integrals(Optimal(optimal_epsilon(2, 1, eta)), rule)
            return closed_form_log_ratio(2, 1, eta, 1.0, ki)[0] + math.log(4.0)

        lo, hi = 0.5, 1.0
        assert log_g(lo) < 0.0 < log_g(hi)
        while hi - lo > 1e-13:
            mid = 0.5 * (lo + hi)
            lo, hi = (mid, hi) if log_g(mid) <= 0.0 else (lo, mid)
        return 0.5 * (lo + hi)

    def test_cfrd_limit_is_the_golden_ratio_half(self):
        limit = asymptotic_product("cfrd")
        assert abs(limit - (1 + math.sqrt(5)) / 4.0) < 1e-13

    def test_functional_limit_is_the_quarter_quadratic(self, rule):
        # 2 Ip^4 s^2 - K pi I0 (I - I0) s - K pi I0^2 = 0 at K = 1/4, the
        # limit of the finite-N factor 2^(-2(N-2)/N)
        ki = kernel_integrals(Optimal(ideal_epsilon(rule)), rule)
        k = 0.25
        roots = np.roots([2.0 * ki.i_plus ** 4,
                          -k * np.pi * ki.i_zero * (ki.i_cross - ki.i_zero),
                          -k * np.pi * ki.i_zero ** 2])
        want = max(roots.real)
        limit = asymptotic_product("functional")
        assert abs(limit - want) < 1e-12

    def test_mk_limit_is_quarter_pi(self):
        assert asymptotic_product("mk") == np.pi / 4.0

    @pytest.mark.parametrize("ineq", ["functional", "cfrd"])
    def test_efficiency_approaches_limit_from_above(self, rule, ineq):
        if ineq == "functional":
            limit = self._functional_efficiency_limit(rule)
            assert abs(limit - 0.6807145) < 1e-7
        else:
            limit = asymptotic_product("cfrd")
        etas = [critical_efficiency(n, 1.0, ineq, rule) for n in (1000, 3000, 10000)]
        assert np.all(np.diff(etas) < 0)
        assert min(etas) > limit
        assert etas[-1] - limit < 2e-4

    def test_mk_product_decreases_to_quarter_pi(self):
        vals = [mk_critical_product(n) for n in (10, 100, 1000, 10000, 100000)]
        assert np.all(np.diff(vals) < 0)
        assert min(vals) > np.pi / 4.0
        assert vals[-1] - np.pi / 4.0 < 1e-4


class TestCrossover:
    def test_binned_wins_at_small_n_functional_at_large(self, rule):
        # small mode counts: binning violates where the functional form
        # cannot, or at lower efficiency
        for n in (3, 4):
            assert critical_efficiency(n, 1.0, "functional", rule) is None
            assert critical_efficiency(n, 1.0, "mk", rule) is not None
        f5 = critical_efficiency(5, 1.0, "functional", rule)
        m5 = critical_efficiency(5, 1.0, "mk", rule)
        assert m5 < f5

        # every even count from 8 up: the optimized function needs less
        firsts = []
        for n in range(6, 21, 2):
            f = critical_efficiency(n, 1.0, "functional", rule)
            m = critical_efficiency(n, 1.0, "mk", rule)
            if f is not None and f < m:
                firsts.append(n)
        assert firsts and firsts[0] in (6, 8)
        assert set(firsts) >= set(range(firsts[0], 21, 2))

    def test_binned_needs_forty_modes_for_eighty_percent(self, rule):
        crossing = None
        for n in range(3, 61):
            if critical_efficiency(n, 1.0, "mk", rule) <= 0.80:
                crossing = n
                break
        assert crossing is not None
        assert abs(crossing - 40) <= 4
