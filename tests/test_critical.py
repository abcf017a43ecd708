import csv
import json
import math
import re
from fractions import Fraction
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cvbell import critical, functional_bell
from cvbell.critical import (
    asymptotic_product,
    bell_ratio,
    critical_efficiency,
    critical_purity,
)
from cvbell.functional_bell import (
    bell_value,
    closed_form_log_ratio,
    ideal_epsilon,
    optimal_epsilon,
)
from cvbell.mk_binning import mk_bell_value, mk_critical_product
from cvbell.quadrature import Optimal, kernel_integrals
from cvbell.scenario import INEQUALITIES, StateSpec, canonical_split
from reference import (
    mk_bell_value_product_form,
    mp_figure2_row,
    mp_integrals,
    mp_log_ratio,
    mp_optimal_epsilon,
    mp_optimal_integrals,
    mp_sides,
)


class TestCanonicalSplit:
    def test_single_mode_split_is_irrelevant(self):
        # the split n // 2 is 0 at one mode; r = 1 gives the same ratios
        assert canonical_split(1) == 0
        spec = StateSpec(1, 1, 0.8, 0.9)
        for ineq, want in (("functional", bell_value(spec).ratio),
                           ("cfrd", bell_value(spec, "cfrd").ratio),
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
        # every solve goes through functional_bell.moment_function
        solves = []
        counted = functional_bell.optimal_epsilon

        def counting(*args):
            solves.append(args)
            return counted(*args)

        monkeypatch.setattr(functional_bell, "optimal_epsilon", counting)
        assert critical_efficiency(10, 1.0, "functional", rule) is not None
        assert 3 <= len(solves) <= 10

    def test_no_solve_below_the_local_floor(self, monkeypatch):
        # no B exceeds 1 at eta <= 1/2 (test_local_floor), so no threshold
        # solve, stationarity or ln B, evaluates an efficiency below it
        solved, evaluated = [], []
        solve, log_ratio = functional_bell.optimal_epsilon, critical.closed_form_log_ratio

        def counting_solve(n, r, eta, **kwargs):
            solved.append(eta)
            return solve(n, r, eta, **kwargs)

        def counting_log_ratio(n, r, eta, p, ki):
            evaluated.append(eta)
            return log_ratio(n, r, eta, p, ki)

        monkeypatch.setattr(functional_bell, "optimal_epsilon", counting_solve)
        monkeypatch.setattr(critical, "closed_form_log_ratio", counting_log_ratio)
        for ineq in ("functional", "cfrd"):
            for n in (5, 10, 31, 100, 300, 10**4):
                for p in (1.0, 0.95):
                    critical_efficiency(n, p, ineq)
        assert len(solved) > 50 and len(evaluated) > len(solved)
        assert min(solved) >= 0.5 and min(evaluated) >= 0.5

    @pytest.mark.parametrize("ineq", INEQUALITIES)
    @pytest.mark.parametrize("p", [1e-170, 1e-200, 5e-324])
    def test_purity_squared_below_the_float_range(self, ineq, p):
        # p^2 underflows to a subnormal or 0; ln B stays finite and negative
        assert critical_efficiency(10, p, ineq) is None

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
        names = re.escape(str(INEQUALITIES))
        with pytest.raises(ValueError, match=names):
            critical_efficiency(6, 1.0, "bogus")
        with pytest.raises(ValueError, match=names):
            critical_purity(6, 1.0, "bogus")


def _unit(ref):
    """The last place of ``ref`` > 0 at 12 significant digits."""
    return mpmath.mpf(10) ** (int(mpmath.floor(mpmath.log10(ref))) - 11)


def _is_rounding(field, ref):
    """Whether the printed 12-digit ``field`` is the rounding of ``ref`` > 0."""
    return mpmath.nint(mpmath.mpf(field) / _unit(ref)) == mpmath.nint(ref / _unit(ref))


def _near_boundary(field, ref, budget):
    """True where ``ref`` > 0 lies within ``budget`` of a midpoint between two
    numbers of 12 significant digits, so its rounding is not decided there;
    otherwise assert that the printed ``field`` is that rounding."""
    scaled = ref / _unit(ref)
    if abs(scaled - mpmath.floor(scaled) - 0.5) * _unit(ref) <= budget:
        return True
    assert _is_rounding(field, ref), (field, ref)
    return False


DATA = Path(__file__).parent / "data"
# the 40-digit eta_crit, p_crit and slope of ln B of the functional rows of
# figure2, which tools/figure2_reference.py writes
FUNCTIONAL_REFERENCE = DATA / "figure2_functional_n3-300_mp40.csv"


@pytest.fixture(scope="module")
def figure1_rows(tmp_path_factory):
    """The rows of a live ``figure1 --n-max 300``, N = 4 to 300."""
    from cvbell.cli import main

    out = tmp_path_factory.mktemp("figure1") / "f1.csv"
    assert main(["figure1", "--n-max", "300", "--out", str(out)]) == 0
    rows = list(csv.DictReader(out.read_text().splitlines()))
    assert [int(row["N"]) for row in rows] == list(range(4, 301))
    return rows


class TestFigure1FunctionalReference:
    """Every ``B_optimal`` of ``figure1 --n-max 300`` against the 40-digit
    reference file: at eta = 1 the critical purity is B^(-1/2), so the
    reference is B = ``p_crit``^-2.  N = 4, the one row with B <= 1, has no
    ``p_crit`` and takes its reference from ``mp_optimal_integrals``.

    B is a product of powers of order N of the per-site integrals, so the
    package's float has a budget of 8 N ulps.  Where the reference lies
    farther than the budget from a 12-digit rounding boundary the printed
    digits must be its rounding; the fields inside the budget are named.
    """

    def test_printed_digits_are_the_reference_rounding(self, figure1_rows):
        p_crit = {int(ref["N"]): ref["p_crit"]
                  for ref in csv.DictReader(FUNCTIONAL_REFERENCE.read_text().splitlines())}
        named, misrounded = [], []
        with mpmath.workdps(40):
            for row in figure1_rows:
                n = int(row["N"])
                if p_crit[n]:
                    exact = mpmath.mpf(p_crit[n]) ** -2
                else:
                    assert n == 4
                    exact = mpmath.exp(mp_log_ratio(n, 1, mp_optimal_integrals(n, 1)))
                value = bell_value(StateSpec(n, canonical_split(n)), "functional").ratio
                budget = 8 * n * math.ulp(float(exact))
                assert abs(value - exact) <= budget, n
                if _near_boundary(row["B_optimal"], exact, budget):
                    named.append(n)
                    if not _is_rounding(row["B_optimal"], exact):
                        misrounded.append(n)
        # the floats lie within 5.33 N ulps of the reference
        assert named == [37, 73, 108, 123, 136, 141, 143, 157, 160, 171, 173, 186, 187,
                         193, 201, 207, 210, 212, 215, 221, 228, 243, 247, 250, 263, 264,
                         271, 278, 284, 285, 287, 290, 296, 298, 299]
        # of those, these print a digit that is not the reference's rounding:
        # N = 143 prints 5.26419826265e+19 where the reference is
        # 5.264198262655029e19 (ROADMAP item 13)
        assert misrounded == [143, 173, 278]


class TestGoldenFigure2Digits:
    """Every CFRD and binned field of the golden ``figure2`` file against a
    40-digit mpmath reference; ``TestFigure2FunctionalReference`` holds its
    functional rows.

    Each field has an error budget, which the package's float is checked
    against as well:

    - CFRD ``eta_crit``: the solve stops at |ln B| <= 1e-13, so 1e-13 over
      the slope of ln B at the root, plus 4 ulps;
    - CFRD ``p_crit``: B^(-1/2), with B a product of powers of order N of
      the per-site integrals, so 4 N ulps;
    - binned fields: one power, 4 ulps.

    Where the reference lies farther than the budget from a 12-digit
    rounding boundary the printed digits must be its rounding; the fields
    inside the budget are named.
    """

    GOLDEN = DATA / "figure2_n3-40.csv"

    def test_printed_digits_are_the_reference_rounding(self):
        named = []
        with mpmath.workdps(40):
            rows = list(csv.reader(self.GOLDEN.read_text().splitlines()))[1:]
            assert [row[0] for row in rows] == ["functional"] * 38 + ["cfrd"] * 38 + ["mk"] * 38
            for ineq, n, *printed, flag in rows[38:]:
                n = int(n)
                eta_c, p_c, slope = mp_figure2_row(ineq, n)
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
                    if _near_boundary(field, ref, budget):
                        named.append(where)
        # the CFRD p_crit at eta = 1 is sqrt((3^r + 3^(N-r)) / 2^(N-1)), at
        # N = 28 and 29 exactly 3^7/2^13 = 0.2669677734375, a tie
        assert named == [("cfrd", 28, "p_crit"), ("cfrd", 29, "p_crit")]


class TestFigure2FunctionalReference:
    """Every functional field of ``figure2 --n-max 300`` against the 40-digit
    reference that ``tools/figure2_reference.py`` writes.

    The budgets are the CFRD ones of ``TestGoldenFigure2Digits``, with one
    term more for ``eta_crit``.  The float ln B is itself off by up to about
    14 N u (u = 2^-53), measured: its terms are of size N, and the per-site
    integrals' rounding grows N-fold.  Up to N = 40 that is small against
    the solver's 1e-13 stop; near N = 300 it is not, and a root held to the
    stop alone misses by up to 11 ulps.  So ``eta_crit`` gets
    (1e-13 + 16 N u) over the slope of ln B, plus 4 ulps, where 16 N u in
    ln B = -2 ln ``p_crit`` is the 4 N ulps of ``p_crit``.  Where the
    reference lies farther than the budget from a 12-digit rounding boundary
    the printed digits must be its rounding; the fields inside the budget
    are named.
    """

    def test_printed_digits_are_the_reference_rounding(self, tmp_path):
        from cvbell.cli import main

        out = tmp_path / "f2.csv"
        assert main(["figure2", "--ineq", "functional", "--n-max", "300",
                     "--out", str(out)]) == 0
        rows = list(csv.DictReader(out.read_text().splitlines()))
        refs = list(csv.DictReader(FUNCTIONAL_REFERENCE.read_text().splitlines()))
        assert [row["N"] for row in rows] == [ref["N"] for ref in refs] == [
            str(n) for n in range(3, 301)]
        named, misrounded = [], []
        with mpmath.workdps(40):
            for row, ref in zip(rows, refs):
                n = int(row["N"])
                got = {"eta_crit": critical_efficiency(n, 1.0, "functional"),
                       "p_crit": critical_purity(n, 1.0, "functional")}
                for name, value in got.items():
                    if ref[name] == "":
                        assert row[name] == "" and value is None, (n, name)
                        continue
                    exact = mpmath.mpf(ref[name])
                    ulp = math.ulp(float(exact))
                    if name == "eta_crit":
                        budget = ((critical._LOG_RATIO_TOL + 16 * n * 2.0 ** -53)
                                  / float(mpmath.mpf(ref["slope"])) + 4 * ulp)
                    else:
                        budget = 4 * n * ulp
                    assert abs(value - exact) <= budget, (n, name)
                    if _near_boundary(row[name], exact, budget):
                        named.append((n, name))
                        if not _is_rounding(row[name], exact):
                            misrounded.append((n, name))
        assert named == [
            (10, "eta_crit"), (16, "eta_crit"), (19, "eta_crit"), (30, "eta_crit"),
            (58, "eta_crit"), (61, "eta_crit"), (64, "p_crit"), (66, "p_crit"),
            (75, "p_crit"), (78, "p_crit"), (89, "p_crit"), (104, "p_crit"),
            (129, "eta_crit"), (139, "p_crit"), (145, "p_crit"), (146, "p_crit"),
            (160, "p_crit"), (167, "p_crit"), (203, "p_crit"), (216, "p_crit"),
            (224, "p_crit"), (231, "p_crit"), (232, "p_crit"), (244, "p_crit"),
            (245, "p_crit"), (246, "p_crit"), (264, "p_crit"), (273, "eta_crit"),
            (275, "p_crit"), (287, "p_crit"), (300, "p_crit")]
        # of those, these print a digit that is not the reference's rounding
        # (relative errors 2.2e-14 to 6.8e-14; ROADMAP item 13)
        assert misrounded == [(78, "p_crit"), (232, "p_crit"), (246, "p_crit"),
                              (275, "p_crit")]


def _exact_rounding(field, lower, upper):
    """Whether the printed 12-digit ``field`` is the rounding of an exact
    value known only through ``lower(x)`` and ``upper(x)``, exact tests of
    value < x and value > x at a rational x: True inside the field's rounding
    interval, None on one of its ends (a tie at 12 digits), False outside."""
    f = Fraction(field)
    half = Fraction(10) ** (math.floor(math.log10(f)) - 11) / 2
    if lower(f - half) or upper(f + half):
        return False
    return True if upper(f - half) and lower(f + half) else None


class TestExactCfrdDigits:
    """Every CFRD field of ``figure1`` and ``figure2`` up to N = 300 against
    its exact value, in integers and fractions.  With the identity every
    kernel integral is rational, and at r = N // 2

    - B_cfrd = 2^(N-1)/(3^r + 3^(N-r)) at eta = 1;
    - p_crit^2 = (3^r + 3^(N-r))/2^(N-1), the inverse at eta = 1;
    - eta_crit is the root in (0, 1] of the polynomial
      2^(N-1) eta^N - (1 + 2 eta)^r - (1 + 2 eta)^(N-r), negative below it.

    Each printed field must be the rounding of its exact value; the fields
    whose exact value is a 12-digit tie are named.  ``B_cfrd``, a product of
    powers of order N, has a float budget of 8 N ulps as ``B_optimal`` has
    (it lies within 1.29 N).
    """

    def test_printed_digits_are_the_exact_rounding(self, figure1_rows, tmp_path):
        from cvbell.cli import main

        out = tmp_path / "f2.csv"
        assert main(["figure2", "--ineq", "cfrd", "--n-max", "300", "--out", str(out)]) == 0
        figure2 = list(csv.DictReader(out.read_text().splitlines()))
        assert [int(row["N"]) for row in figure2] == list(range(3, 301))
        named = []
        for row in figure1_rows:
            n = int(row["N"])
            r = canonical_split(n)
            b = Fraction(2 ** (n - 1), 3 ** r + 3 ** (n - r))
            value = bell_value(StateSpec(n, r), "cfrd").ratio
            assert abs(Fraction(value) - b) <= 8 * n * Fraction(math.ulp(float(b))), n
            rounded = _exact_rounding(row["B_cfrd"], lambda x: b < x, lambda x: b > x)
            if rounded is None:
                named.append((n, "B_cfrd"))
            assert rounded is not False, (n, "B_cfrd")
        for row in figure2:
            n = int(row["N"])
            r = canonical_split(n)
            violated = 2 ** (n - 1) > 3 ** r + 3 ** (n - r)
            assert (row["eta_crit"] != "") == violated == (row["p_crit"] != ""), n
            if not violated:
                continue
            p_squared = Fraction(3 ** r + 3 ** (n - r), 2 ** (n - 1))

            def poly(eta, n=n, r=r):
                return 2 ** (n - 1) * eta ** n - (1 + 2 * eta) ** r - (1 + 2 * eta) ** (n - r)

            for name, lower, upper in (
                    ("p_crit", lambda x: p_squared < x * x, lambda x: p_squared > x * x),
                    ("eta_crit", lambda x: poly(x) > 0, lambda x: poly(x) < 0)):
                rounded = _exact_rounding(row[name], lower, upper)
                if rounded is None:
                    named.append((n, name))
                assert rounded is not False, (n, name)
        # p_crit at N = 28 and 29 is exactly 3^7/2^13 = 0.2669677734375
        assert named == [(28, "p_crit"), (29, "p_crit")]


class TestEvalDigits:
    """The numbers of the three golden ``eval`` records against 40-digit
    references.  ``eval`` prints lhs, rhs and the ratio in full; each is a
    product of powers of order N, so each has a budget of 8 N ulps.

    - functional: the sides of ``mp_sides`` at the eps that the package
      solved (within 4.9 N ulps).  The label prints that eps to 12 digits;
      its reference is ``mp_optimal_epsilon``.  The solve stops at
      |h| <= 1e-12 on its map h(eps) = T(eps) - eps, so the label's budget
      is 1e-12 over the map's slope |h'|, plus 4 ulps.  Outside that budget
      of a rounding boundary it must be the reference's rounding.
    - CFRD: exact in fractions at the printed eta and p,
      lhs = p^2 eta^N / 4 and rhs = 2^-(N+1) ((1 + 2 eta)^r + (1 + 2 eta)^(N-r))
      (within 1.33 N ulps).
    - binned: one power, p (sqrt 2 / 2) (4 eta / pi)^(N/2), so 4 ulps.
    """

    @staticmethod
    def _record(name):
        return json.loads((DATA / name).read_text())

    def test_functional(self):
        rec = self._record("eval_functional_n11_r2.json")
        n, r, eta, p = rec["n"], rec["r"], rec["eta"], rec["p"]
        eps = optimal_epsilon(n, r, eta)
        assert rec["function"] == Optimal(eps).label
        with mpmath.workdps(40):
            lhs, rhs = mp_sides(n, r, mpmath.mpf(eta), mpmath.mpf(p), mp_integrals(eps))
            for name, ref in (("lhs", lhs), ("rhs", rhs), ("ratio", lhs / rhs)):
                assert abs(rec[name] - ref) <= 8 * n * math.ulp(float(ref)), name
            root = mp_optimal_epsilon(n, eta, r)

            def h(x):
                e = functional_bell._integral_epsilon(x)
                return functional_bell._stationary_update(n, r, eta, e) - x

            slope = (h(eps + 1e-6) - h(eps - 1e-6)) / 2e-6
            budget = 1e-12 / abs(slope) + 4 * math.ulp(eps)
            assert abs(eps - root) <= budget
            # 4.67498510348597 lies 9.7e-13 from its boundary, the budget is 5.3e-13
            assert not _near_boundary(rec["function"][len("optimal(epsilon="):-1], root, budget)

    def test_cfrd(self):
        rec = self._record("eval_cfrd_n12_r5.json")
        n, r, eta, p = rec["n"], rec["r"], Fraction(rec["eta"]), Fraction(rec["p"])
        lhs = p * p * eta ** n / 4
        rhs = ((1 + 2 * eta) ** r + (1 + 2 * eta) ** (n - r)) / 2 ** (n + 1)
        for name, ref in (("lhs", lhs), ("rhs", rhs), ("ratio", lhs / rhs)):
            assert abs(Fraction(rec[name]) - ref) <= 8 * n * Fraction(math.ulp(float(ref))), name

    def test_mk(self):
        rec = self._record("eval_mk_n5.json")
        with mpmath.workdps(40):
            ref = (mpmath.mpf(rec["p"]) * mpmath.sqrt(2) / 2
                   * (4 * mpmath.mpf(rec["eta"]) / mpmath.pi) ** (mpmath.mpf(rec["n"]) / 2))
            for name in ("s_value", "ratio"):
                assert abs(rec[name] - ref) <= 4 * math.ulp(float(ref)), name


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
