import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import mpmath
import numpy as np
import pytest

from cvbell import critical, oracle
from cvbell.cli import main
from cvbell.errors import ConvergenceError
from cvbell.functional_bell import closed_form_sides, optimal_epsilon
from cvbell.quadrature import Identity, Optimal, gauss_hermite_rule, kernel_integrals
from cvbell.scenario import StateSpec
from cvbell.variational import optimize_function
from reference import mp_integrals, optimize_epsilon_numeric, rule_epsilon


def run_cli(argv):
    return main(argv)


@pytest.fixture
def no_rule(monkeypatch):
    """Make building a quadrature rule fail, in every loaded module that binds
    the builder."""
    def not_reached(order):
        raise AssertionError(f"a quadrature rule of order {order} was built")

    for name, module in list(sys.modules.items()):
        if name.startswith("cvbell.") and hasattr(module, "gauss_hermite_rule"):
            monkeypatch.setattr(module, "gauss_hermite_rule", not_reached)


# every command but optimize integrates only functions with exact kernel
# integrals and builds no rule: eval records --order, at the default and at
# 512, and the others take none
@pytest.mark.parametrize("order", [None, "512"], ids=["default-order", "order-512"])
@pytest.mark.parametrize("argv", [
    ["eval", "--ineq", "functional", "--n", "7", "--out", "{tmp}/out.json"],
    ["eval", "--ineq", "cfrd", "--n", "7", "--out", "{tmp}/out.json"],
    ["figure1", "--n-min", "4", "--n-max", "6", "--out", "{tmp}/out.csv"],
    ["figure2", "--n-min", "3", "--n-max", "5", "--ineq", "all", "--out", "{tmp}/out.csv"],
    ["oracle-check", "--n-min", "3", "--n-max", "4", "--out", "{tmp}/out.txt"],
], ids=["eval-functional", "eval-cfrd", "figure1", "figure2-all", "oracle-check"])
def test_closed_form_commands_build_no_rule(tmp_path, capsys, no_rule, argv, order):
    argv = [a.format(tmp=tmp_path) for a in argv] + (["--order", order] if order else [])
    if order and argv[0] != "eval":
        with pytest.raises(SystemExit) as err:
            run_cli(argv)
        assert err.value.code == 2
        assert "unrecognized arguments: --order" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []
        return
    assert run_cli(argv) == 0
    capsys.readouterr()
    (side,) = tmp_path.glob("*.meta.json")
    config = json.loads(side.read_text())["config"]
    if argv[0] == "eval":
        assert config["order"] == int(order or 256)
    else:
        assert "order" not in config


class TestEval:
    def test_functional_six_modes(self, capsys):
        assert run_cli(["eval", "--ineq", "functional", "--n", "6", "--r", "3",
                        "--eta", "1", "--p", "1"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["ratio"] > 1
        assert payload["violated"] is True
        assert payload["order"] == 256

    def test_cfrd_nine_modes_below_bound(self, capsys):
        assert run_cli(["eval", "--ineq", "cfrd", "--n", "9", "--r", "4"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["ratio"] <= 1
        assert payload["ratio"] == pytest.approx(64 / 81, rel=1e-10)

    def test_mk_three_modes(self, capsys):
        assert run_cli(["eval", "--ineq", "mk", "--n", "3", "--r", "3"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["ratio"] == pytest.approx(1.0159, abs=1e-4)

    def test_noncanonical_split_uses_the_stationarity_root(self, capsys):
        assert run_cli(["eval", "--ineq", "functional", "--n", "4", "--r", "1",
                        "--order", "64"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["ratio"] <= 1
        assert payload["order"] == 64
        eps = optimal_epsilon(4, 1, 1.0)
        assert payload["function"] == Optimal(eps).label

    @pytest.mark.parametrize("n, r, eta", [(11, 2, 1.0), (40, 0, 0.95)])
    def test_noncanonical_split_beyond_the_oracle(self, capsys, rule, n, r, eta):
        # beyond the ten modes of the oracle's numeric search
        assert run_cli(["eval", "--ineq", "functional", "--n", str(n), "--r", str(r),
                        "--eta", str(eta)]) == 0
        payload = json.loads(capsys.readouterr().out)
        eps = float(payload["function"][len("optimal(epsilon="):-1])
        lhs, rhs = closed_form_sides(n, r, eta, 1.0, kernel_integrals(Optimal(eps), rule))
        assert payload["lhs"] == pytest.approx(lhs, rel=1e-9)
        assert payload["rhs"] == pytest.approx(rhs, rel=1e-9)

    def test_out_file_json(self, tmp_path, capsys):
        out = tmp_path / "res.json"
        assert run_cli(["eval", "--ineq", "mk", "--n", "3", "--out", str(out)]) == 0
        capsys.readouterr()
        data = json.loads(out.read_text())
        assert data["inequality"] == "mk"
        meta = json.loads((tmp_path / "res.json.meta.json").read_text())
        assert meta["command"] == "eval"
        assert meta["config"]["order"] == 256

    def test_out_file_csv(self, tmp_path, capsys):
        argv = ["eval", "--ineq", "functional", "--n", "6", "--eta", "1"]
        assert run_cli(argv) == 0
        payload = json.loads(capsys.readouterr().out)
        out = tmp_path / "res.csv"
        assert run_cli(argv + ["--format", "csv", "--out", str(out)]) == 0
        assert json.loads(capsys.readouterr().out) == payload
        header, row = out.read_text().splitlines()
        keys = sorted(payload)
        assert header.split(",") == keys
        fields = dict(zip(keys, row.split(",")))
        assert fields["eta"] == "1"
        assert fields["violated"] == "True"
        assert fields["ratio"] == f"{payload['ratio']:.12g}"
        assert fields["lhs"] == f"{payload['lhs']:.12g}"
        assert fields["function"] == payload["function"]
        meta = json.loads((tmp_path / "res.csv.meta.json").read_text())
        assert meta["command"] == "eval"
        assert meta["config"]["format"] == "csv"

    def test_usage_error_exit_code(self, capsys):
        with pytest.raises(SystemExit) as err:
            run_cli(["eval", "--ineq", "bogus", "--n", "3"])
        assert err.value.code == 2
        capsys.readouterr()

    def test_semantic_error_exit_code(self, capsys):
        with pytest.raises(SystemExit) as err:
            run_cli(["eval", "--ineq", "functional", "--n", "6", "--eta", "1.5"])
        assert err.value.code == 2
        capsys.readouterr()

    @pytest.mark.parametrize("ineq", ["functional", "cfrd", "mk"])
    @pytest.mark.parametrize("n", ["1", "0", "-3"])
    def test_fewer_than_two_modes_rejected(self, capsys, no_rule, ineq, n):
        # one party has no Bell ratio; rejected before a rule is built or
        # the order read
        with pytest.raises(SystemExit) as err:
            run_cli(["eval", "--ineq", ineq, "--n", n, "--order", "0"])
        assert err.value.code == 2
        assert f"--n must be at least 2, got {n}" in capsys.readouterr().err

    @pytest.mark.parametrize("ineq", ["functional", "cfrd", "mk"])
    @pytest.mark.parametrize("order", ["0", "513"])
    def test_order_out_of_range_exit_code(self, capsys, ineq, order):
        with pytest.raises(SystemExit) as err:
            run_cli(["eval", "--ineq", ineq, "--n", "3", "--order", order])
        assert err.value.code == 2
        assert f"order must be in [1, 512], got {order}" in capsys.readouterr().err

    def test_mk_builds_no_rule(self, capsys, no_rule):
        assert run_cli(["eval", "--ineq", "mk", "--n", "3"]) == 0
        assert json.loads(capsys.readouterr().out)["order"] == 256
        # it reads no rule, so the single-node rule is accepted too
        assert run_cli(["eval", "--ineq", "mk", "--n", "3", "--order", "1"]) == 0
        assert json.loads(capsys.readouterr().out)["order"] == 1

    @pytest.mark.parametrize("ineq, n", [("functional", 330), ("cfrd", 770)])
    def test_largest_representable_mode_count(self, capsys, ineq, n):
        assert run_cli(["eval", "--ineq", ineq, "--n", str(n)]) == 0
        assert np.isfinite(json.loads(capsys.readouterr().out)["ratio"])

    @pytest.mark.parametrize("ineq, n", [
        ("functional", 331), ("functional", 348), ("cfrd", 811), ("cfrd", 2000),
    ])
    def test_closed_form_outside_float_range(self, capsys, ineq, n):
        assert run_cli(["eval", "--ineq", ineq, "--n", str(n)]) == 1
        err = capsys.readouterr().err
        assert f"bound side at n = {n} is outside the normal float range" in err

    def test_lopsided_split_outside_float_range(self, capsys):
        argv = ["eval", "--ineq", "functional", "--n", "5000", "--r", "1", "--eta", "0.95"]
        assert run_cli(argv) == 1
        err = capsys.readouterr().err
        assert "bound side at n = 5000 is outside the normal float range" in err

    def test_optimal_function_outside_float_range(self, capsys):
        argv = ["eval", "--ineq", "functional", "--n", "10000", "--r", "0"]
        assert run_cli(argv) == 1
        err = capsys.readouterr().err
        assert "optimal function at n = 10000, r = 0 leaves the float range" in err

    def test_lopsided_split_matches_mpmath(self, capsys):
        # the stationarity root at (N, r) = (100, 0) lies at eps = 6.53, where
        # the order-256 rule's sums were off by about 3e-9 (the ratio read
        # 6186602161651.85); the ratio is stationary in eps, so the printed
        # eps is enough for the reference
        assert run_cli(["eval", "--ineq", "functional", "--n", "100", "--r", "0"]) == 0
        payload = json.loads(capsys.readouterr().out)
        eps = float(payload["function"][len("optimal(epsilon="):-1])
        with mpmath.workdps(40):
            ip, ii, i0 = mp_integrals(eps)
            # at r = 0 and eta = p = 1: B = (8 Ip^4/pi)^(N/2) / (2 (I0^N + I^N))
            want = (8 * ip ** 4 / mpmath.pi) ** 50 / (2 * (i0 ** 100 + ii ** 100))
        assert abs(payload["ratio"] - want) <= 1e-12 * want

    def test_order_changes_no_closed_form(self, capsys):
        # the closed forms read exact integrals: at order 1, whose one node
        # x = 0 every odd function vanishes at, and at order 2, a rule that
        # cannot integrate the family (its ratio read 16.0), the value is the
        # default's
        for ineq in ("functional", "cfrd"):
            payloads = []
            for order in ("1", "2", "256"):
                assert run_cli(["eval", "--ineq", ineq, "--n", "6", "--order", order]) == 0
                payloads.append(json.loads(capsys.readouterr().out))
            assert [p.pop("order") for p in payloads] == [1, 2, 256]
            assert payloads[0] == payloads[1] == payloads[2]

    @pytest.mark.parametrize("argv", [
        ["figure1", "--n-max", "6"],
        ["figure2", "--n-max", "6"],
        ["figure2", "--ineq", "cfrd", "--n-max", "6"],
        ["figure2", "--ineq", "mk", "--n-max", "6"],
        ["oracle-check", "--n-max", "3"],
        ["optimize", "--n", "4"],
    ])
    def test_single_node_rule_rejected(self, tmp_path, capsys, argv):
        # the one node of the order-1 rule is x = 0, where odd functions
        # vanish; only eval, which builds no rule, records it
        # (test_order_changes_no_closed_form): optimize samples the function
        # at four nodes or more, and the other commands take no --order
        with pytest.raises(SystemExit) as err:
            run_cli(argv + ["--order", "1", "--out", str(tmp_path / "out.csv")])
        assert err.value.code == 2
        assert "--order" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_mk_overflow_names_the_mode_count(self, capsys):
        assert run_cli(["eval", "--ineq", "mk", "--n", "5000"]) == 0
        assert np.isfinite(json.loads(capsys.readouterr().out)["ratio"])
        assert run_cli(["eval", "--ineq", "mk", "--n", "6000"]) == 1
        assert "binned Bell value at n = 6000 overflows the float range" in capsys.readouterr().err


@pytest.fixture(scope="module")
def fig1(tmp_path_factory):
    out = tmp_path_factory.mktemp("f1") / "fig1.csv"
    code = run_cli(["figure1", "--n-min", "4", "--n-max", "20",
                    "--out", str(out)])
    assert code == 0
    return out


class TestFigure1:

    def test_columns_and_crossings(self, fig1, capsys):
        capsys.readouterr()
        lines = fig1.read_text().splitlines()
        assert lines[0] == "N,B_optimal,B_cfrd"
        table = {int(row.split(",")[0]): tuple(map(float, row.split(",")[1:]))
                 for row in lines[1:]}
        assert table[4][0] <= 1 < table[5][0]
        assert table[9][1] <= 1 < table[10][1]
        for n, (b_opt, b_cfrd) in table.items():
            assert b_opt >= b_cfrd

    def test_exponential_trend(self, fig1):
        lines = fig1.read_text().splitlines()[1:]
        ns = np.array([int(r.split(",")[0]) for r in lines])
        bs = np.array([float(r.split(",")[1]) for r in lines])
        slope = np.polyfit(ns, np.log(bs), 1)[0]
        assert slope > 0

    def test_deterministic_output(self, fig1, tmp_path, capsys):
        out2 = tmp_path / "fig1_again.csv"
        assert run_cli(["figure1", "--n-min", "4", "--n-max", "20",
                        "--out", str(out2)]) == 0
        capsys.readouterr()
        assert out2.read_bytes() == fig1.read_bytes()

    def test_metadata_sidecar(self, fig1):
        meta = json.loads((fig1.parent / (fig1.name + ".meta.json")).read_text())
        assert meta["command"] == "figure1"
        # it builds no rule, so it has no order to record
        assert meta["config"] == {"command": "figure1", "n_min": 4, "n_max": 20,
                                  "out": str(fig1)}

    def test_line_endings(self, fig1):
        raw = fig1.read_bytes()
        assert b"\r" not in raw
        assert raw.endswith(b"\n")


@pytest.fixture(scope="module")
def fig2(tmp_path_factory):
    out = tmp_path_factory.mktemp("f2") / "fig2.csv"
    code = run_cli(["figure2", "--n-min", "3", "--n-max", "10",
                    "--out", str(out)])
    assert code == 0
    return out


class TestFigure2:

    def test_contents(self, fig2, capsys):
        capsys.readouterr()
        lines = fig2.read_text().splitlines()
        assert lines[0] == "inequality,N,eta_crit,p_crit,no_violation"
        rows = {}
        for row in lines[1:]:
            ineq, n, eta_c, p_c, flag = row.split(",")
            rows[(ineq, int(n))] = (eta_c, p_c, flag)

        eta_c, p_c, flag = rows[("functional", 4)]
        assert eta_c == "" and p_c == "" and flag == "eta+p"
        eta_c, _, flag = rows[("functional", 10)]
        assert flag == ""
        assert abs(float(eta_c) - 0.80) < 0.01
        eta_c, _, _ = rows[("mk", 3)]
        assert abs(float(eta_c) - 0.98954) < 1e-4
        eta_c, _, flag = rows[("cfrd", 10)]
        assert flag == ""

    def test_single_inequality_selection(self, tmp_path, capsys):
        out = tmp_path / "mk_only.csv"
        assert run_cli(["figure2", "--n-min", "3", "--n-max", "5",
                        "--ineq", "mk", "--out", str(out)]) == 0
        capsys.readouterr()
        body = out.read_text().splitlines()[1:]
        assert len(body) == 3
        assert all(row.startswith("mk,") for row in body)

    def test_mk_builds_no_rule(self, tmp_path, capsys, no_rule):
        out = tmp_path / "mk.csv"
        argv = ["figure2", "--ineq", "mk", "--n-min", "3", "--n-max", "4", "--out", str(out)]
        assert run_cli(argv) == 0
        capsys.readouterr()
        assert "order" not in json.loads((tmp_path / "mk.csv.meta.json").read_text())["config"]
        with pytest.raises(SystemExit) as err:
            run_cli(argv + ["--order", "0"])
        assert err.value.code == 2
        assert "unrecognized arguments: --order 0" in capsys.readouterr().err

    def test_one_call_per_threshold_purity_first(self, tmp_path, capsys, monkeypatch):
        calls = []

        def recording(name):
            compute = getattr(critical, name)

            def record(n, fixed, ineq):
                calls.append((ineq, n, name))
                return compute(n, fixed, ineq)
            return record

        for name in ("critical_efficiency", "critical_purity"):
            monkeypatch.setattr(critical, name, recording(name))
        assert run_cli(["figure2", "--n-min", "3", "--n-max", "6",
                        "--out", str(tmp_path / "fig2.csv")]) == 0
        assert "(12 rows)" in capsys.readouterr().out
        assert calls == [(ineq, n, name) for ineq in ("functional", "cfrd", "mk")
                         for n in range(3, 7)
                         for name in ("critical_purity", "critical_efficiency")]

    def test_rows_streamed_to_the_file(self, tmp_path, capsys):
        # about 5e4 rows: held as a list with their joined text, they peaked
        # at about 17 MB
        out = tmp_path / "mk.csv"
        argv = ["figure2", "--ineq", "mk", "--n-min", "3", "--n-max", "50002", "--out", str(out)]
        tracemalloc.start()
        try:
            assert run_cli(argv) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert "(50000 rows)" in capsys.readouterr().out
        assert peak < 2e6
        lines = out.read_text().splitlines()
        assert len(lines) == 50001 and lines[-1].startswith("mk,50002,")

    def test_failure_mid_table_keeps_the_old_file(self, tmp_path, capsys, monkeypatch):
        out = tmp_path / "fig2.csv"
        out.write_bytes(b"an earlier table\n")
        compute = critical.critical_efficiency

        def failing(n, p, ineq):
            if n == 6:
                raise ArithmeticError("threshold failed at n = 6")
            return compute(n, p, ineq)

        monkeypatch.setattr(critical, "critical_efficiency", failing)
        assert run_cli(["figure2", "--n-min", "3", "--n-max", "8", "--out", str(out)]) == 1
        assert "threshold failed at n = 6" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["fig2.csv"]
        assert out.read_bytes() == b"an earlier table\n"

    @pytest.mark.parametrize("ineq, n", [("functional", 131), ("cfrd", 298)])
    def test_purity_threshold_below_1e_9(self, tmp_path, capsys, ineq, n):
        out = tmp_path / "tail.csv"
        assert run_cli(["figure2", "--ineq", ineq, "--n-min", str(n),
                        "--n-max", str(n), "--out", str(out)]) == 0
        capsys.readouterr()
        _, _, eta_c, p_c, flag = out.read_text().splitlines()[1].split(",")
        assert flag == "" and float(eta_c) < 1.0
        assert 0.0 < float(p_c) < 1e-9


DATA = Path(__file__).parent / "data"


@pytest.mark.parametrize("argv, golden", [
    (["figure1", "--n-min", "4", "--n-max", "100"], "figure1_n4-100.csv"),
    (["figure2", "--n-min", "3", "--n-max", "40"], "figure2_n3-40.csv"),
])
def test_figures_reproduce_golden_bytes(tmp_path, capsys, argv, golden):
    out = tmp_path / golden
    assert run_cli(argv + ["--out", str(out)]) == 0
    capsys.readouterr()
    assert out.read_bytes() == (DATA / golden).read_bytes()


@pytest.mark.parametrize("n_range, golden", [
    (("3", "12"), "oracle_check_n3-12.txt"),
    (("320", "330"), "oracle_check_n320-330.txt"),
])
def test_oracle_check_reproduces_golden_bytes(tmp_path, capsys, n_range, golden):
    out = tmp_path / golden
    assert run_cli(["oracle-check", "--n-min", n_range[0], "--n-max", n_range[1],
                    "--out", str(out)]) == 0
    capsys.readouterr()
    assert out.read_bytes() == (DATA / golden).read_bytes()


def test_perturbed_oracle_check_reproduces_golden_bytes(tmp_path, capsys):
    # the shifted closed side breaches the tolerance; the report is still written
    golden = "oracle_check_n3-6_perturb0.1.txt"
    out = tmp_path / golden
    assert run_cli(["oracle-check", "--n-min", "3", "--n-max", "6", "--perturb-eps", "0.1",
                    "--out", str(out)]) == 1
    assert capsys.readouterr().out == out.read_text()
    assert out.read_bytes() == (DATA / golden).read_bytes()


@pytest.mark.parametrize("argv, golden", [
    (["--ineq", "functional", "--n", "11", "--r", "2", "--eta", "0.9", "--p", "0.95"],
     "eval_functional_n11_r2.json"),
    (["--ineq", "cfrd", "--n", "12", "--r", "5", "--eta", "0.8", "--p", "0.9"],
     "eval_cfrd_n12_r5.json"),
    (["--ineq", "mk", "--n", "5"], "eval_mk_n5.json"),
])
def test_eval_reproduces_golden_bytes(tmp_path, capsys, argv, golden):
    out = tmp_path / golden
    assert run_cli(["eval", *argv, "--out", str(out)]) == 0
    capsys.readouterr()
    assert out.read_bytes() == (DATA / golden).read_bytes()


@pytest.mark.parametrize("argv", [
    ["figure1", "--n-min", "329", "--n-max", "332"],
    ["figure2", "--ineq", "functional", "--n-min", "330", "--n-max", "332"],
])
def test_figures_outside_float_range_write_nothing(tmp_path, capsys, argv):
    # n = 331 is the first mode count whose functional bound side leaves the
    # normal float range; the run stops there, before any file is written
    assert run_cli(argv + ["--out", str(tmp_path / "fig.csv")]) == 1
    err = capsys.readouterr().err
    assert "bound side at n = 331 is outside the normal float range" in err
    assert list(tmp_path.iterdir()) == []


class TestOracleCheck:
    def test_default_grid_passes(self, capsys):
        assert run_cli(["oracle-check", "--n-min", "3", "--n-max", "5"]) == 0
        report = capsys.readouterr().out
        assert "status: OK" in report
        assert "r-sweep" in report

    def test_perturbed_epsilon_detected(self, capsys):
        code = run_cli(["oracle-check", "--n-min", "4", "--n-max", "4",
                        "--perturb-eps", "0.1"])
        report = capsys.readouterr().out
        assert code == 1
        assert "BREACH" in report

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_perturbation_rejected(self, capsys, value):
        with pytest.raises(SystemExit) as err:
            run_cli(["oracle-check", "--n-max", "3", "--perturb-eps", value])
        assert err.value.code == 2
        assert f"--perturb-eps must be finite, got {value}" in capsys.readouterr().err

    def test_perturbation_to_nonpositive_epsilon_names_the_cell(self, capsys):
        with pytest.raises(SystemExit) as err:
            run_cli(["oracle-check", "--n-max", "3", "--perturb-eps", "-100"])
        assert err.value.code == 2
        message = capsys.readouterr().err
        eps = optimal_epsilon(3, 1, 1.0)
        assert "--perturb-eps -100" in message
        assert "functional n=3 eta=1.0 p=1.0" in message
        assert f"{eps - 100.0:.12g}" in message

    def test_grid_ceiling(self, capsys):
        assert run_cli(["oracle-check", "--n-min", "24", "--n-max", "24"]) == 0
        assert "status: OK" in capsys.readouterr().out
        # beyond the closed form's float range the check stops and names n
        assert run_cli(["oracle-check", "--n-min", "340", "--n-max", "340"]) == 1
        assert "bound side at n = 340" in capsys.readouterr().err

    def test_out_of_range_named_before_building_states(self, capsys, monkeypatch):
        # the angles, operators and states of N = 10^6 modes would take
        # seconds and hundreds of MB before the closed form named N
        def not_reached(n, r):
            raise AssertionError(f"angles built for n = {n}")

        monkeypatch.setattr(oracle, "orthogonal_angles", not_reached)
        assert run_cli(["oracle-check", "--n-min", "1000000", "--n-max", "1000000"]) == 1
        assert ("closed-form bound side at n = 1000000 is outside the normal float range"
                in capsys.readouterr().err)

    @pytest.mark.parametrize("perturb, n_range, code, message", [
        ("-2.9", ("3", "4"), 2, "shifts epsilon at functional n=3"),
        ("1e-12", ("3", "4"), 0, "status: OK"),
        ("100", ("5", "6"), 1, "status: BREACH"),
        # the perturbed integrals underflow
        ("1e300", ("3", "4"), 1, "closed-form bound side at n = 3 is outside"),
        ("1", ("329", "330"), 1, "closed-form bound side at n = 329 is outside"),
        # a bad shift is a usage error at every n, also beyond the float range
        ("-100", ("1000", "1000"), 2, "--perturb-eps -100 shifts epsilon at functional n=1000"),
        # every shift is checked before the first closed value leaves the range
        ("-2.9", ("1000", "1000"), 2, "shifts epsilon at functional n=1000 eta=0.9"),
    ])
    def test_exit_codes(self, capsys, perturb, n_range, code, message):
        # only an argument check exits 2; a domain failure exits 1 naming n
        try:
            rc = run_cli(["oracle-check", "--perturb-eps", perturb,
                          "--n-min", n_range[0], "--n-max", n_range[1]])
        except SystemExit as err:
            rc = err.code
        captured = capsys.readouterr()
        assert rc == code
        assert message in captured.out + captured.err

    def test_binned_operators_built_once_per_mode_count(self, capsys, monkeypatch):
        builds = []

        def counted(angles):
            builds.append(angles.n_modes)
            return build(angles)

        build = oracle._mk_correlators
        monkeypatch.setattr(oracle, "_mk_correlators", counted)
        assert run_cli(["oracle-check", "--n-min", "3", "--n-max", "6"]) == 0
        capsys.readouterr()
        # once per N, then once per split of the n = 3 r-sweep
        assert builds == [3, 4, 5, 6, 3, 3, 3]

    def test_report_file(self, tmp_path, capsys):
        out = tmp_path / "report.txt"
        assert run_cli(["oracle-check", "--n-min", "3", "--n-max", "3",
                        "--out", str(out)]) == 0
        capsys.readouterr()
        assert "status: OK" in out.read_text()


class TestOptimize:
    def test_five_mode_run(self, tmp_path, capsys):
        out = tmp_path / "opt.csv"
        code = run_cli(["optimize", "--n", "5", "--out", str(out)])
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        assert set(payload) == {
            "n", "r", "eta", "p", "order", "ratio", "epsilon", "reference_epsilon",
            "epsilon_deviation", "converged", "updates", "stationarity_residual",
        }
        assert payload["converged"] is True
        assert payload["epsilon_deviation"] < 1e-3
        assert payload["updates"] >= 2
        assert payload["stationarity_residual"] <= 1e-9
        lines = out.read_text().splitlines()
        assert lines[0] == "node,f_value"
        assert len(lines) > 10
        summary = json.loads((tmp_path / "opt.csv.summary.json").read_text())
        assert summary == payload

    def test_init_sweep_consistency(self, tmp_path, capsys):
        ratios = []
        for init in ("identity", "signbin"):
            out = tmp_path / f"opt_{init}.csv"
            assert run_cli(["optimize", "--n", "5", "--init", init,
                            "--out", str(out)]) == 0
            ratios.append(json.loads(capsys.readouterr().out)["ratio"])
        assert abs(ratios[0] - ratios[1]) < 1e-6

    def test_verdict_is_free_of_the_ratio_scale(self, tmp_path, capsys):
        # the ratio goes as p^2: at p = 1e-9 an absolute gradient gate passes
        # the untouched start function
        eps = []
        for p in ("1", "1e-9"):
            assert run_cli(["optimize", "--n", "6", "--p", p,
                            "--out", str(tmp_path / "opt.csv")]) == 0
            payload = json.loads(capsys.readouterr().out)
            assert payload["converged"] is True
            assert payload["epsilon_deviation"] <= 1e-9
            eps.append(payload["epsilon"])
        assert eps[1] == pytest.approx(eps[0], rel=1e-9)

    def test_noncanonical_split_reference(self, tmp_path, capsys):
        out = tmp_path / "opt.csv"
        assert run_cli(["optimize", "--n", "9", "--r", "0", "--out", str(out)]) == 0
        payload = json.loads(capsys.readouterr().out)
        rule = gauss_hermite_rule(64)
        # the root on the order-64 rule's sums, where the optimizer lands
        assert payload["reference_epsilon"] == rule_epsilon(9, 0, 1.0, rule)
        assert payload["epsilon_deviation"] <= 1e-10
        # independently: the oracle-side search lands on the exact root within
        # about 2e-9
        eps_numeric, _ = optimize_epsilon_numeric(StateSpec(9, 0), rule)
        assert abs(optimal_epsilon(9, 0, 1.0) - eps_numeric) <= 1e-7

    def test_unconverged_run_reports_the_error_residual(self, tmp_path, capsys,
                                                       monkeypatch):
        def unconverged(*args, **kwargs):
            eps, f, ratio, _ = optimize_function(*args, **kwargs)
            raise ConvergenceError("stationarity not reached", best=(eps, f, ratio),
                                   residual=3.5e-6)

        monkeypatch.setattr("cvbell.variational.optimize_function", unconverged)
        out = tmp_path / "opt.csv"
        assert run_cli(["optimize", "--n", "5", "--out", str(out)]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["converged"] is False
        assert payload["stationarity_residual"] == 3.5e-6
        assert out.read_text().startswith("node,f_value\n")

    def test_forty_modes_at_lopsided_split(self, tmp_path, capsys):
        # at r = 0 the map passes through large eps, where x/(1 + eps x^2)
        # unscaled would take the bound side out of the float range
        out = tmp_path / "opt.csv"
        assert run_cli(["optimize", "--n", "40", "--r", "0", "--out", str(out)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["converged"] is True
        assert payload["epsilon_deviation"] < 1e-9

    def test_outside_float_range_names_the_mode_count(self, tmp_path, capsys):
        # the bound side overflows at n = 400; the correlator side underflows
        # at n = 500, r = 0 and at a purity or efficiency whose square is
        # below the float range (ln B stays finite there)
        out = tmp_path / "opt.csv"
        for args, message in ((["--n", "400"], "bound side at n = 400"),
                              (["--n", "500", "--r", "0"], "correlator side at n = 500"),
                              (["--n", "6", "--p", "1e-170"], "correlator side at n = 6"),
                              (["--n", "6", "--eta", "1e-200"], "correlator side at n = 6"),
                              (["--n", "6", "--eta", "5e-324"], "correlator side at n = 6")):
            assert run_cli(["optimize", *args, "--out", str(out)]) == 1
            assert message in capsys.readouterr().err
            assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("edge, beyond, message", [
        (["--n", "338"], ["--n", "339"], "bound side at n = 339"),
        (["--n", "113", "--r", "0"], ["--n", "114", "--r", "0"], "correlator side at n = 114"),
    ])
    def test_largest_mode_counts_in_float_range(self, tmp_path, capsys, edge, beyond, message):
        out = tmp_path / "opt.csv"
        assert run_cli(["optimize", *edge, "--out", str(out)]) == 0
        assert json.loads(capsys.readouterr().out)["converged"] is True
        assert run_cli(["optimize", *beyond, "--out", str(tmp_path / "beyond.csv")]) == 1
        assert message in capsys.readouterr().err
        assert not (tmp_path / "beyond.csv").exists()

    def test_million_modes_named_before_the_state(self, tmp_path, capsys, monkeypatch):
        def not_reached(spec):
            raise AssertionError("state built for a mode count outside the float range")

        monkeypatch.setattr("cvbell.variational.density_matrix", not_reached)
        assert run_cli(["optimize", "--n", "1000000",
                        "--out", str(tmp_path / "opt.csv")]) == 1
        assert "bound side at n = 1000000" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_zero_purity_rejected(self, quick_rule):
        # the CLI refuses --p 0 with its arguments; the library call is a
        # usage error too, since the ratio vanishes for every function
        with pytest.raises(ValueError, match="vanishes"):
            optimize_function(StateSpec(4, 2, 0.0), quick_rule, Identity())

    @pytest.mark.parametrize("flag, value", [
        ("--n", "1"), ("--p", "0"),
        ("--order", "1"), ("--order", "2"), ("--order", "3"),
    ])
    def test_input_checked_before_work(self, tmp_path, capsys, monkeypatch, flag, value):
        def not_reached(*args, **kwargs):
            raise AssertionError("optimizer ran on rejected input")

        monkeypatch.setattr("cvbell.variational.optimize_function", not_reached)
        with pytest.raises(SystemExit) as err:
            run_cli(["optimize", flag, value, "--out", str(tmp_path / "opt.csv")])
        assert err.value.code == 2
        assert flag in capsys.readouterr().err
        assert not (tmp_path / "opt.csv").exists()


def _src_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(os.path.dirname(__file__), "..", "src"),
         env.get("PYTHONPATH", "")])
    return env


class TestEntryPoint:
    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "cvbell.cli", "eval", "--ineq", "mk",
             "--n", "3", "--order", "64"],
            capture_output=True, text=True, env=_src_env())
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["ratio"] > 1

    def test_startup_skips_the_optimizer(self, tmp_path):
        # a fresh interpreter: the test modules load scipy themselves; every
        # subcommand runs on numpy alone
        commands = [
            ["eval", "--ineq", "functional", "--n", "4"],
            ["eval", "--ineq", "functional", "--n", "4", "--r", "1", "--order", "64"],
            ["eval", "--ineq", "cfrd", "--n", "5"],
            ["eval", "--ineq", "mk", "--n", "3"],
            ["figure1", "--n-min", "4", "--n-max", "6", "--out", str(tmp_path / "f1.csv")],
            ["figure2", "--n-min", "3", "--n-max", "5", "--out", str(tmp_path / "f2.csv")],
            ["oracle-check", "--n-min", "3", "--n-max", "4"],
            ["optimize", "--n", "4", "--init", "signbin", "--out", str(tmp_path / "opt.csv")],
        ]
        script = (
            "import json, sys\n"
            "from cvbell.cli import main\n"
            f"for argv in {commands!r}:\n"
            "    assert main(argv) == 0, argv\n"
            "print(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')))\n"
        )
        proc = subprocess.run([sys.executable, "-c", script],
                              capture_output=True, text=True, env=_src_env())
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout.splitlines()[-1]) == []
