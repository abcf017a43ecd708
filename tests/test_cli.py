import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from cvbell.cli import main
from cvbell.errors import ConvergenceError
from cvbell.functional_bell import closed_form_sides, optimal_epsilon
from cvbell.model import Identity, Optimal, StateSpec
from cvbell.oracle import optimize_epsilon_numeric
from cvbell.quadrature import gauss_hermite_rule, kernel_integrals
from cvbell.variational import optimize_function


def run_cli(argv):
    return main(argv)


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
        eps = optimal_epsilon(4, 1, 1.0, gauss_hermite_rule(64))
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

    def test_metadata_sidecar_records_order(self, fig1):
        meta = json.loads((fig1.parent / (fig1.name + ".meta.json")).read_text())
        assert meta["config"]["order"] == 256
        assert meta["command"] == "figure1"

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

    def test_grid_ceiling(self, capsys):
        assert run_cli(["oracle-check", "--n-min", "24", "--n-max", "24"]) == 0
        assert "status: OK" in capsys.readouterr().out
        # beyond the closed form's float range the check stops and names n
        assert run_cli(["oracle-check", "--n-min", "340", "--n-max", "340"]) == 1
        assert "bound side at n = 340" in capsys.readouterr().err

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
        assert payload["reference_epsilon"] == optimal_epsilon(9, 0, 1.0, rule)
        assert payload["epsilon_deviation"] <= 1e-10
        # independently: the golden-section search stops at a 1e-8 bracket
        eps_numeric, _ = optimize_epsilon_numeric(StateSpec(9, 0), rule)
        assert abs(payload["reference_epsilon"] - eps_numeric) <= 1e-7

    def test_unconverged_run_reports_the_error_residual(self, tmp_path, capsys,
                                                       monkeypatch):
        def unconverged(*args, **kwargs):
            eps, f, bell, _ = optimize_function(*args, **kwargs)
            raise ConvergenceError("stationarity not reached", best=(eps, f, bell),
                                   residual=3.5e-6)

        monkeypatch.setattr("cvbell.cli.optimize_function", unconverged)
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
        # at n = 500, r = 0 and at a purity whose square is below the float range
        out = tmp_path / "opt.csv"
        for args, message in ((["--n", "400"], "bound side at n = 400"),
                              (["--n", "500", "--r", "0"], "correlator side at n = 500"),
                              (["--n", "6", "--p", "1e-170"], "correlator side at n = 6")):
            assert run_cli(["optimize", *args, "--out", str(out)]) == 1
            assert message in capsys.readouterr().err
            assert not out.exists()

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

        monkeypatch.setattr("cvbell.cli.optimize_function", not_reached)
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
