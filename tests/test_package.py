"""The lazy ``cvbell`` namespace, and what each command loads in a fresh interpreter."""

import importlib
import json
import os
import subprocess
import sys

import pytest

import cvbell

EXPORTS = (
    ("errors", ("ConvergenceError", "MonotonicityError", "NumericalDomainError")),
    ("quadrature", ("DEFAULT_ORDER", "QUICK_ORDER", "GAUSS_NORM", "KernelIntegrals",
                    "QuadratureRule", "gauss_hermite_rule", "kernel_integrals")),
    ("model", ("AngleConfig", "DensityMatrix")),
    ("quadrature", ("Identity", "MeasurementFunction", "Optimal")),
    ("model", ("ProductOperator",)),
    ("quadrature", ("SignBin",)),
    ("scenario", ("StateSpec",)),
    ("model", ("density_matrix", "site_operator")),
    ("functional_bell", ("BellResult",)),
    ("oracle", ("evaluate", "orthogonal_angles")),
    ("functional_bell", ("EpsilonSolution", "bell_value", "cfrd_bell_value",
                         "ideal_epsilon", "lossy_epsilon_map", "optimal_epsilon",
                         "solve_epsilon_even", "solve_epsilon_odd")),
    ("mk_binning", ("MKResult", "mk_bell_value", "mk_critical_product", "mk_evaluate",
                    "mk_optimal_angles")),
    ("variational", ("euler_lagrange_residual", "optimize_function")),
    ("critical", ("asymptotic_product", "bell_ratio", "critical_efficiency",
                  "critical_purity")),
)


def _loaded_modules(code):
    """Names in ``sys.modules`` after ``code`` runs in a fresh interpreter."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(os.path.dirname(__file__), "..", "src"), env.get("PYTHONPATH", "")])
    script = f"import json, sys\n{code}\nprint(json.dumps(sorted(sys.modules)))\n"
    proc = subprocess.run([sys.executable, "-c", script],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    return set(json.loads(proc.stdout.splitlines()[-1]))


class TestNamespace:
    def test_all_is_unchanged(self):
        expected = ["__version__", *(n for _, names in EXPORTS for n in names)]
        assert len(expected) == 43
        assert cvbell.__all__ == expected

    def test_names_are_the_defining_objects(self):
        for module, names in EXPORTS:
            defining = importlib.import_module(f"cvbell.{module}")
            for name in names:
                assert getattr(cvbell, name) is getattr(defining, name), name

    def test_star_import_binds_every_name(self):
        namespace = {}
        exec("from cvbell import *", namespace)
        assert [n for n in cvbell.__all__ if n not in namespace] == []
        assert namespace["evaluate"] is cvbell.oracle.evaluate

    def test_submodule_import_by_name(self):
        loaded = _loaded_modules("from cvbell import critical\n"
                                 "assert critical.__name__ == 'cvbell.critical'")
        assert "cvbell.critical" in loaded

    def test_unknown_name_raises(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            cvbell.no_such_name

    def test_dir_lists_every_name(self):
        assert set(cvbell.__all__) <= set(dir(cvbell))


# modules every command loads: the parser and the base of the scalar layer
_SCALAR = ("cli", "errors", "quadrature", "_gauss_hermite_tables", "scenario")
# the state model and the oracle, loaded only by the commands that build states
_ARRAYS = ("model", "_accel", "oracle")
_THRESHOLDS = ("functional_bell", "critical", "mk_binning")


class TestStartupImports:
    def test_package_import_loads_nothing(self):
        loaded = _loaded_modules("import cvbell")
        assert "numpy" not in loaded
        assert sorted(m for m in loaded if m.startswith("cvbell.")) == []

    @pytest.mark.parametrize("argv, modules, numpy", [
        (["eval", "--ineq", "mk", "--n", "3"], ("mk_binning",), False),
        (["eval", "--ineq", "functional", "--n", "6"], ("functional_bell",), False),
        (["eval", "--ineq", "cfrd", "--n", "12", "--order", "64"], ("functional_bell",), False),
        (["figure1", "--n-min", "4", "--n-max", "6", "--out", "{tmp}/f1.csv"],
         ("functional_bell",), False),
        (["figure1", "--n-min", "4", "--n-max", "6", "--order", "64", "--out", "{tmp}/f1.csv"],
         ("functional_bell",), False),
        (["figure2", "--n-min", "3", "--n-max", "5", "--out", "{tmp}/f2.csv"], _THRESHOLDS, False),
        (["figure2", "--n-min", "3", "--n-max", "5", "--ineq", "functional", "--order", "64",
          "--out", "{tmp}/f2.csv"], _THRESHOLDS, False),
        (["figure2", "--n-min", "3", "--n-max", "5", "--ineq", "cfrd", "--out", "{tmp}/f2.csv"],
         _THRESHOLDS, False),
        (["figure2", "--n-min", "3", "--n-max", "5", "--ineq", "mk", "--out", "{tmp}/f2.csv"],
         _THRESHOLDS, False),
        (["oracle-check", "--n-min", "3", "--n-max", "3"],
         ("functional_bell", "mk_binning", *_ARRAYS), False),
        (["optimize", "--n", "4", "--init", "signbin", "--out", "{tmp}/opt.csv"],
         ("functional_bell", "variational", *_ARRAYS), False),
        # an order without a table computes its rule with numpy
        (["eval", "--ineq", "functional", "--n", "6", "--order", "100"], ("functional_bell",), True),
        (["oracle-check", "--n-min", "3", "--n-max", "3", "--order", "100"],
         ("functional_bell", "mk_binning", *_ARRAYS), True),
        (["optimize", "--n", "4", "--init", "signbin", "--order", "100",
          "--out", "{tmp}/opt.csv"], ("functional_bell", "variational", *_ARRAYS), True),
    ], ids=["eval-mk", "eval-functional", "eval-cfrd-o64", "figure1", "figure1-o64", "figure2",
            "figure2-functional-o64", "figure2-cfrd", "figure2-mk", "oracle-check", "optimize",
            "eval-o100", "oracle-check-o100", "optimize-o100"])
    def test_command_loads_only_what_it_runs(self, tmp_path, argv, modules, numpy):
        argv = [a.format(tmp=tmp_path) for a in argv]
        loaded = _loaded_modules(f"from cvbell.cli import main\nassert main({argv!r}) == 0")
        assert (sorted(m.removeprefix("cvbell.") for m in loaded if m.startswith("cvbell."))
                == sorted(_SCALAR + modules))
        assert ("numpy" in loaded) is numpy
