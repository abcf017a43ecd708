"""The lazy ``cvbell`` namespace, what each command loads in a fresh interpreter,
and the constructors and records of the public types."""

import importlib
import json
import os
import subprocess
import sys

import pytest

import cvbell

EXPORTS = (
    ("errors", ("ConvergenceError", "NumericalDomainError")),
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
    ("functional_bell", ("EpsilonSolution", "bell_value", "ideal_epsilon",
                         "lossy_epsilon_map", "optimal_epsilon", "solve_epsilon_even",
                         "solve_epsilon_odd")),
    ("mk_binning", ("mk_bell_value", "mk_critical_product")),
    ("oracle", ("mk_evaluate", "mk_optimal_angles")),
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
        assert len(expected) == 40
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
_SCALAR = ("cli", "errors", "quadrature", "scenario")
# the optimizer's rule: the only command that builds one
_OPTIMIZER = ("functional_bell", "variational")
# the state model and the oracle, loaded only by the commands that build states
_ARRAYS = ("model", "_accel", "oracle")
_THRESHOLDS = ("functional_bell", "critical", "mk_binning")


class TestStartupImports:
    def test_package_import_loads_nothing(self):
        loaded = _loaded_modules("import cvbell")
        assert "numpy" not in loaded
        assert sorted(m for m in loaded if m.startswith("cvbell.")) == []

    @pytest.mark.parametrize("argv, modules", [
        (["eval", "--ineq", "mk", "--n", "3"], ("mk_binning",)),
        (["eval", "--ineq", "functional", "--n", "6"], ("functional_bell",)),
        (["eval", "--ineq", "cfrd", "--n", "12", "--order", "64"], ("functional_bell",)),
        (["figure1", "--n-min", "4", "--n-max", "6", "--out", "{tmp}/f1.csv"],
         ("functional_bell",)),
        (["figure2", "--n-min", "3", "--n-max", "5", "--out", "{tmp}/f2.csv"], _THRESHOLDS),
        (["figure2", "--n-min", "3", "--n-max", "5", "--ineq", "functional",
          "--out", "{tmp}/f2.csv"], _THRESHOLDS),
        (["figure2", "--n-min", "3", "--n-max", "5", "--ineq", "cfrd", "--out", "{tmp}/f2.csv"],
         _THRESHOLDS),
        (["figure2", "--n-min", "3", "--n-max", "5", "--ineq", "mk", "--out", "{tmp}/f2.csv"],
         _THRESHOLDS),
        (["oracle-check", "--n-min", "3", "--n-max", "3"],
         ("functional_bell", "mk_binning", *_ARRAYS)),
        (["optimize", "--n", "4", "--init", "signbin", "--out", "{tmp}/opt.csv"],
         (*_OPTIMIZER, *_ARRAYS)),
        # another order: only optimize builds its rule
        (["eval", "--ineq", "functional", "--n", "6", "--order", "100"], ("functional_bell",)),
        (["optimize", "--n", "4", "--init", "signbin", "--order", "100",
          "--out", "{tmp}/opt.csv"], (*_OPTIMIZER, *_ARRAYS)),
    ], ids=["eval-mk", "eval-functional", "eval-cfrd-o64", "figure1", "figure2",
            "figure2-functional", "figure2-cfrd", "figure2-mk", "oracle-check", "optimize",
            "eval-o100", "optimize-o100"])
    def test_command_loads_only_what_it_runs(self, tmp_path, argv, modules):
        argv = [a.format(tmp=tmp_path) for a in argv]
        loaded = _loaded_modules(f"from cvbell.cli import main\nassert main({argv!r}) == 0")
        assert (sorted(m.removeprefix("cvbell.") for m in loaded if m.startswith("cvbell."))
                == sorted(_SCALAR + modules))
        assert not loaded & {"numpy", "dataclasses", "inspect"}

    def test_every_command_runs_without_numpy(self, tmp_path):
        # numpy made unimportable, with eval and optimize at an order other
        # than the defaults
        commands = [
            ["eval", "--ineq", "functional", "--n", "6", "--order", "33"],
            ["eval", "--ineq", "cfrd", "--n", "8", "--order", "33"],
            ["eval", "--ineq", "mk", "--n", "3", "--order", "33"],
            ["figure1", "--n-min", "4", "--n-max", "6", "--out", f"{tmp_path}/f1.csv"],
            ["figure2", "--n-min", "3", "--n-max", "4", "--out", f"{tmp_path}/f2.csv"],
            ["oracle-check", "--n-min", "3", "--n-max", "4"],
            ["optimize", "--n", "4", "--init", "signbin", "--order", "33",
             "--out", f"{tmp_path}/opt.csv"],
        ]
        code = ("sys.modules['numpy'] = None\n"
                "from cvbell.cli import main\n"
                f"for argv in {commands!r}:\n"
                "    assert main(argv) == 0, argv")
        _loaded_modules(code)  # exits 0, or an import of numpy raised


class TestPublicTypes:
    """Construction and validation of the public classes; the records are immutable."""

    def test_construct_by_position_and_keyword(self):
        rule = cvbell.QuadratureRule(2, (0.5,), (0.25,))
        assert (rule.order, rule.half_nodes, rule.half_weights, rule.center_weight) == (
            2, (0.5,), (0.25,), 0.0)
        rule = cvbell.QuadratureRule(order=3, half_nodes=(0.5,), half_weights=(0.25,),
                                     center_weight=0.75)
        assert (rule.order, rule.center_weight) == (3, 0.75)
        for spec in (cvbell.StateSpec(6, 3, 0.9, 0.8),
                     cvbell.StateSpec(n_modes=6, r_split=3, purity=0.9, efficiency=0.8)):
            assert (spec.n_modes, spec.r_split, spec.purity, spec.efficiency) == (6, 3, 0.9, 0.8)
        spec = cvbell.StateSpec(4, 2)
        assert (spec.purity, spec.efficiency) == (1.0, 1.0)
        assert cvbell.Optimal(2.5).epsilon == cvbell.Optimal(epsilon=2.5).epsilon == 2.5
        angles = cvbell.AngleConfig((0.1, 0.2), (0.3, 0.4))
        assert angles.n_modes == 2
        assert angles.theta + angles.theta_prime == pytest.approx((0.1, 0.2, 0.3, 0.4))
        by_name = cvbell.AngleConfig(theta=[0.1, 0.2], theta_prime=[0.3, 0.4])
        assert (by_name.theta, by_name.theta_prime) == (angles.theta, angles.theta_prime)
        site = ((1.0, 0.0), (0.0, 0.0))
        for op in (cvbell.ProductOperator([1.0], [[site, site]]),
                   cvbell.ProductOperator(weights=(1.0,), factors=((site, site),))):
            assert (op.weights, op.factors) == ((1.0,), ((site, site),))
        for rho in (cvbell.DensityMatrix(2, op), cvbell.DensityMatrix(n_modes=2, matrix=op)):
            assert rho.n_modes == 2 and rho.matrix is op

    @pytest.mark.parametrize("module, name, args, fields", [
        ("quadrature", "KernelIntegrals", (1.0, 3.0, 1.0), ("i_plus", "i_cross", "i_zero")),
        ("functional_bell", "BellResult", (1.0, 2.0, 0.5, "identity"),
         ("lhs", "rhs", "ratio", "function_id")),
        ("functional_bell", "EpsilonSolution", (3.0, 2.5, None, 1e-15),
         ("epsilon_ideal", "epsilon_lossy", "epsilon_odd", "residual")),
        ("oracle", "RatioPartials", (2.0, (0.5,), (-1.0, -2.0)),
         ("ratio", "d_amplitude", "d_moments")),
    ])
    def test_records(self, module, name, args, fields):
        cls = getattr(importlib.import_module(f"cvbell.{module}"), name)
        record = cls(*args)
        assert record == cls(**dict(zip(fields, args)))
        assert tuple(getattr(record, f) for f in fields) == args
        assert name in repr(record)
        for f in fields:
            with pytest.raises(AttributeError):
                setattr(record, f, 0.0)

    @pytest.mark.parametrize("build, message", [
        (lambda: cvbell.Optimal(0.0), "epsilon must be positive and finite, got 0.0"),
        (lambda: cvbell.Optimal(float("nan")), "epsilon must be positive and finite, got nan"),
        (lambda: cvbell.AngleConfig((), ()), "angle lists must be non-empty"),
        (lambda: cvbell.AngleConfig((0.0,), (0.0, 1.0)),
         "theta and theta_prime must have the same length"),
        (lambda: cvbell.DensityMatrix(3, cvbell.ProductOperator((1.0,), (((1.0,),) * 2,))),
         "2 sites for 3 modes"),
        (lambda: cvbell.ProductOperator((1.0, 0.5), (((1.0,),) * 2,)),
         "expected T weights and T terms of equally many site factors; "
         "got 2 weights and terms of [2] sites"),
        (lambda: cvbell.ProductOperator((1.0, 0.5), (((1.0,),) * 2, ((1.0,),) * 3)),
         "expected T weights and T terms of equally many site factors; "
         "got 2 weights and terms of [2, 3] sites"),
    ], ids=["optimal-zero", "optimal-nan", "angles-empty", "angles-mismatched",
            "density-sites", "product-count", "product-sites"])
    def test_validation_messages(self, build, message):
        with pytest.raises(ValueError) as err:
            build()
        assert str(err.value) == message
