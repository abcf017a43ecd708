"""Multipartite continuous-variable Bell tests.

Evaluates functional-moment Bell observables for photonic multimode
superposition states under detector inefficiency and occupation-basis
decoherence, covering the optimized measurement function x/(1 + eps x^2),
plain homodyne moment correlations, and sign-binned Mermin-Klyshko variants,
together with the critical efficiency / purity threshold curves.

``import cvbell`` loads neither numpy nor any submodule.  Each public name
resolves on first use (``cvbell.X`` or ``from cvbell import X``) by
importing the submodule that defines it, and is that module's object.
"""

import importlib

__version__ = "0.1.0"

# (module, names) runs, in the order of ``__all__``; each name is listed
# with the submodule that defines it.
_EXPORTS = (
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
_MODULE_OF = {name: module for module, names in _EXPORTS for name in names}

__all__ = ["__version__", *_MODULE_OF]


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{module}"), name)


def __dir__():
    return sorted({*globals(), *__all__})
