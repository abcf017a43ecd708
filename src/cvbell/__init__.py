"""Multipartite continuous-variable Bell tests.

Evaluates functional-moment Bell observables for photonic multimode
superposition states under detector inefficiency and occupation-basis
decoherence, covering the optimized measurement function x/(1 + eps x^2),
plain homodyne moment correlations, and sign-binned Mermin-Klyshko variants,
together with the critical efficiency / purity threshold curves.
"""

__version__ = "0.1.0"

from .errors import (
    ConvergenceError,
    MonotonicityError,
    NumericalDomainError,
)
from .quadrature import (
    DEFAULT_ORDER,
    QUICK_ORDER,
    GAUSS_NORM,
    KernelIntegrals,
    QuadratureRule,
    gauss_hermite_rule,
    kernel_integrals,
)
from .model import (
    AngleConfig,
    Basis,
    DensityMatrix,
    Identity,
    MeasurementFunction,
    Optimal,
    ProductOperator,
    SignBin,
    StateSpec,
    density_matrix,
    site_operator,
)
from .oracle import BellResult, evaluate, orthogonal_angles
from .functional_bell import (
    EpsilonSolution,
    bell_value,
    cfrd_bell_value,
    ideal_epsilon,
    lossy_epsilon_map,
    optimal_epsilon,
    solve_epsilon_even,
    solve_epsilon_odd,
)
from .mk_binning import (
    MKResult,
    mk_bell_value,
    mk_critical_product,
    mk_evaluate,
    mk_optimal_angles,
)
from .variational import euler_lagrange_residual, optimize_function
from .critical import (
    asymptotic_product,
    bell_ratio,
    critical_efficiency,
    critical_purity,
)

__all__ = [
    "__version__",
    "ConvergenceError", "MonotonicityError", "NumericalDomainError",
    "DEFAULT_ORDER", "QUICK_ORDER", "GAUSS_NORM",
    "KernelIntegrals", "QuadratureRule", "gauss_hermite_rule", "kernel_integrals",
    "AngleConfig", "Basis", "DensityMatrix", "Identity", "MeasurementFunction",
    "Optimal", "ProductOperator", "SignBin", "StateSpec", "density_matrix",
    "site_operator",
    "BellResult", "evaluate", "orthogonal_angles",
    "EpsilonSolution", "bell_value", "cfrd_bell_value", "ideal_epsilon",
    "lossy_epsilon_map", "optimal_epsilon", "solve_epsilon_even", "solve_epsilon_odd",
    "MKResult", "mk_bell_value", "mk_critical_product", "mk_evaluate",
    "mk_optimal_angles",
    "euler_lagrange_residual", "optimize_function",
    "asymptotic_product", "bell_ratio", "critical_efficiency", "critical_purity",
]
