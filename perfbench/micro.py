"""Per-call timings of each layer on fixed inputs.

Usage::

    python perfbench/micro.py

Prints one JSON object: the contraction backend name and, per timing, the
median and interquartile range of single-call wall times and the number of
calls timed (at least 5, for about BUDGET_S seconds each).  Every function is
called once untimed first, so caches, lazy imports and the ideal fixed point
(cached per quadrature order, as in every CLI process after its first solve)
are warm.  The states are the damped multimode states the Bell evaluations
actually see (eta = p = 0.9).  A timing whose call raises is reported with
zero repeats.
"""

from __future__ import annotations

import json
import statistics
import sys
import time

BUDGET_S = 0.3


def time_call(fn, budget_s: float, min_repeats: int = 5, max_repeats: int = 5000) -> dict:
    fn()
    samples = []
    deadline = time.perf_counter() + budget_s
    while len(samples) < min_repeats or (
            len(samples) < max_repeats and time.perf_counter() < deadline):
        t0 = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - t0)
    q1, median, q3 = statistics.quantiles(samples, n=4)
    return {"median_s": median, "iqr_s": q3 - q1, "repeats": len(samples)}


def timings() -> dict:
    """{name: zero-argument callable}, built from the package's public API."""
    import numpy as np

    from cvbell import (
        Identity, Optimal, StateSpec, critical_efficiency, density_matrix, evaluate,
        euler_lagrange_residual, gauss_hermite_rule, ideal_epsilon, kernel_integrals,
        orthogonal_angles, site_operator, solve_epsilon_even, solve_epsilon_odd,
    )
    from cvbell._accel import tensor_expectation

    rule = gauss_hermite_rule(256)
    quick = gauss_hermite_rule(64)
    optimal = Optimal(ideal_epsilon(rule))
    quick_optimal = Optimal(ideal_epsilon(quick))
    spec6 = StateSpec(6, 3, 0.9, 0.9)
    spec10 = StateSpec(10, 5, 0.9, 0.9)
    rho6, rho10 = density_matrix(spec6), density_matrix(spec10)

    def site_matrices(n: int):
        angles = orthogonal_angles(n, n // 2)
        return np.stack([
            site_operator(Identity(), Identity(), th, thp, quick)[0]
            for th, thp in zip(angles.theta, angles.theta_prime)
        ])

    mats6, mats10 = site_matrices(6), site_matrices(10)
    angles6 = orthogonal_angles(6, 3)
    return {
        "micro.quadrature.gauss_hermite_rule_256": lambda: gauss_hermite_rule(256),
        "micro.quadrature.kernel_integrals_256": lambda: kernel_integrals(optimal, rule),
        "micro.functional_bell.solve_epsilon_even_eta0.9":
            lambda: solve_epsilon_even(0.9, rule),
        "micro.functional_bell.solve_epsilon_odd_n9_eta0.9":
            lambda: solve_epsilon_odd(9, 0.9, rule),
        "micro.model.density_matrix_n6": lambda: density_matrix(spec6),
        "micro.model.density_matrix_n10": lambda: density_matrix(spec10),
        "micro._accel.tensor_expectation_n6": lambda: tensor_expectation(rho6.matrix, mats6),
        "micro._accel.tensor_expectation_n10": lambda: tensor_expectation(rho10.matrix, mats10),
        "micro.oracle.evaluate_n6_order64":
            lambda: evaluate(rho6, quick_optimal, quick_optimal, angles6, quick),
        "micro.variational.gradient_n6":
            lambda: euler_lagrange_residual(quick_optimal, spec6, quick),
        "micro.critical.critical_efficiency_functional_n10":
            lambda: critical_efficiency(10, 1.0, "functional", rule),
    }


def main() -> int:
    from cvbell._accel import backend_name

    results = {}
    for name, fn in timings().items():
        try:
            results[name] = time_call(fn, BUDGET_S)
        except Exception as exc:  # an API change must not hide the other layers
            print(f"micro: {name} failed: {exc!r}", file=sys.stderr)
            results[name] = {"median_s": 0.0, "iqr_s": 0.0, "repeats": 0}
    print(json.dumps({"backend": backend_name(), "timings": results}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
