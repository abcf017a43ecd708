"""Self-test of the benchmark harness.

Usage, from the root of a checkout::

    python3 perfbench/selftest.py

Covers the self-time arithmetic on a synthetic span tree, the tracer's
rebinding of every layer function in every module that imports it, the
output checks rejecting tampered outputs, and one smoke pass of each workload
at its smallest size, untraced and traced.  Exits 0 when everything holds.
"""

from __future__ import annotations

import inspect
import json
import random
import sys

import run
from spans import LayerTotals, inside, self_times


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise SystemExit(f"selftest FAILED: {message}")


def close(a: float, b: float) -> bool:
    return abs(a - b) < 1e-12


def test_span_arithmetic() -> None:
    # root [0, 10] holds a [1, 4] (which holds b [2, 3]), a [3.5, 6] overlapping
    # the first a, and b [9, 12] running past the end of root.
    spans = {
        "names": ["root", "variational.optimize_function", "oracle.evaluate"],
        "name_id": [0, 1, 2, 1, 2],
        "parent": [-1, 0, 1, 0, 0],
        "start": [0.0, 1.0, 2.0, 3.5, 9.0],
        "end": [10.0, 4.0, 3.0, 6.0, 12.0],
        "raised": [0, 0, 0, 1, 0],
        "counters": {"_accel.tensor_expectation.elements": 4096,
                     "_accel.tensor_expectation.nonzeros": 17},
    }
    got = self_times(spans)
    want = [10.0 - (5.0 + 1.0), 2.0, 1.0, 2.5, 3.0]
    expect(all(close(g, w) for g, w in zip(got, want)), f"self times {got} != {want}")
    flags = inside(spans, {"variational.optimize_function"})
    expect(flags == [False, False, True, False, False], f"nesting flags {flags}")

    totals = LayerTotals()
    totals.add(spans)
    totals.add(spans)
    m = totals.metrics()
    expect(m["oracle.evaluate.self_s"][0] == 2 * (1.0 + 3.0), "summed self time")
    expect(m["variational.evaluate_per_optimize"][0] == 0.5, "evaluate per optimize")
    expect(m["variational.converged_share"][0] == 0.5, "converged share")
    expect(close(m["accel.nonzero_share"][0], 17 / 4096), "nonzero share")
    expect(m["trace.spans"][0] == 10, "span count")


def test_tracer_rebinds_everything() -> None:
    from tracer import LAYERS, Tracer

    tracer = Tracer()
    wrappers = tracer.install()
    import cvbell

    for name, module in list(sys.modules.items()):
        if name == "cvbell" or name.startswith("cvbell."):
            for attr, obj in vars(module).items():
                expect(not (inspect.isfunction(obj) and obj in wrappers),
                       f"{name}.{attr} still binds the unwrapped function")
    for layer in LAYERS:
        module = sys.modules[f"cvbell.{layer}"]
        for attr, obj in vars(module).items():
            if inspect.isfunction(obj) and not attr.startswith("_") and \
                    getattr(obj, "__wrapped__", obj).__module__ == module.__name__:
                expect(hasattr(obj, "__wrapped__"), f"cvbell.{layer}.{attr} is not wrapped")
    expect(cvbell.cli.evaluate is cvbell.oracle.evaluate is cvbell.variational.evaluate
           is cvbell.evaluate, "evaluate differs between the modules that bind it")
    expect(hasattr(cvbell.cli._cmd_eval, "__wrapped__"), "subcommand handlers are not wrapped")

    rule = cvbell.gauss_hermite_rule(64)
    spec = cvbell.StateSpec(6, 3, 1.0, 0.9)
    cvbell.bell_value(spec, rule)
    rho = cvbell.density_matrix(spec)
    f = cvbell.Optimal(1.0)
    cvbell.evaluate(rho, f, f, cvbell.orthogonal_angles(6, 3), rule)
    spans = tracer.to_json()
    names = [spans["names"][i] for i in spans["name_id"]]
    nested = inside(spans, {"functional_bell.solve_epsilon_even"})
    expect(any(n == "quadrature.kernel_integrals" and f for n, f in zip(names, nested)),
           "kernel_integrals not recorded under solve_epsilon_even")
    expect(names.count("_accel.tensor_expectation") == 2, "two contractions per evaluate")
    counters = spans["counters"]
    expect(counters["_accel.tensor_expectation.elements"] == 2 * 4 ** 6, "contraction size")
    expect(counters["_accel.tensor_expectation.nonzeros"] == 2 * int((rho.matrix != 0).sum()),
           "state nonzeros")
    expect(counters["model.density_matrix.elements"] == 4 ** 6, "density matrix size")


def test_checks_reject_tampering() -> None:
    from checks import CheckFailed, Checker

    cwd = run.WORK / "selftest"
    cwd.mkdir(parents=True, exist_ok=True)
    argv = ["eval", "--ineq", "functional", "--n", "6", "--r", "1", "--eta", "0.9"]
    op = run.run_op(argv, cwd, "tamper")
    with run.CheckerProcess() as served:
        served.check(op, cwd)
    expect(op.error is None, f"genuine eval output rejected: {op.error}")
    checker = Checker()
    bad = json.loads(op.stdout)
    bad["lhs"] *= 1.0 + 1e-6
    for argv_, stdout in ((argv, json.dumps(bad)),
                          (["oracle-check"], "max relative deviation: 1e-3\nstatus: BREACH"),
                          (["optimize"], json.dumps({"converged": True,
                                                     "epsilon_deviation": 2e-3}))):
        try:
            checker.check(argv_, stdout, cwd)
        except CheckFailed:
            continue
        expect(False, f"tampered {argv_[0]} output accepted")


def test_smoke_passes() -> None:
    expected = {
        "thresholds": ("quadrature.kernel_integrals.calls", "critical.threshold.calls"),
        "oracle_dense": ("model.density_matrix.calls", "mk_binning.mk_evaluate.calls"),
        "free_function": ("variational.evaluate_per_optimize", "accel.tensor_expectation.calls"),
    }
    for name, workload in run.WORKLOADS.items():
        commands = workload(random.Random(0), smoke=True)
        cwd = run.WORK / "selftest" / name
        cwd.mkdir(parents=True, exist_ok=True)
        with run.CheckerProcess() as checker:
            plain = run.run_pass(commands, cwd, checker)
            traced = run.run_pass(commands, cwd, checker, traced=True)
        for op in plain.ops + traced.ops:
            expect(op.error is None, f"{name}: cvbell {' '.join(op.argv)}: {op.error}")
        metrics = run.span_totals(cwd, len(commands)).metrics()
        for key in expected[name]:
            expect(metrics[key][0] > 0, f"{name}: {key} is zero")
        print(f"selftest: {name} smoke pass {plain.wall_s:.2f} s, traced {traced.wall_s:.2f} s, "
              f"{metrics['trace.spans'][0]} spans")


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    test_span_arithmetic()
    test_checks_reject_tampering()
    test_smoke_passes()
    test_tracer_rebinds_everything()  # last: it wraps the package in this process
    print("selftest: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
