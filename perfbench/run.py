"""Layered benchmark of the ``cvbell`` command line.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload thresholds --seed 1 --seconds 40 --trace 0
    for w in thresholds oracle_dense free_function; do
        python3 perfbench/run.py --workload $w --seconds 40; done
    python3 perfbench/selftest.py

Each workload is a fixed list of ``cvbell`` invocations.  One client runs
them as fresh processes, one at a time, in a closed loop: a pass runs the
list once, and passes repeat until the next one would overrun ``--seconds``.
Every output is checked (``checks.py``); a wrong exit code or a failed check
counts as a failed operation.

``--trace 0`` reports what a user pays, per workload:

- ``wall_s``: median over passes of the wall time of the whole list;
- ``peak_rss_mb``: median over passes of the largest peak RSS of any one
  child, read per child with ``os.wait4``;
- ``setup_s``: median wall time of fresh ``cvbell eval --ineq mk --n 3``
  starts (interpreter, numpy/scipy import, order-256 rule), one after each
  pass, following one discarded warm-up start;
- ``fail_share`` (printed, and carried as ``failed``/``attempted``): failed
  operations over attempted ones.

``--trace 1`` runs the untraced loop for half the time as a reference, then
one pass in which every child runs under ``tracer.py`` (a timing span around
every call into a layer's public functions), then the per-call timings of
``micro.py``.
It reports per-layer counts, self times, ratios measured at the layer
boundaries, the per-call timings, and the tracing overhead (traced pass wall
minus the untraced median).

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Child outputs, span
files and a result record with a provenance block go under
``.perfbench_work/`` in the checkout.  The harness sets no thread counts;
children see the environment as given plus ``PYTHONPATH=src``.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

# Same entry point as the installed ``cvbell`` console script.
ENTRY = "import sys; from cvbell.cli import main; sys.exit(main())"
SETUP_ARGV = ("eval", "--ineq", "mk", "--n", "3")
CHILD_TIMEOUT_S = 150.0


# ---------------------------------------------------------------------------
# workloads: seed -> list of cvbell argument lists
# ---------------------------------------------------------------------------

def thresholds(rng: random.Random, smoke: bool = False) -> list[list[str]]:
    """Closed-form sweeps and threshold bisections.

    Nearly all time goes to ``quadrature.kernel_integrals`` inside the epsilon
    fixed points that ``critical`` bisects over; ``model``, ``_accel`` and
    ``oracle`` are never touched, so this is the bypass workload for oracle
    and optimizer changes.  The sweep ranges are the input; the seed picks
    nothing because every other choice changes the amount of work.
    """
    n1, n2 = ("12", "8") if smoke else ("300", "40")
    return [
        ["figure1", "--n-min", "4", "--n-max", n1, "--out", "figure1.csv"],
        ["figure2", "--n-min", "3", "--n-max", n2, "--out", "figure2.csv"],
    ]


def oracle_dense(rng: random.Random, smoke: bool = False) -> list[list[str]]:
    """The dense Fock-space oracle on a few large states.

    ``oracle-check`` over its whole grid, then one functional eval each at an
    even and an odd mode count with a non-canonical split, which runs a
    golden-section search over the dense oracle.  The seed picks the split and
    the (eta, p) cell; the work of the dense path does not depend on them.
    """
    top, sizes = (5, (6, 5)) if smoke else (8, (10, 9))
    commands = [["oracle-check", "--n-min", "3", "--n-max", str(top)]]
    for n in sizes:
        commands.append([
            "eval", "--ineq", "functional", "--n", str(n),
            "--r", str(rng.randint(1, n // 2 - 1)),
            "--eta", rng.choice(("1.0", "0.9", "0.8")),
            "--p", rng.choice(("1.0", "0.9")),
        ])
    return commands


def free_function(rng: random.Random, smoke: bool = False) -> list[list[str]]:
    """The free-function optimizer: thousands of tiny oracle contractions.

    Per-call Python overhead dominates and ``critical`` does no work.  The
    inputs are fixed: the optimizer's iteration count, and so its cost, moves
    by 2-4x with ``--init`` and ``--eta``, so a seed-picked choice would
    measure the choice rather than the code.
    """
    sizes = ("4",) if smoke else ("6", "7")
    return [["optimize", "--n", n, "--init", "signbin", "--out", f"optimize-n{n}.csv"]
            for n in sizes]


WORKLOADS = {"thresholds": thresholds, "oracle_dense": oracle_dense,
             "free_function": free_function}


# ---------------------------------------------------------------------------
# running children
# ---------------------------------------------------------------------------

@dataclass
class Op:
    """One ``cvbell`` invocation and what came of it."""

    argv: list[str]
    wall_s: float
    peak_rss_mb: float
    exit_code: int
    stdout: str
    error: str | None = None


@dataclass
class Pass:
    wall_s: float
    ops: list[Op]


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def run_child(cmd: list[str], cwd: Path, tag: str) -> tuple[float, float, int, str]:
    """Run one child to completion: (wall s, peak RSS MB, exit code, stdout).

    ``os.wait4`` gives this child's own peak RSS; ``RUSAGE_CHILDREN`` would
    keep the high-water mark of every child reaped so far.
    """
    out_path, err_path = cwd / f"{tag}.out", cwd / f"{tag}.err"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=cwd, env=child_env(), stdin=subprocess.DEVNULL,
                                stdout=out, stderr=err)
        killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
        finally:
            killer.cancel()
        wall = time.perf_counter() - t0
    return wall, usage.ru_maxrss / 1024.0, proc.returncode, out_path.read_text(encoding="utf-8")


def run_op(argv: list[str], cwd: Path, tag: str, spans_path: Path | None = None) -> Op:
    if spans_path is None:
        cmd = [sys.executable, "-c", ENTRY, *argv]
    else:
        cmd = [sys.executable, str(HERE / "tracer.py"), str(spans_path), "--", *argv]
    wall, rss, code, stdout = run_child(cmd, cwd, tag)
    return Op(argv, wall, rss, code, stdout)


class CheckerProcess:
    """The checks of ``checks.py``, run in a process of their own.

    Keeping numpy and the package out of this process keeps it small, which
    matters because a child's ``wait4`` peak RSS counts the memory of the
    process it was forked from.
    """

    def __init__(self):
        self._proc = subprocess.Popen(
            [sys.executable, str(HERE / "checks.py")], cwd=ROOT, env=child_env(),
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        if self._proc.stdout.readline() != "ready\n":
            self.close()
            raise RuntimeError("the check process did not start")

    def check(self, op: Op, cwd: Path) -> None:
        """Fill ``op.error`` if the exit code or the output is wrong."""
        if op.exit_code != 0:
            op.error = f"exit code {op.exit_code}"
            return
        request = {"argv": op.argv, "stdout": op.stdout, "cwd": str(cwd)}
        self._proc.stdin.write(json.dumps(request) + "\n")
        self._proc.stdin.flush()
        reply = self._proc.stdout.readline()
        if not reply:
            raise RuntimeError("the check process exited")
        op.error = json.loads(reply)["error"]

    def close(self) -> None:
        self._proc.stdin.close()
        self._proc.wait(timeout=CHILD_TIMEOUT_S)
        self._proc.stdout.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def run_pass(commands, cwd: Path, checker, traced: bool = False) -> Pass:
    """Run the list once, timing the whole pass; checks run after the clock stops."""
    ops = []
    t0 = time.perf_counter()
    for i, argv in enumerate(commands):
        spans = cwd / f"spans-{i}.json" if traced else None
        ops.append(run_op(argv, cwd, f"op{i}", spans))
    result = Pass(time.perf_counter() - t0, ops)
    for op in ops:
        checker.check(op, cwd)
    return result


def setup_start(cwd: Path, checker) -> Op:
    op = run_op(list(SETUP_ARGV), cwd, "setup")
    checker.check(op, cwd)
    return op


def closed_loop(commands, seconds: float, cwd: Path, checker,
                with_setup: bool) -> tuple[list[Pass], list[Op]]:
    """Repeat passes until the next one would overrun ``seconds``.

    With ``with_setup`` every pass is followed by one timed setup start, so
    set-up time is sampled over the same stretch as the passes: on a shared
    host the speed drifts by tens of percent over tens of seconds, and a
    burst of starts at one moment would measure the moment.
    """
    passes, starts = [], []
    t0 = time.perf_counter()
    while True:
        passes.append(run_pass(commands, cwd, checker))
        if with_setup:
            starts.append(setup_start(cwd, checker))
        elapsed = time.perf_counter() - t0
        if elapsed + elapsed / len(passes) > seconds:
            return passes, starts


# ---------------------------------------------------------------------------
# provenance and reporting
# ---------------------------------------------------------------------------

def provenance() -> dict:
    blas = subprocess.run(
        [sys.executable, "-c", "import numpy; "
         "print(numpy.show_config(mode='dicts')['Build Dependencies']['blas']['name'])"],
        capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
    ).stdout.strip() or "unknown"
    env = {k: v for k, v in os.environ.items()
           if k == "CVBELL_NUMBA" or k.endswith("_NUM_THREADS")}
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)), timeout=10,
        ).stdout.strip() or "unknown (not a git checkout)"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown (git not available)"
    return {
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "blas": blas,
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "env": env,
        "git_commit": commit,
        "platform": platform.platform(),
    }


def spread(values: list[float]) -> str:
    if len(values) < 2:
        return f"n={len(values)}"
    q1, _, q3 = statistics.quantiles(values, n=4)
    return f"q1={q1:.4f} q3={q3:.4f} n={len(values)}"


def run_micro() -> dict:
    proc = subprocess.run([sys.executable, str(HERE / "micro.py")], cwd=ROOT, env=child_env(),
                          capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"micro.py failed:\n{proc.stderr}")
    sys.stderr.write(proc.stderr)
    return json.loads(proc.stdout.splitlines()[-1])


def span_totals(cwd: Path, count: int):
    """Sum the span files of a traced pass of ``count`` commands."""
    from spans import LayerTotals

    totals = LayerTotals()
    for i in range(count):
        path = cwd / f"spans-{i}.json"
        if path.is_file():  # a child that died early counts as a failed operation
            with open(path, encoding="utf-8") as fh:
                totals.add(json.load(fh))
    return totals


def layer_metrics(traced: Pass, reference: list[Pass], cwd: Path, micro: dict) -> dict:
    metrics = span_totals(cwd, len(traced.ops)).metrics()
    untraced = statistics.median(p.wall_s for p in reference)
    metrics["trace.overhead_s"] = (traced.wall_s - untraced, "s")
    for name, t in micro["timings"].items():
        metrics[f"{name}.median_us"] = (t["median_s"] * 1e6, "us")
        metrics[f"{name}.iqr_us"] = (t["iqr_s"] * 1e6, "us")
        metrics[f"{name}.repeats"] = (t["repeats"], "count")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Layered benchmark of the cvbell CLI")
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "cvbell" / "cli.py").is_file():
        print(f"perfbench: no cvbell sources at {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    cwd = WORK / args.workload
    shutil.rmtree(cwd, ignore_errors=True)
    cwd.mkdir(parents=True)
    commands = WORKLOADS[args.workload](random.Random(args.seed))
    prov = provenance()
    print("provenance: " + json.dumps(prov, sort_keys=True))
    for argv in commands:
        print("command: cvbell " + " ".join(argv))

    with CheckerProcess() as checker:
        # one untimed start first: it pays a fresh checkout's cold file cache
        # and byte-compiling
        warmup = [] if args.trace else [setup_start(cwd, checker)]
        # a traced run spends half its time on the untraced reference, so that
        # with the traced pass and the per-call timings it lasts about as long
        # as an untraced run
        reference_s = args.seconds / 2 if args.trace else args.seconds
        passes, starts = closed_loop(commands, reference_s, cwd, checker, not args.trace)
        ops = warmup + starts + [op for p in passes for op in p.ops]

        if args.trace:
            traced = run_pass(commands, cwd, checker, traced=True)
            ops += traced.ops
            micro = run_micro()
            metrics = layer_metrics(traced, passes, cwd, micro)
            print(f"contraction backend: {micro['backend']}")
        else:
            walls = [p.wall_s for p in passes]
            rss = [max(op.peak_rss_mb for op in p.ops) for p in passes]
            setup = [op.wall_s for op in starts]
            print(f"pass wall s: {spread(walls)}; setup s: {spread(setup)}")
            metrics = {
                "wall_s": (statistics.median(walls), "s"),
                "peak_rss_mb": (statistics.median(rss), "MB"),
                "setup_s": (statistics.median(setup), "s"),
            }

    failed = [op for op in ops if op.error]
    for op in failed:
        print(f"FAILED: cvbell {' '.join(op.argv)}: {op.error}")
    print(f"{'fail_share':44s} {len(failed) / len(ops):14.6g} ratio  "
          f"({len(failed)} of {len(ops)} operations)")
    for name, (value, unit) in metrics.items():
        print(f"{name:44s} {value:14.6g} {unit}")

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "provenance": prov, "commands": commands,
        "operations": [{"argv": op.argv, "wall_s": op.wall_s, "peak_rss_mb": op.peak_rss_mb,
                        "exit_code": op.exit_code, "error": op.error} for op in ops],
        "pass_wall_s": [p.wall_s for p in passes],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    result_path = WORK / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    result_path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(json.dumps({
        "correct": not failed,
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
