"""Output checks for each ``cvbell`` subcommand the workloads run.

Each check reaches the expected value by a different route than the command
it checks: evals found by the numeric epsilon search are recomputed from the
closed form at the reported epsilon, closed-form tables are compared with
the exact Fock-space oracle or with their analytic limits, and the optimizer
is held to acceptance criterion 6 (converged, epsilon within 1e-3).

Run as a script, it serves check requests: one JSON object per input line
(``argv``, ``stdout``, ``cwd``), one ``{"error": null | message}`` per output
line, after a first line ``ready``.  The benchmark keeps the checks in this separate process so that its
own process stays small: a child's peak RSS as ``wait4`` reports it includes
the memory of the process it was forked from.
"""

from __future__ import annotations

import csv
import json
import math
import re
import sys
from pathlib import Path

ORACLE_RTOL = 1e-6          # oracle-check's own tolerance
SIDES_RTOL = 1e-8           # closed form vs oracle at one epsilon (12-digit output)
BISECTION_ATOL = 2e-6       # figure2 bisects to 1e-6
EPSILON_DEVIATION_MAX = 1e-3
ORACLE_ROWS_MAX_N = 8


class CheckFailed(Exception):
    """An output disagrees with its independent reference."""


def _rel(a: float, b: float) -> float:
    return abs(a - b) / max(abs(b), 1e-300)


def _option(argv, flag: str, default=None):
    return argv[argv.index(flag) + 1] if flag in argv else default


class Checker:
    """Checks one operation's output; holds quadrature rules between calls."""

    def __init__(self):
        import cvbell

        self.cv = cvbell
        self._rules = {}

    def rule(self, order: int):
        if order not in self._rules:
            self._rules[order] = self.cv.gauss_hermite_rule(order)
        return self._rules[order]

    def check(self, argv, stdout: str, cwd: Path) -> None:
        """Raise CheckFailed unless the output of ``cvbell argv`` is right."""
        handler = {
            "eval": self._eval,
            "figure1": self._figure1,
            "figure2": self._figure2,
            "oracle-check": self._oracle_check,
            "optimize": self._optimize,
        }[argv[0]]
        handler(argv, stdout, cwd)

    # -- subcommands --

    def _eval(self, argv, stdout, cwd) -> None:
        out = json.loads(stdout)
        n, r, eta, p = out["n"], out["r"], out["eta"], out["p"]
        if out["inequality"] == "mk":
            expected = p * (math.sqrt(2.0) / 2.0) * (4.0 * eta / math.pi) ** (n / 2.0)
            if _rel(out["s_value"], expected) > SIDES_RTOL:
                raise CheckFailed(f"mk s_value {out['s_value']!r} != {expected!r}")
            ratio = out["s_value"]
        elif out["inequality"] == "functional":
            from cvbell.functional_bell import closed_form_sides

            match = re.fullmatch(r"optimal\(epsilon=(.+)\)", out["function"])
            if match is None:
                raise CheckFailed(f"unexpected function {out['function']!r}")
            ki = self.cv.kernel_integrals(self.cv.Optimal(float(match.group(1))),
                                          self.rule(out["order"]))
            lhs, rhs = closed_form_sides(n, r, eta, p, ki)
            for side, got, want in (("lhs", out["lhs"], lhs), ("rhs", out["rhs"], rhs)):
                if _rel(got, want) > SIDES_RTOL:
                    raise CheckFailed(f"functional {side} {got!r} != closed form {want!r}")
            ratio = out["lhs"] / out["rhs"]
        else:
            raise CheckFailed(f"no check for eval --ineq {out['inequality']}")
        if _rel(out["ratio"], ratio) > 1e-12:
            raise CheckFailed(f"ratio {out['ratio']!r} != {ratio!r}")
        if out["violated"] != (out["ratio"] > 1.0):
            raise CheckFailed("violated flag disagrees with the ratio")

    def _read_rows(self, argv, cwd, default_out: str) -> list[dict]:
        path = cwd / _option(argv, "--out", default_out)
        with open(path, newline="", encoding="utf-8") as fh:
            return list(csv.DictReader(fh))

    def _figure1(self, argv, stdout, cwd) -> None:
        cv = self.cv
        rows = self._read_rows(argv, cwd, "figure1.csv")
        n_min, n_max = int(_option(argv, "--n-min", 4)), int(_option(argv, "--n-max", 20))
        if [int(row["N"]) for row in rows] != list(range(n_min, n_max + 1)):
            raise CheckFailed("figure1 rows do not cover the requested N range")
        rule = self.rule(int(_option(argv, "--order", cv.DEFAULT_ORDER)))
        for row in rows:
            n, b_opt, b_cfrd = int(row["N"]), float(row["B_optimal"]), float(row["B_cfrd"])
            if (b_opt > 1.0) != (n >= 5) or (b_cfrd > 1.0) != (n >= 10):
                raise CheckFailed(f"figure1 onset wrong at N={n}: {b_opt!r}, {b_cfrd!r}")
            if n > ORACLE_ROWS_MAX_N:
                continue
            r = n // 2
            rho = cv.density_matrix(cv.StateSpec(n, r))
            angles = cv.orthogonal_angles(n, r)
            if n % 2 == 0:
                eps = cv.solve_epsilon_even(1.0, rule).epsilon_lossy
            else:
                eps = cv.solve_epsilon_odd(n, 1.0, rule).epsilon_odd
            f, ident = cv.Optimal(eps), cv.Identity()
            for label, got, fn in (("B_optimal", b_opt, f), ("B_cfrd", b_cfrd, ident)):
                want = cv.evaluate(rho, fn, fn, angles, rule).ratio
                if _rel(got, want) > ORACLE_RTOL:
                    raise CheckFailed(f"figure1 {label} at N={n}: {got!r} != oracle {want!r}")

    def _figure2(self, argv, stdout, cwd) -> None:
        rows = self._read_rows(argv, cwd, "figure2.csv")
        n_min, n_max = int(_option(argv, "--n-min", 3)), int(_option(argv, "--n-max", 20))
        ineqs = ("functional", "cfrd", "mk")
        expected = [(i, n) for i in ineqs for n in range(n_min, n_max + 1)]
        if [(row["inequality"], int(row["N"])) for row in rows] != expected:
            raise CheckFailed("figure2 rows do not cover the requested range")
        for row in rows:
            ineq, n = row["inequality"], int(row["N"])
            eta, p = row["eta_crit"], row["p_crit"]
            if ineq == "mk":
                # binned: B = 1 at eta = p^2 = 2^((1-2N)/N) pi
                want = 2.0 ** ((1.0 - 2.0 * n) / n) * math.pi
                if want > 1.0:
                    if eta or p or row["no_violation"] != "eta+p":
                        raise CheckFailed(f"figure2 mk N={n} should have no violation")
                elif abs(float(eta) - want) > BISECTION_ATOL or \
                        _rel(float(p), math.sqrt(want)) > 1e-10:
                    raise CheckFailed(f"figure2 mk N={n}: {eta}, {p} != {want!r}")
            else:
                onset = 5 if ineq == "functional" else 10
                if bool(eta) != (n >= onset) or bool(p) != (n >= onset):
                    raise CheckFailed(f"figure2 {ineq} onset wrong at N={n}")
                if eta and not (0.3 < float(eta) <= 1.0 and 0.0 < float(p) <= 1.0):
                    raise CheckFailed(f"figure2 {ineq} N={n} threshold out of range")

    def _oracle_check(self, argv, stdout, cwd) -> None:
        if stdout.rstrip().splitlines()[-1:] != ["status: OK"]:
            raise CheckFailed("oracle-check did not report status: OK")

    def _optimize(self, argv, stdout, cwd) -> None:
        out = json.loads(stdout)
        if out["converged"] is not True:
            raise CheckFailed("optimize did not converge")
        if not out["epsilon_deviation"] < EPSILON_DEVIATION_MAX:
            raise CheckFailed(f"optimize epsilon deviation {out['epsilon_deviation']!r}")


def serve(requests, replies) -> None:
    checker = Checker()
    replies.write("ready\n")
    replies.flush()
    for line in requests:
        req = json.loads(line)
        try:
            checker.check(req["argv"], req["stdout"], Path(req["cwd"]))
            error = None
        except (CheckFailed, ValueError, KeyError, IndexError, OSError) as exc:
            error = f"{type(exc).__name__}: {exc}"
        replies.write(json.dumps({"error": error}) + "\n")
        replies.flush()


if __name__ == "__main__":
    serve(sys.stdin, sys.stdout)
