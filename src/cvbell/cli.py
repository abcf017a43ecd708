"""Command-line front end.

Subcommands
-----------
eval          closed-form Bell observable at any split r, JSON on stdout
figure1       CSV of maximal violations vs mode count (optimized and plain)
figure2       CSV of critical efficiency / purity curves per inequality
oracle-check  closed-form vs Fock-space agreement report (nonzero exit on breach)
optimize      free-function optimization vs the closed-form root, CSV + JSON

All file outputs are deterministic: floats at 12 significant digits, LF line
endings, plus a ``<out>.meta.json`` sidecar echoing the configuration, the
quadrature order and the package version.

Each subcommand imports the modules it runs when it is called, so a command
loads and compiles only those: ``eval --ineq mk`` never loads the functional
closed forms, the oracle, the thresholds or the optimizer.  Only the parser,
``errors`` and ``quadrature`` (for the order defaults) load with this module.
Every subcommand computes in plain floats and complex numbers at every
``--order``, and none loads numpy.  The functions that ``eval``, ``figure1``,
``figure2`` and ``oracle-check`` integrate have exact kernel integrals, so
they validate and record ``--order`` but build no rule; ``optimize`` does.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import __version__
from .errors import ConvergenceError
from .quadrature import DEFAULT_ORDER, QUICK_ORDER, check_order

ORACLE_CHECK_TOL = 1e-6
MK_RSWEEP_TOL = 1e-8


def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.12g}"
    return str(value)


def _write_csv(path: Path, header, rows) -> None:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")


def _write_sidecar(path: Path, command: str, config: dict) -> None:
    meta = {
        "command": command,
        "config": {k: v for k, v in config.items()
                   if k != "func" and not callable(v)},
        "package_version": __version__,
    }
    side = path.with_name(path.name + ".meta.json")
    side.write_text(json.dumps(meta, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def _check_integrating_order(order) -> None:
    """Validate ``order`` for a command that integrates odd functions."""
    if check_order(order) == 1:
        raise ValueError("--order 1 has its only node at x = 0, where every odd "
                         "function vanishes; use --order 2 or more")


# ---------------------------------------------------------------------------
# eval
# ---------------------------------------------------------------------------

def _cmd_eval(args) -> int:
    from .scenario import StateSpec, canonical_split

    if args.n < 2:
        raise ValueError(f"--n must be at least 2, got {args.n}")
    check_order(args.order)  # recorded for every inequality; mk integrates no function
    r = args.r if args.r is not None else canonical_split(args.n)
    spec = StateSpec(n_modes=args.n, r_split=r, purity=args.p, efficiency=args.eta)
    payload = {
        "inequality": args.ineq,
        "n": args.n,
        "r": r,
        "eta": args.eta,
        "p": args.p,
        "order": args.order,
    }
    if args.ineq in ("functional", "cfrd"):
        from .functional_bell import bell_value, cfrd_bell_value

        _check_integrating_order(args.order)
        res = (bell_value if args.ineq == "functional" else cfrd_bell_value)(spec)
        payload.update(
            function=res.function_id, lhs=res.lhs, rhs=res.rhs, ratio=res.ratio
        )
    else:
        from .mk_binning import mk_bell_value

        b = mk_bell_value(spec)
        payload.update(function="sign_bin", s_value=b, bound=1.0, ratio=b)
    payload["violated"] = bool(payload["ratio"] > 1.0)

    text = json.dumps(payload, indent=2, sort_keys=True)
    print(text)
    if args.out:
        out = Path(args.out)
        if args.format == "json":
            out.write_text(text + "\n", encoding="utf-8")
        else:
            keys = sorted(payload)
            _write_csv(out, keys, [tuple(payload[k] for k in keys)])
        _write_sidecar(out, "eval", vars(args) | {"r": r})
    return 0


# ---------------------------------------------------------------------------
# figure1
# ---------------------------------------------------------------------------

def _cmd_figure1(args) -> int:
    from .functional_bell import bell_value, cfrd_bell_value
    from .scenario import StateSpec, canonical_split

    if args.n_min < 2 or args.n_max < args.n_min:
        raise ValueError(f"invalid mode-count range [{args.n_min}, {args.n_max}]")
    _check_integrating_order(args.order)
    rows = []
    for n in range(args.n_min, args.n_max + 1):
        spec = StateSpec(n_modes=n, r_split=canonical_split(n))
        b_opt = bell_value(spec).ratio
        b_cfrd = cfrd_bell_value(spec).ratio
        rows.append((n, b_opt, b_cfrd))
    out = Path(args.out)
    _write_csv(out, ["N", "B_optimal", "B_cfrd"], rows)
    _write_sidecar(out, "figure1", vars(args))
    print(f"wrote {out} ({len(rows)} rows)")
    return 0


# ---------------------------------------------------------------------------
# figure2
# ---------------------------------------------------------------------------

def _cmd_figure2(args) -> int:
    from .critical import thresholds

    if args.n_min < 2 or args.n_max < args.n_min:
        raise ValueError(f"invalid mode-count range [{args.n_min}, {args.n_max}]")
    # the binned thresholds integrate no function
    (check_order if args.ineq == "mk" else _check_integrating_order)(args.order)
    inequalities = ("functional", "cfrd", "mk") if args.ineq == "all" else (args.ineq,)
    rows = []
    for ineq in inequalities:
        for n in range(args.n_min, args.n_max + 1):
            eta_c, p_c = thresholds(n, ineq)
            missing = []
            if eta_c is None:
                missing.append("eta")
            if p_c is None:
                missing.append("p")
            rows.append((
                ineq,
                n,
                "" if eta_c is None else eta_c,
                "" if p_c is None else p_c,
                "+".join(missing) if missing else "",
            ))
    out = Path(args.out)
    _write_csv(out, ["inequality", "N", "eta_crit", "p_crit", "no_violation"], rows)
    _write_sidecar(out, "figure2", vars(args))
    print(f"wrote {out} ({len(rows)} rows)")
    return 0


# ---------------------------------------------------------------------------
# oracle-check
# ---------------------------------------------------------------------------

def _oracle_check_cells(n_min, n_max, perturb_eps):
    """Yield (label, closed, oracle, rel_deviation) per grid cell."""
    from .functional_bell import cfrd_bell_value, closed_form_sides, optimal_epsilon
    from .mk_binning import mk_bell_value, mk_evaluate, mk_optimal_angles
    from .model import density_matrix
    from .oracle import evaluate, orthogonal_angles
    from .quadrature import Identity, Optimal, kernel_integrals
    from .scenario import StateSpec, canonical_split

    etas = (1.0, 0.9, 0.8)
    ps = (1.0, 0.9)
    ident = Identity()
    for n in range(n_min, n_max + 1):
        r = canonical_split(n)
        angles = orthogonal_angles(n, r)
        mk_angles = mk_optimal_angles(n, r)
        for eta in etas:
            # the function and its shift depend on the efficiency, not the purity
            eps_opt = optimal_epsilon(n, r, eta)
            f = Optimal(eps_opt)
            shifted = eps_opt + perturb_eps
            for p in ps:
                spec = StateSpec(n_modes=n, r_split=r, purity=p, efficiency=eta)
                rho = density_matrix(spec)

                label = f"functional n={n} eta={eta} p={p}"
                if not shifted > 0.0:
                    raise ValueError(f"--perturb-eps {perturb_eps:g} shifts epsilon at "
                                     f"{label} to {shifted:.12g}, which is not positive")
                lhs, rhs = closed_form_sides(n, r, eta, p, kernel_integrals(Optimal(shifted)))
                closed = lhs / rhs
                orc = evaluate(rho, f, f, angles).ratio
                yield (label, closed, orc)

                closed_c = cfrd_bell_value(spec).ratio
                orc_c = evaluate(rho, ident, ident, angles).ratio
                yield (f"cfrd n={n} eta={eta} p={p}", closed_c, orc_c)

                closed_m = mk_bell_value(spec)
                orc_m = mk_evaluate(rho, mk_angles).s_value
                yield (f"mk n={n} eta={eta} p={p}", closed_m, orc_m)


def _cmd_oracle_check(args) -> int:
    from .mk_binning import mk_evaluate, mk_optimal_angles
    from .model import density_matrix
    from .scenario import StateSpec

    if not 3 <= args.n_min <= args.n_max:
        raise ValueError(f"invalid mode-count range [{args.n_min}, {args.n_max}]; n >= 3")
    if not abs(args.perturb_eps) < float("inf"):
        raise ValueError(f"--perturb-eps must be finite, got {args.perturb_eps}")
    _check_integrating_order(args.order)
    lines = []
    worst = 0.0
    worst_label = ""
    for label, closed, orc in _oracle_check_cells(args.n_min, args.n_max, args.perturb_eps):
        rel = abs(closed - orc) / abs(orc)
        if rel > worst:
            worst, worst_label = rel, label
        lines.append(f"{label}: closed={closed:.12g} oracle={orc:.12g} rel={rel:.3e}")

    # split-independence of the binned value, exercised across every r
    spec3 = [StateSpec(n_modes=3, r_split=r) for r in (1, 2, 3)]
    svals = [
        mk_evaluate(density_matrix(s), mk_optimal_angles(3, s.r_split)).s_value
        for s in spec3
    ]
    spread = max(svals) - min(svals)
    lines.append(f"mk r-sweep n=3: values={[f'{v:.12g}' for v in svals]} spread={spread:.3e}")

    ok = worst <= ORACLE_CHECK_TOL and spread <= MK_RSWEEP_TOL
    lines.append(f"max relative deviation: {worst:.3e} ({worst_label})")
    lines.append("status: " + ("OK" if ok else f"BREACH (tolerance {ORACLE_CHECK_TOL:g})"))
    report = "\n".join(lines)
    print(report)
    if args.out:
        Path(args.out).write_text(report + "\n", encoding="utf-8")
        _write_sidecar(Path(args.out), "oracle-check", vars(args))
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# optimize
# ---------------------------------------------------------------------------

def _cmd_optimize(args) -> int:
    from .functional_bell import optimal_epsilon
    from .quadrature import Identity, SignBin, gauss_hermite_rule
    from .scenario import StateSpec, canonical_split
    from .variational import family_integrals, optimize_function

    if args.n < 2:
        raise ValueError(f"--n must be at least 2, got {args.n}")
    if args.order < 4:
        raise ValueError(
            f"--order must be at least 4 (one node value beyond the gauge), got {args.order}"
        )
    if args.p == 0.0:
        raise ValueError("--p must be positive: at purity 0 the ratio vanishes")
    rule = gauss_hermite_rule(args.order)
    r = args.r if args.r is not None else canonical_split(args.n)
    spec = StateSpec(n_modes=args.n, r_split=r, purity=args.p, efficiency=args.eta)
    init = SignBin() if args.init == "signbin" else Identity()

    status = 0
    updates = []
    try:
        eps, best, ratio, residual = optimize_function(spec, rule, init,
                                                       iteration_callback=updates.append)
    except ConvergenceError as exc:
        (eps, best, ratio), residual = exc.best, exc.residual
        status = 1
        print(f"warning: {exc}", file=sys.stderr)

    # the closed-form optimum on the rule's sums, where the optimizer lands
    eps_ref = optimal_epsilon(args.n, r, args.eta, integrals=family_integrals(rule))

    out = Path(args.out)
    _write_csv(out, ["node", "f_value"], zip(rule.half_nodes, best))
    summary = {
        "n": args.n,
        "r": r,
        "eta": args.eta,
        "p": args.p,
        "order": args.order,
        "ratio": ratio,
        "epsilon": eps,
        "reference_epsilon": eps_ref,
        "epsilon_deviation": abs(eps - eps_ref),
        "converged": status == 0,
        "updates": len(updates),
        "stationarity_residual": residual,
    }
    side = out.with_name(out.name + ".summary.json")
    side.write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    _write_sidecar(out, "optimize", vars(args) | {"r": r})
    print(json.dumps(summary, indent=2, sort_keys=True))
    return status


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cvbell",
        description="Multipartite continuous-variable Bell observables and thresholds",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_order(p, default=DEFAULT_ORDER):
        p.add_argument("--order", type=int, default=default,
                       help=f"quadrature order (default {default})")

    p_eval = sub.add_parser("eval", help="evaluate one scenario")
    p_eval.add_argument("--ineq", choices=("functional", "cfrd", "mk"), required=True)
    p_eval.add_argument("--n", type=int, required=True)
    p_eval.add_argument("--r", type=int, default=None)
    p_eval.add_argument("--eta", type=float, default=1.0)
    p_eval.add_argument("--p", type=float, default=1.0)
    p_eval.add_argument("--format", choices=("csv", "json"), default="json")
    p_eval.add_argument("--out", default=None)
    add_order(p_eval)
    p_eval.set_defaults(func=_cmd_eval)

    p_f1 = sub.add_parser("figure1", help="violation growth with mode count")
    p_f1.add_argument("--n-min", type=int, default=4)
    p_f1.add_argument("--n-max", type=int, default=20)
    p_f1.add_argument("--out", default="figure1.csv")
    add_order(p_f1)
    p_f1.set_defaults(func=_cmd_figure1)

    p_f2 = sub.add_parser("figure2", help="critical efficiency and purity curves")
    p_f2.add_argument("--n-min", type=int, default=3)
    p_f2.add_argument("--n-max", type=int, default=20)
    p_f2.add_argument("--ineq", choices=("all", "functional", "cfrd", "mk"), default="all")
    p_f2.add_argument("--out", default="figure2.csv")
    add_order(p_f2)
    p_f2.set_defaults(func=_cmd_figure2)

    p_oc = sub.add_parser("oracle-check", help="closed-form vs Fock-space report")
    p_oc.add_argument("--n-min", type=int, default=3)
    p_oc.add_argument("--n-max", type=int, default=6)
    p_oc.add_argument("--perturb-eps", type=float, default=0.0,
                      help="shift the closed form's function parameter (sensitivity test)")
    p_oc.add_argument("--out", default=None)
    add_order(p_oc)
    p_oc.set_defaults(func=_cmd_oracle_check)

    p_opt = sub.add_parser("optimize", help="free-function optimization")
    p_opt.add_argument("--n", type=int, default=6)
    p_opt.add_argument("--r", type=int, default=None)
    p_opt.add_argument("--eta", type=float, default=1.0)
    p_opt.add_argument("--p", type=float, default=1.0)
    p_opt.add_argument("--init", choices=("identity", "signbin"), default="identity")
    p_opt.add_argument("--out", default="optimize.csv")
    add_order(p_opt, default=QUICK_ORDER)
    p_opt.set_defaults(func=_cmd_optimize)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:
        parser.exit(2, f"{parser.prog}: error: {exc}\n")
    except Exception as exc:  # computation failure
        print(f"{parser.prog}: computation failed: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
