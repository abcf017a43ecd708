"""Command-line front end.

Subcommands
-----------
eval          closed-form Bell observable at any split r, JSON on stdout
figure1       CSV of maximal violations vs mode count (optimized and plain)
figure2       CSV of critical efficiency / purity curves per inequality
oracle-check  closed-form vs Fock-space agreement report (nonzero exit on breach)
optimize      free-function optimization vs the closed-form root, CSV + JSON

All file outputs are deterministic: floats at 12 significant digits, plus a
``<out>.meta.json`` sidecar echoing the configuration and the package
version.  Every file goes through one writer, ``_write``: UTF-8 with LF line
endings, streamed line by line to ``<out>.part``, which replaces ``<out>``
only after its last line, so a failing command leaves no partial file.

Each subcommand imports the modules it runs when it is called, so a command
loads and compiles only those: ``eval --ineq mk`` never loads the functional
closed forms, the oracle, the thresholds or the optimizer.  Only the parser,
``errors`` and ``quadrature`` (for the order defaults) load with this module.
Every subcommand computes in plain floats and complex numbers, and none
loads numpy.  The functions that ``eval``, ``figure1``, ``figure2`` and
``oracle-check`` integrate have exact kernel integrals, so they build no
rule and take no ``--order``, except that ``eval`` still validates it and
records it in its JSON; ``optimize`` builds the rule of its ``--order``.
``oracle-check`` builds each N's binned site operators once, through
``oracle``'s split of ``mk_evaluate``, and contracts them with the state of
every (eta, p) cell.
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


def _csv(header, rows):
    """The lines of a CSV table: the header, then one line per row."""
    yield ",".join(header)
    for row in rows:
        yield ",".join(_fmt(v) for v in row)


def _json(record: dict) -> str:
    return json.dumps(record, indent=2, sort_keys=True)


def _write(path: Path, lines) -> int:
    """Write ``lines``, each as it comes, UTF-8 with an LF ending, to
    ``<path>.part`` and rename that over ``path`` after the last one; return
    their number.  On any failure the ``.part`` is deleted and ``path``
    keeps what it held."""
    part = path.with_name(path.name + ".part")
    count = 0
    try:
        with open(part, "w", encoding="utf-8", newline="\n") as fh:
            for line in lines:
                fh.write(line + "\n")
                count += 1
        part.replace(path)
    except BaseException:
        part.unlink(missing_ok=True)
        raise
    return count


def _write_sidecar(path: Path, config: dict) -> None:
    """``<path>.meta.json``: the subcommand (the parser's ``command``), its
    configuration and the package version."""
    meta = {
        "command": config["command"],
        "config": {k: v for k, v in config.items() if not callable(v)},
        "package_version": __version__,
    }
    _write(path.with_name(path.name + ".meta.json"), [_json(meta)])


# ---------------------------------------------------------------------------
# eval
# ---------------------------------------------------------------------------

def _cmd_eval(args) -> int:
    from .scenario import StateSpec, canonical_split

    if args.n < 2:
        raise ValueError(f"--n must be at least 2, got {args.n}")
    check_order(args.order)  # recorded, not read
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

        res = (bell_value if args.ineq == "functional" else cfrd_bell_value)(spec)
        payload.update(
            function=res.function_id, lhs=res.lhs, rhs=res.rhs, ratio=res.ratio
        )
    else:
        from .mk_binning import mk_bell_value

        b = mk_bell_value(spec)
        payload.update(function="sign_bin", s_value=b, bound=1.0, ratio=b)
    payload["violated"] = bool(payload["ratio"] > 1.0)

    text = _json(payload)
    print(text)
    if args.out:
        out = Path(args.out)
        if args.format == "json":
            _write(out, [text])
        else:
            keys = sorted(payload)
            _write(out, _csv(keys, [tuple(payload[k] for k in keys)]))
        _write_sidecar(out, vars(args) | {"r": r})
    return 0


# ---------------------------------------------------------------------------
# figure1
# ---------------------------------------------------------------------------

def _cmd_figure1(args) -> int:
    from .functional_bell import bell_value, cfrd_bell_value
    from .scenario import StateSpec, canonical_split

    if args.n_min < 2 or args.n_max < args.n_min:
        raise ValueError(f"invalid mode-count range [{args.n_min}, {args.n_max}]")
    specs = (StateSpec(n_modes=n, r_split=canonical_split(n))
             for n in range(args.n_min, args.n_max + 1))
    rows = ((s.n_modes, bell_value(s).ratio, cfrd_bell_value(s).ratio) for s in specs)
    out = Path(args.out)
    count = _write(out, _csv(["N", "B_optimal", "B_cfrd"], rows)) - 1
    _write_sidecar(out, vars(args))
    print(f"wrote {out} ({count} rows)")
    return 0


# ---------------------------------------------------------------------------
# figure2
# ---------------------------------------------------------------------------

def _cmd_figure2(args) -> int:
    from .critical import critical_efficiency, critical_purity

    if args.n_min < 2 or args.n_max < args.n_min:
        raise ValueError(f"invalid mode-count range [{args.n_min}, {args.n_max}]")
    inequalities = ("functional", "cfrd", "mk") if args.ineq == "all" else (args.ineq,)

    def rows():
        for ineq in inequalities:
            for n in range(args.n_min, args.n_max + 1):
                # the purity closed form names an N beyond the float range first
                p_c = critical_purity(n, 1.0, ineq)
                eta_c = critical_efficiency(n, 1.0, ineq)
                missing = "+".join(name for name, c in (("eta", eta_c), ("p", p_c)) if c is None)
                yield ineq, n, "" if eta_c is None else eta_c, "" if p_c is None else p_c, missing

    out = Path(args.out)
    count = _write(out, _csv(["inequality", "N", "eta_crit", "p_crit", "no_violation"],
                             rows())) - 1
    _write_sidecar(out, vars(args))
    print(f"wrote {out} ({count} rows)")
    return 0


# ---------------------------------------------------------------------------
# oracle-check
# ---------------------------------------------------------------------------

def _oracle_check_cells(n_min, n_max, perturb_eps):
    """Yield (label, closed, oracle) per grid cell; the binned site
    operators depend only on the angles and are built once per N.  An N
    whose closed-form bound side leaves the float range is named before
    its O(N) angles, operators and states are built."""
    from .functional_bell import _bound_scale, cfrd_bell_value, closed_form_sides, optimal_epsilon
    from .mk_binning import mk_bell_value
    from .model import density_matrix
    from .oracle import _mk_correlators, _mk_value, evaluate, mk_optimal_angles, orthogonal_angles
    from .quadrature import Identity, Optimal, kernel_integrals
    from .scenario import StateSpec, canonical_split

    etas = (1.0, 0.9, 0.8)
    ps = (1.0, 0.9)
    ident = Identity()
    for n in range(n_min, n_max + 1):
        _bound_scale(n)
        r = canonical_split(n)
        angles = orthogonal_angles(n, r)
        mk_ops = _mk_correlators(mk_optimal_angles(n, r))
        for eta in etas:
            # the function and its shift depend on the efficiency, not the purity
            eps_opt = optimal_epsilon(n, r, eta)
            f = Optimal(eps_opt)
            shifted = eps_opt + perturb_eps
            if not shifted > 0.0:
                raise ValueError(f"--perturb-eps {perturb_eps:g} shifts epsilon at "
                                 f"functional n={n} eta={eta} p={ps[0]} to {shifted:.12g}, "
                                 f"which is not positive")
            shifted_integrals = kernel_integrals(Optimal(shifted))
            for p in ps:
                spec = StateSpec(n_modes=n, r_split=r, purity=p, efficiency=eta)
                rho = density_matrix(spec)

                lhs, rhs = closed_form_sides(n, r, eta, p, shifted_integrals)
                orc = evaluate(rho, f, f, angles).ratio
                yield (f"functional n={n} eta={eta} p={p}", lhs / rhs, orc)

                closed_c = cfrd_bell_value(spec).ratio
                orc_c = evaluate(rho, ident, ident, angles).ratio
                yield (f"cfrd n={n} eta={eta} p={p}", closed_c, orc_c)

                yield (f"mk n={n} eta={eta} p={p}", mk_bell_value(spec), _mk_value(rho, mk_ops))


def _cmd_oracle_check(args) -> int:
    from .model import density_matrix
    from .oracle import mk_evaluate, mk_optimal_angles
    from .scenario import StateSpec

    if not 3 <= args.n_min <= args.n_max:
        raise ValueError(f"invalid mode-count range [{args.n_min}, {args.n_max}]; n >= 3")
    if not abs(args.perturb_eps) < float("inf"):
        raise ValueError(f"--perturb-eps must be finite, got {args.perturb_eps}")
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
    svals = [mk_evaluate(density_matrix(s), mk_optimal_angles(3, s.r_split)) for s in spec3]
    spread = max(svals) - min(svals)
    lines.append(f"mk r-sweep n=3: values={[f'{v:.12g}' for v in svals]} spread={spread:.3e}")

    ok = worst <= ORACLE_CHECK_TOL and spread <= MK_RSWEEP_TOL
    lines.append(f"max relative deviation: {worst:.3e} ({worst_label})")
    lines.append("status: " + ("OK" if ok else f"BREACH (tolerance {ORACLE_CHECK_TOL:g})"))
    print("\n".join(lines))
    if args.out:
        _write(Path(args.out), lines)
        _write_sidecar(Path(args.out), vars(args))
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
    _write(out, _csv(["node", "f_value"], zip(rule.half_nodes, best)))
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
    text = _json(summary)
    _write(out.with_name(out.name + ".summary.json"), [text])
    _write_sidecar(out, vars(args) | {"r": r})
    print(text)
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

    p_eval = sub.add_parser("eval", help="evaluate one scenario")
    p_eval.add_argument("--ineq", choices=("functional", "cfrd", "mk"), required=True)
    p_eval.add_argument("--n", type=int, required=True)
    p_eval.add_argument("--r", type=int, default=None)
    p_eval.add_argument("--eta", type=float, default=1.0)
    p_eval.add_argument("--p", type=float, default=1.0)
    p_eval.add_argument("--format", choices=("csv", "json"), default="json")
    p_eval.add_argument("--out", default=None)
    p_eval.add_argument("--order", type=int, default=DEFAULT_ORDER,
                        help="quadrature order: validated and recorded, but the functions "
                             "have exact kernel integrals, so no rule is built "
                             f"(default {DEFAULT_ORDER})")
    p_eval.set_defaults(func=_cmd_eval)

    p_f1 = sub.add_parser("figure1", help="violation growth with mode count")
    p_f1.add_argument("--n-min", type=int, default=4)
    p_f1.add_argument("--n-max", type=int, default=20)
    p_f1.add_argument("--out", default="figure1.csv")
    p_f1.set_defaults(func=_cmd_figure1)

    p_f2 = sub.add_parser("figure2", help="critical efficiency and purity curves")
    p_f2.add_argument("--n-min", type=int, default=3)
    p_f2.add_argument("--n-max", type=int, default=20)
    p_f2.add_argument("--ineq", choices=("all", "functional", "cfrd", "mk"), default="all")
    p_f2.add_argument("--out", default="figure2.csv")
    p_f2.set_defaults(func=_cmd_figure2)

    p_oc = sub.add_parser("oracle-check", help="closed-form vs Fock-space report")
    p_oc.add_argument("--n-min", type=int, default=3)
    p_oc.add_argument("--n-max", type=int, default=6)
    p_oc.add_argument("--perturb-eps", type=float, default=0.0,
                      help="shift the closed form's function parameter (sensitivity test)")
    p_oc.add_argument("--out", default=None)
    p_oc.set_defaults(func=_cmd_oracle_check)

    p_opt = sub.add_parser("optimize", help="free-function optimization")
    p_opt.add_argument("--n", type=int, default=6)
    p_opt.add_argument("--r", type=int, default=None)
    p_opt.add_argument("--eta", type=float, default=1.0)
    p_opt.add_argument("--p", type=float, default=1.0)
    p_opt.add_argument("--init", choices=("identity", "signbin"), default="identity")
    p_opt.add_argument("--out", default="optimize.csv")
    p_opt.add_argument("--order", type=int, default=QUICK_ORDER,
                       help="quadrature order: the number of nodes that sample the free "
                            f"function (default {QUICK_ORDER})")
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
