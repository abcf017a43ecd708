"""Span arithmetic and the per-layer metrics derived from traced runs.

A span file is the columnar JSON written by ``tracer.py``: parallel lists
``name_id``, ``parent`` (index of the enclosing span, -1 at the root),
``start``, ``end`` and ``raised``, plus the ``names`` table and the boundary
``counters``.  Parents always precede their children, because a span gets its
index when its call starts.

Which end-to-end figure each layer metric should move, and where:

- ``accel.*`` (contraction calls, self time, computed bytes 16*4^N per call,
  nonzero share of the contracted states): ``wall_s`` on ``free_function``
  and ``oracle_dense``; nothing on ``thresholds``.
- ``model.density_matrix.*``: ``wall_s`` and ``peak_rss_mb`` on
  ``oracle_dense``; negligible on ``free_function`` (one state per optimize).
- ``oracle.*``: ``oracle_dense`` and ``free_function``.
- ``variational.*``: ``wall_s`` on ``free_function`` only.
- ``quadrature.kernel_integrals.*``, ``quadrature.integrate.calls``,
  ``functional_bell.*`` and ``critical.*``: ``wall_s`` on ``thresholds``;
  small on ``oracle_dense``; none on ``free_function``.
- ``mk_binning.*``: ``oracle_dense``.
- ``quadrature.gauss_hermite_rule.self_s`` and ``cli.<subcommand>.s``:
  ``setup_s`` and ``wall_s`` everywhere.
"""

from __future__ import annotations

from collections import defaultdict


def self_times(spans: dict) -> list[float]:
    """Duration of each span minus the part of its interval its children cover.

    Children of one call never overlap in a single-threaded run, but the union
    is taken anyway (and clipped to the parent) so the figure stays a share of
    wall time whatever the tree looks like.
    """
    start, end, parent = spans["start"], spans["end"], spans["parent"]
    children = defaultdict(list)
    for i, p in enumerate(parent):
        if p >= 0:
            children[p].append(i)
    out = []
    for i in range(len(start)):
        lo, hi = start[i], end[i]
        covered = 0.0
        reach = lo
        for c in sorted(children.get(i, ()), key=lambda c: start[c]):
            a, b = max(start[c], reach), min(end[c], hi)
            if b > a:
                covered += b - a
                reach = b
        out.append((hi - lo) - covered)
    return out


def inside(spans: dict, ancestors: set[str]) -> list[bool]:
    """Whether each span runs (at any depth) under a span named in ``ancestors``."""
    names, name_id, parent = spans["names"], spans["name_id"], spans["parent"]
    flags = []
    for i, p in enumerate(parent):
        flags.append(p >= 0 and (flags[p] or names[name_id[p]] in ancestors))
    return flags


# Ratios measured where the work happens: (metric, counted span, enclosing spans).
_NESTED = (
    ("variational.evaluate_per_optimize", "oracle.evaluate",
     {"variational.optimize_function"}),
    ("functional_bell.kernel_integrals_per_solve", "quadrature.kernel_integrals",
     {"functional_bell.solve_epsilon_even", "functional_bell.solve_epsilon_odd"}),
    ("critical.bell_ratio_per_threshold", "critical.bell_ratio",
     {"critical.critical_efficiency", "critical.critical_purity"}),
)


class LayerTotals:
    """Sums over the span files of one traced pass."""

    def __init__(self):
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.total_s = defaultdict(float)
        self.raised = defaultdict(int)
        self.nested = defaultdict(int)
        self.counters = defaultdict(int)
        self.spans = 0

    def add(self, spans: dict) -> None:
        names, name_id = spans["names"], spans["name_id"]
        own = self_times(spans)
        for i, nid in enumerate(name_id):
            name = names[nid]
            self.calls[name] += 1
            self.self_s[name] += own[i]
            self.total_s[name] += spans["end"][i] - spans["start"][i]
            self.raised[name] += spans["raised"][i]
        for metric, child, ancestors in _NESTED:
            flags = inside(spans, ancestors)
            self.nested[metric] += sum(
                1 for i, nid in enumerate(name_id) if flags[i] and names[nid] == child)
        for key, value in spans["counters"].items():
            self.counters[key] += value
        self.spans += len(name_id)

    def metrics(self) -> dict:
        """Per-layer metrics named as in BENCHMARK.json, as {name: (value, unit)}."""
        c, s = self.calls, self.self_s

        def per(num: float, den: float) -> float:
            return num / den if den else 0.0

        solves = c["functional_bell.solve_epsilon_even"] + c["functional_bell.solve_epsilon_odd"]
        thresholds = c["critical.critical_efficiency"] + c["critical.critical_purity"]
        optimizes = c["variational.optimize_function"]
        accel_elems = self.counters["_accel.tensor_expectation.elements"]
        out = {
            "accel.tensor_expectation.calls": (c["_accel.tensor_expectation"], "count"),
            "accel.tensor_expectation.self_s": (s["_accel.tensor_expectation"], "s"),
            "accel.bytes_computed": (16 * accel_elems, "B"),
            "accel.nonzero_share": (
                per(self.counters["_accel.tensor_expectation.nonzeros"], accel_elems), "ratio"),
            "model.density_matrix.calls": (c["model.density_matrix"], "count"),
            "model.density_matrix.self_s": (s["model.density_matrix"], "s"),
            "model.density_matrix.bytes_computed": (
                16 * self.counters["model.density_matrix.elements"], "B"),
            "oracle.evaluate.calls": (c["oracle.evaluate"], "count"),
            "oracle.evaluate.self_s": (s["oracle.evaluate"], "s"),
            "oracle.optimize_epsilon_numeric.self_s": (s["oracle.optimize_epsilon_numeric"], "s"),
            "variational.optimize_function.self_s": (s["variational.optimize_function"], "s"),
            "variational.evaluate_per_optimize": (
                per(self.nested["variational.evaluate_per_optimize"], optimizes), "count"),
            "variational.converged_share": (
                per(optimizes - self.raised["variational.optimize_function"], optimizes), "ratio"),
            "quadrature.kernel_integrals.calls": (c["quadrature.kernel_integrals"], "count"),
            "quadrature.kernel_integrals.self_s": (s["quadrature.kernel_integrals"], "s"),
            "quadrature.integrate.calls": (c["quadrature.integrate"], "count"),
            "quadrature.gauss_hermite_rule.self_s": (s["quadrature.gauss_hermite_rule"], "s"),
            "functional_bell.solve_epsilon.calls": (solves, "count"),
            "functional_bell.solve_epsilon.self_s": (
                s["functional_bell.solve_epsilon_even"] + s["functional_bell.solve_epsilon_odd"],
                "s"),
            "functional_bell.kernel_integrals_per_solve": (
                per(self.nested["functional_bell.kernel_integrals_per_solve"], solves), "count"),
            "critical.threshold.calls": (thresholds, "count"),
            "critical.bell_ratio_per_threshold": (
                per(self.nested["critical.bell_ratio_per_threshold"], thresholds), "count"),
            "mk_binning.mk_evaluate.calls": (c["mk_binning.mk_evaluate"], "count"),
            "mk_binning.mk_evaluate.self_s": (s["mk_binning.mk_evaluate"], "s"),
            "trace.spans": (self.spans, "count"),
        }
        for sub in ("eval", "figure1", "figure2", "oracle_check", "optimize"):
            out[f"cli.{sub}.s"] = (self.total_s[f"cli.{sub}"], "s")
        return out
