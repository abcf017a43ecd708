"""Run one cvbell command with a timing span around every layer call.

Usage::

    python perfbench/tracer.py SPANS.json -- <cvbell arguments...>

The package is imported, then every public function of each layer module
(plus the ``cli._cmd_*`` subcommand handlers) is replaced by a wrapper in
every ``cvbell.*`` module that binds it: the modules import each other's
functions by name (``from .oracle import evaluate``), so replacing only the
defining module would miss most calls.  Then ``cvbell.cli.main`` runs exactly
as the ``cvbell`` console script would.  Spans (name, start, end, parent,
raised) are kept in memory and written as one columnar JSON file when the
command ends.

Nothing in the package is edited; the wrappers exist only in this process.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time

import numpy as np

LAYERS = ("cli", "quadrature", "functional_bell", "critical", "mk_binning",
          "model", "_accel", "oracle", "variational")


class Tracer:
    """In-memory span store plus the wrappers that fill it."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id: list[int] = []
        self.parent: list[int] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.raised: list[int] = []
        self.counters: dict[str, int] = {}
        self._stack = [-1]
        self._last_rho = None
        self._last_nnz = 0

    # -- counters recorded at the layer boundary, outside the callee's span --

    def _count(self, key: str, amount: int) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount

    def _probe_tensor_expectation(self, rho, mats, *_, **__) -> None:
        elements = 4 ** len(mats)
        if rho is not self._last_rho:  # states are reused across many calls
            self._last_rho = rho
            self._last_nnz = int(np.count_nonzero(rho))
        self._count("_accel.tensor_expectation.elements", elements)
        self._count("_accel.tensor_expectation.nonzeros", self._last_nnz)

    def _probe_density_matrix(self, spec, *_, **__) -> None:
        self._count("model.density_matrix.elements", 4 ** spec.n_modes)

    # -- wrappers --

    def wrap(self, span_name: str, fn, probe=None):
        nid = self._name_ids.setdefault(span_name, len(self.names))
        if nid == len(self.names):
            self.names.append(span_name)
        name_id, parent, start, end, raised = (
            self.name_id, self.parent, self.start, self.end, self.raised)
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if probe is not None:
                try:
                    probe(*args, **kwargs)
                except Exception:  # a changed signature must not break the command
                    self._count(f"{span_name}.probe_failures", 1)
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1])
            raised.append(0)
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            except BaseException:
                raised[idx] = 1
                raise
            finally:
                end[idx] = clock()
                stack.pop()

        return traced

    def install(self) -> dict:
        """Wrap every layer function and rebind it everywhere; returns {original: wrapper}."""
        probes = {
            "_accel.tensor_expectation": self._probe_tensor_expectation,
            "model.density_matrix": self._probe_density_matrix,
        }
        wrappers = {}
        for layer in LAYERS:
            module = importlib.import_module(f"cvbell.{layer}")
            for attr, obj in list(vars(module).items()):
                if not inspect.isfunction(obj) or obj.__module__ != module.__name__:
                    continue
                if attr.startswith("_cmd_"):
                    span_name = f"cli.{attr[len('_cmd_'):]}"
                elif attr.startswith("_"):
                    continue
                else:
                    span_name = f"{layer}.{attr}"
                wrappers[obj] = self.wrap(span_name, obj, probes.get(span_name))
        for name, module in list(sys.modules.items()):
            if name != "cvbell" and not name.startswith("cvbell."):
                continue
            for attr, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    setattr(module, attr, wrappers[obj])
        return wrappers

    def to_json(self) -> dict:
        return {
            "names": self.names,
            "name_id": self.name_id,
            "parent": self.parent,
            "start": self.start,
            "end": self.end,
            "raised": self.raised,
            "counters": self.counters,
        }


def main(argv: list[str]) -> int:
    if len(argv) < 2 or argv[1] != "--":
        print("usage: tracer.py SPANS.json -- <cvbell arguments...>", file=sys.stderr)
        return 2
    spans_path, cli_args = argv[0], argv[2:]
    tracer = Tracer()
    tracer.install()
    import cvbell.cli

    try:
        return cvbell.cli.main(cli_args)
    finally:
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump(tracer.to_json(), fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
