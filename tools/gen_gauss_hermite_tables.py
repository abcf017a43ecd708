"""Write ``src/cvbell/_gauss_hermite_tables.py`` from ``quadrature._golub_welsch``.

Usage, from the root of a checkout::

    PYTHONPATH=src python tools/gen_gauss_hermite_tables.py

For each default order it stores the positive half of the rule's nodes and
weights with ``repr``, which round-trips float64 exactly, after checking that
the computed rule is exactly antisymmetric in its nodes and symmetric in its
weights, so that mirroring the half rebuilds it bit for bit.
"""

from pathlib import Path

import numpy as np

from cvbell.quadrature import DEFAULT_ORDER, QUICK_ORDER, _golub_welsch

TARGET = Path(__file__).resolve().parent.parent / "src" / "cvbell" / "_gauss_hermite_tables.py"
PER_LINE = 3

HEADER = '''"""Positive halves of the e^(-2x^2) Gauss-Hermite rules at the default orders.

Generated from ``quadrature._golub_welsch``; do not edit.  Rebuild with::

    PYTHONPATH=src python tools/gen_gauss_hermite_tables.py

``POSITIVE_HALF[order]`` is (nodes, weights): the order // 2 positive nodes,
increasing, and their weights, written with ``repr`` so that every float64
round-trips exactly.  ``quadrature.gauss_hermite_rule`` mirrors each half
into the full rule.
"""

'''


def _tuple_lines(values) -> list:
    rows = [values[i:i + PER_LINE] for i in range(0, len(values), PER_LINE)]
    return (["        ("]
            + ["            " + ", ".join(repr(float(v)) for v in row) + "," for row in rows]
            + ["        ),"])


def main() -> None:
    lines = [HEADER + "POSITIVE_HALF = {"]
    for order in (QUICK_ORDER, DEFAULT_ORDER):
        rule = _golub_welsch(order)
        half = order // 2
        x, w = rule.nodes[half:], rule.weights[half:]
        if order % 2 or not (np.array_equal(rule.nodes[:half], -x[::-1])
                             and np.array_equal(rule.weights[:half], w[::-1])):
            raise SystemExit(f"order {order}: the computed rule is not an exact mirror")
        lines.append(f"    {order}: (")
        lines += _tuple_lines(x) + _tuple_lines(w)
        lines.append("    ),")
    lines.append("}")
    TARGET.write_text("\n".join(lines) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
