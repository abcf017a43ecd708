"""Write ``src/cvbell/_gauss_hermite_tables.py`` from ``quadrature._golub_welsch``.

Usage, from the root of a checkout::

    PYTHONPATH=src python tools/gen_gauss_hermite_tables.py

For each default order it stores the positive half of the rule's nodes and
weights with ``repr``, which round-trips float64 exactly.  A rule is its
positive half mirrored (``_golub_welsch`` symmetrises it exactly), plus a
node at 0 for odd orders, which the table format has no place for.
"""

from pathlib import Path

from cvbell.quadrature import DEFAULT_ORDER, QUICK_ORDER, _golub_welsch

TARGET = Path(__file__).resolve().parent.parent / "src" / "cvbell" / "_gauss_hermite_tables.py"
PER_LINE = 3

HEADER = '''"""Positive halves of the e^(-2x^2) Gauss-Hermite rules at the default orders.

Generated from ``quadrature._golub_welsch``; do not edit.  Rebuild with::

    PYTHONPATH=src python tools/gen_gauss_hermite_tables.py

``POSITIVE_HALF[order]`` is (nodes, weights): the order // 2 positive nodes,
increasing, and their weights, written with ``repr`` so that every float64
round-trips exactly.  ``quadrature.gauss_hermite_rule`` wraps each half as it
stands in a ``QuadratureRule``, which stores a rule as its positive half.
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
        if order % 2:
            raise SystemExit(f"order {order}: a table holds even orders only")
        rule = _golub_welsch(order)
        lines.append(f"    {order}: (")
        lines += _tuple_lines(rule.half_nodes) + _tuple_lines(rule.half_weights)
        lines.append("    ),")
    lines.append("}")
    TARGET.write_text("\n".join(lines) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
