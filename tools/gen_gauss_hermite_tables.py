"""Write ``src/cvbell/_gauss_hermite_tables.py`` by Golub-Welsch, with numpy.

Usage, from the root of a checkout::

    PYTHONPATH=src python tools/gen_gauss_hermite_tables.py

For each default order it stores the positive half of the rule's nodes and
weights with ``repr``, which round-trips float64 exactly.  A rule is its
positive half mirrored (``_golub_welsch`` symmetrises it exactly), plus a
node at 0 for odd orders, which the table format has no place for.  The
package computes every other order in plain floats
(``quadrature._newton_rule``); the tests hold the two methods together.
"""

from pathlib import Path

import numpy as np

from cvbell.quadrature import DEFAULT_ORDER, QUICK_ORDER, QuadratureRule

TARGET = Path(__file__).resolve().parent.parent / "src" / "cvbell" / "_gauss_hermite_tables.py"
PER_LINE = 3

HEADER = '''"""Positive halves of the e^(-2x^2) Gauss-Hermite rules at the default orders.

Generated by ``tools/gen_gauss_hermite_tables.py`` (Golub-Welsch); do not
edit.  Rebuild with::

    PYTHONPATH=src python tools/gen_gauss_hermite_tables.py

``POSITIVE_HALF[order]`` is (nodes, weights): the order // 2 positive nodes,
increasing, and their weights, written with ``repr`` so that every float64
round-trips exactly.  ``quadrature.gauss_hermite_rule`` wraps each half as it
stands in a ``QuadratureRule``, which stores a rule as its positive half.
"""

'''


def _hermite_functions(n: int, u):
    """(psi_{n-1}(u), psi_n(u)) of the orthonormal Hermite functions, on an array."""
    prev = np.zeros_like(u)
    last = np.pi ** -0.25 * np.exp(-0.5 * u * u)
    for k in range(n):
        prev, last = last, np.sqrt(2.0 / (k + 1)) * u * last - np.sqrt(k / (k + 1)) * prev
    return prev, last


def _golub_welsch(n: int) -> QuadratureRule:
    """Compute the e^(-2x^2) rule with n nodes.

    The e^(-u^2) nodes are the eigenvalues of the Jacobi matrix (zero
    diagonal, off-diagonal sqrt(k/2)), polished by two Newton steps on
    psi_n, whose derivative is sqrt(2 n) psi_(n-1) - u psi_n.  The weights
    are e^(-u^2) / (n psi_(n-1)(u)^2), symmetrised and normalised to
    sqrt(pi); the symmetrised rule is an exact mirror, so its positive half
    and middle weight describe it.
    """
    off = np.sqrt(np.arange(1, n) / 2.0)
    u = np.linalg.eigvalsh(np.diag(off, 1) + np.diag(off, -1))
    for _ in range(2):
        prev, last = _hermite_functions(n, u)
        u = u - last / (np.sqrt(2.0 * n) * prev - u * last)
    prev, _ = _hermite_functions(n, u)
    w = np.exp(-u * u) / (n * prev * prev)
    u = 0.5 * (u - u[::-1])
    w = 0.5 * (w + w[::-1])
    w *= np.sqrt(np.pi) / w.sum()
    x, w = u / np.sqrt(2.0), w / np.sqrt(2.0)
    half = n - n // 2
    return QuadratureRule(order=n, half_nodes=tuple(x[half:].tolist()),
                          half_weights=tuple(w[half:].tolist()),
                          center_weight=float(w[n // 2]) if n % 2 else 0.0)


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
