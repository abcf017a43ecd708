"""Tensor-contraction kernel over the stored entries of a density matrix.

The single hot loop of the package is the trace of a density matrix against
a tensor product of single-mode 2x2 operators.  It is evaluated once per
Bell-observable query and tens of thousands of times inside the free-function
optimizer.  The states it sees have 2^r + 2^(N-r) + 1 nonzero entries out
of 4^N, so the trace is summed over those entries only.
"""

from __future__ import annotations

import numpy as np


def tensor_expectation(rho, mats) -> complex:
    """Tr(rho * M_1 (x) M_2 (x) ... (x) M_n) for 2x2 operators M_k.

    ``rho`` holds the stored entries of a (2**n, 2**n) matrix as ``.row``,
    ``.col`` and ``.data`` arrays (a ``model.EntryList``), with mode 0 as the
    most significant bit; ``mats`` is (n, 2, 2).  Tr(rho A) = sum over
    entries (i, j) of rho[i, j] * prod_k M_k[j_k, i_k].
    """
    m = np.asarray(mats, dtype=np.complex128)
    n = m.shape[0]
    shifts = np.arange(n - 1, -1, -1)
    j = (rho.col[:, None] >> shifts) & 1       # (entries, modes) occupation bits
    i = (rho.row[:, None] >> shifts) & 1
    factors = m[np.arange(n), j, i]
    return complex(factors.prod(axis=1) @ rho.data)


def backend_name() -> str:
    return "numpy"
