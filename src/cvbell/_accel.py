"""Tensor-contraction kernel over the stored entries of a density matrix.

The single hot loop of the package is the trace of a density matrix against
a tensor product of single-mode 2x2 operators.  It is evaluated once per
Bell-observable query and once per update inside the free-function
optimizer.  The states it sees have 2^r + 2^(N-r) + 1 nonzero entries out
of 4^N, so the trace is summed over those entries only.
"""

from __future__ import annotations

import numpy as np


def _factor_index(rho, n: int) -> np.ndarray:
    """Position of M_k[j_k, i_k] in the flattened (n, 2, 2) operator stack,
    for every stored entry (i, j) and site k; (entries, n)."""
    shifts = np.arange(n - 1, -1, -1)
    j = (rho.col[:, None] >> shifts) & 1       # (entries, modes) occupation bits
    i = (rho.row[:, None] >> shifts) & 1
    return 4 * np.arange(n) + 2 * j + i


def _trace(rho, m: np.ndarray, index: np.ndarray) -> complex:
    return complex(m.reshape(-1)[index].prod(axis=1) @ rho.data)


def tensor_expectation(rho, mats) -> complex:
    """Tr(rho * M_1 (x) M_2 (x) ... (x) M_n) for 2x2 operators M_k.

    ``rho`` holds the stored entries of a (2**n, 2**n) matrix as ``.row``,
    ``.col`` and ``.data`` arrays (a ``model.EntryList``), with mode 0 as the
    most significant bit; ``mats`` is (n, 2, 2).  Tr(rho A) = sum over
    entries (i, j) of rho[i, j] * prod_k M_k[j_k, i_k].
    """
    m = np.asarray(mats, dtype=np.complex128)
    return _trace(rho, m, _factor_index(rho, m.shape[0]))


def tensor_expectation_sums(rho, mats, replacements):
    """``tensor_expectation(rho, mats)`` and its site-replacement sums.

    For each (n, 2, 2) stack D in ``replacements``, the sum over sites k of
    the trace with M_k replaced by D_k: the derivative of the trace along D
    when every M_k is linear in a common parameter.  The product over the
    other sites of each entry comes from prefix and suffix products, so all
    the sums take one pass over the entries.
    """
    stacks = np.concatenate(([mats], replacements)).astype(np.complex128)
    n = stacks.shape[1]
    index = _factor_index(rho, n)
    # sites first, so that every product over sites is a vector operation
    factors = stacks.reshape(len(stacks), 4 * n)[:, index.T]
    f = factors[0]
    prefix = np.ones_like(f)
    suffix = np.ones_like(f)
    for k in range(1, n):
        prefix[k] = prefix[k - 1] * f[k - 1]
        suffix[n - 1 - k] = suffix[n - k] * f[n - k]
    sums = ((prefix * suffix) * factors[1:]).sum(axis=1) @ rho.data
    return _trace(rho, stacks[0], index), sums


def backend_name() -> str:
    return "numpy"
