"""Tensor-contraction kernel over a sum of product operators.

The single hot loop of the package is the trace of a density matrix against
a tensor product of single-mode 2x2 operators.  It is evaluated once per
Bell-observable query and once per update inside the free-function
optimizer.  The states are sums of a few tensor products of 2x2 site factors
(a ``model.ProductOperator``), and the trace of a tensor product factorizes
over sites, so each term costs one 2x2 trace per site.
"""

from __future__ import annotations

import numpy as np


def _site_traces(rho, mats: np.ndarray) -> np.ndarray:
    """tr(a_tk M_k) for every term t and site k; (terms, n)."""
    return np.einsum("tkij,kji->tk", rho.factors, mats)


def tensor_expectation(rho, mats) -> complex:
    """Tr(rho * M_1 (x) M_2 (x) ... (x) M_n) for 2x2 operators M_k.

    ``rho`` holds ``.weights`` (T,) and site ``.factors`` (T, n, 2, 2) of
    sum_t w_t a_t1 (x) ... (x) a_tn (a ``model.ProductOperator``); ``mats``
    is (n, 2, 2).  The trace is sum_t w_t prod_k tr(a_tk M_k); a term with a
    zero site trace contributes exactly 0, even where its other traces
    overflow.
    """
    traces = _site_traces(rho, np.asarray(mats, dtype=np.complex128))
    live = traces.all(axis=1)
    return complex(rho.weights[live] @ traces[live].prod(axis=1))


def tensor_expectation_sums(rho, mats, replacements):
    """``tensor_expectation(rho, mats)`` and its site-replacement sums.

    For each (n, 2, 2) stack D in ``replacements``, the sum over sites k of
    the trace with M_k replaced by D_k: the derivative of the trace along D
    when every M_k is linear in a common parameter.  The product over the
    other sites of each term comes from prefix and suffix products of its
    site traces.
    """
    traces = [_site_traces(rho, np.asarray(m, dtype=np.complex128))
              for m in [mats, *replacements]]
    f = traces[0]
    ones = np.ones_like(f[:, :1])
    prefix = np.concatenate((ones, np.cumprod(f[:, :-1], axis=1)), axis=1)
    suffix = np.concatenate((np.cumprod(f[:, :0:-1], axis=1)[:, ::-1], ones), axis=1)
    others = prefix * suffix
    sums = np.array([(others * d).sum(axis=1) @ rho.weights for d in traces[1:]])
    return complex(rho.weights @ f.prod(axis=1)), sums


def backend_name() -> str:
    return "numpy"
