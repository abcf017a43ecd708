"""Tensor-contraction kernel over a sum of product operators.

The single hot loop of the package is the trace of a density matrix against
a tensor product of single-mode 2x2 operators.  It is evaluated once per
Bell-observable query and once per update inside the free-function
optimizer.  The states are sums of a few tensor products of 2x2 site factors
(a ``model.ProductOperator``), and the trace of a tensor product factorizes
over sites, so each term costs one 2x2 trace per site.

The kernel computes in plain Python floats and complex numbers.  A site
trace is recomputed only where the factor or the operator object changes
from the site before, so a state and operators that share their objects
(``model.density_matrix``, ``model.site_operator``) cost one trace per run
of equal sites and one multiplication per site.  Each term's product runs
from site 0, the weight multiplies it last, and the terms are summed in
order: the order of the numpy contraction this kernel replaced, whose
results it reproduces bit for bit on the detected states.
"""

from __future__ import annotations


def _stack(mats):
    """A stack of 2x2 operators, with a numpy array turned into nested lists."""
    return mats.tolist() if hasattr(mats, "tolist") else mats


def _site_traces(term, mats) -> list:
    """tr(a_k M_k) for every site k of one term."""
    traces = []
    a_last = m_last = None
    for a, m in zip(term, mats):
        if a is not a_last or m is not m_last:
            a_last, m_last = a, m
            (a00, a01), (a10, a11) = a
            (m00, m01), (m10, m11) = m
            t = a00 * m00 + a01 * m10 + a10 * m01 + a11 * m11
        traces.append(t)
    return traces


def tensor_expectation(rho, mats) -> complex:
    """Tr(rho * M_1 (x) M_2 (x) ... (x) M_n) for 2x2 operators M_k.

    ``rho`` holds ``.weights`` and ``.factors`` of
    sum_t w_t a_t1 (x) ... (x) a_tn (a ``model.ProductOperator``); ``mats``
    is a sequence of n 2x2 operators, or an (n, 2, 2) array.  The trace is
    sum_t w_t prod_k tr(a_tk M_k); a term with a zero site trace contributes
    exactly 0, even where its other traces overflow.
    """
    mats = _stack(mats)
    total = 0j
    for w, term in zip(rho.weights, rho.factors):
        product = 1.0       # times the first trace: that trace, exactly
        a_last = m_last = None
        for a, m in zip(term, mats):
            if a is not a_last or m is not m_last:
                a_last, m_last = a, m
                (a00, a01), (a10, a11) = a
                (m00, m01), (m10, m11) = m
                t = a00 * m00 + a01 * m10 + a10 * m01 + a11 * m11
                if not t:
                    break
            product *= t
        else:
            total += w * product
    return complex(total)


def tensor_expectation_sums(rho, mats, replacements):
    """``tensor_expectation(rho, mats)`` and its site-replacement sums.

    ``mats`` and each entry of ``replacements`` are sequences of n 2x2
    operators.  For each such D in ``replacements``, the sum over
    sites k of the trace with M_k replaced by D_k: the derivative of the
    trace along D when every M_k is linear in a common parameter.  The
    product over the other sites of each term comes from prefix and suffix
    products of its site traces; a term with two zero site traces adds
    nothing.
    """
    value = 0j
    sums = [0j] * len(replacements)
    for w, term in zip(rho.weights, rho.factors):
        f = _site_traces(term, mats)
        if f.count(0) > 1:
            continue
        # others[k] = prod_{j<k} f_j * prod_{j>k} f_j, overwriting the prefixes
        others = [1.0] * len(f)
        for k in range(1, len(f)):
            others[k] = others[k - 1] * f[k - 1]
        value += w * (others[-1] * f[-1])
        suffix = 1.0
        for k in range(len(f) - 1, -1, -1):
            others[k] = others[k] * suffix
            suffix = suffix * f[k]
        for j, d in enumerate(replacements):
            sums[j] += w * sum([o * t for o, t in zip(others, _site_traces(term, d))], -0j)
    return complex(value), sums


def backend_name() -> str:
    return "python"
