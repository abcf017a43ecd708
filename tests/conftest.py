import os
import sys

import numpy as np
import pytest
from scipy.optimize import minimize_scalar

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from cvbell.quadrature import DEFAULT_ORDER, QUICK_ORDER, gauss_hermite_rule


@pytest.fixture(scope="session")
def rule():
    return gauss_hermite_rule(DEFAULT_ORDER)


@pytest.fixture(scope="session")
def quick_rule():
    return gauss_hermite_rule(QUICK_ORDER)


def _family_fit(v, rule):
    """Weighted least-squares fit of c x/(1 + eps x^2) to the values ``v`` at
    the rule's positive nodes.

    Returns (eps, relative_l2_error) with the rule's positive-half weights as
    the error measure; c is eliminated in closed form and eps searched by
    bounded Brent on [1e-9, 64].  An independent check of the eps that
    ``optimize_function`` returns.
    """
    x, w = np.array(rule.half_nodes), np.array(rule.half_weights)
    v = np.asarray(v, dtype=float)
    assert v.shape == x.shape

    def sse(eps):
        phi = x / (1.0 + eps * x * x)
        r = v - np.dot(w, v * phi) / np.dot(w, phi * phi) * phi
        return float(np.dot(w, r * r))

    eps = minimize_scalar(sse, bounds=(1e-9, 64.0), method="bounded",
                          options={"xatol": 1e-12}).x
    return eps, float(np.sqrt(sse(eps) / np.dot(w, v * v)))


@pytest.fixture(scope="session")
def family_fit():
    return _family_fit
