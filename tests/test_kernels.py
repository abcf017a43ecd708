import numpy as np
import pytest

from cvbell import _accel
from cvbell.model import (
    ProductOperator,
    StateSpec,
    branch_indices,
    density_matrix,
    loss_kraus,
)


def random_case(rng, n, sparse=False):
    """A random product operator of 1-4 terms with complex weights, and a
    random operator stack; ``sparse`` zeroes the factor entries below the
    median magnitude, as the detected state's factors are mostly zero."""
    terms = int(rng.integers(1, 5))
    weights = rng.normal(size=terms) + 1j * rng.normal(size=terms)
    factors = rng.normal(size=(terms, n, 2, 2)) + 1j * rng.normal(size=(terms, n, 2, 2))
    if sparse:
        factors[np.abs(factors) < np.median(np.abs(factors))] = 0.0
    mats = rng.normal(size=(n, 2, 2)) + 1j * rng.normal(size=(n, 2, 2))
    return ProductOperator(weights, factors), mats


def dense_reference(rho, mats):
    big = np.array([[1.0]], dtype=complex)
    for m in mats:
        big = np.kron(big, m)
    return np.trace(rho @ big)


def dense_state(spec):
    """The detected state built with full 2^N x 2^N Kraus operators."""
    n, r = spec.n_modes, spec.r_split
    a, b = branch_indices(n, r)
    rho = np.zeros((2 ** n, 2 ** n), dtype=complex)
    rho[a, a] = rho[b, b] = 0.5
    rho[a, b] = rho[b, a] = 0.5 * spec.purity
    for k in range(n):
        out = np.zeros_like(rho)
        for kraus in loss_kraus(spec.efficiency):
            op = np.kron(np.kron(np.eye(2 ** k), kraus), np.eye(2 ** (n - k - 1)))
            out += op @ rho @ op.conj().T
        rho = out
    return rho


class TestBackends:
    def test_numpy_path_against_dense_kron(self):
        rng = np.random.default_rng(1)
        for n in range(1, 7):
            rho, mats = random_case(rng, n)
            got = _accel.tensor_expectation(rho, mats)
            assert got == pytest.approx(dense_reference(rho.toarray(), mats), rel=1e-13)

    @pytest.mark.filterwarnings("error")
    def test_term_with_a_zero_site_trace_contributes_zero(self):
        # the first term's other site traces multiply to 10^399 before the zero
        n = 400
        factors = np.zeros((2, n, 2, 2), dtype=complex)
        factors[0, :-1, 0, 0] = 10.0
        factors[1, :, 0, 0] = 1.0
        rho = ProductOperator(np.array([1.0, 0.5]), factors)
        assert _accel.tensor_expectation(rho, np.broadcast_to(np.eye(2), (n, 2, 2))) == 0.5

    def test_sparse_zero_entries_skipped_consistently(self):
        rng = np.random.default_rng(4)
        for n in range(1, 7):
            rho, mats = random_case(rng, n, sparse=True)
            got = _accel.tensor_expectation(rho, mats)
            assert got == pytest.approx(dense_reference(rho.toarray(), mats), rel=1e-12)

    def test_detected_state_against_dense_kron(self):
        rng = np.random.default_rng(5)
        for n in range(1, 7):
            rho = density_matrix(StateSpec(n, n // 2, 0.9, 0.7))
            mats = rng.normal(size=(n, 2, 2)) + 1j * rng.normal(size=(n, 2, 2))
            expected = dense_reference(rho.matrix.toarray(), mats)
            got = _accel.tensor_expectation(rho.matrix, mats)
            assert got == pytest.approx(expected, rel=1e-13)

    def test_replacement_sums_against_site_loop(self):
        # reference: one dense contraction per site with that site's operator
        # replaced
        rng = np.random.default_rng(6)
        for n in range(1, 7):
            rho, mats = random_case(rng, n, sparse=True)
            reps = rng.normal(size=(2, n, 2, 2)) + 1j * rng.normal(size=(2, n, 2, 2))
            value, sums = _accel.tensor_expectation_sums(rho, mats, reps)
            assert value == _accel.tensor_expectation(rho, mats)
            for d, got in zip(reps, sums):
                want = 0j
                for k in range(n):
                    replaced = mats.copy()
                    replaced[k] = d[k]
                    want += dense_reference(rho.toarray(), replaced)
                assert got == pytest.approx(want, rel=1e-12)


class TestSparseState:
    def test_matches_full_kraus_channel(self):
        for eta, p in ((0.7, 0.8), (0.25, 1.0), (1.0, 0.6)):
            for n in range(1, 6):
                for r in range(n + 1):
                    spec = StateSpec(n, r, p, eta)
                    np.testing.assert_allclose(density_matrix(spec).matrix.toarray(),
                                               dense_state(spec), rtol=0, atol=1e-15)

    def test_entry_count(self):
        # four product terms at every size: two branch diagonals, two coherences
        for eta, p in ((0.9, 1.0), (0.3, 0.05)):
            for n in range(1, 13):
                for r in range(n + 1):
                    rho = density_matrix(StateSpec(n, r, p, eta))
                    assert rho.matrix.weights.shape == (4,)
                    assert rho.matrix.factors.shape == (4, n, 2, 2)
