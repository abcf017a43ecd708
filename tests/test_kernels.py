import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cvbell import _accel
from cvbell.model import density_matrix, site_operator
from cvbell.oracle import evaluate, mk_evaluate, mk_optimal_angles, orthogonal_angles
from cvbell.quadrature import Optimal
from cvbell.scenario import StateSpec
from reference import (branch_indices, dense_matrix, einsum_expectation, einsum_expectation_sums,
                       einsum_mk_value, einsum_ratio, loss_kraus, product_operator)


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
    return product_operator(weights, factors), mats


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
            assert got == pytest.approx(dense_reference(dense_matrix(rho), mats), rel=1e-13)

    @pytest.mark.filterwarnings("error")
    def test_term_with_a_zero_site_trace_contributes_zero(self):
        # the first term's other site traces multiply to 10^399 before the zero
        n = 400
        factors = np.zeros((2, n, 2, 2), dtype=complex)
        factors[0, :-1, 0, 0] = 10.0
        factors[1, :, 0, 0] = 1.0
        rho = product_operator([1.0, 0.5], factors)
        assert _accel.tensor_expectation(rho, np.broadcast_to(np.eye(2), (n, 2, 2))) == 0.5

    def test_sparse_zero_entries_skipped_consistently(self):
        rng = np.random.default_rng(4)
        for n in range(1, 7):
            rho, mats = random_case(rng, n, sparse=True)
            got = _accel.tensor_expectation(rho, mats)
            assert got == pytest.approx(dense_reference(dense_matrix(rho), mats), rel=1e-12)

    def test_detected_state_against_dense_kron(self):
        rng = np.random.default_rng(5)
        for n in range(1, 7):
            rho = density_matrix(StateSpec(n, n // 2, 0.9, 0.7))
            mats = rng.normal(size=(n, 2, 2)) + 1j * rng.normal(size=(n, 2, 2))
            expected = dense_reference(dense_matrix(rho.matrix), mats)
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
                    want += dense_reference(dense_matrix(rho), replaced)
                assert got == pytest.approx(want, rel=1e-12)


class TestEinsumBits:
    """On the detected states the plain-float kernel, and the oracle and
    binned values on it, give the bits of the numpy einsum contraction they
    replaced."""

    @settings(max_examples=100, deadline=None)
    @given(n=st.integers(2, 60), data=st.data(),
           eta=st.floats(0.0, 1.0, exclude_min=True), p=st.floats(0.0, 1.0, exclude_min=True),
           eps=st.floats(0.05, 20.0))
    def test_detected_states(self, rule, n, data, eta, p, eps):
        r = data.draw(st.integers(0, n), label="r")
        rho = density_matrix(StateSpec(n, r, p, eta))
        angles = orthogonal_angles(n, r)
        f = Optimal(eps)
        o_mats, q_mats = site_operator(f, f, angles.theta, angles.theta_prime, rule)
        for mats in (o_mats, q_mats):
            assert _accel.tensor_expectation(rho.matrix, mats) == einsum_expectation(rho.matrix,
                                                                                     mats)
        assert evaluate(rho, f, f, angles, rule).ratio == einsum_ratio(rho, f, f, angles, rule)
        if r:       # the binned pattern is defined for r >= 1
            mk_angles = mk_optimal_angles(n, r)
            assert mk_evaluate(rho, mk_angles) == einsum_mk_value(rho, mk_angles)
        # the replacement sums differ from numpy's only in the rounding of
        # its fused complex products
        value, sums = _accel.tensor_expectation_sums(rho.matrix, o_mats, [o_mats])
        want, want_sums = einsum_expectation_sums(rho.matrix, o_mats, [o_mats])
        assert value == want
        assert sums[0] == pytest.approx(want_sums[0], rel=1e-13)


class TestSparseState:
    def test_matches_full_kraus_channel(self):
        for eta, p in ((0.7, 0.8), (0.25, 1.0), (1.0, 0.6)):
            for n in range(1, 6):
                for r in range(n + 1):
                    spec = StateSpec(n, r, p, eta)
                    np.testing.assert_allclose(dense_matrix(density_matrix(spec).matrix),
                                               dense_state(spec), rtol=0, atol=1e-15)

    def test_entry_count(self):
        # four product terms at every size: two branch diagonals, two coherences
        for eta, p in ((0.9, 1.0), (0.3, 0.05)):
            for n in range(1, 13):
                for r in range(n + 1):
                    rho = density_matrix(StateSpec(n, r, p, eta))
                    assert len(rho.matrix.weights) == 4
                    assert np.shape(rho.matrix.factors) == (4, n, 2, 2)
