import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lssbalred._linalg import (
    expm,
    orth_columns,
    orth_complement,
    smat,
    svec,
    svec_dim,
    svec_index,
    sym_basis,
    symmetrize,
)


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 2**31 - 1), st.integers(1, 6))
def test_svec_smat_round_trip(seed, n):
    rng = np.random.default_rng(seed)
    M = symmetrize(rng.standard_normal((n, n)))
    np.testing.assert_allclose(smat(svec(M), n), M, atol=1e-14)


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 2**31 - 1), st.integers(1, 6))
def test_svec_preserves_frobenius_inner_product(seed, n):
    rng = np.random.default_rng(seed)
    A = symmetrize(rng.standard_normal((n, n)))
    B = symmetrize(rng.standard_normal((n, n)))
    np.testing.assert_allclose(np.dot(svec(A), svec(B)), np.sum(A * B), atol=1e-12)


def test_sym_basis_is_orthonormal():
    for n in (1, 2, 4):
        basis = sym_basis(n)
        assert len(basis) == svec_dim(n)
        G = np.array([[np.sum(E1 * E2) for E2 in basis] for E1 in basis])
        np.testing.assert_allclose(G, np.eye(len(basis)), atol=1e-14)
        # ordering matches svec
        for a, E in enumerate(basis):
            v = svec(E)
            expect = np.zeros(len(basis))
            expect[a] = 1.0
            np.testing.assert_allclose(v, expect, atol=1e-14)


@pytest.mark.parametrize("n", [1, 2, 5, 16])
def test_cached_index_maps_round_trip_and_are_read_only(n):
    rng = np.random.default_rng(n)
    stack = rng.standard_normal((3, n, n))
    stack = stack + stack.swapaxes(1, 2)
    for _ in range(2):  # the second pass reads the cached maps
        for M, v in zip(stack, svec(stack)):
            np.testing.assert_array_equal(v, svec(M))
            np.testing.assert_allclose(smat(v, n), M, atol=1e-14)
    for cached in svec_index(n):
        with pytest.raises(ValueError):
            cached[0] = 0
    assert sym_basis(n).shape == (svec_dim(n), n, n)


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 2**31 - 1), st.integers(1, 6), st.integers(0, 6))
def test_orth_columns_and_complement_partition_space(seed, n, r):
    rng = np.random.default_rng(seed)
    r = min(r, n)
    M = rng.standard_normal((n, r))
    V = orth_columns(M)
    assert V.shape[0] == n
    np.testing.assert_allclose(V.T @ V, np.eye(V.shape[1]), atol=1e-10)
    W = orth_complement(V, n)
    assert V.shape[1] + W.shape[1] == n
    if V.shape[1] and W.shape[1]:
        np.testing.assert_allclose(V.T @ W, np.zeros((V.shape[1], W.shape[1])), atol=1e-10)


class TestExpm:
    def test_diagonal(self):
        d = np.array([-30.0, -2.5, 0.0, 0.7, 4.0])
        np.testing.assert_allclose(expm(np.diag(d)), np.diag(np.exp(d)), rtol=1e-14, atol=0)

    @pytest.mark.parametrize("lam, t", [(0.0, 1.0), (0.0, 40.0), (-3.0, 2.0)])
    def test_jordan_block(self, lam, t):
        # exp(t (lam I + N)) = e^{lam t} sum_k (t N)^k / k!, N the 5x5 shift
        n = 5
        N = np.eye(n, k=1)
        exact = sum(np.linalg.matrix_power(t * N, k) / math.factorial(k) for k in range(n))
        np.testing.assert_allclose(expm(t * (lam * np.eye(n) + N)),
                                   np.exp(lam * t) * exact, rtol=1e-13, atol=0)

    @pytest.mark.parametrize("h", [0.01, 0.3, 2.0])
    def test_van_loan_block_of_scalar_model(self, h):
        # x' = -x + u, y = x: M = [[-1, 1], [0, 0]], Ch = [1, 0]
        M = np.array([[-1.0, 1.0], [0.0, 0.0]])
        Ch2 = np.array([[1.0, 0.0], [0.0, 0.0]])
        F = expm(h * np.block([[-M.T, Ch2], [np.zeros((2, 2)), M]]))
        a, b = np.exp(-h), np.exp(-2.0 * h)
        E = np.array([[a, 1.0 - a], [0.0, 1.0]])
        W = np.array([
            [(1.0 - b) / 2.0, (1.0 - a) - (1.0 - b) / 2.0],
            [(1.0 - a) - (1.0 - b) / 2.0, h - 2.0 * (1.0 - a) + (1.0 - b) / 2.0],
        ])  # integral of [e^{-s}, 1 - e^{-s}]^T [e^{-s}, 1 - e^{-s}] over [0, h]
        np.testing.assert_allclose(F[2:, 2:], E, rtol=1e-14, atol=1e-16)
        np.testing.assert_allclose(F[:2, :2], np.linalg.inv(E).T, rtol=1e-14, atol=1e-16)
        np.testing.assert_allclose(F[2:, 2:].T @ F[:2, 2:], W, rtol=1e-12, atol=1e-16)

    @pytest.mark.parametrize("norm", [1e-3, 0.5, 3.0, 20.0, 100.0])
    def test_matches_scipy(self, norm):
        scipy_linalg = pytest.importorskip("scipy.linalg")
        rng = np.random.default_rng(int(norm * 1000))
        for _ in range(10):
            n = int(rng.integers(1, 25))
            M = rng.standard_normal((n, n))
            M *= norm / np.linalg.norm(M, 1)
            ref = scipy_linalg.expm(M)
            assert np.linalg.norm(expm(M) - ref) <= 1e-11 * np.linalg.norm(ref)
