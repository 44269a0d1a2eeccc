import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lssbalred._linalg import (
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
