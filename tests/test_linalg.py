import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lssbalred._linalg import (
    expm,
    mode_sum,
    orth_columns,
    orth_complement,
    stein_radius,
    stein_solve,
    svec,
    svec_dim,
    svec_index,
    sym_basis,
    symmetrize,
)
from lssbalred.model import pad_with_dead_states, random_stable_model
from lssbalred.realization import minimize
from residual_oracles import dense_stein_radius, dense_stein_solve, kron_sum, smat


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
    W = orth_complement(V)
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


# ---------------------------------------------------------------------------
# The mode-summed Stein operator against its dense Kronecker form
# ---------------------------------------------------------------------------


def _strong_modes():
    """Seeded strongly stable models, n = 1..32, D = 1..3."""
    for s, n in enumerate((1, 2, 3, 5, 8, 13, 21, 32)):
        yield random_stable_model("discrete", n, 1 + s % 3, kind="strong", seed=s).A


def _criterion8_modes():
    """The padded and minimized models of acceptance criterion 8: the padding
    is a decoupled block, so L is reducible."""
    for s in range(50):
        base = random_stable_model("discrete", 2 + s % 3, 1 + s % 3, kind="strong", seed=1700 + s)
        padded = pad_with_dead_states(base, 1 + s % 2, seed=s)
        yield padded.A
        yield minimize(padded).A


def _gaussian_modes():
    """Single Gaussian modes whose dominant eigenvalue lambda is complex: L
    then has the eigenvalues lambda^2 and conj(lambda)^2 of modulus rho."""
    for s in range(60):
        A = np.random.default_rng(2000 + s).standard_normal((2 + s % 15, 2 + s % 15))
        lam = np.linalg.eigvals(A)
        if lam[np.argmax(np.abs(lam))].imag != 0.0:
            yield (A,)


def _period_two_modes():
    """Anti-diagonal mode: L has the eigenvalues +-0.45, of equal modulus."""
    yield (np.array([[0.0, 0.5], [0.9, 0.0]]),)


def _small_radius_modes():
    """diag(0.01, 0.005) (radius 1e-4) and strong models rescaled to radius
    1e-2 and 1e-4: the iteration must converge by gaps relative to rho."""
    yield (np.diag([0.01, 0.005]),)
    for radius in (1e-2, 1e-4):
        for s, n in enumerate((2, 5, 13, 32)):
            As = random_stable_model("discrete", n, 1 + s % 3, kind="strong", seed=s).A
            yield [A * math.sqrt(radius / dense_stein_radius(As)) for A in As]


FAMILIES = {
    "strong": _strong_modes,
    "criterion8": _criterion8_modes,
    "gaussian": _gaussian_modes,
    "period2": _period_two_modes,
    "small_radius": _small_radius_modes,
}


class TestSteinOperator:
    def test_mode_sum_is_the_kronecker_map_and_transposes_give_the_adjoint(self):
        rng = np.random.default_rng(3)
        As = [rng.standard_normal((4, 4)) for _ in range(3)]
        X, Y = rng.standard_normal((4, 4)), rng.standard_normal((4, 4))
        np.testing.assert_allclose(mode_sum(As, X).reshape(-1), kron_sum(As) @ X.reshape(-1),
                                   rtol=1e-13, atol=1e-13)
        adjoint = mode_sum([A.T for A in As], Y)
        assert np.sum(Y * mode_sum(As, X)) == pytest.approx(np.sum(adjoint * X), rel=1e-12)

    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_radius_matches_dense_eigenvalues(self, family):
        count = 0
        for As in FAMILIES[family]():
            ref = dense_stein_radius(As)
            assert abs(stein_radius(As) - ref) <= 1e-9 * ref
            count += 1
        assert count >= 1

    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_solve_matches_dense_solve_in_both_directions(self, family):
        rng = np.random.default_rng(5)
        for As in FAMILIES[family]():
            # rescale to radius 0.9 where needed, so the series converges
            As = [A * min(1.0, math.sqrt(0.9 / dense_stein_radius(As))) for A in As]
            n = As[0].shape[0]
            G = symmetrize(rng.standard_normal((n, n)))
            T = kron_sum(As)
            for Ts, Bs in ((T, As), (T.T, [A.T for A in As])):
                ref = dense_stein_solve(Ts, G)
                assert np.linalg.norm(stein_solve(Bs, G) - ref) <= 1e-12 * np.linalg.norm(ref)

    @pytest.mark.parametrize("A", [
        0.9 * np.array([[1.0, 1.0], [0.0, 1.0]]),  # Jordan block: rho = 0.81, defective
        np.array([[0.0, 1.0], [0.0, 0.0]]),  # nilpotent: rho = 0
        np.diag([0.5, 0.4999]),  # the two largest eigenvalues of L nearly tie
    ], ids=["jordan", "nilpotent", "near_tie"])
    def test_edge_inputs_match_the_oracle_or_raise(self, A):
        ref = dense_stein_radius((A,))
        try:
            rho = stein_radius((A,))
        except ValueError as exc:
            assert "last estimate" in str(exc)
        else:
            assert abs(rho - ref) <= 1e-8 * max(ref, 1.0)
        G = np.eye(2)
        T = kron_sum((A,))
        for Ts, Bs in ((T, (A,)), (T.T, (A.T,))):
            ref = dense_stein_solve(Ts, G)
            assert np.linalg.norm(stein_solve(Bs, G) - ref) <= 1e-12 * np.linalg.norm(ref)

    def test_series_that_does_not_settle_raises(self):
        # radius 1: every layer equals G, so no layer is negligible
        with pytest.raises(ValueError, match="Stein series unsettled"):
            stein_solve((np.eye(2),), np.eye(2))
