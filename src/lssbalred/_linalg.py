"""Small dense linear-algebra helpers used throughout the package.

Everything here operates on plain float64 numpy arrays.  The rank
tolerance convention is tau = max(rows, cols) * sigma_max * 1e-10.
"""

import functools
import math

import numpy as np

RANK_TOL_FACTOR = 1e-10


def symmetrize(M):
    return 0.5 * (M + M.T)


def sym_defect(M):
    """Absolute asymmetry ||M - M^T||_max."""
    return float(np.max(np.abs(M - M.T))) if M.size else 0.0


def require_symmetric(M, tol=1e-10, what="matrix"):
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError(f"{what} must be square, got shape {M.shape}")
    scale = max(1.0, float(np.max(np.abs(M))) if M.size else 0.0)
    if sym_defect(M) > tol * scale:
        raise ValueError(f"{what} is not symmetric within {tol}")
    return symmetrize(M)


def rank_tol(M, svals=None):
    """Numerical-rank cutoff for the singular values of M."""
    if svals is None:
        svals = np.linalg.svd(M, compute_uv=False) if M.size else np.zeros(0)
    smax = float(svals[0]) if svals.size else 0.0
    return max(M.shape) * smax * RANK_TOL_FACTOR if M.size else 0.0


def orth_columns(M):
    """Orthonormal basis of the column space of M (n x r, r = numerical rank)."""
    M = np.asarray(M, dtype=float)
    if M.size == 0:
        return np.zeros((M.shape[0], 0))
    U, s, _ = np.linalg.svd(M, full_matrices=False)
    r = int(np.sum(s > rank_tol(M, s)))
    return U[:, :r]


def orth_complement(V, n):
    """Orthonormal basis of the orthogonal complement of span(V) in R^n."""
    r = V.shape[1]
    if r == 0:
        return np.eye(n)
    if r == n:
        return np.zeros((n, 0))
    # Full QR of V against the identity picks up a complement.
    Q, _ = np.linalg.qr(np.hstack([V, np.eye(n)]))
    W = Q[:, r:n]
    # Re-orthogonalize against V for safety.
    W = W - V @ (V.T @ W)
    Q2, _ = np.linalg.qr(W)
    return Q2[:, : n - r]


def max_eig(M):
    return float(np.linalg.eigvalsh(symmetrize(M))[-1])


def min_eig(M):
    return float(np.linalg.eigvalsh(symmetrize(M))[0])


def chol_pd(M, what="matrix"):
    """Cholesky factor L (M = L L^T), raising ValueError for non-PD input."""
    M = require_symmetric(M, what=what)
    try:
        return np.linalg.cholesky(M)
    except np.linalg.LinAlgError:
        raise ValueError(f"{what} is not positive definite")


def kron_sum(A_list):
    """Dense n^2 x n^2 matrix T = sum_q A_q (x) A_q.  In row-major
    vectorization T maps vec(X) to vec(sum_q A_q X A_q^T), and its transpose
    sum_q A_q^T (x) A_q^T maps vec(X) to vec(sum_q A_q^T X A_q)."""
    return sum(np.kron(A, A) for A in A_list)


def stein_solve(T, G):
    """Unique solution of the mode-summed Stein equation X = T(X) + G, where
    T is a :func:`kron_sum` matrix or its transpose, of spectral radius < 1;
    dense O(n^6) solve."""
    n = G.shape[0]
    vec = np.linalg.solve(np.eye(n * n) - T, G.reshape(-1))
    return symmetrize(vec.reshape(n, n))


def expm(M):
    """Matrix exponential by scaling and squaring: the degree-18 Taylor
    polynomial (Horner form) of X = M / 2^s with ||X||_1 <= 1, whose
    truncation error is below 1/19! ~ 8e-18, squared s times."""
    norm = float(np.linalg.norm(M, 1))
    s = max(0, math.ceil(math.log2(norm))) if norm > 1.0 else 0
    X = M / 2.0**s
    eye = np.eye(M.shape[0])
    E = eye
    for k in range(18, 0, -1):
        E = eye + (X @ E) / k
    for _ in range(s):
        E = E @ E
    return E


@functools.lru_cache(maxsize=None)
def svec_index(n):
    """Row indices, column indices and scale factors of the svec entries of
    an n x n matrix: the diagonal, then the strict upper triangle row by row
    with scale sqrt(2).  Cached per n and read-only, so no caller can
    corrupt a later call."""
    iu = np.triu_indices(n, 1)
    diag = np.arange(n)
    rows = np.concatenate([diag, iu[0]])
    cols = np.concatenate([diag, iu[1]])
    scale = np.concatenate([np.ones(n), np.full(iu[0].size, np.sqrt(2.0))])
    for a in (rows, cols, scale):
        a.setflags(write=False)
    return rows, cols, scale


def svec(M):
    """Symmetric vectorization with sqrt(2)-scaled off-diagonals; a stack of
    matrices (..., n, n) maps to a stack of vectors in one gather.

    Preserves the Frobenius inner product: <svec(A), svec(B)> = <A, B>_F.
    """
    rows, cols, scale = svec_index(M.shape[-1])
    return M[..., rows, cols] * scale


def smat(v, n):
    """Inverse of :func:`svec`."""
    rows, cols, scale = svec_index(n)
    u = v / scale
    M = np.empty((n, n))
    M[rows, cols] = u
    M[cols, rows] = u
    return M


def svec_dim(n):
    return n * (n + 1) // 2


def sym_basis(n):
    """Orthonormal (Frobenius) basis of n x n symmetric matrices in svec
    order, stacked as a (svec_dim(n), n, n) array."""
    rows, cols, scale = svec_index(n)
    a = np.arange(rows.size)
    E = np.zeros((rows.size, n, n))
    E[a, rows, cols] = 1.0 / scale
    E[a, cols, rows] = 1.0 / scale
    return E
