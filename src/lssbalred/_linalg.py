"""Small dense linear-algebra helpers used throughout the package.

Everything here operates on plain float64 numpy arrays.  The rank
tolerance convention is tau = max(rows, cols) * sigma_max * 1e-10.
"""

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


def svec(M):
    """Symmetric vectorization with sqrt(2)-scaled off-diagonals.

    Preserves the Frobenius inner product: <svec(A), svec(B)> = <A, B>_F.
    """
    n = M.shape[0]
    iu = np.triu_indices(n, 1)
    out = np.empty(n * (n + 1) // 2)
    out[:n] = np.diag(M)
    out[n:] = np.sqrt(2.0) * M[iu]
    return out


def smat(v, n):
    """Inverse of :func:`svec`."""
    M = np.zeros((n, n))
    iu = np.triu_indices(n, 1)
    np.fill_diagonal(M, v[:n])
    M[iu] = v[n:] / np.sqrt(2.0)
    M[(iu[1], iu[0])] = M[iu]
    return M


def svec_dim(n):
    return n * (n + 1) // 2


def sym_basis(n):
    """Orthonormal (Frobenius) basis of n x n symmetric matrices."""
    out = []
    for i in range(n):
        E = np.zeros((n, n))
        E[i, i] = 1.0
        out.append(E)
    for i in range(n):
        for j in range(i + 1, n):
            E = np.zeros((n, n))
            E[i, j] = E[j, i] = 1.0 / np.sqrt(2.0)
            out.append(E)
    return out
