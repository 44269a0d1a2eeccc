"""Small dense linear-algebra helpers used throughout the package.

Everything here operates on plain float64 numpy arrays.  The rank
tolerance convention is tau = max(rows, cols) * sigma_max * 1e-10.
"""

import functools
import math

import numpy as np

RANK_TOL_FACTOR = 1e-10
SYM_TOL = 1e-10  # accepted asymmetry, relative to max(1, max |entry|)


def symmetrize(M):
    return 0.5 * (M + M.T)


def asymmetric(M, tol):
    """Whether M, or any matrix of a stack (..., k, k), is asymmetric beyond tol
    times its own scale: max |M - M^T| > tol * max(1, max |M|)."""
    defect = abs(M - M.swapaxes(-1, -2)).max(axis=(-2, -1), initial=0.0)
    return bool((defect > tol * abs(M).max(axis=(-2, -1), initial=1.0)).any())


def require_symmetric(M, what="matrix"):
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError(f"{what} must be square, got shape {M.shape}")
    if asymmetric(M, SYM_TOL):
        raise ValueError(f"{what} is not symmetric within {SYM_TOL}")
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


def orth_complement(V):
    """Orthonormal basis of the orthogonal complement of the span of an
    orthonormal n x r basis V: the trailing n - r left singular vectors of V."""
    return np.linalg.svd(V)[0][:, V.shape[1]:]


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


RADIUS_RTOL = 1e-14  # settled: successive radius estimates within this * rho
STEIN_RTOL = np.finfo(float).eps  # settled: a layer's norm within this * the sum's
BUDGET = 50_000  # steps of the radius iteration, layers of the Stein series


def mode_sum(As, X):
    """The mode-summed Stein operator L(X) = sum_q A_q X A_q^T, in O(D n^3);
    pass the transposes for its adjoint sum_q A_q^T X A_q."""
    return sum(A @ X @ A.T for A in As)


def stein_radius(As):
    """Spectral radius rho of L = mode_sum(As, .) by power iteration of X -> L(X) + r X
    from I, r = tr L(X) / tr X the last estimate.  L is completely positive, so rho + r
    is the only eigenvalue of largest modulus and the rest shrink by their gap relative
    to rho.  Returns 0 once r decays to 0; raises ValueError if r does not settle."""
    X, est = np.eye(As[0].shape[0]), np.inf
    for _ in range(BUDGET):
        LX = mode_sum(As, X)
        rho = float(np.trace(LX) / np.trace(X))
        if abs(rho - est) <= RADIUS_RTOL * rho or rho == 0.0:
            return rho
        X, est = (LX + rho * X) / (2.0 * rho * np.trace(X)), rho
    raise ValueError(f"Stein radius unsettled after {BUDGET} steps, last estimate {est:.16g}")


def stein_solve(As, G):
    """X = sum_k L^k(G), the solution of X = L(X) + G when rho(L) < 1, summed
    until a layer is negligible against the sum; raises ValueError if none is."""
    X = layer = G
    for _ in range(BUDGET):
        layer = mode_sum(As, layer)
        X = X + layer
        step, total = np.linalg.norm(layer), np.linalg.norm(X)
        if step <= STEIN_RTOL * total < np.inf:
            return symmetrize(X)
    raise ValueError(f"Stein series unsettled after {BUDGET} layers, last/sum {step / total:.3g}")


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
