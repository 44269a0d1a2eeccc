"""Hand-written residual formulas of the constraint families, the dense
Kronecker form of the mode-summed Stein operator, and the gain bisection.

Independent oracles for :func:`lssbalred.lmi.family_system`: each formula is
assembled directly from the model matrices, without LmiTerm/LmiBlock, so the
builder is checked against a second, separate derivation.  The n^2 x n^2
matrices check :func:`lssbalred._linalg.stein_radius` and
:func:`lssbalred._linalg.stein_solve` by dense eigenvalues and a dense
linear solve, O(n^6); keep n <= 32.  :func:`bisection_gain` checks
:func:`lssbalred.gain.l2_gain_upper_bound` by locating the smallest
certified gamma with feasibility probes only.
"""

import numpy as np

from lssbalred import InfeasibleError, gamma_feasible


def stability_residual(model, P, q):
    """A^T P + P A (continuous) or A^T P A - P (discrete)."""
    A = model.A[q]
    if model.is_discrete:
        return A.T @ P @ A - P
    return A.T @ P + P @ A


def observability_residual(model, Q, q):
    A, _, C = model.mode(q)
    if model.is_discrete:
        return A.T @ Q @ A + C.T @ C - Q
    return A.T @ Q + Q @ A + C.T @ C


def controllability_residual(model, P, q):
    A, B, _ = model.mode(q)
    if model.is_discrete:
        return A @ P @ A.T + B @ B.T - P
    return A @ P + P @ A.T + B @ B.T


def gain_residual(model, P, gamma, q):
    A, B, C = model.mode(q)
    m = model.m
    if model.is_discrete:
        return np.block([
            [A.T @ P @ A + C.T @ C - P, A.T @ P @ B],
            [B.T @ P @ A, B.T @ P @ B - gamma**2 * np.eye(m)],
        ])
    return np.block([
        [A.T @ P + P @ A + C.T @ C, P @ B],
        [B.T @ P, -gamma**2 * np.eye(m)],
    ])


def averaged_residuals(model, P, Q):
    """The two summed residuals: sum_q(A P A^T + B B^T) - P and
    sum_q(A^T Q A + C^T C) - Q."""
    RP = sum(A @ P @ A.T + B @ B.T for A, B in zip(model.A, model.B)) - P
    RQ = sum(A.T @ Q @ A + C.T @ C for A, C in zip(model.A, model.C)) - Q
    return 0.5 * (RP + RP.T), 0.5 * (RQ + RQ.T)


def family_residuals(model, M, family, gamma=None):
    """The residual matrices of one family at M, in block order."""
    modes = range(model.num_modes)
    if family == "S":
        return [stability_residual(model, M, q) for q in modes]
    if family == "O":
        return [observability_residual(model, M, q) for q in modes]
    if family == "C":
        return [controllability_residual(model, M, q) for q in modes]
    if family == "G":
        return [gain_residual(model, M, gamma, q) for q in modes]
    if family == "Csum":
        return [averaged_residuals(model, M, M)[0]]
    if family == "Osum":
        return [averaged_residuals(model, M, M)[1]]
    raise ValueError(f"unknown family {family!r}")


def kron_sum(A_list):
    """Dense n^2 x n^2 matrix T = sum_q A_q (x) A_q.  In row-major
    vectorization T maps vec(X) to vec(sum_q A_q X A_q^T), and its transpose
    sum_q A_q^T (x) A_q^T maps vec(X) to vec(sum_q A_q^T X A_q)."""
    return sum(np.kron(A, A) for A in A_list)


def dense_stein_radius(A_list):
    """max |eigenvalue| of kron_sum(A_list)."""
    return float(np.max(np.abs(np.linalg.eigvals(kron_sum(A_list)))))


def dense_stein_solve(T, G):
    """Unique solution of X = T(X) + G for T = kron_sum(...) or its
    transpose, by one dense linear solve."""
    n = G.shape[0]
    X = np.linalg.solve(np.eye(n * n) - T, G.reshape(-1)).reshape(n, n)
    return 0.5 * (X + X.T)


def bisection_gain(model, tol=1e-3, cap=60):
    """Smallest certified gamma to relative tolerance `tol` by bisection over
    :func:`lssbalred.gamma_feasible`: double from max_q |B_q| |C_q| until a
    probe is feasible, then bisect, warm-starting each probe from the last
    certificate.  Returns (gamma, certificate)."""
    guess = max(float(np.linalg.norm(B, 2) * np.linalg.norm(C, 2))
                for B, C in zip(model.B, model.C))
    hi = max(guess, 1e-6)
    best = gamma_feasible(model, hi)
    doubling = 0
    while best is None:
        doubling += 1
        if doubling > cap:
            raise InfeasibleError("gain bisection failed to bracket a feasible gamma")
        hi *= 2.0
        best = gamma_feasible(model, hi)
    lo = 0.0
    iterations = 0
    while hi - lo > tol * hi and iterations < cap:
        iterations += 1
        mid = 0.5 * (lo + hi)
        cand = gamma_feasible(model, mid, start=best.P)
        if cand is not None:
            best = cand
            hi = mid
        else:
            lo = mid
    return best.gamma, best
