"""Hand-written residual formulas of the constraint families, the dense
Kronecker form of the mode-summed Stein operator, the gain bisection, the
per-cone Douglas-Rachford loop, and the brute-force word-enumeration
oracles.

Independent oracles for :func:`lssbalred.lmi.family_system`: each formula is
assembled directly from the model matrices, without LmiTerm/LmiBlock, so the
builder is checked against a second, separate derivation.  The n^2 x n^2
matrices check :func:`lssbalred._linalg.stein_radius` and
:func:`lssbalred._linalg.stein_solve` by dense eigenvalues and a dense
linear solve, O(n^6); keep n <= 32.  :func:`bisection_gain` checks
:func:`lssbalred.gain.l2_gain_upper_bound` by locating the smallest
certified gamma with feasibility probes only.
:func:`per_cone_solve_feasibility` is the DR loop of
:func:`lssbalred.lmi.solve_feasibility` with one smat, eigen call and svec
per cone, which the stacked loop must reproduce bit for bit.  The remaining
oracles
enumerate words, series terms or Schur complements directly and are
exponential or dense; keep their inputs small.
"""

from itertools import product

import numpy as np

from lssbalred import GrammianPair, InfeasibleError, check_strong_stability, gamma_feasible
from lssbalred._linalg import (
    max_eig,
    min_eig,
    mode_sum,
    require_symmetric,
    svec,
    svec_dim,
    svec_index,
    symmetrize,
)
from lssbalred.lmi import (
    DEFAULT_BUDGET,
    MARGIN_SCALE_FACTOR,
    OBJECTIVE_BUDGET,
    OBJECTIVE_STEP,
    STALL_RTOL,
    STALL_WINDOW,
    FeasibilityResult,
    _CompiledSystem,
)
from lssbalred.model import require_discrete
from lssbalred.realization import markov_parameter, word_matrix


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


def smat(v, n):
    """Inverse of :func:`lssbalred._linalg.svec`."""
    rows, cols, scale = svec_index(n)
    u = v / scale
    M = np.empty((n, n))
    M[rows, cols] = u
    M[cols, rows] = u
    return M


def _clip_spectrum(M, floor=None, ceiling=None):
    w, V = np.linalg.eigh(symmetrize(M))
    if floor is not None:
        w = np.maximum(w, floor)
    if ceiling is not None:
        w = np.minimum(w, ceiling)
    return (V * w) @ V.T


def per_cone_solve_feasibility(sys, budget=None, margin=None, start=None, callback=None,
                               objective=None, settle=1e-5):
    """:func:`lssbalred.lmi.solve_feasibility` with each cone unpacked,
    eigen-decomposed and packed on its own: the same projector, margins,
    stall and settle rules, one block at a time."""
    n = sys.n
    scale = sys.data_scale()
    if budget is None:
        budget = DEFAULT_BUDGET if objective is None else OBJECTIVE_BUDGET
    if margin is None:
        margin = MARGIN_SCALE_FACTOR * scale
    gap = max(10.0 * margin, 1e-6 * scale)
    deep = margin + gap

    compiled = _CompiledSystem(sys)
    ends = np.cumsum([svec_dim(b.size) for b in sys.blocks])
    blocks = [(slice(e - svec_dim(b.size), e), b.size) for e, b in zip(ends, sys.blocks)]
    if start is not None:
        P0 = require_symmetric(np.asarray(start, dtype=float), what="start")
    else:
        P0 = np.eye(n)
    xi_x = svec(P0)
    xi_z = compiled.images(xi_x)
    if objective is not None:
        weight = svec(require_symmetric(np.asarray(objective, dtype=float), what="objective"))
        shift = OBJECTIVE_STEP * scale * weight

    best_violation = np.inf
    best_P = None
    found = None
    iterations = 0
    stall_mark = np.inf
    stall_at = 0
    for it in range(1, budget + 1):
        iterations = it
        target = np.concatenate((xi_x if objective is None else xi_x - shift, xi_z))
        ax = compiled.projector @ target - compiled.offset
        az = compiled.images(ax)
        P = smat(ax, n)
        res = max(max_eig(smat(az[s], k)) for s, k in blocks)
        pmin = min_eig(P)
        violation = max(res + margin, margin - pmin)
        if violation < best_violation:
            best_violation = violation
            best_P = P
        if callback is not None:
            callback(it, res)
        feasible = res <= -margin and pmin >= margin
        if objective is None:
            if feasible:
                return FeasibilityResult("feasible", P, res, it, margin)
            if violation < stall_mark * (1.0 - STALL_RTOL):
                stall_mark = violation
                stall_at = it
            elif it - stall_at >= STALL_WINDOW:
                break
        elif feasible and (found is None or weight @ ax < found[0]):
            found = (weight @ ax, P, res)
        bx = svec(_clip_spectrum(smat(2.0 * ax - xi_x, n), floor=deep))
        xi_x = xi_x + bx - ax
        rz = 2.0 * az - xi_z
        bz = np.empty_like(az)
        for s, k in blocks:
            bz[s] = svec(_clip_spectrum(smat(rz[s], k), ceiling=-deep))
        xi_z = xi_z + bz - az
        if feasible:
            step = np.hypot(np.linalg.norm(bx - ax), np.linalg.norm(bz - az))
            if step <= settle * (1.0 + np.hypot(np.linalg.norm(xi_x), np.linalg.norm(xi_z))):
                break

    if found is not None:
        return FeasibilityResult("feasible", found[1], found[2], iterations, margin)
    res = sys.residual(best_P) if best_P is not None else np.inf
    return FeasibilityResult("infeasible_within_budget", None, res, iterations, margin)


def project_psd(M, floor=0.0):
    """Frobenius-nearest symmetric matrix with all eigenvalues >= floor."""
    M = require_symmetric(M, what="project_psd input")
    w, V = np.linalg.eigh(M)
    if w[0] >= floor:
        return M
    w = np.maximum(w, floor)
    return symmetrize((V * w) @ V.T)


def schur_equivalence_check(A, P, S, domain, tol=1e-10):
    """The direct quadratic form and its Schur-complement block form must
    agree in definiteness sign.

    Continuous: A^T P + P A + S^T S  vs  [[P^-1 A^T + A P^-1, P^-1 S^T],
                                          [S P^-1, -I]].
    Discrete:  -P + A^T P A + S^T S  vs  [[-P^-1 + A P^-1 A^T, -A P^-1 S^T],
                                          [-S P^-1 A^T, -I + S P^-1 S^T]].
    """
    A = np.asarray(A, dtype=float)
    S = np.atleast_2d(np.asarray(S, dtype=float))
    P = require_symmetric(P, what="P")
    if min_eig(P) <= 0:
        raise ValueError("P must be positive definite")
    Pinv = np.linalg.inv(P)
    k = S.shape[0]
    if domain == "ct":
        direct = A.T @ P + P @ A + S.T @ S
        block = np.block([
            [Pinv @ A.T + A @ Pinv, Pinv @ S.T],
            [S @ Pinv, -np.eye(k)],
        ])
    elif domain == "dt":
        direct = -P + A.T @ P @ A + S.T @ S
        block = np.block([
            [-Pinv + A @ Pinv @ A.T, -A @ Pinv @ S.T],
            [-S @ Pinv @ A.T, -np.eye(k) + S @ Pinv @ S.T],
        ])
    else:
        raise ValueError(f"unknown domain {domain!r}")

    def sign_of(M):
        lam = max_eig(M)
        cut = tol * max(1.0, float(np.max(np.abs(M))))
        if lam > cut:
            return 1
        if lam < -cut:
            return -1
        return 0

    return sign_of(direct) == sign_of(block)


def nice_grammian_series_oracle(model, depth, term_budget=10**7):
    """Brute-force truncated series  sum over words |w| <= depth of
    A_w G A_w^T  (and the transposed analog); monotone nondecreasing in
    depth.

    Every word product A_w is materialized individually (batched over the
    words of each length), so this stays independent of the layer-sum
    Stein solve it cross-checks.
    """
    if not model.is_discrete:
        raise ValueError("series oracle is defined for discrete-time models only")
    if depth < 0:
        raise ValueError("depth must be nonnegative")
    D = model.num_modes
    total = sum(D**k for k in range(depth + 1))
    if total > term_budget:
        raise ValueError(f"oracle budget exceeded: {total} words > {term_budget}")
    GB = sum(B @ B.T for B in model.B)
    GC = sum(C.T @ C for C in model.C)
    n = model.n
    words = np.eye(n)[None, :, :]  # A_w for the empty word
    P = np.zeros((n, n))
    Q = np.zeros((n, n))
    for k in range(depth + 1):
        if k > 0:
            # appending letter q to w gives A_{wq} = A_q A_w
            words = np.concatenate(
                [np.einsum("ij,wjk->wik", A, words) for A in model.A]
            )
        P += np.einsum("wij,jk,wlk->il", words, GB, words)
        Q += np.einsum("wji,jk,wkl->il", words, GC, words)
    return GrammianPair(symmetrize(P), symmetrize(Q), "nice")


def truncated_hankel_square_sum(model, tol=1e-9, max_depth=20000):
    """Sum of squared Frobenius norms of all Hankel blocks H_{s,v} with
    |v|, |s| <= depth, where the depth is chosen so the geometric tail bound
    (from the Stein radius) falls below `tol`.

    Algebraically equal to trace(P_depth Q_depth) for the depth-truncated
    grammian series, computed by the layer recursion instead of word
    enumeration.  Converges to trace(P Q) of the nice grammians.  Returns
    (value, depth).
    """
    if not model.is_discrete:
        raise ValueError("Hankel sums are defined for discrete-time models only")
    rho = check_strong_stability(model)
    if not rho < 1.0:
        raise InfeasibleError("model is not strongly stable")
    GB = sum(B @ B.T for B in model.B)
    GC = sum(C.T @ C for C in model.C)
    layerP, layerQ = GB.copy(), GC.copy()
    P, Q = GB.copy(), GC.copy()
    depth = 0
    for k in range(1, max_depth + 1):
        layerP = mode_sum(model.A, layerP)
        layerQ = mode_sum([A.T for A in model.A], layerQ)
        P = P + layerP
        Q = Q + layerQ
        depth = k
        tail = max(np.linalg.norm(layerP), np.linalg.norm(layerQ)) * rho / (1.0 - rho)
        scale = max(np.linalg.norm(P), np.linalg.norm(Q), 1.0)
        if tail * scale < tol:
            break
    return float(np.trace(P @ Q)), depth


def exhaustive_stochastic_energy(model, u, horizon):
    """Word-sum oracle: sum over t < horizon and all words of length t+1 of
    the squared deterministic output at time t.  Exponential in the
    horizon."""
    require_discrete(model)
    u = np.atleast_2d(np.asarray(u, dtype=float))
    if u.shape[0] < horizon:
        raise ValueError("input must cover the horizon")
    D, n = model.num_modes, model.n
    states = [np.zeros(n)]  # one state per word prefix of length t
    total = 0.0
    for t in range(horizon):
        total += sum(
            float(np.sum((C @ x) ** 2)) for x in states for C in model.C
        )
        states = [
            model.A[q] @ x + model.B[q] @ u[t] for x in states for q in range(D)
        ]
    return total


def reachability_matrix(model, max_len=None):
    """Literal word-enumeration reachability matrix [A_v B~]_{|v| <= max_len};
    exponential in max_len."""
    if max_len is None:
        max_len = model.n
    Bt = np.hstack(model.B)
    cols = []
    for k in range(max_len + 1):
        for word in product(range(model.num_modes), repeat=k):
            cols.append(word_matrix(model.A, word) @ Bt)
    return np.hstack(cols)


def observability_matrix(model, max_len=None):
    """Literal word-enumeration observability matrix, stacked row blocks
    C~ A_v for |v| <= max_len."""
    if max_len is None:
        max_len = model.n
    Ct = np.vstack(model.C)
    rows = []
    for k in range(max_len + 1):
        for word in product(range(model.num_modes), repeat=k):
            rows.append(Ct @ word_matrix(model.A, word))
    return np.vstack(rows)


def markov_match(model1, model2, max_len, rtol=1e-9):
    """Compare all Markov parameters up to word length max_len, the
    brute-force equivalence surrogate; exponential in max_len."""
    scale = 0.0
    worst = 0.0
    for k in range(max_len + 1):
        for word in product(range(model1.num_modes), repeat=k):
            M1 = markov_parameter(model1, word)
            M2 = markov_parameter(model2, word)
            worst = max(worst, float(np.max(np.abs(M1 - M2))))
            scale = max(scale, float(np.max(np.abs(M1))))
    return worst <= rtol * max(scale, 1.0)


def recover_isomorphism(model1, model2, max_len=None):
    """Least-squares state-space transform S with S R1 = R2 over matched
    reachability columns; returns (S, relative residual).  Both models must
    be minimal and equivalent for the residual to vanish."""
    if max_len is None:
        max_len = max(model1.n, model2.n)
    R1 = reachability_matrix(model1, max_len)
    R2 = reachability_matrix(model2, max_len)
    S, _, _, _ = np.linalg.lstsq(R1.T, R2.T, rcond=None)
    S = S.T
    resid = float(np.linalg.norm(S @ R1 - R2) / max(1.0, np.linalg.norm(R2)))
    return S, resid
