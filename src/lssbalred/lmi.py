"""Solver for simultaneous linear matrix inequalities.

All grammian, stability and gain computations in this package reduce to the
same shape of problem: find a symmetric P with

    F_i(P) <= -margin * I   for every constraint block i,
    P      >=  margin * I,

where each F_i is an affine map from symmetric n x n matrices to symmetric
k_i x k_i matrices, and the margin is MARGIN_SCALE_FACTOR times the data
scale: the solver works it out from the system.  Every constraint family of
a switched model (stability, grammian, gain and mode-summed sets) is written
once, by :func:`family_system`; the solver and the membership checks both
evaluate those blocks.  There are two solvers over the same compiled system.

:func:`solve_feasibility` runs Douglas-Rachford splitting between the affine
graph {(P, F_1(P), ..., F_m(P))} and the product of shifted semidefinite
cones, for a feasible point only.  Compiling a system evaluates every block
once on the stacked symmetric basis, precomputes the graph projector and
groups the cones by size, so a sweep costs two matrix-vector products in
the symmetric vectorization plus one eigvalsh (the feasibility test) and
one eigh (the clip onto the cones) on each stack of equal-size cones.
"Infeasible" means no certificate was found within the iteration budget.

:func:`minimize` is a primal-dual interior-point method for min <W, P> over
the same cones (Nesterov-Todd scaling, Mehrotra's predictor-corrector),
with a phase 1 that decides feasibility; its `rtol` is a relative duality
gap.  The certified gain (min gamma^2 over :func:`lifted_gain_system`) and
every trace-tightened grammian (min tr P, :func:`tighten_trace`) take one
such solve.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from ._linalg import (
    asymmetric,
    max_eig,
    min_eig,
    require_symmetric,
    svec,
    svec_dim,
    svec_index,
    sym_basis,
    symmetrize,
)
from .errors import InfeasibleError
from .model import dual_system, require_discrete

DEFAULT_BUDGET = 5000
MARGIN_SCALE_FACTOR = 1e-7
STALL_WINDOW = 300  # sweeps without STALL_RTOL relative progress end a feasibility solve
STALL_RTOL = 1e-3
ITERATION_BUDGET = 100  # interior-point iterations per run of minimize and per phase 1
PHASE1_REACH = 1e8  # phase 1 searches P up to this times 1 + tr of the start
INFEASIBLE_SIGMA = 0.1  # least centring weight while the primal residual is not 0
DIVERGED = 1e6  # a run ends once mu passes this times its start
PHASE1_RESIDUAL = 1e-9  # a phase-1 dual bound counts once its residual norm is below this


@dataclass(frozen=True)
class LmiTerm:
    """One bilinear coefficient pair: contributes L @ P @ R, plus the
    transpose of that product when `symmetrize` is set.  P may also be a
    stack (..., n, n) of matrices."""

    left: np.ndarray
    right: np.ndarray
    symmetrize: bool = False

    def apply(self, P):
        M = self.left @ P @ self.right
        return M + np.swapaxes(M, -1, -2) if self.symmetrize else M


@dataclass(frozen=True)
class LmiBlock:
    """Affine map P -> constant + sum of terms, valued in symmetric matrices."""

    constant: np.ndarray
    terms: tuple

    @property
    def size(self):
        return self.constant.shape[0]

    def evaluate(self, P):
        out = np.array(self.constant, dtype=float, copy=True)
        for t in self.terms:
            out += t.apply(P)
        return out


@dataclass(frozen=True)
class AffineLmiSystem:
    """A finite family of symmetric-valued affine constraint blocks in one
    symmetric matrix variable of dimension n."""

    n: int
    blocks: tuple

    def evaluate(self, P):
        return [b.evaluate(P) for b in self.blocks]

    def residual(self, P):
        """Largest eigenvalue over all constraint blocks at P."""
        return max(max_eig(b.evaluate(P)) for b in self.blocks)

    def data_scale(self):
        s = 1.0
        for b in self.blocks:
            s = max(s, float(np.max(np.abs(b.constant))) if b.constant.size else 0.0)
            for t in b.terms:
                s = max(s, float(np.linalg.norm(t.left, 2) * np.linalg.norm(t.right, 2)))
        return s


def family_system(model, family, gamma=None):
    """The constraint family `family` of a switched model as an affine LMI
    system; M belongs to the set when every block at M is <= 0.  The gain
    set "G" needs a finite gamma > 0; no other set takes a gamma.

    Per mode (continuous | discrete):

        "S"  A^T M + M A               | A^T M A - M
        "O"  A^T M + M A + C^T C       | A^T M A - M + C^T C
        "C"  A M + M A^T + B B^T       | A M A^T - M + B B^T
        "G"  [[A^T M + M A + C^T C, M B],  [B^T M, -gamma^2 I]]
             | [[A^T M A - M + C^T C, A^T M B], [B^T M A, B^T M B - gamma^2 I]]

    and, discrete time only, one mode-summed block each:

        "Osum"  sum_q (A_q^T M A_q + C_q^T C_q) - M
        "Csum"  sum_q (A_q M A_q^T + B_q B_q^T) - M

    Only "G" and "Osum" are written out.  "O" is the "G" block with no input
    and "S" the one with no input and no output; "C" and "Csum" are "O" and
    "Osum" of the dual system (A_q^T, C_q^T, B_q^T).
    """
    if gamma is not None and family != "G":
        raise ValueError(f"only the gain set takes a gamma, not {family!r} (gamma={gamma})")
    if family in ("C", "Csum"):
        return family_system(dual_system(model), "O" + family[1:])
    n = model.n
    if family == "Osum":
        require_discrete(model)
        I = np.eye(n)
        terms = [LmiTerm(A.T, A) for A in model.A] + [LmiTerm(-I, I)]
        const = np.asarray(model.gram_sums()[1], dtype=float)
        return AffineLmiSystem(n, (LmiBlock(const, tuple(terms)),))
    if family == "G" and not (gamma is not None and 0 < gamma < np.inf):
        raise ValueError(f"the gain set needs a finite gamma > 0, got {gamma}")
    if family not in ("S", "O", "G"):
        raise ValueError(f"unknown set {family!r}")
    modes = zip(model.A, model.B, model.C)
    if family != "G":  # an empty gamma corner: gamma is unread
        no_input, no_output = np.zeros((n, 0)), np.zeros((0, n))
        modes = ((A, no_input, C if family == "O" else no_output) for A, _, C in modes)
        gamma = 0.0
    return AffineLmiSystem(n, tuple(_mode_block(A, B, C, gamma, model.is_discrete)
                                    for A, B, C in modes))


def _mode_block(A, B, C, gamma, discrete):
    """The gain block of one mode; with no input (m = 0) it is the
    observability block, and with no output too the stability block."""
    n, m = B.shape
    E1 = np.eye(n + m, n)  # embeds n-dim into the block
    const = np.zeros((n + m, n + m))
    const[:n, :n] = C.T @ C
    const[n:, n:] = -(gamma**2) * np.eye(m)
    if discrete:
        L1 = np.vstack([A.T, B.T])
        return LmiBlock(const, (LmiTerm(L1, L1.T), LmiTerm(-E1, E1.T)))
    terms = (LmiTerm(E1 @ A.T, E1.T, symmetrize=True),)
    if m:
        R2 = np.hstack([np.zeros((n, n)), B])
        terms += (LmiTerm(E1, R2, symmetrize=True),)
    return LmiBlock(const, terms)


def lifted_gain_system(model):
    """The gain family in X = [[P, *], [*, t]] of size n + 1: each block at X
    is the "G" block at P and gamma = sqrt(t), its terms re-embedded through
    P = E X E^T plus m corner terms for -t I_m."""
    n, m = model.n, model.m
    E = np.eye(n, n + 1)
    e = np.eye(n + 1)[:, n:]
    corner = [np.eye(n + m)[:, n + j:n + j + 1] for j in range(m)]
    blocks = []
    for A, B, C in zip(model.A, model.B, model.C):
        block = _mode_block(A, B, C, 0.0, model.is_discrete)
        terms = [LmiTerm(t.left @ E, E.T @ t.right, t.symmetrize) for t in block.terms]
        terms += [LmiTerm(-f @ e.T, e @ f.T) for f in corner]
        blocks.append(LmiBlock(block.constant, tuple(terms)))
    return AffineLmiSystem(n + 1, tuple(blocks))


@dataclass(frozen=True)
class Certificate:
    """A matrix P with the largest eigenvalue of each block of the family
    `family` (at `gamma` for the gain set) re-evaluated at P.  Every result
    that certifies a set membership is one of these, built by
    :func:`check_membership`."""

    family: str
    P: np.ndarray
    residuals: tuple
    gamma: float | None = None

    @property
    def worst(self):
        return max(self.residuals)

    @property
    def margin(self):
        return -self.worst

    def member(self, margin=0.0):
        return self.worst <= -margin


def check_membership(model, M, family, gamma=None):
    """The certificate of M for `family`: the largest eigenvalue of each
    block of :func:`family_system` at M.

    Membership means every residual is <= 0; the strict variant asks for
    <= -margin.
    """
    M = require_symmetric(M, what="candidate matrix")
    blocks = family_system(model, family, gamma).evaluate(M)
    return Certificate(family, M, tuple(max_eig(R) for R in blocks), gamma)


@dataclass
class FeasibilityResult:
    status: str  # "feasible" | "infeasible_within_budget"
    solution: np.ndarray | None
    residual: float
    iterations: int
    margin: float = 0.0

    @property
    def feasible(self):
        return self.status == "feasible"


class _CompiledSystem:
    """A system in the symmetric vectorization, with its graph projector and
    its cone tables.

    Each block's linear part is evaluated once on the stacked symmetric
    basis, one batched product per term, and gathered into svec columns;
    every basis image and constant must be symmetric to 1e-12 of its own
    scale.  The block maps are stacked into one matrix M with stacked
    constant c, so all block images of x are M x + c.  The projection of
    (x, z) onto the graph {(a, M a + c)} is a = G^-1 (x + M^T (z - c)) with
    Gram matrix G = I + M^T M >= I; G^-1 comes from one Cholesky factor,
    computed at the first projection, so projecting is one matvec on the
    stacked point [x; z] minus a fixed offset, and a second gives the block
    images M a + c.

    The cones of a stacked point are P (cone 0, a floor) and the blocks
    (cones 1..m, ceilings).  Cones of equal size k share one table: a
    (count, k, k) gather index and divisor that unpack them from the
    stacked vector, inverting svec, and their svec positions for the
    way back.  So a sweep is two matvecs plus one eigvalsh and one eigh per
    cone size.
    """

    def __init__(self, sys):
        n = sys.n
        self.d = d = svec_dim(n)
        basis = sym_basis(n)
        maps, consts = [], []
        for i, b in enumerate(sys.blocks):
            images = sum(t.apply(basis) for t in b.terms)
            if asymmetric(images, 1e-12) or asymmetric(b.constant, 1e-12):
                raise ValueError(f"constraint block {i} violates symmetry")
            maps.append(svec(0.5 * (images + images.swapaxes(1, 2))).T)
            consts.append(svec(symmetrize(b.constant)))
        self.maps = np.vstack(maps)
        self.consts = np.concatenate(consts)
        sizes = [n] + [b.size for b in sys.blocks]
        starts = np.cumsum([0] + [svec_dim(k) for k in sizes])
        self.cones = []  # per size, cone 0's first: (gather, divisor, svec positions, floor)
        for k in dict.fromkeys(sizes):
            ids = np.array([i for i, s in enumerate(sizes) if s == k])
            rows, cols, scale = svec_index(k)
            positions = starts[ids, None] + np.arange(rows.size)
            gather = np.empty((ids.size, k, k), dtype=np.intp)
            gather[:, rows, cols] = gather[:, cols, rows] = positions
            divisor = np.empty((k, k))
            divisor[rows, cols] = divisor[cols, rows] = scale
            self.cones.append((gather, divisor, positions, (ids == 0)[:, None]))

    @cached_property
    def projector(self):
        chol_inv = np.linalg.inv(np.linalg.cholesky(np.eye(self.d) + self.maps.T @ self.maps))
        gram_inv = chol_inv.T @ chol_inv
        return np.hstack([gram_inv, gram_inv @ self.maps.T])

    @cached_property
    def offset(self):
        return self.projector[:, self.d:] @ self.consts

    def images(self, x):
        """Stacked svec images of all blocks at svec point x."""
        return self.maps @ x + self.consts

    def graph_project(self, xi):
        """Nearest graph point [a; M a + c] to the stacked point xi = [x; z]."""
        ax = self.projector @ xi - self.offset
        return np.concatenate((ax, self.images(ax)))

    def unpack(self, v):
        """The cone matrices of a stacked vector, one (count, k, k) stack per size."""
        return [v[gather] / divisor for gather, divisor, _, _ in self.cones]


def solve_feasibility(sys, budget=None, start=None, callback=None):
    """Search for P > 0 satisfying every block of `sys` with margin
    MARGIN_SCALE_FACTOR * data_scale.

    Douglas-Rachford splitting between the affine graph
    {(P, F_1(P), ..., F_m(P))} and the product of shifted semidefinite cones;
    the graph projection is one matvec with the projector precomputed when
    the system is compiled, the cone projections clip eigenvalues, one
    stacked eigh per cone size.  Feasibility is tested on the graph point
    each sweep, so `status="feasible"` guarantees that re-evaluating the
    blocks at the returned P gives max eigenvalue <= -margin and
    min eig(P) >= margin.

    The first feasible point is returned, else the budget (DEFAULT_BUDGET
    if None) ran out or the violation stopped improving: STALL_WINDOW
    sweeps passed without a drop below (1 - STALL_RTOL) times its last
    mark.  No negative result is a certificate of infeasibility.
    """
    n = sys.n
    scale = sys.data_scale()
    if budget is None:
        budget = DEFAULT_BUDGET
    margin = MARGIN_SCALE_FACTOR * scale
    # Project onto slightly deeper cones so that acceptance at `margin`
    # triggers at a finite iterate.
    gap = max(10.0 * margin, 1e-6 * scale)
    deep = margin + gap

    compiled = _CompiledSystem(sys)
    # Clip bounds per cone: P >= deep I, every block <= -deep I.
    bounds = [(np.where(floor, deep, -np.inf), np.where(floor, np.inf, -deep))
              for _, _, _, floor in compiled.cones]
    if start is not None:
        P0 = require_symmetric(np.asarray(start, dtype=float), what="start")
    else:
        P0 = np.eye(n)
    xi = np.concatenate((svec(P0), compiled.images(svec(P0))))

    best_violation = np.inf
    best_P = None
    iterations = 0
    stall_mark = np.inf
    stall_at = 0
    for it in range(1, budget + 1):
        iterations = it
        # Projection onto the affine graph, then the eigenvalues of every cone.
        a = compiled.graph_project(xi)
        stacks = compiled.unpack(a)
        eigs = [np.linalg.eigvalsh(S) for S in stacks]
        P = stacks[0][0]
        res = float(np.max(np.concatenate([w[:, -1] for w in eigs])[1:]))
        pmin = float(eigs[0][0, 0])
        violation = max(res + margin, margin - pmin)
        if violation < best_violation:
            best_violation = violation
            best_P = P
        if callback is not None:
            callback(it, res)
        if res <= -margin and pmin >= margin:
            return FeasibilityResult("feasible", P, res, it, margin)
        if violation < stall_mark * (1.0 - STALL_RTOL):
            stall_mark = violation
            stall_at = it
        elif it - stall_at >= STALL_WINDOW:
            break
        # Reflect, project onto the cones, average.
        b = np.empty_like(a)
        for (_, _, positions, _), (lo, hi), S in zip(compiled.cones, bounds,
                                                      compiled.unpack(2.0 * a - xi)):
            w, V = np.linalg.eigh(S)
            b[positions] = svec((V * np.clip(w, lo, hi)[:, None, :]) @ V.swapaxes(1, 2))
        xi = xi + b - a

    res = sys.residual(best_P) if best_P is not None else np.inf
    return FeasibilityResult("infeasible_within_budget", None, res, iterations, margin)


def tighten_trace(sys, seed_solution):
    """The smallest-trace point of `sys` found by one min tr P solve
    (:func:`minimize`) started from a feasible `seed_solution`; the seed
    itself if the solve finds nothing of smaller trace."""
    seed_solution = require_symmetric(seed_solution, what="seed solution")
    P = minimize(sys, np.eye(sys.n), start=seed_solution).solution
    return P if np.trace(P) < np.trace(seed_solution) else seed_solution


class _Cones:
    """The cones of stacked svec vectors of length N, by tables like
    _CompiledSystem.cones: `unpack` keeps leading axes, giving per size a
    (..., count, k, k) stack, and `pack` inverts it."""

    def __init__(self, tables, N):
        self.tables, self.N = tables, N
        self.identity = self.pack([np.broadcast_to(np.eye(g.shape[1]), g.shape)
                                   for g, _, _, _ in tables])

    def unpack(self, v):
        return [v[..., gather] / divisor for gather, divisor, _, _ in self.tables]

    def pack(self, stacks):
        v = np.empty(stacks[0].shape[:-3] + (self.N,))
        for (_, _, positions, _), S in zip(self.tables, stacks):
            v[..., positions] = svec(S)
        return v

    def factor(self, v):
        """Cholesky factors of the cone matrices of v, one stack per size,
        or None if one is not positive definite."""
        try:
            return [np.linalg.cholesky(S) for S in self.unpack(v)]
        except np.linalg.LinAlgError:
            return None


def _steps(lam, dS, dZ, fraction):
    """The primal and dual steps, at most 1, that go `fraction` of the way
    to the boundary along dS from diag(lam) and along dZ from diag(lam), in
    every cone; per size a (count, k) lam and (count, k, k) stacks."""
    worst = np.zeros(2)  # the lowest eigenvalue of diag(lam)^-1/2 D diag(lam)^-1/2, or 0
    for lg, Sg, Zg in zip(lam, dS, dZ):
        low = np.linalg.eigvalsh(np.stack((Sg, Zg)) / np.sqrt(lg[:, :, None] * lg[:, None, :]))
        worst = np.minimum(worst, low[..., 0].min(axis=1))
    return fraction / np.maximum(-worst, fraction)


def _path_follow(cones, A, a, c, y, s, gap):
    """Primal-dual interior-point iterates for min <c, y> over the slack
    s = A y + a in `cones`, from y, an interior slack s and the dual
    z = mu S^-1 on its central path, mu = gap / K with K the sum of the
    cone sizes.  The dual, max <-a, z> over A^T z = c with z in the cones,
    is entered infeasible; so is the primal when s is not A y + a.  Each
    residual, r = c - A^T z and A y + a - s, shrinks by the factor
    1 - step of its side.

    Each iteration takes the Nesterov-Todd scaling of every cone: from
    S = L L^T, Z = R R^T and the SVD R^T L = U diag(lam) V^T,
    G^-1 = diag(lam)^-1/2 U^T R^T scales both S and Z to diag(lam).  With
    Y_a = svec(G^-1 A_a G^-T) over the columns A_a of A, unpacked, the
    Schur complement is H = Y Y^T, and a scaled complementarity target M
    gives the direction H dy = Y (M - q) - r, dS~ = Y^T dy + q,
    dZ~ = M - dS~, where q is the primal residual scaled by G^-1.  A QR
    factor of Y^T stands in for the Cholesky factor of H when rounding
    leaves H indefinite.  Mehrotra's predictor (M = -diag(lam)) sets
    sigma = (mu_aff / mu)^3; the corrector aims at sigma mu I less the
    predictor's second-order term, by the same factor of H.  Primal and
    dual each step to 0.9 + 0.09 min(predictor steps) of the boundary.

    Once an iterate's own slack A y + a is interior it becomes s, so the
    primal residual is 0 from then on; until then sigma is at least
    INFEASIBLE_SIGMA, so that mu does not fall faster than the residual.
    Yields (y, s, z, whether s is the own slack) after every iteration;
    ends when a slack or dual Cholesky factor fails, that is, once rounding
    has reached the boundary, or once mu = <S, Z> / K passes DIVERGED times
    its start, as it does when the primal has no feasible point.
    """
    images = cones.unpack(A.T)  # per size: (p, count, k, k)
    K = float(cones.identity @ cones.identity)
    mu_start = gap / K
    L = cones.factor(s)
    if L is None:
        return
    z = mu_start * cones.pack([np.linalg.inv(S) for S in cones.unpack(s)])
    while True:
        R = cones.factor(z)
        if R is None:
            return
        lam, G_inv = [], []
        for Lg, Rg in zip(L, R):
            U, lg, _ = np.linalg.svd(Rg.swapaxes(1, 2) @ Lg)
            lam.append(lg)
            G_inv.append((U * lg[:, None, :] ** -0.5).swapaxes(1, 2) @ Rg.swapaxes(1, 2))
        Y = cones.pack([Gi @ Ga @ Gi.swapaxes(1, 2) for Gi, Ga in zip(G_inv, images)])
        try:
            C = np.linalg.cholesky(Y @ Y.T)
        except np.linalg.LinAlgError:  # rounding left H indefinite
            C = np.linalg.qr(Y.T, mode="r").T
        C_inv = np.linalg.inv(C)
        r = c - A.T @ z
        residual = A @ y + a - s
        q = cones.pack([Gi @ Pg @ Gi.swapaxes(1, 2)
                        for Gi, Pg in zip(G_inv, cones.unpack(residual))])
        Lam = [lg[:, :, None] * np.eye(lg.shape[1]) for lg in lam]
        mu = sum(float((lg**2).sum()) for lg in lam) / K
        if not mu <= DIVERGED * mu_start:
            return

        def direction(M):
            dy = C_inv.T @ (C_inv @ (Y @ (cones.pack(M) - q) - r))
            dS = cones.unpack(Y.T @ dy + q)
            return dy, dS, [Mg - Sg for Mg, Sg in zip(M, dS)]

        _, dS, dZ = direction([-Lg for Lg in Lam])
        ap, ad = _steps(lam, dS, dZ, 1.0)
        mu_aff = sum(float(np.sum((Lg + ap * Sg) * (Lg + ad * Zg)))
                     for Lg, Sg, Zg in zip(Lam, dS, dZ)) / K
        sigma = min(1.0, mu_aff / mu) ** 3
        if residual.any():  # no faster than the primal residual falls
            sigma = max(sigma, INFEASIBLE_SIGMA)
        target = []
        for lg, Lg, Sg, Zg in zip(lam, Lam, dS, dZ):
            SZ = Sg @ Zg
            T = sigma * mu * np.eye(lg.shape[1]) - Lg**2 - 0.5 * (SZ + SZ.swapaxes(1, 2))
            target.append(2.0 * T / (lg[:, :, None] + lg[:, None, :]))
        dy, dS, dZ = direction(target)
        ap, ad = _steps(lam, dS, dZ, 0.9 + 0.09 * min(ap, ad))
        y = y + ap * dy
        z = z + ad * cones.pack([Gi.swapaxes(1, 2) @ Zg @ Gi for Gi, Zg in zip(G_inv, dZ)])
        own = A @ y + a
        L = cones.factor(own)
        feasible = L is not None
        if not feasible:
            own = s + ap * (A @ dy + residual)
            L = cones.factor(own)
            if L is None:
                return
        s = own
        yield y, s, z, feasible


def _phase1(tables, B, b, trace, x):
    """A strictly feasible svec point, from the start x and the feasibility
    problem made homogeneous and compact: over (X, s) with tau = 1 - tr X,
    minimise s subject to B X + tau b + s I > 0 in every cone of `tables`
    and tau > 1 / reach, reach = PHASE1_REACH (1 + |tr X_0|), by the
    iteration of :func:`_path_follow`.  Once s < 0, X / tau clears every
    cone by -s / tau.  Raises InfeasibleError when the dual bound -<a, z>
    of an iterate whose dual residual is within PHASE1_RESIDUAL of 0 puts
    the minimum of s above 0 (no P of trace below reach clears the margin),
    or when the iteration ends first; returns (x, iterations)."""
    N, d = B.shape
    scale = 1.0 + abs(trace @ x)
    reach = PHASE1_REACH * scale
    cones = _Cones(tables + [(np.full((1, 1, 1), N), np.ones((1, 1)), np.full((1, 1), N), None)],
                   N + 1)
    A = np.zeros((N + 1, d + 1))
    A[:N, :d] = B - np.outer(b, trace)
    A[:N, d] = cones.identity[:N]
    A[N, :d] = -trace
    a = np.r_[b, 1.0 - 1.0 / reach]
    x = x / scale
    lowest = min(float(np.linalg.eigvalsh(S)[:, 0].min())
                 for S in cones.unpack(A[:, :d] @ x + a))
    y = np.r_[x, 2.0 * abs(lowest) + 1.0 - trace @ x]  # every slack at least tau
    c = np.eye(d + 1)[d]
    iterations = 0
    for y, _, z, _ in _path_follow(cones, A, a, c, y, A @ y + a, y[-1]):
        iterations += 1
        if y[-1] < 0:
            return y[:d] / (1.0 - trace @ y[:d]), iterations
        bound = -a @ z
        if bound > 0 and np.linalg.norm(c - A.T @ z) <= PHASE1_RESIDUAL:
            raise InfeasibleError(
                f"phase 1 ended at s = {y[-1]:.3g} > 0 after {iterations} iterations: its dual "
                f"bound {bound:.3g} puts s above 0, so no P of trace below {reach:.3g} clears "
                f"the solver margin")
        if iterations == ITERATION_BUDGET:
            break
    raise InfeasibleError(f"phase 1 ended at s = {y[-1]:.3g} > 0 after {iterations} iterations "
                          f"with no dual bound above 0")


def minimize(sys, objective, start=None, rtol=1e-6):
    """The smallest <objective, P> over the points of `sys` with margin
    MARGIN_SCALE_FACTOR * data_scale, by a primal-dual interior-point
    method over the slacks S_0 = P - margin I and S_j = -margin I - F_j(P).

    A run is the iteration of :func:`_path_follow` (Nesterov-Todd
    scaling, Mehrotra's predictor-corrector) with the dual started at
    mu S^-1, mu = max(|<W, P>|, |S|^2 / K, margin) / K, K = sum_j k_j.  It
    stops once the relative duality gap, (<S, Z> + |<r, P>|) divided by
    max(|<W, P>|, margin) with r the dual residual, is at most `rtol` at a
    strictly feasible P, after ITERATION_BUDGET iterations, or when
    _path_follow ends.

    A `start` (identity if None) that is strictly inside starts a feasible
    run.  Any other starts an infeasible one, from its slacks shifted
    inside by 2 |lowest eigenvalue| + 1; if no iterate of that run is
    strictly feasible, phase 1 (see _phase1) either finds a feasible start
    for a second run or raises InfeasibleError naming its s: no point
    clears the margin.

    Returns a feasible FeasibilityResult whose `iterations` counts the
    iterations of every run, at the last strictly feasible iterate (the
    start included) whose P re-evaluates to max block eigenvalue
    <= -margin and min eig(P) >= margin, as with solve_feasibility.
    """
    n = sys.n
    margin = MARGIN_SCALE_FACTOR * sys.data_scale()
    compiled = _CompiledSystem(sys)
    d = compiled.d
    weight = svec(require_symmetric(np.asarray(objective, dtype=float), what="objective"))
    if start is not None:
        P0 = require_symmetric(np.asarray(start, dtype=float), what="start")
    else:
        P0 = np.eye(n)
    sign = np.r_[np.ones(d), -np.ones(compiled.consts.size)]
    cones = _Cones(compiled.cones, sign.size)
    K = cones.identity @ cones.identity
    A = sign[:, None] * np.vstack((np.eye(d), compiled.maps))
    a = sign * np.r_[np.zeros(d), compiled.consts] - margin * cones.identity
    x = svec(P0)
    iterations = 0

    def run(x, s, inside):
        """The strictly feasible iterates of one run from (x, s), after
        `inside`; counts its iterations."""
        nonlocal iterations
        iterates = _path_follow(cones, A, a, weight, x, s, max(abs(weight @ x), s @ s / K, margin))
        for k, (x, s, z, feasible) in enumerate(iterates, 1):
            iterations += 1
            if feasible:
                inside.append(x)
                gap = s @ z + abs((weight - A.T @ z) @ x)
                if gap <= rtol * max(abs(weight @ x), margin):
                    break
            if k == ITERATION_BUDGET:
                break
        return inside

    s = A @ x + a
    if cones.factor(s) is not None:
        inside = run(x, s, [x])
    else:
        lowest = min(float(np.linalg.eigvalsh(S)[:, 0].min()) for S in cones.unpack(s))
        inside = run(x, s + (2.0 * abs(lowest) + 1.0) * cones.identity, [])
    if not inside:
        x, steps = _phase1(compiled.cones, A, a, svec(np.eye(n)), x)
        iterations += steps
        inside = run(x, A @ x + a, [x])
    for x in reversed(inside):  # the last iterate that re-verifies
        P = compiled.unpack(np.concatenate((x, compiled.images(x))))[0][0]
        res = sys.residual(P)
        if res <= -margin and min_eig(P) >= margin:
            return FeasibilityResult("feasible", P, res, iterations, margin)
    raise InfeasibleError(f"no interior-point iterate within {ITERATION_BUDGET} iterations "
                          f"re-verifies at the solver margin {margin:.3g}")
