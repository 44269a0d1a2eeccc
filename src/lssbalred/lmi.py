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
evaluate those blocks.  The solver runs Douglas-Rachford splitting between the
affine graph {(P, F_1(P), ..., F_m(P))} and the product of shifted
semidefinite cones.  Compiling a system evaluates every block once on the
stacked symmetric basis, precomputes the graph projector and groups the
cones by size, so a sweep costs two matrix-vector products in the symmetric
vectorization plus one eigvalsh (the feasibility test) and one eigh (the
clip onto the cones) on each stack of equal-size cones.  A linear objective
<W, P> only shifts the graph projection's target, so the certified gain
(min gamma^2) and trace-tightened grammians (min tr P) take one solve each.
"Infeasible" means no certificate was found within the iteration budget.
"""

from dataclasses import dataclass

import numpy as np

from ._linalg import (
    asymmetric,
    max_eig,
    require_symmetric,
    svec,
    svec_dim,
    svec_index,
    sym_basis,
    symmetrize,
)
from .model import dual_system, require_discrete

DEFAULT_BUDGET = 5000
OBJECTIVE_BUDGET = 20000
OBJECTIVE_STEP = 0.2  # DR step on the objective, in units of the data scale
MARGIN_SCALE_FACTOR = 1e-7
STALL_WINDOW = 300  # sweeps without STALL_RTOL relative progress end a feasibility solve
STALL_RTOL = 1e-3


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
    Gram matrix G = I + M^T M >= I; G^-1 comes from one Cholesky factor per
    compile, so projecting is one matvec on the stacked point [x; z] minus
    a fixed offset, and a second gives the block images M a + c.

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
        chol_inv = np.linalg.inv(np.linalg.cholesky(np.eye(d) + self.maps.T @ self.maps))
        gram_inv = chol_inv.T @ chol_inv
        self.projector = np.hstack([gram_inv, gram_inv @ self.maps.T])
        self.offset = self.projector[:, d:] @ self.consts
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


def solve_feasibility(sys, budget=None, start=None, callback=None,
                      objective=None, settle=1e-5):
    """Search for P > 0 satisfying every block of `sys` with margin
    MARGIN_SCALE_FACTOR * data_scale, minimising <objective, P> if a
    symmetric weight `objective` is given.

    Douglas-Rachford splitting between the affine graph
    {(P, F_1(P), ..., F_m(P))} and the product of shifted semidefinite cones;
    the graph projection is one matvec with the projector precomputed when
    the system is compiled, the cone projections clip eigenvalues, one
    stacked eigh per cone size.  An objective W shifts the projection's
    target by -OBJECTIVE_STEP * data_scale * W.  Feasibility is tested on
    the graph point each sweep, so `status="feasible"` guarantees that
    re-evaluating the blocks at the returned P gives max eigenvalue
    <= -margin and min eig(P) >= margin.

    Without an objective the first feasible point is returned, else the
    budget (DEFAULT_BUDGET if None) ran out or the violation stopped
    improving: STALL_WINDOW sweeps passed without a drop below
    (1 - STALL_RTOL) times its last mark.  With one, the lowest-objective
    feasible point is returned once a feasible sweep's DR step is at most
    `settle` * (1 + |xi|) or the budget (OBJECTIVE_BUDGET if None) runs
    out.  No negative result is a certificate of infeasibility.
    """
    n = sys.n
    scale = sys.data_scale()
    if budget is None:
        budget = DEFAULT_BUDGET if objective is None else OBJECTIVE_BUDGET
    margin = MARGIN_SCALE_FACTOR * scale
    # Project onto slightly deeper cones so that acceptance at `margin`
    # triggers at a finite iterate.
    gap = max(10.0 * margin, 1e-6 * scale)
    deep = margin + gap

    compiled = _CompiledSystem(sys)
    d = compiled.d
    # Clip bounds per cone: P >= deep I, every block <= -deep I.
    bounds = [(np.where(floor, deep, -np.inf), np.where(floor, np.inf, -deep))
              for _, _, _, floor in compiled.cones]
    if start is not None:
        P0 = require_symmetric(np.asarray(start, dtype=float), what="start")
    else:
        P0 = np.eye(n)
    xi = np.concatenate((svec(P0), compiled.images(svec(P0))))
    if objective is not None:
        weight = svec(require_symmetric(np.asarray(objective, dtype=float), what="objective"))
        shift = np.concatenate((OBJECTIVE_STEP * scale * weight, np.zeros(xi.size - d)))

    best_violation = np.inf
    best_P = None
    found = None  # (objective value, P, residual) of the best feasible point
    iterations = 0
    stall_mark = np.inf
    stall_at = 0
    for it in range(1, budget + 1):
        iterations = it
        # Projection onto the affine graph, then the eigenvalues of every cone.
        a = compiled.graph_project(xi if objective is None else xi - shift)
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
        feasible = res <= -margin and pmin >= margin
        if objective is None:
            if feasible:
                return FeasibilityResult("feasible", P, res, it, margin)
            if violation < stall_mark * (1.0 - STALL_RTOL):
                stall_mark = violation
                stall_at = it
            elif it - stall_at >= STALL_WINDOW:
                break
        elif feasible and (found is None or weight @ a[:d] < found[0]):
            found = (weight @ a[:d], P, res)
        # Reflect, project onto the cones, average.
        b = np.empty_like(a)
        for (_, _, positions, _), (lo, hi), S in zip(compiled.cones, bounds,
                                                      compiled.unpack(2.0 * a - xi)):
            w, V = np.linalg.eigh(S)
            b[positions] = svec((V * np.clip(w, lo, hi)[:, None, :]) @ V.swapaxes(1, 2))
        xi = xi + b - a
        if feasible:  # with an objective: stop once the DR step settles
            step = np.hypot(np.linalg.norm(b[:d] - a[:d]), np.linalg.norm(b[d:] - a[d:]))
            if step <= settle * (1.0 + np.hypot(np.linalg.norm(xi[:d]), np.linalg.norm(xi[d:]))):
                break

    if found is not None:
        return FeasibilityResult("feasible", found[1], found[2], iterations, margin)
    res = sys.residual(best_P) if best_P is not None else np.inf
    return FeasibilityResult("infeasible_within_budget", None, res, iterations, margin)


def tighten_trace(sys, seed_solution):
    """The smallest-trace point of `sys` found by one min tr P solve at the
    solver's own margin, warm-started from a feasible `seed_solution`; the
    seed itself if the solve finds nothing of smaller trace."""
    seed_solution = require_symmetric(seed_solution, what="seed solution")
    result = solve_feasibility(sys, start=seed_solution, objective=np.eye(sys.n))
    if result.feasible and np.trace(result.solution) < np.trace(seed_solution):
        return result.solution
    return seed_solution
