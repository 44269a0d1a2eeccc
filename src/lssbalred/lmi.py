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
cones.  Compiling a system evaluates every block once on the stacked
symmetric basis, precomputes the graph projector and groups the cones by
size, so a sweep costs two matrix-vector products in the symmetric
vectorization plus one eigvalsh (the feasibility test) and one eigh (the
clip onto the cones) on each stack of equal-size cones.  A linear objective
<W, P> only shifts the graph projection's target, so trace-tightened
grammians (min tr P) take one solve.  "Infeasible" means no certificate was
found within the iteration budget.

:func:`minimize` is a log-barrier interior-point method for min <W, P> over
the same cones, with a phase 1 that decides feasibility; the certified gain
(min gamma^2 over :func:`lifted_gain_system`) takes one such solve.
"""

from dataclasses import dataclass

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
OBJECTIVE_BUDGET = 20000
OBJECTIVE_STEP = 0.2  # DR step on the objective, in units of the data scale
MARGIN_SCALE_FACTOR = 1e-7
STALL_WINDOW = 300  # sweeps without STALL_RTOL relative progress end a feasibility solve
STALL_RTOL = 1e-3
SETTLE_RTOL = 1e-5  # a feasible DR step this small relative to the iterate ends an objective solve
NEWTON_BUDGET = 500  # Newton steps per minimize call, both phases
BARRIER_GROWTH = 20.0  # factor on the barrier weight t per centering
CENTERED = 1e-8  # half the squared Newton decrement that ends a centering
ARMIJO = 0.25  # accepted steps lower the value by this fraction of the linear prediction
MIN_STEP = 1e-10  # shortest backtracked step before a centering gives up
PHASE1_REACH = 1e8  # phase 1 searches P up to this times 1 + tr of the start
ROUNDING = 1e-13  # a step whose decrease is at most this times |value| ends a centering


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


def solve_feasibility(sys, budget=None, start=None, callback=None, objective=None):
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
    SETTLE_RTOL * (1 + |xi|) or the budget (OBJECTIVE_BUDGET if None) runs
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
            size = np.hypot(np.linalg.norm(xi[:d]), np.linalg.norm(xi[d:]))
            if step <= SETTLE_RTOL * (1.0 + size):
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


class _Barrier:
    """-sum_j log det S_j(y) over cone slacks stacked in svec as B y + b,
    with `cones` tables like _CompiledSystem.cones.  The columns of B,
    unpacked once into cone matrices G_a, give the Newton system densely:
    with S_j = L_j L_j^T and Y_a = L_j^-1 G_a L_j^-T, the Hessian is
    H_ab = sum_j tr(W_j G_a W_j G_b) = sum_j <Y_a, Y_b> (W_j = S_j^-1) and
    the gradient is -sum_j <Y_a, I>.  When rounding leaves H = Y Y^T
    indefinite (its condition number is the square of Y's), a QR factor of
    the stacked svec(Y_a) solves the system instead."""

    def __init__(self, cones, B, b):
        self.cones, self.B, self.b = cones, B, b
        self.images = self.unpack(B.T)  # per cone size: (p, count, k, k)
        # svec(I) of every cone, in the order of the stacks
        self.identity = np.concatenate([np.tile(svec(np.eye(g.shape[1])), g.shape[0])
                                        for g, _, _, _ in cones])

    def unpack(self, v):
        """As _CompiledSystem.unpack, keeping leading axes: the (p, N) columns
        of B give (p, count, k, k) stacks."""
        return [v[..., gather] / divisor for gather, divisor, _, _ in self.cones]

    def factor(self, y):
        """Cholesky factors of the slacks at y, one stack per cone size, or
        None if y is outside the domain."""
        try:
            return [np.linalg.cholesky(S) for S in self.unpack(self.B @ y + self.b)]
        except np.linalg.LinAlgError:
            return None

    @staticmethod
    def value(factors):
        return -2.0 * sum(float(np.log(np.diagonal(L, axis1=1, axis2=2)).sum()) for L in factors)

    def newton(self, factors, c):
        """The Newton step of <c, y> + barrier at the point with these
        factors, and its slope: minus the squared Newton decrement."""
        p = self.B.shape[1]
        Y = []
        for L, G in zip(factors, self.images):
            L_inv = np.linalg.inv(L)
            Y.append(svec(L_inv @ G @ L_inv.swapaxes(1, 2)).reshape(p, -1))
        Y = np.hstack(Y)
        grad = c - Y @ self.identity
        H = Y @ Y.T
        try:
            np.linalg.cholesky(H)
            step = -np.linalg.solve(H, grad)
        except np.linalg.LinAlgError:  # rounding left H indefinite
            R = np.linalg.qr(Y.T, mode="r")
            step = -np.linalg.solve(R, np.linalg.solve(R.T, grad))
        return step, float(grad @ step)


def _center(barrier, c, y, budget):
    """Damped Newton steps on <c, y> + barrier(y) from the interior point y,
    each with an Armijo backtracking search that takes a failed Cholesky as
    outside the domain.  Ends when the Newton decrement is below CENTERED,
    a step's decrease is within rounding of the value, no step is found or
    `budget` steps are taken; returns (y, steps)."""
    factors = barrier.factor(y)
    f = c @ y + barrier.value(factors)
    for step in range(budget):
        dy, slope = barrier.newton(factors, c)
        if -slope <= 2.0 * CENTERED:
            return y, step
        alpha = 1.0
        while True:
            trial = y + alpha * dy
            new = barrier.factor(trial)
            if new is not None:
                f_new = c @ trial + barrier.value(new)
                if f_new <= f + ARMIJO * alpha * slope:
                    break
            alpha *= 0.5
            if alpha < MIN_STEP:
                return y, step
        decrease = f - f_new
        y, factors, f = trial, new, f_new
        if decrease <= ROUNDING * abs(f):
            return y, step + 1
    return y, budget


def _phase1(compiled, B, b, eye, trace, x, budget):
    """A strictly feasible svec point, from the start x and the feasibility
    problem made homogeneous and compact: over (X, s) with tau = 1 - tr X,
    minimise s subject to B x + tau b + s I > 0 in every cone and
    tau > 1 / reach, reach = PHASE1_REACH (1 + |tr X_0|).  Once s < 0,
    X / tau clears every cone by -s / tau.  Raises InfeasibleError when a
    centre's barrier gap puts the minimum of s above 0 (no P of trace below
    reach clears the margin), or when the budget runs out; returns
    (x, Newton steps)."""
    N, d = B.shape
    scale = 1.0 + abs(trace @ x)
    reach = PHASE1_REACH * scale
    cones = compiled.cones + [(np.full((1, 1, 1), N), np.ones((1, 1)), np.full((1, 1), N), None)]
    B1 = np.zeros((N + 1, d + 1))
    B1[:N, :d] = B - np.outer(b, trace)
    B1[:N, d] = eye
    B1[N, :d] = -trace
    barrier = _Barrier(cones, B1, np.r_[b, 1.0 - 1.0 / reach])
    K = int(barrier.identity.sum())
    x = x / scale
    slacks = barrier.unpack(B1[:, :d] @ x + barrier.b)
    lowest = min(float(np.linalg.eigvalsh(S)[:, 0].min()) for S in slacks)
    y = np.r_[x, 2.0 * abs(lowest) + 1.0 - trace @ x]  # every slack at least tau
    t = K / y[-1]
    steps = 0
    while steps < budget:
        y, k = _center(barrier, t * np.r_[np.zeros(d), 1.0], y, budget - steps)
        steps += max(k, 1)  # a centering without a step still counts, so t stays bounded
        if y[-1] < 0:
            return y[:d] / (1.0 - trace @ y[:d]), steps
        if y[-1] > 2.0 * K / t:
            raise InfeasibleError(
                f"phase 1 ended at s = {y[-1]:.3g} > 0 after {steps} Newton steps: its barrier "
                f"gap bounds s above 0, so no P of trace below {reach:.3g} clears the solver margin")
        t *= BARRIER_GROWTH
    raise InfeasibleError(f"phase 1 ended at s = {y[-1]:.3g} > 0: its budget of {budget} "
                          f"Newton steps ran out")


def minimize(sys, objective, start=None, rtol=1e-6):
    """The smallest <objective, P> over the points of `sys` with margin
    MARGIN_SCALE_FACTOR * data_scale, by a log-barrier interior-point method.

    Minimises t <W, P> + delta tr P - sum_j log det S_j over the slacks
    S_0 = P - margin I and S_j = -margin I - F_j(P), of sizes k_j, with
    damped Newton steps (see _center), and raises t by BARRIER_GROWTH per
    centering until the centre's gap bound (K + delta tr P) / t,
    K = sum_j k_j, is at most `rtol` * |<W, P>|.  The term delta tr P,
    delta = K / tr P at the first centre's start, keeps a centre finite
    when the objective leaves a direction free (a state no input reaches,
    say).  A `start` (identity if None) that is not strictly inside first
    goes through phase 1 (see _phase1), which raises InfeasibleError naming
    its s when it ends with s > 0: no point clears the margin.

    Returns a feasible FeasibilityResult whose `iterations` counts the
    Newton steps of both phases; as with solve_feasibility, its P
    re-evaluates to max block eigenvalue <= -margin and min eig(P) >= margin.
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
    sizes = [n] + [blk.size for blk in sys.blocks]
    K = sum(sizes)
    eye = np.concatenate([svec(np.eye(k)) for k in sizes])  # every cone's identity, stacked
    sign = np.r_[np.ones(d), -np.ones(compiled.consts.size)]
    B = sign[:, None] * np.vstack((np.eye(d), compiled.maps))
    b = sign * np.r_[np.zeros(d), compiled.consts] - margin * eye
    barrier = _Barrier(compiled.cones, B, b)
    trace = svec(np.eye(n))
    x = svec(P0)
    steps = 0
    if barrier.factor(x) is None:
        x, steps = _phase1(compiled, B, b, eye, trace, x, NEWTON_BUDGET)

    delta = K / (trace @ x)
    t = K / max(abs(weight @ x), margin)
    centres = []
    while steps < NEWTON_BUDGET:
        x, k = _center(barrier, t * weight + delta * trace, x, NEWTON_BUDGET - steps)
        steps += max(k, 1)
        centres.append(x)
        if (K + delta * (trace @ x)) / t <= rtol * abs(weight @ x):
            break
        t *= BARRIER_GROWTH
    for x in reversed(centres):  # the last centre that re-verifies
        P = compiled.unpack(np.concatenate((x, compiled.images(x))))[0][0]
        res = sys.residual(P)
        if res <= -margin and min_eig(P) >= margin:
            return FeasibilityResult("feasible", P, res, steps, margin)
    raise InfeasibleError(f"no barrier centre within {NEWTON_BUDGET} Newton steps re-verifies "
                          f"at the solver margin {margin:.3g}")
