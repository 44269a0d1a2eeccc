"""Finite-matrix embeddings of a discrete-time switched model into a
structured uncertain system and into a stochastic jump system.

The uncertain embedding stacks the modes into one (D+1)n-dimensional block
system: block row one of A holds [0, A_1, ..., A_D], every other block row is
[I, 0, ..., 0]; B feeds [B_1, ..., B_D] into the first block row; C reads
[0, C_1, ..., C_D].  Block-diagonal grammians of the embedding project onto
ordinary grammians of the switched model.  The stochastic embedding scales
all matrices by 1/sqrt(p) and draws the mode i.i.d. with P(mode = q) = p = 1/D;
the expected output energy then dominates every deterministic switching
realization, and equals the word-sum of squared deterministic outputs.
"""

import math
from dataclasses import dataclass

import numpy as np

from ._linalg import max_eig, min_eig, stein_radius, stein_solve
from .lmi import check_membership
from .model import DISCRETE, LssModel, require_discrete
from .realization import is_minimal, subspace_closure
from .simulate import _dt_run_batch, horizon_steps

PROJECTION_TOL = 1e-9  # residual tolerance of the block-grammian projection checks
MC_CHUNK = 4096  # Monte Carlo trials per random stream


@dataclass(frozen=True)
class BlockGrammianReport:
    embedded_ctrl_residual: float
    embedded_obs_residual: float
    summed_ctrl_residual: float
    summed_obs_residual: float
    mode_ctrl_residual: float
    mode_obs_residual: float

    @property
    def projected_pair_ok(self):
        return all(r <= PROJECTION_TOL for r in (
            self.summed_ctrl_residual, self.summed_obs_residual,
            self.mode_ctrl_residual, self.mode_obs_residual))


@dataclass(frozen=True)
class StochasticEnergyReport:
    mc_mean: float
    mc_se: float


def build_uncertain_embedding(model):
    """The structured uncertain system associated with a discrete-time
    switched model, as a one-mode model of order (D+1)n with mD inputs."""
    require_discrete(model)
    n, m, p, D = model.n, model.m, model.p, model.num_modes
    N = n * (D + 1)
    A = np.zeros((N, N))
    B = np.zeros((N, m * D))
    C = np.zeros((p, N))
    for q in range(D):
        A[:n, (q + 1) * n:(q + 2) * n] = model.A[q]
        A[(q + 1) * n:(q + 2) * n, :n] = np.eye(n)
        B[:n, q * m:(q + 1) * m] = model.B[q]
        C[:, (q + 1) * n:(q + 2) * n] = model.C[q]
    return LssModel(DISCRETE, (A,), (B,), (C,), name=model.name)


def check_uncertain_minimality_equivalence(model):
    """The switched model's minimality must agree with the blockwise rank
    conditions of its uncertain embedding; returns that agreement.  The
    closure runs over the n-row blocks, one edge per nonzero block M_ij:
    (A, B) gives the blockwise reachable family, (A^T, C^T) the blockwise
    observable one; block 0 is the hub."""
    emb = build_uncertain_embedding(model)
    n = model.n
    rows = [slice(i * n, (i + 1) * n) for i in range(model.num_modes + 1)]
    emb_minimal = True
    for M, G in ((emb.A[0], emb.B[0]), (emb.A[0].T, emb.C[0].T)):
        edges = [[(j, M[ri, rj]) for j, rj in enumerate(rows) if np.any(M[ri, rj])] for ri in rows]
        V, _ = subspace_closure([G[ri] for ri in rows], edges)
        emb_minimal &= all(Vi.shape[1] == n for Vi in V)
    return is_minimal(model) == emb_minimal


def _block_diag(blocks):
    n = blocks[0].shape[0]
    out = np.zeros((n * len(blocks), n * len(blocks)))
    for i, M in enumerate(blocks):
        out[i * n:(i + 1) * n, i * n:(i + 1) * n] = M
    return out


def check_beck_grammian_projection(model, blockP, blockQ):
    """Verify that block-diagonal grammians of the uncertain embedding
    project onto grammians of the switched model.

    blockP and blockQ are lists of D+1 positive definite n x n blocks.  The
    embedded inequalities A P A^T + B B^T - P <= 0 and
    A^T Q A + C^T C - Q <= 0 are a precondition (rejected if violated
    beyond PROJECTION_TOL relative); the conclusions checked are the
    mode-summed inequalities and plain per-mode grammian membership of the
    first blocks P_1, Q_1.
    """
    require_discrete(model)
    D, n = model.num_modes, model.n
    if len(blockP) != D + 1 or len(blockQ) != D + 1:
        raise ValueError(f"expected {D + 1} diagonal blocks")
    if any(b.shape != (n, n) for b in list(blockP) + list(blockQ)):
        raise ValueError("diagonal blocks must be n x n")
    emb = build_uncertain_embedding(model)
    P = _block_diag(list(blockP))
    Q = _block_diag(list(blockQ))
    scale = max(1.0, float(np.max(np.abs(emb.A[0]))) ** 2 * float(np.max(np.abs(P))))
    ctrl_res = check_membership(emb, P, "C").worst
    obs_res = check_membership(emb, Q, "O").worst
    if ctrl_res > PROJECTION_TOL * scale or obs_res > PROJECTION_TOL * scale:
        raise ValueError(
            "block matrices do not satisfy the embedded grammian inequalities"
        )
    P1, Q1 = blockP[0], blockQ[0]
    return BlockGrammianReport(
        ctrl_res,
        obs_res,
        check_membership(model, P1, "Csum").worst,
        check_membership(model, Q1, "Osum").worst,
        check_membership(model, P1, "C").worst,
        check_membership(model, Q1, "O").worst,
    )


def feasible_block_pair(model):
    """Construct block-diagonal grammians of the uncertain embedding.

    Requires the D-inflated Stein radius (that of the modes sqrt(D) A_q) < 1,
    strictly stronger than strong stability for D > 1; the hub blocks solve
    inflated mode-summed Stein equations and the satellite blocks dominate
    the Gram cross terms, so the embedded inequalities hold with margin.
    """
    require_discrete(model)
    D, n = model.num_modes, model.n
    As = [math.sqrt(D) * A for A in model.A]
    rho = stein_radius(As)
    if rho >= 1.0:
        raise ValueError(
            f"D-inflated Kronecker radius {rho:.4g} >= 1; no block construction"
        )
    c = 1e-3 * max(1.0, max(float(np.max(np.abs(B))) for B in model.B)) ** 2
    gram_norm = max_eig(sum(A @ A.T for A in model.A))
    c2 = c / (2.0 * max(1.0, gram_norm))

    GB, GC = model.gram_sums()
    GB = GB + (c2 * gram_norm + c) * np.eye(n)
    P1 = stein_solve(As, GB)
    blockP = [P1] + [D * P1 + c2 * np.eye(n) for _ in range(D)]

    GC = D * GC + (D * c2 + c) * np.eye(n)
    Q1raw = stein_solve([A.T for A in As], GC)
    # Q1 solves Q1 = D sum A^T Q1 A + GC, satellites dominate the Gram grid.
    blockQ = [Q1raw] + [
        D * (model.A[q].T @ Q1raw @ model.A[q] + model.C[q].T @ model.C[q]) + c2 * np.eye(n)
        for q in range(D)
    ]
    if min(min_eig(b) for b in blockP + blockQ) <= 0:
        raise ValueError("construction produced a non-PD block")
    return blockP, blockQ


# ---------------------------------------------------------------------------
# Stochastic embedding
# ---------------------------------------------------------------------------


def stochastic_embedding(model):
    """The jump system with matrices scaled by 1/sqrt(p), whose modes are
    drawn i.i.d. with probability p = 1/D each."""
    require_discrete(model)
    s = 1.0 / math.sqrt(1.0 / model.num_modes)
    return LssModel(
        DISCRETE,
        tuple(s * A for A in model.A),
        tuple(s * B for B in model.B),
        tuple(s * C for C in model.C),
        name=model.name,
    )


def monte_carlo_stochastic_energy(model, u, trials, horizon, seed):
    """Monte Carlo estimate of the expected cumulative squared output of the
    stochastic embedding under a deterministic input u (one row per step, a
    1-D u is one column); returns the mean with its standard error.  Chunk i
    of MC_CHUNK trials draws its modes from the stream
    SeedSequence(entropy=seed, spawn_key=(i,)), so the result is
    deterministic given the seed.  horizon_steps checks horizon and trials."""
    scaled = stochastic_embedding(model)
    horizon = horizon_steps(DISCRETE, horizon, trials=trials)
    u = np.asarray(u, dtype=float)
    if u.ndim == 1:
        u = u[:, None]
    if u.ndim != 2 or u.shape[1] != model.m:
        raise ValueError(f"input must have {model.m} columns, got shape {u.shape}")
    if u.shape[0] < horizon:
        raise ValueError("input must cover the horizon")
    u = u[:horizon]
    total = total_sq = 0
    for i, start in enumerate(range(0, trials, MC_CHUNK)):
        rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(i,)))
        R = min(MC_CHUNK, trials - start)
        modeseq = rng.integers(0, model.num_modes, size=(R, horizon))
        _, outputs = _dt_run_batch(scaled, modeseq, np.broadcast_to(u, (R,) + u.shape))
        energies = np.sum(outputs**2, axis=(1, 2))
        total += float(np.sum(energies))
        total_sq += float(np.sum(energies**2))
    mean = total / trials
    var = max(total_sq / trials - mean**2, 0.0)
    se = math.sqrt(var / trials)
    return StochasticEnergyReport(mean, se)
