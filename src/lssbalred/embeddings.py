"""Finite-matrix embeddings of a discrete-time switched model into a
structured uncertain system and into a stochastic jump system.

The uncertain embedding stacks the modes into one (D+1)n-dimensional block
system: block row one of A holds [0, A_1, ..., A_D], every other block row is
[I, 0, ..., 0]; B feeds [B_1, ..., B_D] into the first block row; C reads
[0, C_1, ..., C_D].  Block-diagonal grammians of the embedding project onto
ordinary grammians of the switched model.  The stochastic embedding scales
all matrices by 1/sqrt(p) and draws the mode i.i.d. with P(mode = q) = p;
the expected output energy then dominates every deterministic switching
realization, and equals the word-sum of squared deterministic outputs.
"""

import math
from dataclasses import dataclass

import numpy as np

from ._linalg import max_eig, min_eig, orth_columns, stein_radius, stein_solve
from .lmi import check_membership
from .model import DISCRETE, LssModel
from .realization import is_minimal
from .simulate import _dt_run_batch, run_trials


@dataclass(frozen=True)
class UncertainEmbedding:
    A: np.ndarray  # (D+1)n x (D+1)n
    B: np.ndarray  # (D+1)n x mD
    C: np.ndarray  # p x (D+1)n
    n: int
    D: int


@dataclass(frozen=True)
class StochasticEmbedding:
    model: LssModel  # matrices scaled by 1/sqrt(p)
    p_mode: float


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
        return (
            self.summed_ctrl_residual <= 1e-9
            and self.summed_obs_residual <= 1e-9
            and self.mode_ctrl_residual <= 1e-9
            and self.mode_obs_residual <= 1e-9
        )


@dataclass(frozen=True)
class StochasticEnergyReport:
    mc_mean: float
    mc_se: float
    trials: int
    horizon: int


def _require_discrete(model):
    if not model.is_discrete:
        raise ValueError("embeddings are defined for discrete-time models only")


def build_uncertain_embedding(model):
    """Block matrices of the structured uncertain system associated with a
    discrete-time switched model."""
    _require_discrete(model)
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
    return UncertainEmbedding(A, B, C, n, D)


def _blockwise_reachable(model):
    """Block components of the embedding's reachable family: subspaces V_i of
    R^n, i = 0 .. D (0 is the hub block), iterated along the block adjacency
    A_{hub,q+1} = A_q, A_{q+1,hub} = I."""
    n, D = model.n, model.num_modes
    V = [orth_columns(np.hstack(model.B))] + [np.zeros((n, 0)) for _ in range(D)]
    for _ in range(2 * (D + 1) * n + 2):
        hub = [V[0]] + [model.A[q] @ V[q + 1] for q in range(D)]
        newV = [orth_columns(np.hstack(hub))]
        for q in range(D):
            newV.append(orth_columns(np.hstack([V[q + 1], V[0]])))
        if all(a.shape[1] == b.shape[1] for a, b in zip(V, newV)):
            V = newV
            break
        V = newV
    return V


def _blockwise_observable(model):
    n, D = model.n, model.num_modes
    U = [np.zeros((n, 0))] + [orth_columns(model.C[q].T) for q in range(D)]
    for _ in range(2 * (D + 1) * n + 2):
        hub = [U[0]] + [U[q + 1] for q in range(D)]
        new0 = orth_columns(np.hstack(hub))
        newU = [new0]
        for q in range(D):
            newU.append(orth_columns(np.hstack([U[q + 1], model.A[q].T @ U[0]])))
        if all(a.shape[1] == b.shape[1] for a, b in zip(U, newU)):
            U = newU
            break
        U = newU
    return U


def check_uncertain_minimality_equivalence(model):
    """The switched model's minimality must agree with the blockwise rank
    conditions of its uncertain embedding; returns that agreement."""
    _require_discrete(model)
    n = model.n
    emb_reachable = all(V.shape[1] == n for V in _blockwise_reachable(model))
    emb_observable = all(U.shape[1] == n for U in _blockwise_observable(model))
    return is_minimal(model) == (emb_reachable and emb_observable)


def _block_diag(blocks):
    n = blocks[0].shape[0]
    out = np.zeros((n * len(blocks), n * len(blocks)))
    for i, M in enumerate(blocks):
        out[i * n:(i + 1) * n, i * n:(i + 1) * n] = M
    return out


def check_beck_grammian_projection(model, blockP, blockQ, tol=1e-9):
    """Verify that block-diagonal grammians of the uncertain embedding
    project onto grammians of the switched model.

    blockP and blockQ are lists of D+1 positive definite n x n blocks.  The
    embedded inequalities A P A^T + B B^T - P <= 0 and
    A^T Q A + C^T C - Q <= 0 are a precondition (rejected if violated); the
    conclusions checked are the mode-summed inequalities and plain per-mode
    grammian membership of the first blocks P_1, Q_1.
    """
    _require_discrete(model)
    D, n = model.num_modes, model.n
    if len(blockP) != D + 1 or len(blockQ) != D + 1:
        raise ValueError(f"expected {D + 1} diagonal blocks")
    if any(b.shape != (n, n) for b in list(blockP) + list(blockQ)):
        raise ValueError("diagonal blocks must be n x n")
    emb = build_uncertain_embedding(model)
    P = _block_diag(list(blockP))
    Q = _block_diag(list(blockQ))
    scale = max(1.0, float(np.max(np.abs(emb.A))) ** 2 * float(np.max(np.abs(P))))
    embedded = LssModel(DISCRETE, (emb.A,), (emb.B,), (emb.C,))
    ctrl_res = check_membership(embedded, P, "C").worst
    obs_res = check_membership(embedded, Q, "O").worst
    if ctrl_res > tol * scale or obs_res > tol * scale:
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


def feasible_block_pair(model, c=None):
    """Construct block-diagonal grammians of the uncertain embedding.

    Requires the D-inflated Stein radius (that of the modes sqrt(D) A_q) < 1,
    strictly stronger than strong stability for D > 1; the hub blocks solve
    inflated mode-summed Stein equations and the satellite blocks dominate
    the Gram cross terms, so the embedded inequalities hold with margin.
    """
    _require_discrete(model)
    D, n = model.num_modes, model.n
    As = [math.sqrt(D) * A for A in model.A]
    rho = stein_radius(As)
    if rho >= 1.0:
        raise ValueError(
            f"D-inflated Kronecker radius {rho:.4g} >= 1; no block construction"
        )
    if c is None:
        c = 1e-3 * max(1.0, max(float(np.max(np.abs(B))) for B in model.B)) ** 2
    gram_norm = max_eig(sum(A @ A.T for A in model.A))
    c2 = c / (2.0 * max(1.0, gram_norm))

    GB = sum(B @ B.T for B in model.B) + (c2 * gram_norm + c) * np.eye(n)
    P1 = stein_solve(As, GB)
    blockP = [P1] + [D * P1 + c2 * np.eye(n) for _ in range(D)]

    c3 = c
    GC = D * sum(C.T @ C for C in model.C) + (D * c2 + c3) * np.eye(n)
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


def stochastic_embedding(model, p=None):
    """The jump system with matrices scaled by 1/sqrt(p) and i.i.d. modes.
    The identically-distributed mode process requires p = 1/D."""
    _require_discrete(model)
    D = model.num_modes
    if p is None:
        p = 1.0 / D
    if not (0.0 < p <= 1.0) or abs(p * D - 1.0) > 1e-12:
        raise ValueError("mode probability must be p = 1/D for an i.i.d. process over the modes")
    s = 1.0 / math.sqrt(p)
    scaled = LssModel(
        DISCRETE,
        tuple(s * A for A in model.A),
        tuple(s * B for B in model.B),
        tuple(s * C for C in model.C),
        name=model.name,
    )
    return StochasticEmbedding(scaled, p)


def exhaustive_stochastic_energy(model, u, horizon):
    """Word-sum oracle: sum over t < horizon and all words of length t+1 of
    the squared deterministic output at time t.  Exponential in the horizon;
    test oracle only."""
    _require_discrete(model)
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


def monte_carlo_stochastic_energy(model, u, trials, horizon, seed, p=None,
                                  chunk=4096):
    """Monte Carlo estimate of the expected cumulative squared output of the
    stochastic embedding under a deterministic input; returns the mean with
    its standard error.  Deterministic given the seed and independent of the
    parallelism degree."""
    emb = stochastic_embedding(model, p)
    scaled = emb.model
    u = np.atleast_2d(np.asarray(u, dtype=float))
    if u.shape[0] < horizon:
        raise ValueError("input must cover the horizon")
    u = u[:horizon]
    D = model.num_modes
    chunks = [min(chunk, trials - s) for s in range(0, trials, chunk)]

    def run_chunk(i):
        rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(i,)))
        R = chunks[i]
        modeseq = rng.integers(0, D, size=(R, horizon))
        ubatch = np.broadcast_to(u, (R,) + u.shape)
        _, outputs = _dt_run_batch(scaled, modeseq, ubatch)
        energies = np.sum(outputs**2, axis=(1, 2))
        return float(np.sum(energies)), float(np.sum(energies**2))

    parts = run_trials(len(chunks), run_chunk)
    total = sum(p0 for p0, _ in parts)
    total_sq = sum(p1 for _, p1 in parts)
    mean = total / trials
    var = max(total_sq / trials - mean**2, 0.0)
    se = math.sqrt(var / trials)
    return StochasticEnergyReport(mean, se, trials, horizon)
