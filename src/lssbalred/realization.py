"""Realization theory: reachability/observability subspaces, reduction to a
minimal realization, Markov parameters and Hankel blocks.

The word-indexed reachability and observability matrices grow exponentially
with the word length, so subspaces are computed by the equivalent fixed-point
iteration  V_{k+1} = V_k + sum_q A_q V_k  starting from the span of the input
(resp. transposed output) matrices; the fixed point is reached in at most n
steps.
"""

import numpy as np

from ._linalg import orth_columns, orth_complement
from .model import _io_shape, difference_system, dual_system, project


def _stacked_output(model):
    return np.vstack(model.C)


def _stacked_input(model):
    return np.hstack(model.B)


def subspace_closure(generators, edges):
    """Smallest subspaces V_i, one per block i of size generators[i].shape[0],
    with V_i holding the columns of generators[i] and M V_j inside V_i for
    every (j, M) in edges[i]: the fixed point of V_i <- V_i + sum M V_j.
    Each step that does not settle adds a dimension, so the total block size
    caps the steps.  Returns the orthonormal bases and the number of steps."""
    V = [orth_columns(G) for G in generators]
    cap = sum(G.shape[0] for G in generators)
    iterations = 0
    while any(Vi.shape[1] < G.shape[0] for Vi, G in zip(V, generators)):
        iterations += 1
        W = [orth_columns(np.hstack([V[i]] + [M @ V[j] for j, M in edges[i]]))
             for i in range(len(V))]
        settled = all(a.shape[1] == b.shape[1] for a, b in zip(V, W))
        V = W
        if settled or iterations > cap:
            break
    return V, iterations


def reachable_subspace(model):
    """Orthonormal basis (n x r) of the span of all A_v B_q columns."""
    (V,), _ = subspace_closure([_stacked_input(model)], [[(0, A) for A in model.A]])
    return V


def unobservable_subspace(model):
    """Orthonormal basis of the joint kernel of all C_q A_v rows, computed
    as the orthogonal complement of the dual system's reachable image."""
    return orth_complement(reachable_subspace(dual_system(model)))


def word_matrix(A_list, word):
    """A_v = A_{v_k} ... A_{v_1} for the word v = v_1 ... v_k (A_eps = I)."""
    n = A_list[0].shape[0]
    M = np.eye(n)
    for q in word:
        M = A_list[q] @ M
    return M


def reachability_reduction(model):
    """Restrict to the reachable image, whose basis is returned along;
    equivalent and span-reachable."""
    V = reachable_subspace(model)
    return project(model, V.T, V), V


def observability_reduction(model):
    """Quotient by the unobservable kernel: restrict to its orthogonal
    complement, the dual system's reachable image, whose basis is returned.
    Equivalent and observable; preserves span-reachability."""
    V = reachable_subspace(dual_system(model))
    return project(model, V.T, V), V


def minimize(model):
    """Reachability reduction followed by observability reduction; the result
    is span-reachable and observable, hence minimal, and equivalent to the
    input."""
    reduced, _ = reachability_reduction(model)
    reduced, _ = observability_reduction(reduced)
    return reduced


def is_minimal(model):
    return (
        reachable_subspace(model).shape[1] == model.n
        and unobservable_subspace(model).shape[1] == 0
    )


def minimize_with_pair(model, P_ctrl, Q_obs):
    """Minimize a model while carrying a controllability/observability
    grammian pair along both reduction steps.

    Controllability grammians restrict through the inverse (take the leading
    block of P^-1 in the adapted basis, then invert back); observability
    grammians restrict by the leading block directly.  The roles swap in the
    observability step.  The returned pair is feasible for the minimal model
    and its singular values interlace those of the input pair.
    """
    # Step 1: restrict to the reachable image.
    model_r, V = reachability_reduction(model)
    P_r = np.linalg.inv(V.T @ np.linalg.solve(P_ctrl, V))
    Q_r = V.T @ Q_obs @ V

    # Step 2: quotient by the unobservable kernel; grammian roles swap.
    model_o, M = observability_reduction(model_r)
    P_o = M.T @ P_r @ M
    Q_o = np.linalg.inv(M.T @ np.linalg.solve(Q_r, M))
    return model_o, P_o, Q_o


def markov_parameter(model, word):
    """M_v = C~ A_v B~, a (p*D) x (m*D) array, with the per-mode stacking of
    the reachability and observability matrices; M_eps = C~ B~."""
    D = model.num_modes
    if any(not (0 <= q < D) for q in word):
        raise ValueError("invalid mode index in word")
    return _stacked_output(model) @ word_matrix(model.A, word) @ _stacked_input(model)


def hankel_block(model, s, v):
    """H_{s,v} = M_{v s}: the Markov parameter of v followed by s."""
    return markov_parameter(model, tuple(v) + tuple(s))


def equivalent(model1, model2):
    """Exact input-output equivalence via rank conditions: the difference
    system (shared input, subtracted outputs) must have its reachable image
    inside its unobservable kernel.  Polynomial cost, no word enumeration.
    """
    if _io_shape(model1) != _io_shape(model2):
        return False
    diff = difference_system(model1, model2)
    reach = reachable_subspace(diff)
    if reach.shape[1] == 0:
        return True
    # Im R(diff) must be annihilated by every C_q A_v, i.e. lie inside the
    # unobservable kernel; both bases are orthonormal, so the projection
    # residual is a plain angle measure.
    kernel = unobservable_subspace(diff)
    resid = reach - kernel @ (kernel.T @ reach)
    return float(np.max(np.abs(resid))) <= 1e-9
