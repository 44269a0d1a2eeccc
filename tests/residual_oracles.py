"""Hand-written residual formulas of the constraint families.

Independent oracles for :func:`lssbalred.lmi.family_system`: each formula is
assembled directly from the model matrices, without LmiTerm/LmiBlock, so the
builder is checked against a second, separate derivation.
"""

import numpy as np


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
