"""Quadratic-stability certification and strong-stability testing.

Quadratic stability asks for one positive definite P making the per-mode
Lyapunov (continuous) or Stein (discrete) residual negative definite; the
certificate search is delegated to the LMI solver, so a missing certificate
is not a proof of instability.  Strong stability is a discrete-time notion
decided exactly by the spectral radius of sum_q A_q^T (x) A_q^T.
"""

from dataclasses import dataclass

import numpy as np

from ._linalg import kron_sum, min_eig, stein_solve
from .errors import InfeasibleError
from .lmi import check_membership, family_system, solve_feasibility

DENSE_EIG_LIMIT = 2500  # side length of the Kronecker matrix, i.e. n <= 50


@dataclass(frozen=True)
class StabilityCertificate:
    P: np.ndarray
    margin: float
    kind: str  # "quadratic_ct" | "quadratic_dt"


@dataclass(frozen=True)
class StrongStabilityReport:
    kronecker_spectral_radius: float
    stable: bool
    matrix_dimension: int


def check_quadratic_stability(model, budget=None, margin=None):
    """Search for a common quadratic Lyapunov certificate.  Returns a
    StabilityCertificate or None (no certificate found within budget)."""
    kwargs = {} if budget is None else {"budget": budget}
    result = solve_feasibility(family_system(model, "S"), margin=margin, **kwargs)
    if not result.feasible:
        return None
    kind = "quadratic_dt" if model.is_discrete else "quadratic_ct"
    return StabilityCertificate(result.solution, -result.residual, kind)


def certificate_margin(model, P):
    """Negated worst-mode residual eigenvalue of a would-be certificate."""
    return -check_membership(model, P, "S").worst


def check_strong_stability(model):
    """Spectral radius of the mode-summed Kronecker matrix; decisive."""
    if not model.is_discrete:
        raise ValueError("strong stability is a discrete-time notion")
    T = kron_sum(model.A).T
    dim = T.shape[0]
    if dim <= DENSE_EIG_LIMIT:
        radius = float(np.max(np.abs(np.linalg.eigvals(T))))
    else:
        radius = _power_radius(T)
    return StrongStabilityReport(radius, radius < 1.0, dim)


def _power_radius(T, tol=1e-10, max_iter=10000, seed=0):
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(T.shape[0])
    v /= np.linalg.norm(v)
    radius = 0.0
    for _ in range(max_iter):
        w = T @ v
        nrm = np.linalg.norm(w)
        if nrm == 0.0:
            return 0.0
        v = w / nrm
        if abs(nrm - radius) <= tol * max(1.0, radius):
            return nrm
        radius = nrm
    return radius


def strong_implies_quadratic_witness(model):
    """Exact discrete-time quadratic certificate for a strongly stable model:
    the unique solution of P = sum_q A_q^T P A_q + I, obtained from the
    vectorized linear system.  The per-mode Stein residual is then <= -I."""
    report = check_strong_stability(model)
    if not report.stable:
        raise InfeasibleError(
            f"model is not strongly stable (radius {report.kronecker_spectral_radius:.6g})"
        )
    P = stein_solve(kron_sum(model.A).T, np.eye(model.n))
    if min_eig(P) <= 0:
        raise InfeasibleError("witness solve produced a non-PD matrix")
    return StabilityCertificate(P, certificate_margin(model, P), "quadratic_dt")
