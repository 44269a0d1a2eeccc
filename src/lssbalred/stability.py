"""Quadratic-stability certification and strong-stability testing.

Quadratic stability asks for one positive definite P making the per-mode
Lyapunov (continuous) or Stein (discrete) residual negative definite; the
certificate search is delegated to the LMI solver, so a missing certificate
is not a proof of instability.  Strong stability is a discrete-time notion:
the mode-summed Stein operator X -> sum_q A_q X A_q^T has spectral radius < 1.
"""

import numpy as np

from ._linalg import min_eig, stein_radius, stein_solve
from .errors import InfeasibleError
from .lmi import check_membership, family_system, solve_feasibility


def check_quadratic_stability(model):
    """Search for a common quadratic Lyapunov certificate.  Returns the
    "S" certificate re-verified at the solver's P, or None (no certificate
    found within budget).  The family has no constant term, so a margin
    would only rescale P and takes no part in the answer."""
    result = solve_feasibility(family_system(model, "S"))
    if not result.feasible:
        return None
    return check_membership(model, result.solution, "S")


def check_strong_stability(model):
    """Spectral radius of the mode-summed Stein operator; the model is
    strongly stable iff it is < 1."""
    if not model.is_discrete:
        raise ValueError("strong stability is a discrete-time notion")
    return stein_radius(model.A)


def require_strong_stability(model):
    """Raise InfeasibleError unless check_strong_stability finds radius < 1;
    the nice and averaged grammians and the witness below need it."""
    radius = check_strong_stability(model)
    if not radius < 1.0:
        raise InfeasibleError(f"model is not strongly stable (radius {radius:.6g})")


def strong_implies_quadratic_witness(model):
    """Exact discrete-time quadratic certificate for a strongly stable model:
    the unique solution of P = sum_q A_q^T P A_q + I, the Stein series of
    the adjoint operator.  The per-mode Stein residual is then <= -I."""
    require_strong_stability(model)
    P = stein_solve([A.T for A in model.A], np.eye(model.n))
    if min_eig(P) <= 0:
        raise InfeasibleError("witness solve produced a non-PD matrix")
    return check_membership(model, P, "S")
