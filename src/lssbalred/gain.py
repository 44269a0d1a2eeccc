"""L2/l2-gain upper bounds as the optimum of the gain LMI, plus the
Hankel-norm upper bound sigma_max.

For a fixed gamma the block LMI

    [[A^T P + P A + C^T C,  P B ],          (continuous)
     [B^T P,               -gamma^2 I]]

    [[A^T P A + C^T C - P,  A^T P B],       (discrete)
     [B^T P A,              B^T P B - gamma^2 I]]

must be negative definite for every mode; any solution certifies that the
worst-case output/input energy ratio over all switching signals is at most
gamma.  The block is affine in (P, t = gamma^2), so the smallest certified
gamma is the optimum of one LMI program: :func:`l2_gain_upper_bound` solves
min t over :func:`lssbalred.lmi.lifted_gain_system` once, by the
primal-dual interior-point method :func:`lssbalred.lmi.minimize`, and
re-verifies the certificate at gamma = sqrt(t), so the result is always a
sound upper bound.  Its `tol` bounds a relative duality gap: the solve ends
once gamma^2 exceeds the dual objective by at most 1e-3 * tol * gamma^2, so
gamma^2 is within that of the optimum of the margin program.  No
certificate is reported when phase 1 of that solve ends with s > 0: then no
point of the gain family, up to 1e8 times the start's trace, clears the
solver margin, which is how a model that is not quadratically stable is
rejected.  :func:`gamma_feasible` answers one fixed gamma by the
Douglas-Rachford solver.
"""

import numpy as np

from ._linalg import min_eig
from .errors import InfeasibleError
from .grammians import singular_values
from .lmi import check_membership, family_system, lifted_gain_system, minimize, solve_feasibility


def gamma_feasible(model, gamma, start=None):
    """The "G" certificate at gamma, re-verified at the solver's P, or None
    if the solver found nothing within budget."""
    result = solve_feasibility(family_system(model, "G", gamma), start=start)
    if not result.feasible:
        return None
    return check_membership(model, result.solution, "G", float(gamma))


def l2_gain_upper_bound(model, tol=1e-3):
    """The smallest certified gain, from one min gamma^2 interior-point solve.

    :func:`lssbalred.lmi.minimize` runs from diag(I, guess^2),
    guess = max_q |B_q| |C_q|.  Its phase 1 decides feasibility: a model
    with no point of the gain family at the solver margin (one that is not
    quadratically stable, for instance) raises InfeasibleError naming the
    phase-1 value s > 0.  The solve stops once its relative duality gap is
    at most 1e-3 * `tol`, so gamma^2 is within a relative 1e-3 * `tol` of
    the optimum of the margin program.  Returns (gamma_star, certificate),
    where the certificate was verified at gamma_star, its P is positive
    definite, and the true gain is at most gamma_star.  `tol` is finite,
    > 0.
    """
    if not 0 < tol < np.inf:
        raise ValueError(f"tol must be finite and positive, got {tol}")
    n = model.n
    guess = max(
        float(np.linalg.norm(B, 2) * np.linalg.norm(C, 2))
        for B, C in zip(model.B, model.C)
    )
    start = np.diag(np.r_[np.ones(n), max(guess, 1e-6) ** 2])
    result = minimize(lifted_gain_system(model), np.diag(np.r_[np.zeros(n), 1.0]), start,
                      rtol=1e-3 * tol)
    gamma = float(np.sqrt(result.solution[n, n]))
    cert = check_membership(model, result.solution[:n, :n], "G", gamma)
    if not (0 < gamma < np.inf and cert.worst < 0 and min_eig(cert.P) > 0):
        raise InfeasibleError(f"gain certificate fails re-verification at gamma {gamma:.6g}")
    return gamma, cert


def hankel_upper_bound(pair):
    """Largest singular value of the grammian pair; an upper bound on the
    Hankel norm of the input-output map."""
    return singular_values(pair).max
