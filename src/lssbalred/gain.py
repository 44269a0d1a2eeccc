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
min t over :func:`lssbalred.lmi.lifted_gain_system` once and re-verifies
the certificate at gamma = sqrt(t), so the result is always a sound upper
bound.
"""

import numpy as np

from .errors import InfeasibleError
from .grammians import singular_values
from .lmi import check_membership, family_system, lifted_gain_system, solve_feasibility
from .stability import check_quadratic_stability


def gamma_feasible(model, gamma, start=None):
    """The "G" certificate at gamma, re-verified at the solver's P, or None
    if the solver found nothing within budget."""
    result = solve_feasibility(family_system(model, "G", gamma), start=start)
    if not result.feasible:
        return None
    return check_membership(model, result.solution, "G", float(gamma))


def l2_gain_upper_bound(model, tol=1e-3):
    """The smallest certified gain, from one min gamma^2 solve.

    Requires a quadratic-stability certificate (which guarantees feasibility
    for large enough gamma, and rejects unstable models quickly).  The solve
    is warm-started from diag(I, guess^2), guess = max_q |B_q| |C_q|, and
    settles at a DR step of 1e-2 * `tol` relative.  Returns
    (gamma_star, certificate), where the certificate was verified at
    gamma_star and the true gain is at most gamma_star.  `tol` is finite, > 0.
    """
    if not 0 < tol < np.inf:
        raise ValueError(f"tol must be finite and positive, got {tol}")
    if check_quadratic_stability(model) is None:
        raise InfeasibleError("no quadratic stability certificate found")
    n = model.n
    guess = max(
        float(np.linalg.norm(B, 2) * np.linalg.norm(C, 2))
        for B, C in zip(model.B, model.C)
    )
    start = np.diag(np.r_[np.ones(n), max(guess, 1e-6) ** 2])
    result = solve_feasibility(lifted_gain_system(model), start=start,
                               objective=np.diag(np.r_[np.zeros(n), 1.0]), settle=1e-2 * tol)
    if not result.feasible:
        raise InfeasibleError("no gain certificate found within budget")
    gamma = float(np.sqrt(result.solution[n, n]))
    cert = check_membership(model, result.solution[:n, :n], "G", gamma)
    if cert.worst >= 0:
        raise InfeasibleError(f"gain certificate fails re-verification at gamma {gamma:.6g}")
    return gamma, cert


def hankel_upper_bound(pair):
    """Largest singular value of the grammian pair; an upper bound on the
    Hankel norm of the input-output map."""
    return singular_values(pair).max
