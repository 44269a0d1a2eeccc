"""L2/l2-gain upper bounds via the gain LMI and bisection, plus the
Hankel-norm upper bound sigma_max.

For a fixed gamma the block LMI

    [[A^T P + P A + C^T C,  P B ],          (continuous)
     [B^T P,               -gamma^2 I]]

    [[A^T P A + C^T C - P,  A^T P B],       (discrete)
     [B^T P A,              B^T P B - gamma^2 I]]

must be negative definite for every mode; any solution certifies that the
worst-case output/input energy ratio over all switching signals is at most
gamma.  The infimal certified gamma is located by bisection with warm-started
feasibility solves; every accepted gamma carries a re-verifiable certificate,
so the result is always a sound upper bound.
"""

from dataclasses import dataclass

import numpy as np

from .errors import InfeasibleError
from .grammians import singular_values
from .lmi import check_membership, family_system, solve_feasibility
from .stability import check_quadratic_stability

BISECTION_CAP = 60


@dataclass(frozen=True)
class GainCertificate:
    gamma: float
    P: np.ndarray
    residuals: tuple  # per-mode max eigenvalue of the gain block at P

    @property
    def valid(self):
        return all(r < 0 for r in self.residuals)


def gamma_feasible(model, gamma, budget=None, margin=None, start=None):
    """Certificate for one gamma, or None if the solver found nothing
    within budget."""
    if gamma <= 0:
        raise ValueError("gamma must be positive")
    kwargs = {} if budget is None else {"budget": budget}
    result = solve_feasibility(family_system(model, "G", gamma), margin=margin,
                               start=start, **kwargs)
    if not result.feasible:
        return None
    P = result.solution
    residuals = check_membership(model, P, "G", gamma).mode_residuals
    return GainCertificate(float(gamma), P, residuals)


def l2_gain_upper_bound(model, tol=1e-3, budget=None, margin=None, history=None):
    """Bisection on gamma down to relative tolerance `tol`.

    Requires a quadratic-stability certificate (which guarantees feasibility
    for large enough gamma).  Returns (gamma_star, certificate) where the
    certificate was verified at gamma_star and the true gain is at most
    gamma_star.  If `history` is a list, one (gamma, feasible) entry is
    appended per probe.
    """
    cert = check_quadratic_stability(model)
    if cert is None:
        raise InfeasibleError("no quadratic stability certificate found")

    def probe(g, start=None):
        got = gamma_feasible(model, g, budget=budget, margin=margin, start=start)
        if history is not None:
            history.append((float(g), got is not None))
        return got

    guess = max(
        float(np.linalg.norm(B, 2) * np.linalg.norm(C, 2))
        for B, C in zip(model.B, model.C)
    )
    hi = max(guess, 1e-6)
    best = probe(hi)
    doubling = 0
    while best is None:
        doubling += 1
        if doubling > BISECTION_CAP:
            raise InfeasibleError("gain bisection failed to bracket a feasible gamma")
        hi *= 2.0
        best = probe(hi)
    lo = 0.0
    iterations = 0
    while hi - lo > tol * hi and iterations < BISECTION_CAP:
        iterations += 1
        mid = 0.5 * (lo + hi)
        cand = probe(mid, start=best.P)
        if cand is not None:
            best = cand
            hi = mid
        else:
            lo = mid
    return best.gamma, best


def hankel_upper_bound(pair):
    """Largest singular value of the grammian pair; an upper bound on the
    Hankel norm of the input-output map."""
    return singular_values(pair).max
