"""Grammian computation by three routes.

Controllability and observability grammians are positive definite solutions
of simultaneous per-mode matrix inequalities (the sets C and O of
:func:`lssbalred.lmi.family_system`).  They can be found by the LMI solver
directly (with optional trace tightening), obtained exactly as the unique
solutions of the mode-summed Stein equations ("nice" grammians, discrete
time, strongly stable systems only), or as averaged grammians whose single
summed inequality implies the per-mode ones.

Singular-value convention: sigma_i = sqrt(lambda_i(P Q)), computed through a
Cholesky symmetrization so the spectrum is real by construction.  In balanced
coordinates P = Q = diag(sigma_1, ..., sigma_n).
"""

from dataclasses import dataclass

import numpy as np

from ._linalg import chol_pd, min_eig, require_symmetric, stein_solve, symmetrize
from .errors import InfeasibleError
from .lmi import check_membership, family_system, solve_feasibility, tighten_trace
from .stability import require_strong_stability

CONTROLLABILITY = "controllability"
OBSERVABILITY = "observability"


@dataclass(frozen=True)
class GrammianPair:
    """A (controllability, observability) grammian pair with provenance."""

    P_ctrl: np.ndarray
    Q_obs: np.ndarray
    provenance: str  # a balred.GRAMMIAN_SOURCES entry, or "manual"


@dataclass(frozen=True)
class SingularValues:
    values: np.ndarray  # descending

    @property
    def max(self):
        return float(self.values[0])


# ---------------------------------------------------------------------------
# LMI route
# ---------------------------------------------------------------------------

_FAMILY = {CONTROLLABILITY: "C", OBSERVABILITY: "O"}


def lmi_grammian(model, kind, tighten=True):
    """Grammian via the LMI solvers: one Douglas-Rachford feasibility solve,
    then by default one interior-point min tr P solve started from it
    (:func:`lssbalred.lmi.tighten_trace`)."""
    if kind not in _FAMILY:
        raise ValueError(f"unknown grammian kind {kind!r}")
    sys = family_system(model, _FAMILY[kind])
    result = solve_feasibility(sys)
    if not result.feasible:
        raise InfeasibleError(f"no {kind} grammian found within budget")
    G = result.solution
    if tighten:
        G = tighten_trace(sys, G)
    return G


# ---------------------------------------------------------------------------
# Nice grammians (exact mode-summed Stein solves, discrete time)
# ---------------------------------------------------------------------------


def _summed_pair(model, GB, GC, provenance):
    """The pair P = sum_q A_q P A_q^T + GB, Q = sum_q A_q^T Q A_q + GC of a
    strongly stable discrete-time model: require_strong_stability (which also
    rejects continuous time), then the Stein series of L and of its adjoint."""
    require_strong_stability(model)
    P = stein_solve(model.A, GB)
    return GrammianPair(P, stein_solve([A.T for A in model.A], GC), provenance)


def nice_grammians(model):
    """The unique PSD solutions of the mode-summed Stein equations

        P = sum_q A_q P A_q^T + sum_q B_q B_q^T
        Q = sum_q A_q^T Q A_q + sum_q C_q^T C_q

    Requires a strongly stable discrete-time model.  P is positive definite
    iff the model is span-reachable; Q iff it is observable.
    """
    return _summed_pair(model, *model.gram_sums(), "nice")


# ---------------------------------------------------------------------------
# Averaged grammians (mode-summed inequalities)
# ---------------------------------------------------------------------------


def averaged_grammians(model):
    """Strict-margin solutions of the mode-summed grammian inequalities (the
    sets Csum and Osum of :func:`lssbalred.lmi.family_system`).  Each is a
    plain grammian as well: the per-mode residual is dominated by the sum.

    The pair solves the Stein equations of :func:`nice_grammians` with
    c I added to both right-hand sides, c = 2e-7 * max(1, max |A_q|)^2 but
    at least 1e-9, so both summed residuals are exactly -c I.  Strict
    feasibility of the summed family is equivalent to strong stability, so
    any other model raises InfeasibleError.
    """
    scale = max(float(np.max(np.abs(A))) for A in model.A)
    c = max(1e-7 * max(1.0, scale) ** 2 * 2.0, 1e-9)
    cI = c * np.eye(model.n)
    GB, GC = model.gram_sums()
    return _summed_pair(model, GB + cI, GC + cI, "averaged")


# ---------------------------------------------------------------------------
# Singular values and isomorphism transport
# ---------------------------------------------------------------------------


def _square_root_factors(pair):
    """Square-root factorization of a grammian pair, shared by singular_values
    and balred.balance: P = U U^T (Cholesky) and U^T Q U = K diag(w) K^T, w
    ascending.  Both grammians must be symmetric positive definite."""
    U = chol_pd(pair.P_ctrl, what="controllability grammian")
    Q = require_symmetric(pair.Q_obs, what="observability grammian")
    if min_eig(Q) <= 0:
        raise ValueError("observability grammian is not positive definite")
    w, K = np.linalg.eigh(U.T @ Q @ U)
    return U, w, K


def singular_values(pair):
    """sigma_i = sqrt(lambda_i(P Q)) computed as the eigenvalues of
    U^T Q U with P = U U^T; descending order."""
    _, w, _ = _square_root_factors(pair)
    return SingularValues(np.sqrt(np.maximum(w, 0.0))[::-1])


def transport_pair(pair, iso):
    """Move a grammian pair along an isomorphism S: controllability maps to
    S P S^T, observability to S^-T Q S^-1; singular values are preserved."""
    S = iso.S
    Sinv = iso.inv
    return GrammianPair(
        symmetrize(S @ pair.P_ctrl @ S.T),
        symmetrize(Sinv.T @ pair.Q_obs @ Sinv),
        pair.provenance,
    )


def pair_margin(model, pair):
    """Worst-mode strictness of a pair for `model`: -max residual over both
    families.  A change of basis rescales it, so it is measured, not stored."""
    worst = max(
        check_membership(model, pair.P_ctrl, "C").worst,
        check_membership(model, pair.Q_obs, "O").worst,
    )
    return -worst
