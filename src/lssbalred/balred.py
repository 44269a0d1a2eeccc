"""Balanced truncation: balancing transform, truncation and the a-priori
error bound 2 * sum of the discarded singular values.

Balancing factors the controllability grammian as P = U U^T (Cholesky),
eigendecomposes U^T Q U = K Lambda^2 K^T with descending diagonal, and
applies S = Lambda^(1/2) K^T U^(-1).  In the new basis both grammians equal
Lambda, truncation keeps the leading r x r blocks, and Lambda_1 remains a
grammian pair of the reduced model; with strict input grammians the reduced
model stays quadratically stable.
"""

from dataclasses import dataclass

import numpy as np

from .grammians import (
    CONTROLLABILITY,
    OBSERVABILITY,
    GrammianPair,
    _square_root_factors,
    averaged_grammians,
    lmi_grammian,
    nice_grammians,
    pair_margin,
)
from .model import Isomorphism, LssModel, apply_isomorphism

TIE_REL_TOL = 1e-8
CONDITION_LIMIT = 1e12
GRAMMIAN_SOURCES = ("lmi", "nice", "averaged")  # compute_pair sources


@dataclass(frozen=True)
class BalancingResult:
    transform: Isomorphism
    balanced_model: LssModel
    sigmas: np.ndarray  # descending diagonal of Lambda
    pair: GrammianPair

    @property
    def n(self):
        return self.sigmas.size


@dataclass(frozen=True)
class ReductionResult:
    reduced_model: LssModel
    retained: int
    sigmas: np.ndarray
    apriori_bound: float
    balancing: BalancingResult
    strict_pair: bool

    @property
    def discarded_sigmas(self):
        return self.sigmas[self.retained:]

    @property
    def lambda1(self):
        return np.diag(self.sigmas[: self.retained])


def balance(model, pair):
    """Balancing transform for a grammian pair; the transformed model has
    P = Q = diag(sigmas).  Raises on grammians that are not symmetric positive
    definite or are numerically singular."""
    U, w, K = _square_root_factors(pair)
    wp = np.linalg.eigvalsh(pair.P_ctrl)
    if wp[0] <= 0 or wp[-1] / wp[0] > CONDITION_LIMIT:
        raise ValueError("ill-conditioned grammian")
    order = np.argsort(w, kind="stable")[::-1]
    w = w[order]
    K = K[:, order]
    # Deterministic column signs: largest-magnitude entry positive.
    for j in range(K.shape[1]):
        i = int(np.argmax(np.abs(K[:, j])))
        if K[i, j] < 0:
            K[:, j] = -K[:, j]
    sigmas = np.sqrt(np.maximum(w, 0.0))
    if sigmas[-1] <= 0:
        raise ValueError("ill-conditioned grammian")
    S = np.diag(np.sqrt(sigmas)) @ K.T @ np.linalg.inv(U)
    iso = Isomorphism(S)
    balanced = apply_isomorphism(model, iso)
    return BalancingResult(iso, balanced, sigmas, pair)


def admissible_orders(sigmas):
    """Retained orders r in 1..n-1 that do not split a tied sigma cluster."""
    n = sigmas.size
    out = []
    top = max(float(sigmas[0]), 1e-300)
    for r in range(1, n):
        if (sigmas[r - 1] - sigmas[r]) / top >= TIE_REL_TOL:
            out.append(r)
    return out


def truncate(bal, r, force_ties=False):
    """Keep the first r balanced states.  The a-priori output error bound
    is 2 * sum of the discarded sigmas.  Truncating inside a tied sigma
    cluster is refused unless forced."""
    n = bal.n
    if not (1 <= r <= n):
        raise ValueError(f"retained order must be in 1..{n}, got {r}")
    sigmas = bal.sigmas
    if r < n and not force_ties and r not in admissible_orders(sigmas):
        raise ValueError(
            f"sigma_{r} and sigma_{r + 1} are tied; pass force_ties to truncate anyway"
        )
    bm = bal.balanced_model
    reduced = LssModel(
        bm.time_domain,
        tuple(A[:r, :r] for A in bm.A),
        tuple(B[:r, :] for B in bm.B),
        tuple(C[:, :r] for C in bm.C),
        name=bm.name,
    )
    bound = 2.0 * float(np.sum(sigmas[r:]))
    strict = pair_margin(bal.balanced_model, GrammianPair(np.diag(sigmas), np.diag(sigmas), "manual")) > 0
    return ReductionResult(reduced, r, sigmas.copy(), bound, bal, strict)


def compute_pair(model, source="lmi", tighten=True):
    """Grammian pair from one of GRAMMIAN_SOURCES: "lmi" (default,
    trace-tightened LMI solves), "nice" (exact mode-summed Stein solves) or
    "averaged" (nice plus a strict margin); the last two need a strongly
    stable discrete-time model and reject `tighten`.  Each route works out
    its own margin from the model."""
    if source == "lmi":
        P = lmi_grammian(model, CONTROLLABILITY, tighten=tighten)
        Q = lmi_grammian(model, OBSERVABILITY, tighten=tighten)
        return GrammianPair(P, Q, "lmi")
    if not tighten:
        raise ValueError(f"only lmi grammians take tighten, not {source!r} grammians")
    if source == "nice":
        return nice_grammians(model)
    if source == "averaged":
        return averaged_grammians(model)
    raise ValueError(f"unknown grammian source {source!r}")


def check_target(order, bound_budget):
    """The one rule for a reduction target: exactly one of `order` and
    `bound_budget`, and a budget >= 0."""
    if (order is None) == (bound_budget is None):
        raise ValueError("specify exactly one of order or bound_budget")
    if bound_budget is not None and not bound_budget >= 0:
        raise ValueError(f"bound budget must be >= 0, got {bound_budget}")


def reduce_model(model, pair, order=None, bound_budget=None, force_ties=False):
    """Balance `model` by the grammian `pair` and keep `order` states, or the
    fewest among admissible_orders and n whose bound 2 * tail sum meets
    `bound_budget`; see check_target."""
    check_target(order, bound_budget)
    if not pair.P_ctrl.shape == pair.Q_obs.shape == (model.n, model.n):
        raise ValueError("supplied grammian pair does not match the model being balanced")
    bal = balance(model, pair)
    if order is not None:
        r = int(order)
    else:
        tails = 2.0 * (np.cumsum(bal.sigmas[::-1])[::-1])  # tails[k] = 2*sum(sigmas[k:])
        r = next((k for k in admissible_orders(bal.sigmas) if tails[k] <= bound_budget), model.n)
    return truncate(bal, r, force_ties=force_ties)
