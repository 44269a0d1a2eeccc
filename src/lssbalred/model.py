"""Switched linear system data model, validation, transforms and file I/O.

A model is a finite family of state-space modes (A_q, B_q, C_q) sharing the
state dimension n, together with a time-domain tag (continuous or discrete).
Mode indices are 0-based throughout the Python API; the JSON model format and
the CLI use 1-based indices, converted at the parsing boundary.
"""

import json
import math
from dataclasses import dataclass, field

import numpy as np

from ._linalg import rank_tol, stein_radius
from .errors import ModelFormatError

CONTINUOUS = "continuous"
DISCRETE = "discrete"
CT_DECAY = (0.3, 1.3)  # range of the diagonal decay of random continuous modes
DT_NORM = 0.9  # spectral norm of random quadratic-stable discrete modes


@dataclass(frozen=True)
class LssModel:
    """A linear switched system with external switching.

    Attributes
    ----------
    time_domain : str
        Either ``"continuous"`` or ``"discrete"``.
    A, B, C : tuple of ndarray
        Per-mode matrices of shapes (n, n), (n, m) and (p, n).
    name : str, optional
        Free-form label carried through reports.
    """

    time_domain: str
    A: tuple
    B: tuple
    C: tuple
    name: str = ""

    def __post_init__(self):
        object.__setattr__(self, "A", tuple(np.asarray(M, dtype=float) for M in self.A))
        object.__setattr__(self, "B", tuple(np.asarray(M, dtype=float) for M in self.B))
        object.__setattr__(self, "C", tuple(np.asarray(M, dtype=float) for M in self.C))

    @property
    def n(self):
        return self.A[0].shape[0] if self.A else 0

    @property
    def num_modes(self):
        return len(self.A)

    @property
    def m(self):
        return self.B[0].shape[1] if self.B else 0

    @property
    def p(self):
        return self.C[0].shape[0] if self.C else 0

    @property
    def is_discrete(self):
        return self.time_domain == DISCRETE

    def mode(self, q):
        """The (A_q, B_q, C_q) triple for 0-based mode index q."""
        return self.A[q], self.B[q], self.C[q]

    def gram_sums(self):
        """(sum_q B_q B_q^T, sum_q C_q^T C_q), summed in mode order."""
        return sum(B @ B.T for B in self.B), sum(C.T @ C for C in self.C)


def require_discrete(model):
    """The one discrete-time gate (strong stability, nice and averaged grammians,
    mode-summed families, embeddings): ValueError unless `model` is discrete."""
    if not model.is_discrete:
        raise ValueError(f"defined for discrete-time models only, got a {model.time_domain} model")


@dataclass(frozen=True)
class SwitchingSignal:
    """Finite mode schedule: dwell-time list in continuous time, a plain
    mode sequence in discrete time.  Mode indices are 0-based."""

    time_domain: str
    modes: tuple
    dwells: tuple = ()  # continuous time only, seconds per entry

    def __post_init__(self):
        if len(self.modes) == 0:
            raise ValueError("switching signal must be non-empty")
        if self.time_domain == CONTINUOUS:
            if len(self.dwells) != len(self.modes):
                raise ValueError("dwell list must match mode list")
            if not all(0 < d < np.inf for d in self.dwells):
                raise ValueError("dwell times must be finite and strictly positive")
        elif self.dwells:
            raise ValueError("discrete switching signals carry no dwell times")

    def validate_against(self, model):
        D = model.num_modes
        if any(not (0 <= q < D) for q in self.modes):
            raise ValueError(f"mode index out of range for {D}-mode model")


@dataclass(frozen=True)
class Isomorphism:
    """Invertible state-space change of basis."""

    S: np.ndarray
    condition_estimate: float = field(default=0.0)

    def __post_init__(self):
        S = np.asarray(self.S, dtype=float)
        object.__setattr__(self, "S", S)
        svals = np.linalg.svd(S, compute_uv=False)
        if svals.size == 0 or svals[-1] <= rank_tol(S, svals):
            raise ValueError("not an isomorphism: transform is singular")
        object.__setattr__(self, "condition_estimate", float(svals[0] / svals[-1]))

    @property
    def inv(self):
        return np.linalg.inv(self.S)


def validate_model(model):
    """Check shape consistency and finiteness; returns the list of every
    violated invariant (an empty list means valid)."""
    v = []
    D = model.num_modes
    if D < 1:
        v.append("model must have at least one mode")
        return v
    if model.time_domain not in (CONTINUOUS, DISCRETE):
        v.append(f"unknown time domain {model.time_domain!r}")
    n, m, p = model.n, model.m, model.p
    if n < 1:
        v.append("state dimension must be positive")
    for q in range(D):
        A, B, C = model.A[q], model.B[q], model.C[q]
        if A.shape != (n, n):
            v.append(f"A shape mismatch in mode {q + 1}: {A.shape} != {(n, n)}")
        if B.shape != (n, m):
            v.append(f"B shape mismatch in mode {q + 1}: {B.shape} != {(n, m)}")
        if C.shape != (p, n):
            v.append(f"C shape mismatch in mode {q + 1}: {C.shape} != {(p, n)}")
        for tag, M in (("A", A), ("B", B), ("C", C)):
            if not np.all(np.isfinite(M)):
                v.append(f"non-finite entry in {tag} of mode {q + 1}")
    return v


def apply_isomorphism(model, iso):
    """Change of basis z = S x: returns the model with matrices
    (S A S^-1, S B, C S^-1).  The input-output map is unchanged."""
    S = iso.S
    if S.shape != (model.n, model.n):
        raise ValueError("transform dimension does not match the model")
    Sinv = iso.inv
    return LssModel(
        model.time_domain,
        tuple(S @ A @ Sinv for A in model.A),
        tuple(S @ B for B in model.B),
        tuple(C @ Sinv for C in model.C),
        name=model.name,
    )


def dual_system(model):
    """The dual system (A_q^T, C_q^T, B_q^T); swaps inputs and outputs."""
    return LssModel(
        model.time_domain,
        tuple(A.T for A in model.A),
        tuple(C.T for C in model.C),
        tuple(B.T for B in model.B),
        name=model.name,
    )


def random_stable_model(time_domain, n, D, m=1, p=1, kind="quadratic", seed=0,
                        strong_radius=0.9):
    """Draw a random switched model guaranteed stable by construction.

    kind="quadratic": continuous modes are built as K - K^T - diag(d) with
    d >= 0.05 drawn from CT_DECAY, so P = I is a common Lyapunov
    certificate; discrete modes are scaled to spectral norm DT_NORM < 1.
    kind="strong" (discrete only) rescales all modes so the spectral radius
    of the mode-summed Stein operator X -> sum_q A_q X A_q^T equals
    `strong_radius` < 1.
    Deterministic given the seed.
    """
    if kind not in ("quadratic", "strong"):
        raise ValueError(f"unknown stability kind {kind!r}")
    if kind == "strong" and time_domain != DISCRETE:
        raise ValueError("strong stability is a discrete-time notion")
    rng = np.random.default_rng(seed)
    As = []
    if kind == "quadratic" and time_domain == CONTINUOUS:
        lo, hi = CT_DECAY
        for _ in range(D):
            K = rng.standard_normal((n, n))
            d = np.maximum(rng.uniform(lo, hi, size=n), 0.05)
            As.append(K - K.T - np.diag(d))
    elif kind == "quadratic":
        for _ in range(D):
            M = rng.standard_normal((n, n))
            s = np.linalg.svd(M, compute_uv=False)[0]
            As.append(M * (DT_NORM / s))
    else:
        raw = [rng.standard_normal((n, n)) for _ in range(D)]
        scale = math.sqrt(strong_radius / stein_radius(raw))
        As = [scale * A for A in raw]
    Bs = [rng.standard_normal((n, m)) for _ in range(D)]
    Cs = [rng.standard_normal((p, n)) for _ in range(D)]
    return LssModel(time_domain, tuple(As), tuple(Bs), tuple(Cs))


def _io_shape(model):
    return model.time_domain, model.num_modes, model.m, model.p


def difference_system(model1, model2):
    """The model (diag(A_1, A_2), [B_1; B_2], [C_1, -C_2]) driven by the
    shared input, whose output is y_1 - y_2."""
    if _io_shape(model1) != _io_shape(model2):
        raise ValueError(f"no difference system of models with (time domain, modes, m, p) "
                         f"{_io_shape(model1)} and {_io_shape(model2)}")
    Z = np.zeros((model1.n, model2.n))
    return LssModel(
        model1.time_domain,
        tuple(np.block([[A1, Z], [Z.T, A2]]) for A1, A2 in zip(model1.A, model2.A)),
        tuple(np.vstack([B1, B2]) for B1, B2 in zip(model1.B, model2.B)),
        tuple(np.hstack([C1, -C2]) for C1, C2 in zip(model1.C, model2.C)),
    )


def pad_with_dead_states(model, extra, seed=0, feed_input=False, feed_output=False):
    """Append `extra` stable decoupled states, producing a non-minimal model.

    With the defaults the padding is unreachable and unobservable.  Setting
    `feed_input` wires B into the new block (reachable, unobservable);
    `feed_output` wires the block into C (observable, unreachable).
    """
    rng = np.random.default_rng(seed)
    n = model.n
    As, Bs, Cs = [], [], []
    for A, B, C in zip(model.A, model.B, model.C):
        if model.is_discrete:
            Z = rng.standard_normal((extra, extra))
            Z *= 0.5 / max(1e-12, np.linalg.svd(Z, compute_uv=False)[0])
        else:
            K = rng.standard_normal((extra, extra))
            Z = K - K.T - np.eye(extra)
        Ai = np.zeros((n + extra, n + extra))
        Ai[:n, :n] = A
        Ai[n:, n:] = Z
        Bpad = rng.standard_normal((extra, model.m)) if feed_input else np.zeros((extra, model.m))
        Cpad = rng.standard_normal((model.p, extra)) if feed_output else np.zeros((model.p, extra))
        As.append(Ai)
        Bs.append(np.vstack([B, Bpad]))
        Cs.append(np.hstack([C, Cpad]))
    return LssModel(model.time_domain, tuple(As), tuple(Bs), tuple(Cs), name=model.name)


# ---------------------------------------------------------------------------
# Model file format (JSON).  Modes are 1-based on disk.
# ---------------------------------------------------------------------------


def _reject_nonfinite(val):
    raise ModelFormatError(f"non-finite number {val!r} in model file")


def _parse_matrix(obj, what):
    if not isinstance(obj, list) or not obj or not all(isinstance(r, list) for r in obj):
        raise ModelFormatError(f"{what} must be a non-empty nested array")
    width = len(obj[0])
    if any(len(r) != width for r in obj):
        raise ModelFormatError(f"{what} has ragged rows")
    try:
        M = np.array(obj, dtype=float)
    except (TypeError, ValueError):
        raise ModelFormatError(f"{what} contains non-numeric entries")
    if not np.all(np.isfinite(M)):
        raise ModelFormatError(f"{what} contains non-finite entries")
    return M


def loads_model(text):
    try:
        data = json.loads(text, parse_constant=_reject_nonfinite)
    except json.JSONDecodeError as exc:
        raise ModelFormatError(
            f"invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    if not isinstance(data, dict):
        raise ModelFormatError("model file must contain a JSON object")
    td = data.get("time_domain")
    if td not in (CONTINUOUS, DISCRETE):
        raise ModelFormatError('time_domain must be "continuous" or "discrete"')
    modes = data.get("modes")
    if not isinstance(modes, list) or not modes:
        raise ModelFormatError("modes must be a non-empty array")
    As, Bs, Cs = [], [], []
    for i, mode in enumerate(modes, start=1):
        if not isinstance(mode, dict):
            raise ModelFormatError(f"mode {i} must be an object with A, B, C")
        for key in ("A", "B", "C"):
            if key not in mode:
                raise ModelFormatError(f"mode {i} is missing {key}")
        As.append(_parse_matrix(mode["A"], f"A of mode {i}"))
        Bs.append(_parse_matrix(mode["B"], f"B of mode {i}"))
        Cs.append(_parse_matrix(mode["C"], f"C of mode {i}"))
    model = LssModel(td, tuple(As), tuple(Bs), tuple(Cs), name=str(data.get("name", "")))
    violations = validate_model(model)
    if violations:
        raise ModelFormatError("; ".join(violations))
    return model


def load_model(path):
    with open(path, "r", encoding="utf-8") as fh:
        return loads_model(fh.read())


def _matrix_to_lists(M):
    # float() of a numpy scalar gives the shortest exact round-trip repr
    # (at most 17 significant digits) when serialized by json.
    return [[float(x) for x in row] for row in np.atleast_2d(M)]


def _modes_to_lists(model):
    """The model's modes as the JSON list of {"A", "B", "C"} objects."""
    return [
        {"A": _matrix_to_lists(A), "B": _matrix_to_lists(B), "C": _matrix_to_lists(C)}
        for A, B, C in zip(model.A, model.B, model.C)
    ]


def dumps_model(model):
    data = {"time_domain": model.time_domain, "modes": _modes_to_lists(model)}
    if model.name:
        data["name"] = model.name
    return json.dumps(data, indent=2, sort_keys=True)


def save_model(model, path):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps_model(model))
        fh.write("\n")
