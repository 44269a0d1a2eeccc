"""Trajectory simulation, signal norms, empirical gain estimates and
trajectory-level verification of the energy inequalities and of the
a-priori truncation error bound.

Every run goes through one recursion x(t+1) = A_q x(t) + B_q u(t) from the
zero initial state.  Continuous time holds the input constant over each
step of length h, which must divide every dwell time so mode switches land
on grid points; each step is then the exact zero-order-hold discretization
of its mode, and the output energy of the step is an exact quadratic form
(Van Loan's block exponential).  Norms are therefore exact in both time
domains, with no integration error.  A step of a batch of trials is one
product with every mode's packed [[A_q, B_q], [readout_q]]: the readout is
[C_q, 0], with the step's energy factor G_q under it in continuous time.
Every estimate is a certified lower bound carrying a replayable witness.
"""

import math
from dataclasses import dataclass

import numpy as np

from ._linalg import expm, symmetrize
from .model import CONTINUOUS, DISCRETE, SwitchingSignal, difference_system

DWELL_ALIGN_TOL = 1e-9
HORIZON_CAP = 10**5  # decay_horizon never exceeds this many steps
DECAY_TARGET = 1e-8  # Lyapunov decay factor that decay_horizon asks for
VERIFY_ATOL = 1e-6  # rounding allowance of the bound and energy checks


@dataclass(frozen=True)
class Trajectory:
    """Solution of a switched model from the zero initial state.

    Discrete time: states has N+1 rows, outputs and inputs N rows.
    Continuous time: states and outputs have N+1 rows, the exact samples at
    t = 0 .. N*h (the last output uses the final mode), inputs N rows (value
    held on [t_k, t_k+1)).  energy has N rows: the output energy of each
    step, |y(t)|^2 in discrete time and the exact integral of |y|^2 over
    [t_k, t_k+1) in continuous time.
    """

    times: np.ndarray
    states: np.ndarray
    outputs: np.ndarray
    inputs: np.ndarray
    switching: SwitchingSignal
    h: float | None = None
    energy: np.ndarray = None

    @property
    def output_norm(self):
        """Exact l2 (discrete) or L2 (continuous, over [0, N*h]) output norm."""
        return float(_norm(self.energy))


@dataclass(frozen=True)
class GainEstimate:
    """Sampled lower bound on a worst-case gain, with the best witness."""

    lower_bound: float
    best_witness: int
    trials: int
    witness_input: np.ndarray = None
    witness_switching: SwitchingSignal = None


@dataclass(frozen=True)
class BoundCheckReport:
    """A-priori bound against the sampled gain of the error system, whose
    witness replays the worst ratio."""

    bound: float
    slack: float
    estimate: GainEstimate

    @property
    def worst_ratio(self):
        return self.estimate.lower_bound

    @property
    def trials(self):
        return self.estimate.trials

    @property
    def passed(self):
        return self.worst_ratio <= self.bound + self.slack


@dataclass(frozen=True)
class EnergyCheckReport:
    worst_input_slack: float   # max of x^T P^-1 x - cumulative input energy
    worst_output_slack: float  # max of future output energy - x^T Q x
    trials: int
    passed: bool


# ---------------------------------------------------------------------------
# Switching-signal expansion and the one recursion
# ---------------------------------------------------------------------------


def horizon_steps(time_domain, horizon, h=None, trials=1):
    """Steps of a run over `horizon`: int(horizon) in discrete time,
    round(horizon / h) in continuous time.  The one home of the run-length rules:
    trials >= 1, no step h in discrete time and a finite step h > 0 in
    continuous time, a finite horizon and at least one step."""
    if trials < 1:
        raise ValueError(f"at least one trial is needed, got trials={trials}")
    discrete = time_domain == DISCRETE
    if discrete and h is not None:
        raise ValueError(f"discrete-time simulation takes no step h, got {h}")
    if not discrete and (h is None or not 0 < h < math.inf):
        raise ValueError(f"continuous-time simulation requires a finite positive step h, got {h}")
    ratio = horizon if discrete else horizon / h
    if not math.isfinite(ratio):
        raise ValueError(f"horizon {horizon} is not a finite number of steps")
    steps = int(ratio) if discrete else round(ratio)
    if steps < 1:
        raise ValueError(f"horizon {horizon} is shorter than one step")
    return steps


def steps_from_signal(signal, h=None):
    """Per-step 0-based mode indices implied by a switching signal.

    Discrete signals expand to themselves and take no h.  Continuous signals
    require h to divide every dwell within 1e-9; horizon_steps counts each
    dwell's steps.
    """
    if signal.time_domain == DISCRETE:
        horizon_steps(DISCRETE, len(signal.modes), h)
        return np.asarray(signal.modes, dtype=int)
    counts = [horizon_steps(CONTINUOUS, dwell, h) for dwell in signal.dwells]
    for dwell, count in zip(signal.dwells, counts):
        if abs(dwell / h - count) > DWELL_ALIGN_TOL * max(1.0, dwell / h):
            raise ValueError(f"step {h} does not divide dwell {dwell}")
    return np.repeat(np.asarray(signal.modes, dtype=int), counts)


def _recur(S, modeseq, u):
    """The one time-stepping loop.  Each mode's packed step matrix
    S_q = [[A_q, B_q], [readout_q]] maps z(t) = [x(t); u(t)] to
    [x(t+1); r(t)] from x(0) = 0, with q = modeseq[:, t].  A step is one
    product of every trial's z(t) with all the S_q^T side by side, then one
    pick of each trial's own mode block.  S (D, n+k, n+m), modeseq (R, N)
    ints, u (R, N, m); returns states (R, N+1, n) and readouts (R, N, k)."""
    D, nk, nm = S.shape
    R, N = modeseq.shape
    n = nm - u.shape[2]
    ST = S.transpose(2, 0, 1).reshape(nm, D * nk)  # column block q is S_q^T
    rows = np.ascontiguousarray((modeseq + D * np.arange(R)[:, None]).T)
    z = np.zeros((N + 1, R, nm))  # time-major [x(t) | u(t)]
    z[:N, :, n:] = u.transpose(1, 0, 2)
    out = np.empty((N, R, nk))  # [x(t+1) | r(t)]
    w = np.empty((R, D * nk))
    for t in range(N):
        np.matmul(z[t], ST, out=w)
        np.take(w.reshape(R * D, nk), rows[t], axis=0, out=out[t])
        z[t + 1, :, :n] = out[t, :, :n]
    return z[:, :, :n].transpose(1, 0, 2), out[:, :, n:].transpose(1, 0, 2)


def _zoh(model, h):
    """Exact zero-order-hold step of length h for every mode (Van Loan, IEEE
    TAC 1978).  With M = [[A, B], [0, 0]] and Ch = [C, 0],
    exp(h [[-M^T, Ch^T Ch], [0, M]]) = [[., F], [0, E]] with
    E = exp(hM) = [[A_d, B_d], [0, I]], and W = E^T F integrates
    exp(sM^T) Ch^T Ch exp(sM) over [0, h]: a step from state x under held
    input u has output energy [x; u]^T W [x; u].  The block is exponentiated
    over h / 2^s, where its exp(-M^T h / 2^s) corner stays of order one, and
    then doubled, so W stays accurate for stiff modes.

    Returns the stacks [A_d, B_d] (D, n, k) and G (D, k, k) with G^T G = W,
    so the step energy is |G [x; u]|^2.  G zeroes the rows of the eigenvalues
    of W under 64 k eps lambda_max (k = n + m), its rounding level, so when y
    is a difference of equal outputs the energy cancels to rounding error
    instead of to its square root."""
    n, k = model.n, model.n + model.m
    ABd, G = [], []
    for A, B, C in zip(model.A, model.B, model.C):
        M = np.zeros((k, k))
        M[:n] = np.hstack([A, B])
        Ch = np.hstack([C, np.zeros((C.shape[0], model.m))])
        s = int(h * np.linalg.norm(M, 1)).bit_length()  # h ||M|| / 2^s < 1
        F = expm(h / 2**s * np.block([[-M.T, Ch.T @ Ch], [np.zeros((k, k)), M]]))
        E, W = F[k:, k:], F[k:, k:].T @ F[:k, k:]
        for _ in range(s):  # W(2t) = W(t) + E(t)^T W(t) E(t), E(2t) = E(t)^2
            W, E = W + E.T @ W @ E, E @ E
        ABd.append(E[:n])
        lam, V = np.linalg.eigh(symmetrize(W))
        keep = lam > 64 * k * np.finfo(float).eps * max(lam[-1], 0.0)
        G.append(np.sqrt(np.where(keep, lam, 0.0))[:, None] * V.T)
    return np.stack(ABd), np.stack(G)


def _packed(model, AB, *energy):
    """Per-mode step matrices [[A_q, B_q], [C_q, 0], [energy_q]] (D, n+k, n+m)."""
    C = np.pad(np.stack(model.C), ((0, 0), (0, 0), (0, model.m)))
    return np.concatenate([AB, C, *energy], axis=1)


def _dt_run_batch(model, modeseq, u):
    """Batched discrete-time recursion: states (R, N+1, n), outputs (R, N, p)."""
    AB = np.concatenate([np.stack(model.A), np.stack(model.B)], axis=2)
    return _recur(_packed(model, AB), modeseq, u)


def _ct_run_batch(model, modeseq, u, h):
    """Batched continuous-time run on the grid t_k = k h, stepped by the
    exact zero-order-hold discretization computed once, whose energy factor
    G_q rides in the readout.  Returns states (R, N+1, n), output samples
    (R, N+1, p), the final one with the last active mode, and the output
    energy of every step (R, N)."""
    ABd, G = _zoh(model, h)
    states, r = _recur(_packed(model, ABd, G), modeseq, u)
    last = np.einsum("rpn,rn->rp", np.stack(model.C)[modeseq[:, -1]], states[:, -1])
    outputs = np.concatenate([r[:, :, :model.p], last[:, None]], axis=1)
    return states, outputs, np.sum(r[:, :, model.p:] ** 2, axis=2)


def _run(model, modeseq, u, h):
    """States, output samples and the exact output energy of every step
    (R, N): |y(t)|^2 in discrete time, the integral of |y|^2 over the step
    in continuous time."""
    if not model.is_discrete:
        return _ct_run_batch(model, modeseq, u, h)
    states, outputs = _dt_run_batch(model, modeseq, u)
    return states, outputs, np.sum(outputs**2, axis=2)


def simulate(model, u, signal, h=None):
    """One trajectory of the model from x(0) = 0 under input samples u and
    switching signal `signal`.

    Discrete time runs the recursion x(t+1) = A_q x(t) + B_q u(t).
    Continuous time holds each input row constant over one step of length h
    (one row per step) and runs the exact zero-order-hold discretization of
    each mode, so states and output samples on the grid and the output
    energy carry no integration error.
    """
    signal.validate_against(model)
    if signal.time_domain != model.time_domain:
        raise ValueError(f"{model.time_domain} model needs a {model.time_domain} switching signal")
    modes = steps_from_signal(signal, h=h)
    N = modes.size
    u = np.asarray(u, dtype=float)
    if u.ndim == 1:
        u = u[:, None]
    if u.shape != (N, model.m):
        raise ValueError(f"input must have shape {(N, model.m)}, got {u.shape}")
    states, outputs, energy = _run(model, modes[None, :], u[None, :, :], h)
    times = np.arange(N + 1, dtype=float) * (1.0 if h is None else h)
    return Trajectory(times, states[0], outputs[0], u, signal, h, energy[0])


# ---------------------------------------------------------------------------
# Norms
# ---------------------------------------------------------------------------


def _norm(energy):
    """Norms from per-step energies (..., N); rounding can leave an energy
    that is exactly zero slightly negative."""
    return np.sqrt(np.maximum(np.sum(energy, axis=-1), 0.0))


def zoh_input_norm(u, h=None):
    """Exact L2 norm of a zero-order-hold input (left Riemann sum); with
    h=None this is the plain discrete l2 norm."""
    total = float(np.sum(np.asarray(u, dtype=float) ** 2))
    return math.sqrt(total if h is None else h * total)


def _input_energy(model, u, h):
    """Per-step input energy (R, N) of held inputs u (R, N, m)."""
    return np.sum(u**2, axis=2) * (1.0 if model.is_discrete else h)


# ---------------------------------------------------------------------------
# Random excitation
# ---------------------------------------------------------------------------


def random_switching(D, time_domain, rng, horizon, h=None):
    """Random switching signal covering the horizon: i.i.d. uniform modes per
    step in discrete time; in continuous time exponential dwell times of mean
    max(horizon / 8, 4 h) snapped to the simulation grid (so the step always
    divides every dwell)."""
    remaining = horizon_steps(time_domain, horizon, h)
    if time_domain == DISCRETE:
        return SwitchingSignal(DISCRETE, tuple(int(q) for q in rng.integers(0, D, remaining)))
    mean_dwell = max(horizon / 8.0, 4.0 * h)
    modes, dwells = [], []
    while remaining > 0:
        steps = min(remaining, max(1, round(rng.exponential(mean_dwell) / h)))
        modes.append(int(rng.integers(0, D)))
        dwells.append(steps * h)
        remaining -= steps
    return SwitchingSignal(CONTINUOUS, tuple(modes), tuple(dwells))


def random_input_batch(rng, trials, N, m, time_domain, h=None):
    """Unit-norm broadband excitations: filtered white noise plus a random
    constant bias in discrete time; a random constant plus five random
    sinusoids in continuous time."""
    if time_domain == DISCRETE:
        u = rng.standard_normal((trials, N, m))
        poles = rng.uniform(0.0, 0.97, size=trials)[:, None, None]
        # AR(1) filter u(t) += pole u(t-1) as a doubling scan: after the pass
        # with shift k, u(t) sums pole^j times the noise at t-j for j < 2k
        shift = 1
        while shift < N:
            u[:, shift:] += poles * u[:, :-shift]
            shift, poles = 2 * shift, poles**2
        u += (rng.uniform(-2.0, 2.0, size=(trials, 1, m))
              * rng.uniform(0.0, 1.0, size=(trials, 1, 1)) ** 2)
        norms = np.sqrt(np.sum(u**2, axis=(1, 2)))
    else:
        t = h * np.arange(N)
        weights = rng.dirichlet(np.full(6, 0.4), size=trials)  # DC + 5 sinusoids
        freqs = rng.exponential(1.0, size=(trials, 5))
        phases = rng.uniform(0.0, 2.0 * np.pi, size=(trials, 5))
        base = np.sqrt(weights[:, :1])[:, :, None] * np.ones((trials, 1, N))
        sins = np.sin(freqs[:, :, None] * t[None, None, :] + phases[:, :, None])
        base = np.concatenate([base, np.sqrt(weights[:, 1:])[:, :, None] * sins], axis=1)
        signal = np.sum(base, axis=1)  # (trials, N)
        directions = rng.standard_normal((trials, m))
        directions /= np.linalg.norm(directions, axis=1, keepdims=True)
        u = signal[:, :, None] * directions[:, None, :]
        norms = np.sqrt(h * np.sum(u**2, axis=(1, 2)))
    norms = np.maximum(norms, 1e-30)
    return u / norms[:, None, None]


def _batch_signals(model, rng, trials, horizon, h, cutoff=None):
    """Random (mode sequences, inputs) for a batch of trials; with `cutoff`
    the inputs are zeroed from a random index on (returned as well)."""
    N = horizon_steps(model.time_domain, horizon, h, trials)
    D = model.num_modes
    if model.is_discrete:
        modeseq = rng.integers(0, D, size=(trials, N))
    else:
        modeseq = np.empty((trials, N), dtype=int)
        for r in range(trials):
            sig = random_switching(D, CONTINUOUS, rng, horizon, h=h)
            modeseq[r] = steps_from_signal(sig, h=h)[:N]
    u = random_input_batch(rng, trials, N, model.m, model.time_domain, h=h)
    cut = None
    if cutoff:
        cut = rng.integers(max(1, N // 8), max(2, N // 2), size=trials)
        mask = np.arange(N)[None, :] < cut[:, None]
        u = u * mask[:, :, None]
    return modeseq, u, cut


def _estimate(model, trials, h, modeseq, u, energy):
    """Largest output/input norm ratio of a batch, with its witness."""
    ratios = _norm(energy) / np.maximum(_norm(_input_energy(model, u, h)), 1e-30)
    best = int(np.argmax(ratios))
    return GainEstimate(
        float(ratios[best]), best, trials,
        witness_input=u[best],
        witness_switching=_signal_from_steps(model, modeseq[best], h),
    )


def _from_cut(energy, cut):
    """Per-step energies (R, N) with the steps before each trial's cut zeroed."""
    return energy * (np.arange(energy.shape[1])[None, :] >= cut[:, None])


def empirical_gain(model, trials, horizon, seed, h=None):
    """Sampled lower bound on the worst-case output/input energy ratio.
    Deterministic given the seed; always at most the true gain."""
    rng = np.random.default_rng(seed)
    modeseq, u, _ = _batch_signals(model, rng, trials, horizon, h)
    _, _, energy = _run(model, modeseq, u, h)
    return _estimate(model, trials, h, modeseq, u, energy)


def empirical_hankel_gain(model, trials, horizon, seed, h=None):
    """Sampled lower bound on the Hankel gain: inputs are zeroed after a
    random cutoff and only the output energy from the cutoff on counts."""
    rng = np.random.default_rng(seed)
    modeseq, u, cut = _batch_signals(model, rng, trials, horizon, h, cutoff=True)
    _, _, energy = _run(model, modeseq, u, h)
    return _estimate(model, trials, h, modeseq, u, _from_cut(energy, cut))


def _signal_from_steps(model, steps, h):
    if model.is_discrete:
        return SwitchingSignal(DISCRETE, tuple(int(q) for q in steps))
    starts = np.flatnonzero(np.diff(steps, prepend=-1))
    counts = np.diff(starts, append=steps.size)
    return SwitchingSignal(CONTINUOUS, tuple(int(q) for q in steps[starts]),
                           tuple(float(c * h) for c in counts))


# ---------------------------------------------------------------------------
# Bound and energy-inequality verification
# ---------------------------------------------------------------------------


def verify_error_bound(model, result, trials, horizon, seed, h=None):
    """Sample the gain of the error system, whose output is the difference of
    the original and reduced outputs, with empirical_gain, and check
    ||y - y_hat||_2 <= bound * ||u||_2 + VERIFY_ATOL.  Both norms are exact
    in either time domain, so VERIFY_ATOL (reported as `slack`) only absorbs
    rounding."""
    est = empirical_gain(difference_system(model, result.reduced_model), trials, horizon, seed, h)
    return BoundCheckReport(result.apriori_bound, VERIFY_ATOL, est)


def check_energy_lemmas(model, pair, trials, seed, horizon, h=None):
    """Trajectory check of the two grammian energy inequalities: reached
    states satisfy x^T P^-1 x <= input energy so far, and from the moment the
    input stops, x^T Q x dominates the remaining output energy.  States and
    energies are exact in either time domain, so each side passes when its
    worst excess is at most VERIFY_ATOL times its energy scale."""
    rng = np.random.default_rng(seed)
    Pinv = np.linalg.inv(pair.P_ctrl)
    modeseq, u, cut = _batch_signals(model, rng, trials, horizon, h, cutoff=True)
    states, _, energy = _run(model, modeseq, u, h)
    # cum_in[:, t] = input energy strictly before t
    cum_in = np.cumsum(np.pad(_input_energy(model, u, h), ((0, 0), (1, 0))), axis=1)
    vP = np.sum((states @ Pinv) * states, axis=2)
    worst_in = float(np.max(vP - cum_in))
    future = np.sum(_from_cut(energy, cut), axis=1)
    x = states[np.arange(trials), cut]
    worst_out = float(np.max(future - np.sum((x @ pair.Q_obs) * x, axis=1)))
    passed = (worst_in <= VERIFY_ATOL * (1.0 + float(np.max(cum_in)))
              and worst_out <= VERIFY_ATOL * (1.0 + float(np.max(future))))
    return EnergyCheckReport(worst_in, worst_out, trials, passed)


# ---------------------------------------------------------------------------
# Horizon heuristic
# ---------------------------------------------------------------------------


def decay_horizon(model, cert, h=None):
    """Horizon long enough for the quadratic Lyapunov function of an "S"
    certificate (see check_quadratic_stability) to decay by DECAY_TARGET:
    returns steps (discrete) or seconds (continuous), capped at HORIZON_CAP
    steps."""
    m = cert.margin
    lam = float(np.linalg.eigvalsh(cert.P)[-1])
    if m <= 0:
        raise ValueError("certificate has no positive margin")
    rate = m / lam
    if model.is_discrete:
        factor = max(1e-12, 1.0 - min(rate, 1.0 - 1e-12))
        steps = int(math.ceil(math.log(DECAY_TARGET) / math.log(factor)))
        return horizon_steps(DISCRETE, max(8, min(steps, HORIZON_CAP)), h)
    T = math.log(1.0 / DECAY_TARGET) / rate
    if h is not None:
        T = horizon_steps(CONTINUOUS, max(min(T, HORIZON_CAP * h), 8 * h), h) * h
    return T
