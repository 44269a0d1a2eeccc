"""The benchmark's four workloads.

Each workload is a fixed ladder of base models.  `--seed` draws, for every
base model, a random orthogonal change of basis and a random mode order, and
seeds every Monte Carlo excitation.  A change of basis keeps the
input-output map, so gamma*, the singular values and the solver's sweep
counts are the same for every seed up to rounding, while the matrices the
library receives differ.  Fresh random models per seed would not do: the
cost of one gain bound varies from 2.2 s to 13.9 s between random models of
the same size (n = 4..8), so the total of a run would be a draw from that
spread rather than a measure of the code.

`setup_*(seed, workdir)` returns the operations of one pass.  An operation's
`run` is timed; its `check` runs outside the timed region and returns None
when the output is correct, or the reason it is not.
"""

import json
import math
from dataclasses import dataclass

import numpy as np

import lssbalred as L
import lssbalred.cli
import lssbalred.model

CT_STEP = 0.01


@dataclass
class Op:
    name: str
    category: str  # "gain" | "pair" | "reduce" | "cli_verify" | "verify"
    run: object
    check: object = None
    steps: int = 0  # simulated trajectory-steps, for the verifiers
    certified: object = None  # output -> the certified upper bound it carries
    fingerprint: object = None  # output -> deterministic values, compared exactly


def rotated(model, rng, name):
    """The model in a random orthonormal basis, with its modes reordered."""
    S, R = np.linalg.qr(rng.standard_normal((model.n, model.n)))
    S = S * np.sign(np.diag(R))
    m = L.apply_isomorphism(model, L.Isomorphism(S))
    order = rng.permutation(model.num_modes)
    return L.LssModel(model.time_domain, tuple(m.A[q] for q in order),
                      tuple(m.B[q] for q in order), tuple(m.C[q] for q in order),
                      name=name)


def _label(domain, n, D):
    return f"{'ct' if domain == L.CONTINUOUS else 'dt'}-n{n}-D{D}"


def _rng(seed, index):
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(index,)))


def _max_eig(M):
    return float(np.linalg.eigvalsh(0.5 * (M + M.T))[-1])


def _middle_order(sigmas):
    """The admissible retained order nearest half the model order."""
    return min(L.admissible_orders(sigmas), key=lambda r: abs(r - sigmas.size // 2))


def _bound_holds(rep):
    return None if rep.passed else f"worst ratio {rep.worst_ratio} > bound {rep.bound}"


# ---------------------------------------------------------------------------
# gain-bisect
# ---------------------------------------------------------------------------

# (time domain, n, D, base seed); quadratic-stable by construction.
GAIN_LADDER = (
    (L.CONTINUOUS, 4, 2, 1),
    (L.DISCRETE, 4, 2, 1),
    (L.CONTINUOUS, 8, 3, 1),
)


def _gain_check(model):
    def check(out):
        gamma, cert = out
        if not (math.isfinite(gamma) and gamma > 0):
            return f"gamma* = {gamma!r}"
        if np.linalg.eigvalsh(cert.P)[0] <= 0:
            return "certificate P is not positive definite"
        rep = L.check_membership(model, cert.P, "G", gamma)
        if not rep.member():
            return f"certificate fails the gain LMI at gamma* (worst {rep.worst:.3g})"
        return None
    return check


def setup_gain(seed, workdir):
    ops = []
    for i, (domain, n, D, base) in enumerate(GAIN_LADDER):
        name = _label(domain, n, D)
        model = rotated(L.random_stable_model(domain, n=n, D=D, seed=base), _rng(seed, i), name)
        ops.append(Op(
            f"gain {name}", "gain",
            run=lambda m=model: L.l2_gain_upper_bound(m, tol=1e-3),
            check=_gain_check(model),
            certified=lambda out: out[0],
            fingerprint=lambda out: (out[0],),
        ))
    return ops


# ---------------------------------------------------------------------------
# reduce-lmi (CLI, in-process)
# ---------------------------------------------------------------------------

# (time domain, n, D, base seed, dead states appended, retained order)
CLI_LADDER = (
    (L.CONTINUOUS, 16, 2, 1, 0, 8),
    (L.DISCRETE, 16, 2, 1, 0, 8),
    (L.DISCRETE, 12, 2, 2, 4, 6),
)


def _load_schema():
    path = lssbalred.cli.__file__.rsplit("/", 1)[0] + "/report_schema.json"
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _schema_errors(report, schema):
    try:
        import jsonschema
    except ImportError:  # test-only dependency; fall back to the required keys
        missing = [k for k in schema["required"] if k not in report]
        return f"report lacks {missing}" if missing else None
    errors = list(jsonschema.Draft7Validator(schema).iter_errors(report))
    return errors[0].message if errors else None


def setup_cli(seed, workdir):
    schema = _load_schema()
    ops = []
    for i, (domain, n, D, base, dead, order) in enumerate(CLI_LADDER):
        model = L.random_stable_model(domain, n=n, D=D, seed=base)
        if dead:
            model = lssbalred.model.pad_with_dead_states(model, dead, seed=base)
        name = _label(domain, model.n, D) + (f"-dead{dead}" if dead else "")
        model = rotated(model, _rng(seed, i), name)
        path = f"{workdir}/{name}.json"
        out = f"{workdir}/{name}.report.json"
        lssbalred.model.save_model(model, path)
        argv = ["verify-bound", "--model", path, "--grammians", "lmi",
                "--order", str(order), "--seed", str(seed % 2**31), "--out", out]
        if dead:
            argv.append("--minimize-first")

        def run(argv=argv, out=out):
            code = lssbalred.cli.main(argv)
            with open(out, encoding="utf-8") as fh:
                return code, json.load(fh)

        def check(res):
            code, report = res
            if code != 0:
                return f"exit code {code}"
            if report["status"] != "ok" or report["result"].get("passed") is not True:
                return f"status {report['status']}, result {report['result']}"
            return _schema_errors(report, schema)

        ops.append(Op(
            f"verify-bound {name}", "cli_verify", run=run, check=check,
            certified=lambda res: res[1]["result"]["apriori_bound"],
            fingerprint=lambda res: (res[1]["result"]["apriori_bound"],
                                     res[1]["result"]["worst_ratio"]),
        ))
    return ops


# ---------------------------------------------------------------------------
# reduce-nice
# ---------------------------------------------------------------------------

# (n, D, base seed); discrete, strongly stable by construction.
NICE_LADDER = (
    (16, 2, 1),
    (24, 3, 1),
    (32, 2, 1),
)
NICE_TRIALS = 50
NICE_HORIZON = 200


def _stein_residual(model, P, Q):
    """Relative residuals of the mode-summed Stein equations, computed here
    independently of the library."""
    RP = sum(A @ P @ A.T + B @ B.T for A, B in zip(model.A, model.B)) - P
    RQ = sum(A.T @ Q @ A + C.T @ C for A, C in zip(model.A, model.C)) - Q
    return max(np.linalg.norm(RP) / np.linalg.norm(P), np.linalg.norm(RQ) / np.linalg.norm(Q))


def _strictly_in_C_and_O(model, P, Q):
    worst = -np.inf
    for A, B, C in zip(model.A, model.B, model.C):
        worst = max(worst, _max_eig(A @ P @ A.T + B @ B.T - P), _max_eig(A.T @ Q @ A + C.T @ C - Q))
    return worst < 0


def setup_nice(seed, workdir):
    ops = []
    for i, (n, D, base) in enumerate(NICE_LADDER):
        name = _label(L.DISCRETE, n, D)
        model = rotated(L.random_stable_model(L.DISCRETE, n=n, D=D, kind="strong", seed=base),
                        _rng(seed, i), name)
        state = {}

        def nice(m=model, s=state):
            s["nice"] = L.compute_pair(m, source="nice")
            return s["nice"]

        def averaged(m=model, s=state):
            s["averaged"] = L.compute_pair(m, source="averaged")
            return s["averaged"]

        def reduce(m=model, s=state):
            order = _middle_order(L.singular_values(s["averaged"]).values)
            s["reduced"] = L.reduce_model(m, order=order, pair=s["averaged"])
            return s["reduced"]

        def verify(m=model, s=state, k=i):
            return L.verify_error_bound(m, s["reduced"], trials=NICE_TRIALS,
                                        horizon=NICE_HORIZON, seed=seed + k)

        def check_nice(pair, m=model):
            res = _stein_residual(m, pair.P_ctrl, pair.Q_obs)
            return None if res <= 1e-9 else f"Stein residual {res:.3g}"

        def check_averaged(pair, m=model):
            ok = _strictly_in_C_and_O(m, pair.P_ctrl, pair.Q_obs)
            return None if ok else "averaged pair is not strictly in C and O"

        def check_reduce(red):
            s = red.sigmas
            if np.any(np.diff(s) > 0):
                return "sigmas not descending"
            if red.apriori_bound != 2.0 * float(np.sum(s[red.retained:])):
                return "apriori bound is not 2 * sum of the discarded sigmas"
            return None

        ops += [
            Op(f"nice {name}", "pair", run=nice, check=check_nice),
            Op(f"averaged {name}", "pair", run=averaged, check=check_averaged),
            Op(f"reduce {name}", "reduce", run=reduce, check=check_reduce,
               certified=lambda red: red.apriori_bound,
               fingerprint=lambda red: (red.retained, red.apriori_bound)),
            Op(f"verify {name}", "verify", run=verify, check=_bound_holds,
               steps=2 * NICE_TRIALS * NICE_HORIZON,
               fingerprint=lambda rep: (rep.worst_ratio,)),
        ]
    return ops


# ---------------------------------------------------------------------------
# montecarlo
# ---------------------------------------------------------------------------

# (time domain, n, D, base seed, trials, horizon in steps)
MC_LADDER = (
    (L.CONTINUOUS, 8, 2, 1, 40, 1000),
    (L.CONTINUOUS, 16, 2, 1, 40, 1000),
    (L.DISCRETE, 8, 2, 1, 100, 1000),
    (L.DISCRETE, 16, 3, 1, 100, 1000),
)
MC_STOCHASTIC_TRIALS = 400


def setup_mc(seed, workdir):
    ops = []
    for i, (domain, n, D, base, trials, steps) in enumerate(MC_LADDER):
        name = _label(domain, n, D)
        kind = "strong" if domain == L.DISCRETE else "quadratic"
        model = rotated(L.random_stable_model(domain, n=n, D=D, kind=kind, seed=base),
                        _rng(seed, i), name)
        if domain == L.DISCRETE:
            h, horizon = None, steps
            pair = L.compute_pair(model, source="averaged")
        else:
            h, horizon = CT_STEP, steps * CT_STEP
            pair = L.compute_pair(model, source="lmi", tighten=False)
        sigmas = L.singular_values(pair).values
        red = L.reduce_model(model, order=_middle_order(sigmas), pair=pair)
        full_bound = 2.0 * float(np.sum(sigmas))
        s = seed + 1000 * i

        ops += [
            Op(f"verify {name}", "verify",
               run=lambda m=model, r=red, t=trials, hz=horizon, h=h, s=s:
                   L.verify_error_bound(m, r, trials=t, horizon=hz, seed=s, h=h),
               check=_bound_holds,
               steps=2 * trials * steps,
               certified=(lambda rep: rep.bound) if domain == L.DISCRETE else None,
               fingerprint=lambda rep: (rep.worst_ratio,)),
            Op(f"empirical-gain {name}", "verify",
               run=lambda m=model, t=trials, hz=horizon, h=h, s=s:
                   L.empirical_gain(m, trials=t, horizon=hz, seed=s + 1, h=h),
               check=lambda est, b=full_bound: None if est.lower_bound <= b
               else f"empirical gain {est.lower_bound} > 2 * sum sigma {b}",
               steps=trials * steps,
               fingerprint=lambda est: (est.lower_bound,)),
            Op(f"empirical-hankel {name}", "verify",
               run=lambda m=model, t=trials, hz=horizon, h=h, s=s:
                   L.empirical_hankel_gain(m, trials=t, horizon=hz, seed=s + 2, h=h),
               check=lambda est, b=float(sigmas[0]): None if est.lower_bound <= b
               else f"empirical Hankel gain {est.lower_bound} > sigma_max {b}",
               steps=trials * steps,
               fingerprint=lambda est: (est.lower_bound,)),
            Op(f"energy {name}", "verify",
               run=lambda m=model, p=pair, t=trials, hz=horizon, h=h, s=s:
                   L.check_energy_lemmas(m, p, trials=t, seed=s + 3, horizon=hz, h=h),
               check=lambda rep: None if rep.passed
               else f"energy slacks {rep.worst_input_slack}, {rep.worst_output_slack}",
               steps=trials * steps,
               fingerprint=lambda rep: (rep.worst_input_slack, rep.worst_output_slack)),
        ]
        if domain == L.DISCRETE:
            u = _rng(seed, 100 + i).standard_normal((steps, model.m))
            u /= np.linalg.norm(u)
            ops.append(Op(
                f"stochastic {name}", "verify",
                run=lambda m=model, u=u, hz=steps, s=s:
                    L.monte_carlo_stochastic_energy(m, u, trials=MC_STOCHASTIC_TRIALS,
                                                    horizon=hz, seed=s + 4),
                check=lambda rep: None if (math.isfinite(rep.mc_mean) and rep.mc_mean > 0
                                           and math.isfinite(rep.mc_se))
                else f"stochastic energy {rep.mc_mean} +- {rep.mc_se}",
                steps=MC_STOCHASTIC_TRIALS * steps,
                fingerprint=lambda rep: (rep.mc_mean, rep.mc_se),
            ))
    return ops


WORKLOADS = {
    "gain-bisect": setup_gain,
    "reduce-lmi": setup_cli,
    "reduce-nice": setup_nice,
    "montecarlo": setup_mc,
}
