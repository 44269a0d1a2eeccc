"""Command-line frontend producing machine-readable JSON reports.

Exit codes: 0 success, 1 input error (unreadable or malformed model, bad
arguments), 2 infeasible / no certificate / failed verification.  Reports
are byte-identical for identical configuration and seed, except for the
timestamp field.  Mode indices are 1-based in all CLI-facing text.
"""

import argparse
import csv
import json
import sys
from datetime import datetime, timezone

import numpy as np

from . import __version__
from .balred import GRAMMIAN_SOURCES, compute_pair, reduce_model
from .embeddings import build_uncertain_embedding, check_uncertain_minimality_equivalence
from .errors import InfeasibleError, LssError, ModelFormatError
from .gain import l2_gain_upper_bound
from .grammians import GrammianPair, check_membership, singular_values
from .model import _matrix_to_lists, _modes_to_lists, _parse_matrix, load_model
from .realization import is_minimal, minimize, minimize_with_pair
from .simulate import (
    decay_horizon,
    empirical_gain,
    horizon_steps,
    random_input_batch,
    random_switching,
    simulate,
    verify_error_bound,
    zoh_input_norm,
)
from .stability import check_quadratic_stability, check_strong_stability

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_INFEASIBLE = 2


def _vec(v):
    return [float(x) for x in np.asarray(v).ravel()]


def _model_info(model, path):
    return {
        "path": str(path),
        "name": model.name,
        "time_domain": model.time_domain,
        "order": model.n,
        "modes": model.num_modes,
        "inputs": model.m,
        "outputs": model.p,
    }


def _emit(report, out_path):
    text = json.dumps(report, indent=2, sort_keys=True)
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
            fh.write("\n")
    else:
        print(text)


def _report(command, args, model, result, status, config_keys):
    return {
        "command": command,
        "timestamp": datetime.now(timezone.utc).isoformat(),
        "status": status,
        "model": _model_info(model, args.model),
        "config": {k: getattr(args, k) for k in config_keys},
        "result": result,
    }


def _horizon_and_step(model, args):
    """(horizon, h, steps): --horizon, else a certified decay horizon, and its
    horizon_steps count; a discrete horizon is that count and has h None."""
    h = None if model.is_discrete else args.step
    horizon = args.horizon
    if horizon is None:
        cert = check_quadratic_stability(model)
        horizon = ((200 if model.is_discrete else 20.0) if cert is None
                   else decay_horizon(model, cert, h=h))
    steps = horizon_steps(model.time_domain, horizon, h)
    return (steps if model.is_discrete else horizon), h, steps


def _load_pair(path, n):
    """Explicit grammian pair from a JSON file {"P": [[...]], "Q": [[...]]}, parsed
    like a model file's matrices; lets a report reproduce a hand-picked pair exactly."""
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    if not isinstance(data, dict) or not {"P", "Q"} <= data.keys():
        raise ModelFormatError('pair file must contain a JSON object {"P": ..., "Q": ...}')
    P = _parse_matrix(data["P"], "P of the pair file")
    Q = _parse_matrix(data["Q"], "Q of the pair file")
    if P.shape != (n, n) or Q.shape != (n, n):
        raise ModelFormatError(f"pair file matrices must be {n}x{n}")
    return GrammianPair(P, Q, "manual")


def cmd_check(args, model):
    cert = check_quadratic_stability(model)
    result = {
        "minimal": bool(is_minimal(model)),
        "quadratically_stable": cert is not None,
    }
    if cert is not None:
        result["certificate"] = _matrix_to_lists(cert.P)
        result["certificate_margin"] = float(cert.margin)
    if model.is_discrete:
        radius = check_strong_stability(model)
        result["strong_stability"] = {"radius": float(radius), "stable": bool(radius < 1.0)}
    status = "ok" if cert is not None else "infeasible"
    return result, status


def cmd_grammians(args, model):
    pair = compute_pair(model, source=args.grammians, margin=args.margin)
    ctrl = check_membership(model, pair.P_ctrl, "C")
    obs = check_membership(model, pair.Q_obs, "O")
    result = {
        "provenance": pair.provenance,
        "margin": float(min(ctrl.margin, obs.margin)),
        "trace_tightened": args.grammians == "lmi",
        "controllability": _matrix_to_lists(pair.P_ctrl),
        "observability": _matrix_to_lists(pair.Q_obs),
        "sigmas": _vec(singular_values(pair).values),
        "residuals": {"controllability": _vec(ctrl.residuals),
                      "observability": _vec(obs.residuals)},
    }
    return result, "ok"


def _reduce(args, model):
    """The reduce and verify-bound pipeline: minimize on --minimize-first,
    carrying a --pair-file pair along, else compute the pair; then reduce."""
    if (args.order is None) == (args.bound is None):
        raise ValueError("specify exactly one of --order or --bound")
    if args.pair_file and args.margin is not None:
        raise ValueError("a supplied grammian pair takes no margin")
    pair = _load_pair(args.pair_file, model.n) if args.pair_file else None
    if args.minimize_first and pair:
        model, P, Q = minimize_with_pair(model, pair.P_ctrl, pair.Q_obs)
        pair = GrammianPair(P, Q, pair.provenance)
    elif args.minimize_first:
        model = minimize(model)
    if model.n == 0:
        raise ValueError("model minimized to order zero; nothing to reduce")
    pair = pair or compute_pair(model, source=args.grammians, margin=args.margin)
    return reduce_model(model, pair, order=args.order, bound_budget=args.bound,
                        force_ties=args.force_ties)


def cmd_reduce(args, model):
    res = _reduce(args, model)
    bal = res.balancing
    reduced = res.reduced_model
    result = {
        "original_order": int(model.n),
        "retained": int(res.retained),
        "sigmas": _vec(res.sigmas),
        "apriori_bound": float(res.apriori_bound),
        "transform": _matrix_to_lists(bal.transform.S),
        "transform_condition": float(bal.transform.condition_estimate),
        "grammian_provenance": bal.pair.provenance,
        "strict_pair": bool(res.strict_pair),
        "minimized_first": bool(args.minimize_first),
        "reduced_model": {"time_domain": reduced.time_domain, "modes": _modes_to_lists(reduced)},
        "residuals": {
            "reduced_controllability": _vec(check_membership(reduced, res.lambda1, "C").residuals),
            "reduced_observability": _vec(check_membership(reduced, res.lambda1, "O").residuals),
        },
    }
    return result, "ok"


def cmd_gain(args, model):
    gamma_star, cert = l2_gain_upper_bound(model, tol=args.tol)
    result = {"gamma_star": float(gamma_star), "residuals": _vec(cert.residuals)}
    return result, "ok"


def cmd_simulate(args, model):
    rng = np.random.default_rng(args.seed)
    horizon, h, steps = _horizon_and_step(model, args)
    signal = random_switching(model.num_modes, model.time_domain, rng, horizon, h=h)
    u = random_input_batch(rng, 1, steps, model.m, model.time_domain, h=h)[0]
    traj = simulate(model, u, signal, h=h)
    result = {
        "horizon": float(horizon),
        "steps": steps,
        "output_l2_norm": traj.output_norm,
        "input_l2_norm": float(zoh_input_norm(traj.inputs, h=h)),
        "switching": {
            "modes": [int(q) + 1 for q in signal.modes],
            "dwells": [float(d) for d in signal.dwells] if signal.dwells else None,
        },
    }
    if args.csv:
        _write_csv(args.csv, traj, model)
        result["csv"] = args.csv
    return result, "ok"


def _write_csv(path, traj, model):
    N = traj.inputs.shape[0]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        header = (
            ["t"]
            + [f"u{i + 1}" for i in range(model.m)]
            + [f"x{i + 1}" for i in range(model.n)]
            + [f"y{i + 1}" for i in range(model.p)]
        )
        writer.writerow(header)
        for t in range(N):
            row = (
                [repr(float(traj.times[t]))]
                + [repr(float(v)) for v in traj.inputs[t]]
                + [repr(float(v)) for v in traj.states[t]]
                + [repr(float(v)) for v in traj.outputs[t]]
            )
            writer.writerow(row)


def cmd_verify_bound(args, model):
    res = _reduce(args, model)
    horizon, h, _ = _horizon_and_step(model, args)
    report = verify_error_bound(model, res, args.trials, horizon, args.seed, h=h)
    result = {
        "retained": int(res.retained),
        "apriori_bound": float(report.bound),
        "worst_ratio": float(report.worst_ratio),
        "slack": float(report.slack),
        "trials": int(report.trials),
        "passed": bool(report.passed),
        "grammian_provenance": res.balancing.pair.provenance,
    }
    return result, "ok" if report.passed else "failed"


def cmd_embed(args, model):
    emb = build_uncertain_embedding(model)
    agree = check_uncertain_minimality_equivalence(model)
    result = {
        "embedding_order": int(emb.n),
        "block_dim": int(model.n),
        "modes": int(model.num_modes),
        "minimality_agreement": bool(agree),
        "strong_stability_radius": float(check_strong_stability(model)),
        "empirical_gain_lower_bound": None,
    }
    if args.trials:
        horizon = 50 if args.horizon is None else args.horizon
        est = empirical_gain(model, args.trials, horizon, args.seed)
        result["empirical_gain_lower_bound"] = float(est.lower_bound)
    return result, "ok"


# Every flag a subcommand may take, as argparse keyword arguments.
FLAGS = {
    "order": dict(type=int, default=None, help="retained order r"),
    "bound": dict(type=float, default=None, help="error-bound budget"),
    "grammians": dict(default="lmi", choices=GRAMMIAN_SOURCES),
    "minimize_first": dict(action="store_true"),
    "force_ties": dict(action="store_true"),
    "margin": dict(type=float, default=None),
    "tol": dict(type=float, default=1e-3),
    "trials": dict(type=int, default=0),
    "horizon": dict(type=float, default=None),
    "step": dict(type=float, default=0.01),
    "seed": dict(type=int, default=0),
    "csv": dict(default=None, help="trajectory CSV output"),
    "pair_file": dict(default=None, help='explicit grammian pair JSON {"P": ..., "Q": ...}'),
}

# Each subcommand with the flags it takes besides --model and --out; the
# report's config records exactly these.
COMMANDS = {
    "check": (cmd_check, []),
    "grammians": (cmd_grammians, ["margin", "grammians"]),
    "reduce": (cmd_reduce, ["margin", "grammians", "order", "bound",
                            "minimize_first", "force_ties", "pair_file"]),
    "gain": (cmd_gain, ["tol"]),
    "simulate": (cmd_simulate, ["seed", "horizon", "step", "csv"]),
    "verify-bound": (cmd_verify_bound, ["seed", "margin", "grammians", "order",
                                        "bound", "trials", "horizon", "step",
                                        "minimize_first", "force_ties", "pair_file"]),
    "embed": (cmd_embed, ["seed", "trials", "horizon"]),
}


def build_parser():
    parser = argparse.ArgumentParser(
        prog="lssbalred",
        description="Balanced truncation and gain analysis for linear switched systems",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, flags) in COMMANDS.items():
        p = sub.add_parser(name)
        p.add_argument("--model", required=True, help="model JSON file")
        p.add_argument("--out", default=None, help="write the JSON report here")
        for flag in flags:
            p.add_argument("--" + flag.replace("_", "-"), **FLAGS[flag])
    sub.choices["verify-bound"].set_defaults(trials=50)
    return parser


def main(argv=None):
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on bad arguments, but 2 means "infeasible" here;
        # --help and --version exit 0.
        return EXIT_OK if exc.code == 0 else EXIT_INPUT
    if args.command == "verify-bound" and args.trials <= 0:
        print(f"error: --trials must be positive, got {args.trials}", file=sys.stderr)
        return EXIT_INPUT
    try:
        model = load_model(args.model)
    except OSError as exc:
        print(f"error: cannot read model: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except ModelFormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    fn, config_keys = COMMANDS[args.command]
    try:
        result, status = fn(args, model)
    except InfeasibleError as exc:
        rep = _report(args.command, args, model,
                      {"error": str(exc)}, "infeasible", config_keys)
        _emit(rep, args.out)
        return EXIT_INFEASIBLE
    except (OSError, ValueError, LssError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    rep = _report(args.command, args, model, result, status, config_keys)
    _emit(rep, args.out)
    return EXIT_OK if status == "ok" else EXIT_INFEASIBLE


if __name__ == "__main__":
    sys.exit(main())
