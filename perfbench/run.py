"""Benchmark for lssbalred: time to certified answers, end to end and by layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a source checkout; it imports the library from
`src/` there and from nowhere else.  One client calls the library in a
closed loop: one call at a time, in this process.  A run sets the workload
up several times, then repeats passes over its operations until the
next pass would end after `--seconds`; every run makes at least one pass.
Outputs are checked after each pass, outside the timed region.

With `--trace 0` the result holds the end-to-end metrics, each the median
over the run's passes.  Every time is scaled to a nominal machine speed
measured while the workload runs (see SpeedProbe).  With `--trace 1` the run makes one untraced pass,
then wraps the library's layer boundaries (see spans.py), sets up and passes
once more, and reports per-layer metrics from the spans of that traced
set-up and pass.

The last line of standard output is the result:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
The line before it is a record of the machine, the seed, the failing
operations, the raw times, the workload's own metrics and the deterministic
fingerprint.
"""

import argparse
import hashlib
import json
import math
import os
import platform
import signal
import statistics
import sys
from time import perf_counter

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# Set-up is repeated at least SETUP_REPEATS times and for at least
# SETUP_MIN_SECONDS (at most SETUP_MAX_REPEATS times); setup_s is the median.
# A set-up of a millisecond would otherwise be one noisy sample.
SETUP_REPEATS = 3
SETUP_MIN_SECONDS = 1.0
SETUP_MAX_REPEATS = 100
# Speed probe: every PROBE_PERIOD seconds a fixed kernel is timed (see
# SpeedProbe).  Times are reported at the speed where it takes PROBE_NOMINAL.
PROBE_PERIOD = 0.05
PROBE_NOMINAL = 1e-3
# The workload's own metrics, printed in the record with unit and direction.
CATEGORY_METRICS = {
    "gain": ("gain_s", "time in l2_gain_upper_bound"),
    "pair": ("pair_s", "time in compute_pair"),
    "cli_verify": ("cli_verify_s", "time in cli.main verify-bound"),
    "verify": ("verify_s", "time in the simulation verifiers"),
    "reduce": ("reduce_s", "time in reduce_model with a given pair"),
}


def import_library():
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "lssbalred", "__init__.py")):
        sys.exit(f"error: no library source at {src}/lssbalred")
    sys.path.insert(0, src)
    import lssbalred

    if not os.path.abspath(lssbalred.__file__).startswith(src + os.sep):
        sys.exit(f"error: imported lssbalred from {lssbalred.__file__}, not {src}")


class SpeedProbe:
    """Samples how fast the machine runs this process, while the workload runs.

    The speed of the shared 2-core machine this benchmark was built on drifts
    by up to 40% over seconds to minutes.  On a fixed solver loop timed in
    0.5 s blocks, the blocks varied with a coefficient of variation of 0.2
    raw, and of 0.035 when divided by a small numpy kernel timed between
    them.  So a SIGALRM handler times such a kernel every PROBE_PERIOD
    seconds, in the main thread between bytecodes, and `factor` converts
    wall seconds to seconds at the speed where the kernel takes
    PROBE_NOMINAL.  The handler touches no library state; it adds about 2%
    to every time, on every commit alike.
    """

    def __init__(self):
        rng = np.random.default_rng(0)
        S = rng.standard_normal((8, 8))
        self.S0 = S + S.T
        self.G = rng.standard_normal((36, 36)) / 6.0
        self.samples = []  # (end time, kernel seconds)

    def kernel(self):
        S, x = self.S0, np.ones(36)
        for _ in range(20):
            w, V = np.linalg.eigh(S)
            x = self.G @ x
            x /= np.linalg.norm(x)
            S = (V * np.maximum(w, -1.0)) @ V.T + 1e-3 * np.outer(x[:8], x[:8])
            S = 0.5 * (S + S.T)

    def _sample(self, signum, frame):
        t0 = perf_counter()
        self.kernel()
        t1 = perf_counter()
        self.samples.append((t1, t1 - t0))

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD, PROBE_PERIOD)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def factor(self, start, end):
        """Nominal seconds per wall second over [start, end]; from every
        sample of the run if none fell inside."""
        inside = [d for t, d in self.samples if start <= t <= end]
        return PROBE_NOMINAL / statistics.fmean(inside or [d for _, d in self.samples])


def machine_record(seed, lssbalred_threads):
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "LSSBALRED_THREADS": lssbalred_threads,
        "seed": seed,
    }


def run_pass(ops, tracer=None):
    """Call every operation once, in order; returns (start, end, results)
    with one (wall seconds, output, error) per operation."""
    results = []
    start = perf_counter()
    for i, op in enumerate(ops):
        if tracer is not None:
            tracer.op = i
        t0 = perf_counter()
        try:
            out, err = op.run(), None
        except Exception as exc:  # an operation that raises counts as failed
            out, err = None, f"{type(exc).__name__}: {exc}"
        results.append((perf_counter() - t0, out, err))
    return start, perf_counter(), results


def judge(ops, results):
    """Output checks; returns (failures by op name, wrong answers, fingerprint)."""
    failures, wrong, prints = {}, 0, []
    for op, (_, out, err) in zip(ops, results):
        if err is None and op.check is not None:
            reason = op.check(out)
            if reason is not None:
                err = f"check failed: {reason}"
                wrong += 1
        if err is not None:
            failures[op.name] = err
        prints.append(None if err is not None or op.fingerprint is None
                      else [float(v) for v in op.fingerprint(out)])
    return failures, wrong, prints


def geomean(values):
    return math.exp(sum(math.log(v) for v in values) / len(values)) if values else 0.0


def pass_metrics(ops, results, factor):
    """Per-pass bound_geomean, and the workload's own metrics at nominal speed."""
    by_cat, steps, bounds = {}, 0, []
    for op, (sec, out, err) in zip(ops, results):
        by_cat[op.category] = by_cat.get(op.category, 0.0) + sec * factor
        if err is None:
            steps += op.steps
            if op.certified is not None:
                bounds.append(float(op.certified(out)))
    own = {CATEGORY_METRICS[c][0]: v for c, v in by_cat.items()}
    if steps:
        own["mc_steps_per_s"] = steps / by_cat["verify"]
    return geomean(bounds), own


def digest(prints):
    return hashlib.sha256(json.dumps(prints).encode()).hexdigest()[:16]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    sys.dont_write_bytecode = True  # leave the checkout as it was
    # The library's default of one Monte Carlo worker; record what was set.
    lssbalred_threads = os.environ.pop("LSSBALRED_THREADS", None)
    import_library()
    import spans
    import workloads

    if args.workload not in workloads.WORKLOADS:
        sys.exit(f"error: unknown workload {args.workload!r}; "
                 f"choose from {sorted(workloads.WORKLOADS)}")
    setup_fn = workloads.WORKLOADS[args.workload]
    workdir = os.path.join(ROOT, ".bench_build", "perfbench", f"{args.workload}-{args.seed}")
    os.makedirs(workdir, exist_ok=True)

    with SpeedProbe() as probe:
        setup_times = []
        setup_start = perf_counter()
        while len(setup_times) < SETUP_REPEATS or (
                sum(setup_times) < SETUP_MIN_SECONDS and len(setup_times) < SETUP_MAX_REPEATS):
            t0 = perf_counter()
            ops = setup_fn(args.seed, workdir)
            setup_times.append(perf_counter() - t0)
        setup_factor = probe.factor(setup_start, perf_counter())

        passes = []  # (start, end, results)
        while True:
            passes.append(run_pass(ops))
            last = passes[-1][1] - passes[-1][0]
            if args.trace or passes[-1][1] - passes[0][0] + last > args.seconds:
                break

        if args.trace:
            tracer = spans.Tracer()
            tracer.install()
            tracer.op = "setup"
            traced_start = perf_counter()
            traced_ops = setup_fn(args.seed, workdir)
            pass_start, traced_end, traced_results = run_pass(traced_ops, tracer)
    factors = [probe.factor(start, end) for start, end, _ in passes]

    attempted = failed = wrong = 0
    failing, prints = {}, []
    for _, _, results in passes:
        f, w, p = judge(ops, results)
        attempted += len(ops)
        failed += len(f)
        wrong += w
        failing.update(f)
        prints.append(p)
    deterministic = all(p == prints[0] for p in prints)

    walls = [(end - start) * k for (start, end, _), k in zip(passes, factors)]
    per_pass = [pass_metrics(ops, results, k) for (_, _, results), k in zip(passes, factors)]
    own = {k: statistics.median(p[1][k] for p in per_pass) for k in per_pass[0][1]}

    record = {
        "workload": args.workload,
        "machine": machine_record(args.seed, lssbalred_threads),
        "passes": len(passes),
        "ops_per_pass": len(ops),
        "ops_failed_ratio": failed / attempted,
        "failing_ops": failing,
        "raw_wall_s": statistics.median(end - start for start, end, _ in passes),
        "raw_setup_s": statistics.median(setup_times),
        "speed_factor": statistics.median(factors),
        "fingerprint": digest(prints[0]),
        "workload_metrics": {
            name: {"value": own[name], "unit": "s", "better": "lower", "what": what}
            for name, what in CATEGORY_METRICS.values() if name in own
        },
    }
    if "mc_steps_per_s" in own:
        record["workload_metrics"]["mc_steps_per_s"] = {
            "value": own["mc_steps_per_s"], "unit": "trajectory-steps/s",
            "better": "higher", "what": "simulated trials x steps over verify_s"}

    if args.trace:
        # Taken before the checks, whose calls into the library are no work
        # of the workload.
        layer = spans.layer_metrics(tracer.spans)
        tracer.write(os.path.join(workdir, "spans.jsonl"))
        k = probe.factor(traced_start, traced_end)
        layer = {name: (v * k if unit in ("s", "ms", "us") else v, unit)
                 for name, (v, unit) in layer.items()}
        traced_wall = (traced_end - pass_start) * probe.factor(pass_start, traced_end)
        layer["trace.overhead_ratio"] = (traced_wall / walls[0] - 1.0, "ratio")
        _, _, traced_prints = judge(traced_ops, traced_results)
        deterministic = deterministic and traced_prints == prints[0]
        record["traced_equals_untraced"] = traced_prints == prints[0]
        record["counts"] = {k: v for k, (v, unit) in layer.items() if unit == "count"}
        metrics = {k: {"value": v, "unit": unit} for k, (v, unit) in layer.items()}
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setup_times) * setup_factor, "unit": "s"},
            "wall_s": {"value": statistics.median(walls), "unit": "s"},
            "ops_ok_ratio": {"value": 1.0 - failed / attempted, "unit": "ratio"},
            "bound_geomean": {"value": statistics.median(p[0] for p in per_pass), "unit": "1"},
        }
    record["deterministic"] = deterministic

    print(json.dumps({"record": record}))
    print(json.dumps({
        "correct": wrong == 0 and deterministic,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
