"""Span recording around the library's layer boundaries, from outside.

`Tracer.install()` replaces each traced function by a wrapper in every
`lssbalred` module namespace that holds it, so calls between modules are
caught as well as calls from the benchmark: `solve_feasibility` is bound in
`lmi`, `grammians`, `gain` and `stability`, and the wrappers catch the solves
inside `tighten_trace` and the probes inside `l2_gain_upper_bound`.  Spans
stay in memory; `write()` stores them when the run ends.  The per-layer
metrics are computed from the spans alone.
"""

import json
import sys
from time import perf_counter

# The attribute extractors read counts from arguments and results, never
# from timers: sweeps and stop status come from the returned
# FeasibilityResult, simulated steps from the shape of the mode-sequence batch.


def _solve_attrs(args, kwargs, out):
    return {"sweeps": int(out.iterations), "feasible": bool(out.feasible)}


def _probe_attrs(args, kwargs, out):
    return {"feasible": out is not None}


def _batch_attrs(args, kwargs, out):
    modeseq = args[1] if len(args) > 1 else kwargs["modeseq"]
    return {"steps": int(modeseq.shape[0] * modeseq.shape[1])}


# (module, function, span name, attribute extractor or None)
TRACED = (
    ("lmi", "solve_feasibility", "lmi.solve", _solve_attrs),
    ("lmi", "tighten_trace", "lmi.tighten", None),
    ("gain", "l2_gain_upper_bound", "gain.bound", None),
    ("gain", "gamma_feasible", "gain.probe", _probe_attrs),
    ("stability", "check_quadratic_stability", "stability.quadratic", None),
    ("stability", "check_strong_stability", "stability.strong", None),
    ("grammians", "nice_grammians", "grammians.nice", None),
    ("grammians", "averaged_grammians", "grammians.averaged", None),
    ("grammians", "lmi_grammian", "grammians.lmi_grammian", None),
    ("grammians", "check_membership", "grammians.membership", None),
    ("grammians", "singular_values", "grammians.singular_values", None),
    ("balred", "compute_pair", "balred.compute_pair", None),
    ("balred", "reduce_model", "balred.reduce_model", None),
    ("balred", "balance", "balred.balance", None),
    ("balred", "truncate", "balred.truncate", None),
    ("realization", "minimize", "realization.minimize", None),
    ("model", "random_stable_model", "model.generate", None),
    ("model", "pad_with_dead_states", "model.generate", None),
    ("model", "save_model", "model.io", None),
    ("model", "load_model", "model.io", None),
    ("cli", "main", "cli.main", None),
    ("simulate", "_dt_run_batch", "simulate.dt_batch", _batch_attrs),
    ("simulate", "_ct_run_batch", "simulate.ct_batch", _batch_attrs),
    ("simulate", "verify_error_bound", "simulate.verify", None),
    ("simulate", "empirical_gain", "simulate.empirical", None),
    ("simulate", "empirical_hankel_gain", "simulate.empirical", None),
    ("simulate", "check_energy_lemmas", "simulate.energy", None),
    ("embeddings", "monte_carlo_stochastic_energy", "embeddings.stochastic", None),
)


class Tracer:
    """Single-threaded span recorder.  A span is
    [name, start, end, parent index, op id, attributes]."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.op = None

    def _wrap(self, name, fn, attrs):
        def traced(*args, **kwargs):
            parent = self.stack[-1] if self.stack else None
            span = [name, 0.0, 0.0, parent, self.op, None]
            self.spans.append(span)
            self.stack.append(len(self.spans) - 1)
            span[1] = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                self.stack.pop()
            if attrs is not None:
                span[5] = attrs(args, kwargs, out)
            return out

        return traced

    def install(self):
        """Wrap every traced function in every lssbalred namespace bound to it."""
        modules = [m for k, m in sys.modules.items()
                   if m is not None and (k == "lssbalred" or k.startswith("lssbalred."))]
        for module, func, name, attrs in TRACED:
            original = getattr(sys.modules[f"lssbalred.{module}"], func)
            wrapper = self._wrap(name, original, attrs)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, op, attrs in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "op": op, "attrs": attrs}))
                fh.write("\n")


def layer_metrics(spans):
    """Per-layer counts, total times and self times from a list of spans.

    Self time is a span's duration minus the time its child spans cover;
    calls are nested and single-threaded, so the children never overlap.
    """
    dur = [end - start for _, start, end, _, _, _ in spans]
    child = [0.0] * len(spans)
    for i, span in enumerate(spans):
        if span[3] is not None:
            child[span[3]] += dur[i]

    def named(name):
        return [i for i, s in enumerate(spans) if s[0] == name]

    def total(name):
        return sum(dur[i] for i in named(name))

    def self_time(*names):
        return sum(dur[i] - child[i] for n in names for i in named(n))

    def under(i, name):
        p = spans[i][3]
        while p is not None:
            if spans[p][0] == name:
                return True
            p = spans[p][3]
        return False

    solves = named("lmi.solve")
    unsolved = [i for i in solves if not spans[i][5]["feasible"]]
    sweeps = sum(spans[i][5]["sweeps"] for i in solves)
    solve_s = sum(dur[i] for i in solves)
    probes = named("gain.probe")
    ct = named("simulate.ct_batch")
    dt = named("simulate.dt_batch")
    ct_steps = sum(spans[i][5]["steps"] for i in ct)
    dt_steps = sum(spans[i][5]["steps"] for i in dt)

    def ratio(a, b):
        return a / b if b else 0.0

    return {
        "lmi.solves": (len(solves), "count"),
        "lmi.sweeps": (sweeps, "count"),
        "lmi.solve_s": (solve_s, "s"),
        "lmi.sweep_ms": (1e3 * ratio(solve_s, sweeps), "ms"),
        "lmi.unsolved": (len(unsolved), "count"),
        "lmi.unsolved_sweeps": (sum(spans[i][5]["sweeps"] for i in unsolved), "count"),
        "lmi.unsolved_s": (sum(dur[i] for i in unsolved), "s"),
        "lmi.useful_ratio": (ratio(len(solves) - len(unsolved), len(solves)), "ratio"),
        "lmi.tighten_s": (total("lmi.tighten"), "s"),
        "lmi.tighten_solves": (sum(1 for i in solves if under(i, "lmi.tighten")), "count"),
        "gain.bounds": (len(named("gain.bound")), "count"),
        "gain.probes": (len(probes), "count"),
        "gain.probes_unsolved": (sum(1 for i in probes if not spans[i][5]["feasible"]), "count"),
        "gain.probe_s": (sum(dur[i] for i in probes), "s"),
        "stability.quadratic_calls": (len(named("stability.quadratic")), "count"),
        "stability.quadratic_s": (total("stability.quadratic"), "s"),
        "stability.strong_calls": (len(named("stability.strong")), "count"),
        "stability.strong_s": (total("stability.strong"), "s"),
        "grammians.nice_s": (self_time("grammians.nice"), "s"),
        "grammians.averaged_s": (self_time("grammians.averaged"), "s"),
        "grammians.lmi_grammian_s": (self_time("grammians.lmi_grammian"), "s"),
        "grammians.membership_s": (self_time("grammians.membership"), "s"),
        "grammians.singular_values_s": (self_time("grammians.singular_values"), "s"),
        "balred.balance_s": (self_time("balred.balance"), "s"),
        "balred.truncate_s": (self_time("balred.truncate"), "s"),
        "realization.minimize_s": (self_time("realization.minimize"), "s"),
        "model.generate_s": (self_time("model.generate"), "s"),
        "model.io_s": (self_time("model.io"), "s"),
        "cli.self_s": (self_time("cli.main"), "s"),
        "simulate.ct_steps": (ct_steps, "count"),
        "simulate.dt_steps": (dt_steps, "count"),
        "simulate.ct_step_us": (1e6 * ratio(sum(dur[i] for i in ct), ct_steps), "us"),
        "simulate.dt_step_us": (1e6 * ratio(sum(dur[i] for i in dt), dt_steps), "us"),
        "simulate.verify_s": (total("simulate.verify"), "s"),
        "simulate.empirical_s": (total("simulate.empirical"), "s"),
        "simulate.energy_s": (total("simulate.energy"), "s"),
        "embeddings.stochastic_s": (total("embeddings.stochastic"), "s"),
    }
