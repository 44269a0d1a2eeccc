"""The benchmark's trace mode wraps library functions by name; every name it
wraps must still exist, or `perfbench/run.py --trace 1` dies on start.  Its
checks unpack library results; their shapes must still match."""

import importlib
import importlib.util
from pathlib import Path

import pytest

from lssbalred import l2_gain_upper_bound, random_stable_model, reduce_model, verify_error_bound

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _traced():
    return [(module, func) for module, func, _, _ in _load("spans").TRACED]


@pytest.mark.parametrize("module, func", _traced())
def test_traced_target_resolves(module, func):
    assert callable(getattr(importlib.import_module(f"lssbalred.{module}"), func, None))


def test_gain_workload_check_accepts_the_gain_bound():
    model = random_stable_model("discrete", 3, 2, kind="quadratic", seed=3)
    assert _load("workloads")._gain_check(model)(l2_gain_upper_bound(model)) is None


def test_cli_workload_ops_pass_their_checks(tmp_path):
    """Runs the benchmark's exact verify-bound argv, so a deleted flag it
    passes (--seed, --minimize-first) fails here rather than in a run."""
    for op in _load("workloads").setup_cli(1, tmp_path):
        assert op.check(op.run()) is None, op.name


def test_bound_check_reads_the_verify_report():
    model = random_stable_model("discrete", 4, 2, kind="strong", seed=2)
    res = reduce_model(model, order=2, source="nice")
    rep = verify_error_bound(model, res, trials=10, horizon=50, seed=1)
    assert _load("workloads")._bound_holds(rep) is None
