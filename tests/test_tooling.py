"""The benchmark's trace mode wraps library functions by name; every name it
wraps must still exist, or `perfbench/run.py --trace 1` dies on start.  Its
checks unpack library results; their shapes must still match."""

import importlib
import importlib.util
from pathlib import Path

import pytest

from lssbalred import l2_gain_upper_bound, random_stable_model

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
