"""The benchmark's trace mode wraps library functions by name; every name it
wraps must still exist, or `perfbench/run.py --trace 1` dies on start."""

import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _traced():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return [(module, func) for module, func, _, _ in spans.TRACED]


@pytest.mark.parametrize("module, func", _traced())
def test_traced_target_resolves(module, func):
    assert callable(getattr(importlib.import_module(f"lssbalred.{module}"), func, None))
