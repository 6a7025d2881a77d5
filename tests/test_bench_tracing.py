"""The benchmark's tracer wraps package functions by name; every name must resolve."""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = _load_tracing()


@pytest.mark.parametrize(
    "module, function",
    [entry[:2] for entry in tracing.SPANS] + [entry[:2] for entry in tracing.COUNTERS],
)
def test_traced_function_resolves(module, function):
    assert callable(getattr(importlib.import_module(f"ivpaudit.{module}"), function))
