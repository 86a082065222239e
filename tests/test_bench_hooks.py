"""The benchmark's tracer wraps program functions by name; every name it
wraps must still exist, or its per-layer metrics silently read 0."""

import importlib
import importlib.util
import inspect
from pathlib import Path

from chirped_bath import _rk

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_names_exist():
    tracing = _load_tracing()
    missing = [
        f"{mod}.{attr}"
        for mod, attr, _ in tracing.WRAPPED
        if not hasattr(importlib.import_module(f"chirped_bath.{mod}"), attr)
    ]
    assert missing == []
    assert {"rhs", "y0", "sample_times"} <= set(inspect.signature(_rk.integrate).parameters)
