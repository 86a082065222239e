"""The benchmark's tracer wraps program functions by name; every name it
wraps must still exist, or its per-layer metrics silently read 0."""

import importlib
import importlib.util
import inspect
from pathlib import Path

import numpy as np

from chirped_bath import _rk, cli, volterra

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
    # The tracer wraps these two by name and passes their arguments through.
    assert list(inspect.signature(volterra._march).parameters) == ["kernel_values", "h", "n"]
    assert list(inspect.signature(volterra._lag_lattice).parameters) == ["p", "h", "n"]


def test_integrate_calls_rhs_with_two_arguments_and_uses_its_result():
    """The tracer counts and times RHS calls by wrapping ``rhs`` in a
    function of (t, y) that passes on the array ``rhs`` returns.  An
    integrator that called ``rhs(t, y, out)`` or read its result from a
    buffer would break that wrapper, or make ``dynamics.rhs_s`` read 0."""
    tracer = _load_tracing().Tracer()
    calls = []

    def rhs(t, y):
        calls.append(t)
        return -2j * y

    states, _ = tracer._integrate(_rk.integrate)(
        rhs, 0.0, np.ones(3, dtype=complex), np.array([0.0, 1.0]), keep=lambda block: block
    )
    (span,) = tracer.take()
    assert span["attrs"]["rhs_evals"] == len(calls) > 1
    assert span["attrs"]["rhs_s"] > 0.0
    assert np.max(np.abs(states[-1] - np.exp(-2j))) < 1e-7


def test_cli_keys_survive_a_core_without_signature(tmp_path, monkeypatch):
    """The tracer replaces each core with a ``(*args, **kwargs)`` wrapper
    after import; the command still reads its keys from the real core and
    calls the wrapper, found by name, with them."""
    calls = []
    original = cli.simulate_table

    def wrapper(*args, **kwargs):
        calls.append((args, kwargs))
        return original(*args, **kwargs)

    monkeypatch.setattr(cli, "simulate_table", wrapper)
    out = tmp_path / "a.csv"
    argv = ["simulate", "--d", "0.2", "--t-end", "0.01", "--chi", "1", "--with-static"]
    assert cli.main(argv + ["--out", str(out)]) == 0
    assert calls == [((), {"d": 0.2, "t_end": 0.01, "chi": 1.0, "with_static": True})]
    assert out.read_text().startswith("t,pa,norm,pa_static,norm_static\n")
