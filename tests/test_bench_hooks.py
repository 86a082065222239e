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
        # one mode at detuning 1 with coupling 2: u(t) = 2 e^{it}
        calls.append(t)
        u = 2.0 * np.exp(1j * t)
        return np.array([-1j * np.conj(u) * y[1], -1j * u * y[0]])

    kept, _ = tracer._integrate(_rk.integrate)(
        rhs, 0.0, np.array([1.0, 0.0], dtype=complex), np.array([0.0, 1.0])
    )
    (span,) = tracer.take()
    assert span["attrs"]["rhs_evals"] == len(calls) > 1
    assert span["attrs"]["rhs_s"] > 0.0
    # c_a = e^{-it/2} (cos(W t/2) + i sin(W t/2) / W) with W = sqrt(1 + 4 * 2^2)
    w = np.sqrt(17.0)
    exact = np.exp(-0.5j) * (np.cos(0.5 * w) + 1j * np.sin(0.5 * w) / w)
    assert abs(kept[-1, 0] - exact) < 1e-7


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


def test_every_grid_is_built_through_build_grid(tmp_path, monkeypatch):
    """The tracer reads ``model.modes`` off its wrapper of ``cli.build_grid``;
    a command that built a grid any other way would make it read 0."""
    calls = []
    original = cli.build_grid

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(cli, "build_grid", counting)
    out = str(tmp_path / "a.csv")
    runs = [
        (["simulate", "--d", "0.2", "--chi", "1", "--t-end", "0.01", "--with-static"], 2),
        (["spectrum", "--d", "2", "--times", "0.05,0.1"], 1),
        (["gamma-inf", "--d-list", "0.2", "--chi-min", "1", "--chi-max", "10",
          "--chi-points", "2", "--fit-d", "0.2", "--fit-chis", "1,3,5"], 3),
    ]
    for argv, grids in runs:
        calls.clear()
        assert cli.main(argv + ["--out", out]) == 0
        assert len(calls) == grids, argv
