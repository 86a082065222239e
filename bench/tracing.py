"""Spans and per-layer counters, recorded from the benchmark's own files.

``Tracer.install`` replaces module functions of the program by wrappers,
each patched where its caller looks it up (``cli.evolve``, ``_rk.integrate``
as ``dynamics`` calls it, ``volterra._lag_lattice`` ...).  A wrapper records
a span (name, start, end, parent, thread) and counts from the arguments and
result.  Right-hand-side calls of the integrator are far too many for spans;
they are counted and timed on the span of the ``integrate`` call that made
them.  Spans stay in memory until the run writes them out.  A name the
program no longer has is reported as absent and its metrics read 0.
"""

from __future__ import annotations

import importlib
import inspect
import itertools
import statistics
import threading
import time
from collections import defaultdict

# (module of chirped_bath, attribute, span name)
WRAPPED = (
    ("cli", "main", "cli.main"),
    ("cli", "simulate_table", "cli.table"),
    ("cli", "volterra_table", "cli.table"),
    ("cli", "spectrum_table", "cli.table"),
    ("cli", "gamma_inf_table", "cli.gamma_inf_table"),
    ("cli", "sec5_table", "cli.table"),
    ("cli", "build_grid", "model.build_grid"),
    ("cli", "evolve", "dynamics.evolve"),
    ("_rk", "integrate", "rk.integrate"),
    ("cli", "solve_volterra", "volterra.solve"),
    ("volterra", "_lag_lattice", "volterra.lattice"),
    ("volterra", "_march", "volterra.march"),
    ("cli", "gamma_infinity", "closedform.gamma_infinity"),
    ("cli", "numeric_spectrum", "spectra"),
    ("cli", "spectrum_closure", "spectra"),
    ("cli", "fit_decay", "analysis"),
    ("cli", "classify", "analysis"),
    ("cli", "mirror_chirp", "analysis"),
    ("cli", "dimensionless_chi", "analysis"),
)

# Per-layer metric -> unit; the order of BENCHMARK.json.
LAYER_UNITS = {
    "rk.steps": "count",
    "rk.steps_per_sample": "ratio",
    "rk.rejected_steps": "count",
    "rk.integrate_self_s": "s",
    "rk.rhs_evals": "count",
    "dynamics.rhs_s": "s",
    "dynamics.rhs_ns_per_mode_eval": "ns",
    "dynamics.evolve_s": "s",
    "dynamics.solves": "count",
    "dynamics.samples": "count",
    "model.build_grid_s": "s",
    "model.modes": "count",
    "volterra.solve_s": "s",
    "volterra.lattice_s": "s",
    "volterra.lag_points": "count",
    "volterra.march_s": "s",
    "closedform.gamma_infinity_s": "s",
    "closedform.gamma_infinity_calls": "count",
    "spectra.s": "s",
    "analysis.s": "s",
    "cli.self_s": "s",
    "cli.bytes_written": "B",
    "cli.sweep_parallel_efficiency": "ratio",
}

_TABLES = ("cli.table", "cli.gamma_inf_table")
# Work of the gamma-inf fitted points, done in the sweep's thread pool.
_FIT_SOLVE = ("model.build_grid", "dynamics.evolve", "analysis")


class Tracer:
    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.absent: list[str] = []
        self._lock = threading.Lock()
        self._ids = itertools.count()
        self._local = threading.local()
        self._main = threading.get_ident()
        self._main_stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    # -- spans

    def _stack(self) -> list[int]:
        if threading.get_ident() == self._main:
            return self._main_stack
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def open(self, name: str) -> dict:
        stack = self._stack()
        # A pool thread starts with an empty stack; its work was caused by
        # the span the main thread has open while it waits on the pool.
        origin = stack or self._main_stack
        span = {"name": name, "start": time.perf_counter(), "end": None,
                "parent": origin[-1] if origin else None,
                "thread": threading.get_ident(), "attrs": {}}
        with self._lock:
            span["id"] = next(self._ids)
            self.spans.append(span)
        stack.append(span["id"])
        return span

    def close(self, span: dict) -> None:
        span["end"] = time.perf_counter()
        self._stack().pop()

    def take(self) -> list[dict]:
        """Spans recorded since the last call."""
        with self._lock:
            spans, self.spans = self.spans, []
        return spans

    # -- patching

    def install(self) -> None:
        for mod_key, attr, name in WRAPPED:
            module = importlib.import_module(f"chirped_bath.{mod_key}")
            original = getattr(module, attr, None)
            if original is None:
                self.absent.append(f"{mod_key}.{attr}")
                continue
            if name == "rk.integrate":
                wrapper = self._integrate(original)
            else:
                wrapper = self._plain(original, name)
            self._saved.append((module, attr, original))
            setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def _plain(self, original, name: str):
        def wrapper(*args, **kwargs):
            span = self.open(name)
            try:
                result = original(*args, **kwargs)
            finally:
                self.close(span)
            if name == "model.build_grid":
                span["attrs"]["modes"] = int(getattr(result, "size", 0))
            elif name == "dynamics.evolve":
                span["attrs"]["samples"] = len(getattr(result, "times", ()))
            elif name == "volterra.lattice":
                span["attrs"]["points"] = len(result)
            return result

        return wrapper

    def _integrate(self, original):
        signature = inspect.signature(original)
        if not {"rhs", "y0", "sample_times"} <= set(signature.parameters):
            self.absent.append("_rk.integrate(rhs, t0, y0, sample_times)")
            return self._plain(original, "rk.integrate")

        def wrapper(*args, **kwargs):
            bound = signature.bind(*args, **kwargs)
            rhs = bound.arguments["rhs"]
            acc = [0, 0.0]

            def counted(t, y):
                start = time.perf_counter()
                out = rhs(t, y)
                acc[1] += time.perf_counter() - start
                acc[0] += 1
                return out

            bound.arguments["rhs"] = counted
            span = self.open("rk.integrate")
            try:
                result = original(*bound.args, **bound.kwargs)
            finally:
                self.close(span)
            span["attrs"].update(
                rhs_evals=acc[0],
                rhs_s=acc[1],
                # integrate returns (samples, accepted steps)
                steps=int(result[1]) if isinstance(result, tuple) else 0,
                samples=len(bound.arguments["sample_times"]),
                size=len(bound.arguments["y0"]),
            )
            return result

        return wrapper


def _dur(span: dict) -> float:
    return span["end"] - span["start"]


def pass_metrics(spans: list[dict], bytes_written: int, thread_cap: int) -> dict[str, float]:
    """Per-layer metrics of one traced pass; times summed over threads."""
    by = defaultdict(list)
    for s in spans:
        by[s["name"]].append(s)

    def total(name: str) -> float:
        return sum(_dur(s) for s in by[name])

    def attr(name: str, key: str) -> float:
        return sum(s["attrs"].get(key, 0) for s in by[name])

    rk = by["rk.integrate"]
    steps = attr("rk.integrate", "steps")
    samples = attr("rk.integrate", "samples")
    rhs_s = attr("rk.integrate", "rhs_s")
    mode_evals = sum(s["attrs"].get("rhs_evals", 0) * s["attrs"].get("size", 0) for s in rk)
    table_time = defaultdict(float)
    for name in _TABLES:
        for s in by[name]:
            table_time[s["parent"]] += _dur(s)
    sweeps = {s["id"] for s in by["cli.gamma_inf_table"]}
    fit_solve = sum(_dur(s) for name in _FIT_SOLVE for s in by[name] if s["parent"] in sweeps)
    sweep_s = total("cli.gamma_inf_table")
    return {
        "rk.steps": steps,
        "rk.steps_per_sample": steps / samples if samples else 0.0,
        "rk.rejected_steps": sum(
            (a["rhs_evals"] - 1) // 6 - a["steps"] for a in (s["attrs"] for s in rk) if a
        ),
        "rk.integrate_self_s": total("rk.integrate") - rhs_s,
        "rk.rhs_evals": attr("rk.integrate", "rhs_evals"),
        "dynamics.rhs_s": rhs_s,
        "dynamics.rhs_ns_per_mode_eval": 1e9 * rhs_s / mode_evals if mode_evals else 0.0,
        "dynamics.evolve_s": total("dynamics.evolve"),
        "dynamics.solves": len(by["dynamics.evolve"]),
        "dynamics.samples": attr("dynamics.evolve", "samples"),
        "model.build_grid_s": total("model.build_grid"),
        "model.modes": attr("model.build_grid", "modes"),
        "volterra.solve_s": total("volterra.solve"),
        "volterra.lattice_s": total("volterra.lattice"),
        "volterra.lag_points": attr("volterra.lattice", "points"),
        "volterra.march_s": total("volterra.march"),
        "closedform.gamma_infinity_s": total("closedform.gamma_infinity"),
        "closedform.gamma_infinity_calls": len(by["closedform.gamma_infinity"]),
        "spectra.s": total("spectra"),
        "analysis.s": total("analysis"),
        "cli.self_s": sum(_dur(s) - table_time[s["id"]] for s in by["cli.main"]),
        "cli.bytes_written": bytes_written,
        "cli.sweep_parallel_efficiency": fit_solve / (sweep_s * thread_cap) if sweep_s else 0.0,
    }


def combine(per_pass: list[dict[str, float]]) -> dict[str, float]:
    """Median over traced passes of each time and ratio; a count is the
    same in every pass and is taken from the first."""
    return {k: per_pass[0][k] if unit in ("count", "B") else
            statistics.median(m[k] for m in per_pass)
            for k, unit in LAYER_UNITS.items()}
