"""Direct integration of the coupled emitter/bath amplitude equations in the
single-excitation sector.

The emitter amplitude couples to every grid mode through the sliding
Lorentzian envelope; each mode keeps its full phase history in closed form
(detuning*t + chi*t^2/2), so no auxiliary phase equations are integrated.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _rk
from .errors import GridCoverageError, SolverError, ValidationError
from .model import BathGrid, ModelParams, _coupling, _window_half_widths

DEFAULT_SAMPLE_EVERY = 1e-3


@dataclass(frozen=True)
class IntegratorConfig:
    rel_tol: float = 1e-8
    abs_tol: float = 1e-10
    max_step: float = np.inf
    sample_every: float = DEFAULT_SAMPLE_EVERY

    def __post_init__(self) -> None:
        for name in ("rel_tol", "abs_tol", "max_step", "sample_every"):
            if not getattr(self, name) > 0:
                raise ValidationError(f"{name} must be strictly positive")


@dataclass
class AmplitudeState:
    """Snapshot of the joint system: time, emitter amplitude, mode amplitudes."""

    t: float
    c_a: complex
    c_modes: np.ndarray


@dataclass
class Trajectory:
    """Time-ordered observable series with optional full-state snapshots."""

    times: np.ndarray
    pa: np.ndarray
    states: list | None = None
    norms: np.ndarray | None = None

    def __post_init__(self) -> None:
        self.times = np.asarray(self.times, dtype=float)
        self.pa = np.asarray(self.pa, dtype=float)
        if self.times.shape != self.pa.shape:
            raise ValidationError("times and pa must have matching shapes")
        if np.any(np.diff(self.times) <= 0):
            raise ValidationError("trajectory times must be strictly increasing")
        if np.any(self.pa < 0) or np.any(self.pa > 1 + 1e-6):
            raise ValidationError("pa must lie in [0, 1 + 1e-6]")
        if self.norms is not None:
            self.norms = np.asarray(self.norms, dtype=float)
            if self.norms.shape != self.times.shape:
                raise ValidationError("norms must match times in shape")


def init_state(grid: BathGrid) -> AmplitudeState:
    """Excited emitter, empty bath, t = 0."""
    return AmplitudeState(t=0.0, c_a=1.0 + 0.0j, c_modes=np.zeros(grid.size, dtype=complex))


def norm(state: AmplitudeState) -> float:
    """Total excitation probability |c_a|^2 + sum |c_k|^2 (conserved exactly)."""
    return float(abs(state.c_a) ** 2 + np.sum(np.abs(state.c_modes) ** 2))


def _make_rhs(detunings: np.ndarray, spacing: float, p: ModelParams, envelope_center: float):
    det_eff = np.asarray(detunings, dtype=float) - envelope_center
    chi = p.chi

    def rhs(t: float, y: np.ndarray) -> np.ndarray:
        c_a = y[0]
        c_modes = y[1:]
        g = _coupling(det_eff + chi * t, spacing, p)
        gp = g * np.exp(-1j * (det_eff * t + 0.5 * chi * t * t))
        dy = np.empty_like(y)
        dy[0] = -1j * np.dot(gp, c_modes)
        dy[1:] = (-1j * c_a) * np.conj(gp)
        return dy

    return rhs


def _check_coverage(grid: BathGrid, p: ModelParams, t_end: float, center: float) -> None:
    w_low = -(grid.window[0] - center)
    w_high = grid.window[1] - center
    need_low, need_high = _window_half_widths(p, t_end)
    # min(need_low, need_high) is the static half-width
    slack = 1e-9 * max(1.0, min(need_low, need_high))
    if w_low < need_low - slack or w_high < need_high - slack:
        raise GridCoverageError(
            f"grid window [{-w_low:.3f}, {w_high:.3f}] leaves significantly coupled "
            f"modes outside the grid before t = {t_end:g} "
            f"(need [-{need_low:.3f}, {need_high:.3f}])"
        )


def _sample_times(t0: float, t_end: float, every: float) -> np.ndarray:
    n = int(np.floor((t_end - t0) / every + 1e-9))
    ts = t0 + every * np.arange(n + 1)
    if ts[-1] < t_end - 1e-12 * max(1.0, abs(t_end)):
        ts = np.append(ts, t_end)
    else:
        ts[-1] = t_end
    return ts


def evolve(
    state: AmplitudeState,
    grid: BathGrid,
    p: ModelParams,
    cfg: IntegratorConfig | None,
    t_end: float,
    *,
    envelope_center: float = 0.0,
    sample_times: np.ndarray | None = None,
    store_states: bool = False,
) -> Trajectory:
    """Advance the coupled amplitude equations from ``state`` to ``t_end``.

    ``envelope_center`` shifts the frequency origin: detunings and envelope
    move together, so offsetting both leaves the physics untouched (only
    relative detunings matter).  Snapshots are stored only on request since
    high-chirp grids can hold 1e5-1e6 modes.
    """
    if cfg is None:
        cfg = IntegratorConfig()
    if not t_end > state.t:
        raise ValidationError(f"t_end must exceed the state time {state.t}, got {t_end}")
    if state.c_modes.shape != (grid.size,):
        raise ValidationError(
            f"state holds {state.c_modes.size} mode amplitudes for a grid of {grid.size}"
        )
    _check_coverage(grid, p, t_end, envelope_center)

    if sample_times is None:
        times = _sample_times(state.t, t_end, cfg.sample_every)
    else:
        times = np.asarray(sample_times, dtype=float)
        if times.size == 0 or np.any(np.diff(times) <= 0):
            raise ValidationError("sample_times must be non-empty and strictly increasing")
        if times[0] < state.t - 1e-12 or times[-1] > t_end + 1e-12:
            raise ValidationError("sample_times must lie within [state.t, t_end]")

    y0 = np.empty(grid.size + 1, dtype=complex)
    y0[0] = state.c_a
    y0[1:] = state.c_modes
    rhs = _make_rhs(grid.detunings, grid.spacing, p, envelope_center)
    samples, _ = _rk.integrate(
        rhs, state.t, y0, times, rel_tol=cfg.rel_tol, abs_tol=cfg.abs_tol, max_step=cfg.max_step
    )
    pa = np.abs(samples[:, 0]) ** 2
    norms = np.sum(np.abs(samples) ** 2, axis=1)
    norm0 = float(np.sum(np.abs(y0) ** 2))
    drift = abs(float(norms[-1]) - norm0)
    budget = 10.0 * cfg.rel_tol * (t_end - state.t)
    if drift > budget:
        raise SolverError(
            f"norm drifted by {drift:.3e} over [{state.t:g}, {t_end:g}], "
            f"beyond the {budget:.3e} budget for rel_tol = {cfg.rel_tol:g}"
        )
    states = None
    if store_states:
        states = [
            AmplitudeState(t=float(t), c_a=complex(row[0]), c_modes=row[1:].copy())
            for t, row in zip(times, samples)
        ]
    return Trajectory(times=times, pa=pa, states=states, norms=norms)
