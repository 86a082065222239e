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
from .model import BathGrid, ModelParams, _window_half_widths, coupling

DEFAULT_SAMPLE_EVERY = 1e-3
# Largest samples x (modes + 1) complex matrix that `_rk.integrate` may
# allocate; fig7, the largest preset, needs 209 MB.
MAX_SAMPLE_BYTES = 2**30


@dataclass(frozen=True)
class IntegratorConfig:
    rel_tol: float = 1e-8
    sample_every: float = DEFAULT_SAMPLE_EVERY

    def __post_init__(self) -> None:
        for name in ("rel_tol", "sample_every"):
            if not 0 < getattr(self, name) < np.inf:
                raise ValidationError(f"{name} must be positive and finite")


@dataclass
class Trajectory:
    """Time-ordered observable series; ``modes``, when kept, holds one row
    of mode amplitudes per sample time."""

    times: np.ndarray
    pa: np.ndarray
    modes: np.ndarray | None = None
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


def _make_rhs(det: np.ndarray, spacing: float, p: ModelParams):
    chi = p.chi

    def rhs(t: float, y: np.ndarray) -> np.ndarray:
        c_a = y[0]
        c_modes = y[1:]
        g = coupling(det + chi * t, spacing, p)
        gp = g * np.exp(-1j * (det * t + 0.5 * chi * t * t))
        dy = np.empty_like(y)
        dy[0] = -1j * np.dot(gp, c_modes)
        dy[1:] = (-1j * c_a) * np.conj(gp)
        return dy

    return rhs


def _check_coverage(grid: BathGrid, p: ModelParams, t_end: float) -> None:
    w_low = -grid.window[0]
    w_high = grid.window[1]
    need_low, need_high = _window_half_widths(p, t_end, grid.spacing)
    # min(need_low, need_high) is the static half-width
    slack = 1e-9 * max(1.0, min(need_low, need_high))
    if w_low < need_low - slack or w_high < need_high - slack:
        raise GridCoverageError(
            f"grid window [{-w_low:.3f}, {w_high:.3f}] leaves significantly coupled "
            f"modes outside the grid before t = {t_end:g} "
            f"(need [-{need_low:.3f}, {need_high:.3f}])"
        )


def _sample_times(t_end: float, every: float) -> np.ndarray:
    n = int(np.floor(t_end / every + 1e-9))
    ts = every * np.arange(n + 1)
    if ts[-1] < t_end - 1e-12 * max(1.0, abs(t_end)):
        ts = np.append(ts, t_end)
    else:
        ts[-1] = t_end
    return ts


def evolve(
    grid: BathGrid,
    p: ModelParams,
    t_end: float,
    cfg: IntegratorConfig | None = None,
    *,
    sample_times: np.ndarray | None = None,
    store_modes: bool = False,
) -> Trajectory:
    """Advance the coupled amplitude equations from the excited emitter and
    empty bath at t = 0 to ``t_end``.

    Mode amplitudes are kept only on request since high-chirp grids can hold
    1e5-1e6 modes.  The norm may drift by at most 10 * rel_tol * t_end at
    any sample.
    """
    if cfg is None:
        cfg = IntegratorConfig()
    if not t_end > 0:
        raise ValidationError(f"t_end must be positive, got {t_end}")
    _check_coverage(grid, p, t_end)

    times = None if sample_times is None else np.asarray(sample_times, dtype=float)
    count = t_end / cfg.sample_every + 2 if times is None else times.size
    size = count * (grid.size + 1) * 16.0
    if size > MAX_SAMPLE_BYTES:
        raise ValidationError(
            f"{count:.3g} samples of {grid.size + 1} amplitudes need {size / 2**30:.3g} GiB, "
            f"above the {MAX_SAMPLE_BYTES / 2**30:g} GiB limit; raise --sample-every"
        )
    if times is None:
        times = _sample_times(t_end, cfg.sample_every)
    elif times.size == 0 or np.any(np.diff(times) <= 0):
        raise ValidationError("sample_times must be non-empty and strictly increasing")
    elif times[0] < -1e-12 or times[-1] > t_end + 1e-12:
        raise ValidationError("sample_times must lie within [0, t_end]")

    y0 = np.zeros(grid.size + 1, dtype=complex)
    y0[0] = 1.0
    rhs = _make_rhs(grid.detunings, grid.spacing, p)
    samples, _ = _rk.integrate(rhs, 0.0, y0, times, rel_tol=cfg.rel_tol)
    pa = np.abs(samples[:, 0]) ** 2
    norms = np.sum(np.abs(samples) ** 2, axis=1)
    drift = float(np.max(np.abs(norms - 1.0)))
    budget = 10.0 * cfg.rel_tol * t_end
    if drift > budget:
        raise SolverError(
            f"norm drifted by up to {drift:.3e} over [0, {t_end:g}], "
            f"beyond the {budget:.3e} budget for rel_tol = {cfg.rel_tol:g}"
        )
    modes = samples[:, 1:] if store_modes else None
    return Trajectory(times=times, pa=pa, modes=modes, norms=norms)
