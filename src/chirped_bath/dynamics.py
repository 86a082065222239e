"""Direct integration of the coupled emitter/bath amplitude equations in the
single-excitation sector.

The emitter amplitude couples to every grid mode through the sliding
Lorentzian envelope; each mode keeps its full phase history in closed form
(detuning*t + chi*t^2/2), so no auxiliary phase equations are integrated.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass

import numpy as np

from . import _rk
from .errors import SolverError, ValidationError
from .model import BathGrid, coupling

DEFAULT_SAMPLE_EVERY = 1e-3
# Largest samples x (modes + 1) complex amplitudes a solve may ask for, in
# bytes.  It bounds memory when mode amplitudes are kept (fig7, the largest
# preset, would come to 209 MB).  Without them a sample costs O(1), since
# `_rk.integrate` reads c_a and the norm off its 4x4 algebra, and the limit
# only caps the sample count on large grids.
MAX_SAMPLE_BYTES = 2**30
# Largest population a trajectory may report.
_PA_MAX = 1 + 1e-6
# Columns of the RHS phase table: mode j = 64 a + b takes row a, column b.
_TABLE_WIDTH = 64
# Largest norm drift of a solve: the propagator is unitary, so the norm
# moves by rounding alone.
_NORM_DRIFT = 1e-10


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
        # Written as "not all in range", so a NaN fails every check.
        if not (np.all(np.isfinite(self.times)) and np.all(np.diff(self.times) > 0)):
            raise ValidationError("trajectory times must be finite and strictly increasing")
        if not np.all((self.pa >= 0) & (self.pa <= _PA_MAX)):
            raise ValidationError("pa must lie in [0, 1 + 1e-6]")
        if self.norms is not None:
            self.norms = np.asarray(self.norms, dtype=float)
            if self.norms.shape != self.times.shape:
                raise ValidationError("norms must match times in shape")
            if not np.all(np.isfinite(self.norms)):
                raise ValidationError("norms must be finite")


def _check_population(pa: np.ndarray) -> None:
    """Refuse a solver's own pa = |c_a|^2 series that rises above 1 + 1e-6:
    the solver, not its caller, is at fault (exit 3, not 2)."""
    worst = float(np.max(pa))
    if not worst <= _PA_MAX:
        raise SolverError(f"pa reached {worst:.9g}, above the bound 1 + 1e-6")


def _make_rhs(grid: BathGrid):
    """dy/dt for y = (c_a, c_1, ..., c_N).

    Mode j sits at det_0 + j*s, so its phase det_j t + chi t^2 / 2 splits
    into one scalar, det_0 t + chi t^2 / 2, and j s t.  With j = 64 a + b,
    e^{i j s t} is the outer product of two short tables, e^{i 64 a s t} and
    e^{i b s t}, so no per-mode exponential is taken.  The mode sum is
    ``_rk``'s chunked dot product, so it stays on one BLAS thread.  Each
    call returns the same buffer, overwritten by the next call.
    """
    p = grid.p
    n, s, chi = grid.size, grid.spacing, p.chi
    det0 = float(grid.detunings[0])
    rows = -(-n // _TABLE_WIDTH)
    offsets = np.concatenate((_TABLE_WIDTH * np.arange(rows), np.arange(_TABLE_WIDTH)))
    table = np.empty((rows, _TABLE_WIDTH), dtype=complex)
    w = table.reshape(-1)[:n]
    static_g = coupling(grid.detunings, s, p) if chi == 0 else None
    dy = np.empty(n + 1, dtype=complex)

    def rhs(t: float, y: np.ndarray) -> np.ndarray:
        e = np.exp((1j * s * t) * offsets)
        np.multiply(e[:rows, None], e[rows:], out=table)
        g = static_g if chi == 0 else coupling(grid.detunings + chi * t, s, p)
        # w_j = g_j e^{i j s t}: mode j's coupling with its phase is conj(z w_j)
        np.multiply(w, g, out=w)
        z = cmath.exp(1j * (det0 * t + 0.5 * chi * t * t))
        dy[0] = -1j * z.conjugate() * _rk._dot(w, y[1:])
        np.multiply(w, -1j * y[0] * z, out=dy[1:])
        return dy

    return rhs


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
    *,
    rel_tol: float = 1e-8,
    sample_every: float = DEFAULT_SAMPLE_EVERY,
    sample_times: np.ndarray | None = None,
    store_modes: bool = False,
) -> Trajectory:
    """Advance the coupled amplitude equations from the excited emitter and
    empty bath at t = 0 to ``grid.horizon``.

    ``rel_tol`` is the accuracy of ``pa``: at every sample it lies within
    rel_tol of the converged solution of this grid (tested on the paper's
    presets; see ``_rk.integrate`` for what the step controller holds).
    Mode amplitudes are kept only on request since high-chirp grids can hold
    1e5-1e6 modes.  The norm may drift by at most 1e-10, or by 10 * rel_tol
    * horizon if that is less, at any sample.
    """
    for name, value in (("rel_tol", rel_tol), ("sample_every", sample_every)):
        if not 0 < value < np.inf:
            raise ValidationError(f"{name} must be positive and finite, got {value}")
    t_end = grid.horizon
    times = None if sample_times is None else np.asarray(sample_times, dtype=float)
    count = t_end / sample_every + 2 if times is None else times.size
    size = count * (grid.size + 1) * 16.0
    if size > MAX_SAMPLE_BYTES:
        raise ValidationError(
            f"{count:.3g} samples of {grid.size + 1} amplitudes come to {size / 2**30:.3g} GiB "
            f"of interpolated states, above the {MAX_SAMPLE_BYTES / 2**30:g} GiB limit; "
            "raise --sample-every"
        )
    if times is None:
        times = _sample_times(t_end, sample_every)
    elif times.size == 0 or np.any(np.diff(times) <= 0):
        raise ValidationError("sample_times must be non-empty and strictly increasing")
    elif times[0] < -1e-12 or times[-1] > t_end + 1e-12:
        raise ValidationError("sample_times must lie within [0, grid.horizon]")

    y0 = np.zeros(grid.size + 1, dtype=complex)
    y0[0] = 1.0
    rhs = _make_rhs(grid)

    kept, _ = _rk.integrate(rhs, 0.0, y0, times, rel_tol=rel_tol, keep=store_modes)
    pa, norms = np.abs(kept[:, 0]) ** 2, kept[:, 1].real
    drift = float(np.max(np.abs(norms - 1.0)))
    budget = min(_NORM_DRIFT, 10.0 * rel_tol * t_end)
    if drift > budget:
        raise SolverError(
            f"norm drifted by up to {drift:.3e} over [0, {t_end:g}], "
            f"beyond the {budget:.3e} budget for rel_tol = {rel_tol:g}"
        )
    _check_population(pa)
    modes = kept[:, 2:] if store_modes else None
    return Trajectory(times=times, pa=pa, modes=modes, norms=norms)
