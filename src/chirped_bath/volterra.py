"""Mesh-free cross-check: solves the reduced integro-differential equation
for the emitter amplitude, dc_a/dt = -int_0^t K(t - s) c_a(s) ds, by
second-order product integration.

The memory kernel of the linearly chirped Lorentzian bath depends only on
the lag, so kernel values are computed once, on a one-dimensional lag
lattice at half the requested step.  The solver runs the march at the
requested step (on every other lattice point) and at half the step, and
reports the Richardson error estimate of the finer result.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dynamics import Trajectory
from .errors import ValidationError
from .model import ModelParams, memory_kernel

DEFAULT_STEPS = 1024
# The lattice costs 2*steps + 1 kernel quadratures and the march grows as
# steps^2; a solve at this limit takes 1.5-2.5 minutes on a 2-CPU Xeon.
MAX_STEPS = 65536


@dataclass(frozen=True)
class VolterraConfig:
    steps: int = DEFAULT_STEPS

    def __post_init__(self) -> None:
        if not 16 <= self.steps <= MAX_STEPS:
            raise ValidationError(f"steps must lie in [16, {MAX_STEPS}], got {self.steps}")


@dataclass
class VolterraSolution(Trajectory):
    """Trajectory plus the Richardson error estimate of its pa series."""

    richardson_error: float = 0.0


def _march(kernel_values: np.ndarray, h: float, n: int) -> np.ndarray:
    """Implicit-trapezoid product integration; kernel_values[j] = K(j*h)."""
    c = np.empty(n + 1, dtype=complex)
    c[0] = 1.0
    k0 = kernel_values[0]
    denom = 1.0 + 0.25 * h * h * k0
    for m in range(n):
        if m == 0:
            q_here = 0.0
        else:
            q_here = h * (
                0.5 * kernel_values[m] * c[0]
                + np.dot(kernel_values[m - 1:0:-1], c[1:m])
                + 0.5 * k0 * c[m]
            )
        q_next = h * (0.5 * kernel_values[m + 1] * c[0] + np.dot(kernel_values[m:0:-1], c[1:m + 1]))
        c[m + 1] = (c[m] - 0.5 * h * (q_here + q_next)) / denom
    return c


def _lag_lattice(p: ModelParams, h: float, n: int) -> np.ndarray:
    return np.array([memory_kernel(j * h, p) for j in range(n + 1)])


def solve_volterra(p: ModelParams, t_end: float, cfg: VolterraConfig | None = None) -> VolterraSolution:
    """Solve the memory-kernel equation on [0, t_end] with c_a(0) = 1.

    Returns the half-step (finer) solution; ``richardson_error`` bounds its
    pa error as max|pa_h - pa_h/2| / 3 over the coarse time points.
    """
    if cfg is None:
        cfg = VolterraConfig()
    if not 0 < t_end < np.inf:
        raise ValidationError(f"t_end must be positive and finite, got {t_end}")
    n = int(cfg.steps)
    h = t_end / n
    fine = _lag_lattice(p, 0.5 * h, 2 * n)
    coarse = fine[::2]
    c_coarse = _march(coarse, h, n)
    c_fine = _march(fine, 0.5 * h, 2 * n)
    pa_coarse = np.abs(c_coarse) ** 2
    pa_fine = np.abs(c_fine) ** 2
    estimate = float(np.max(np.abs(pa_fine[::2] - pa_coarse)) / 3.0)
    times = np.linspace(0.0, t_end, 2 * n + 1)
    return VolterraSolution(times=times, pa=pa_fine, richardson_error=estimate)
