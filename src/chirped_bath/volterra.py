"""Mesh-free cross-check: solves the reduced integro-differential equation
for the emitter amplitude, dc_a/dt = -int_0^t K(t - s) c_a(s) ds, by
second-order product integration.

The memory kernel of the linearly chirped Lorentzian bath depends only on
the lag, so kernel values are computed once, on a one-dimensional lag
lattice at half the requested step.  The solver runs the march at twice,
once and half the requested step (on every fourth, every other and every
lattice point), and reports the Richardson error estimate of the finest
result at the order the three marches show.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dynamics import Trajectory, _check_population
from .errors import ValidationError
from .model import ModelParams, memory_kernel

DEFAULT_STEPS = 1024
# The march grows as steps log(steps) and the lattice as the lag count times
# the nodes of the kernel's cut sum, which all lags share (145 at this limit
# at chi = 100, 139 at chi = 400).  Solves at this limit at d = 8, t_end = 2
# (perf_counter and process_time of one solve_volterra call, 2-CPU Xeon) took
# 0.10-0.15 s wall and CPU without chirp and 1.1-1.8 s at chi = 100 and 400,
# nearly all lattice (the fine march of 131072 steps alone took
# 0.075-0.096 s); the Richardson estimate there is 3e-9 to 4e-9.
MAX_STEPS = 65536


@dataclass
class VolterraSolution(Trajectory):
    """Trajectory plus the Richardson error estimate of its pa series."""

    richardson_error: float = 0.0


def _product(x: np.ndarray, y: np.ndarray, length: int) -> np.ndarray:
    """First ``length`` coefficients of the power-series product x * y."""
    need = x.size + y.size - 1
    size = 1 << (need - 1).bit_length()
    if 3 * size // 4 >= need:
        size = 3 * size // 4  # 3 * 2^k pads less and transforms about as fast
    return np.fft.irfft(np.fft.rfft(x, size) * np.fft.rfft(y, size), size)[:length]


def _march(kernel_values: np.ndarray, h: float, n: int) -> np.ndarray:
    """Implicit-trapezoid product integration; kernel_values[j] = K(j*h).

    With q_m = h (sum_{j<=m} K_{m-j} c_j - c_0 K_m / 2 - K_0 c_m / 2), the
    step c_{m+1} - c_m = -(h/2)(q_m + q_{m+1}) is one lower-triangular
    Toeplitz system.  In generating functions, with c_0 = 1,

        C(z) = [1 + (h^2/4)(1+z)K(z)] / [(1-z) + (h^2/2)(1+z)(K(z) - K_0/2)],

    taken mod z^(n+1) (Lubich, Numer. Math. 52 (1988) 129).  The reciprocal
    b of the denominator a comes from Newton's iteration b <- b (2 - a b),
    which doubles the correct length each round with two FFT products.  K is
    real, so the amplitudes are real.
    """
    k, hh = kernel_values, 0.25 * h * h
    numer = hh * (k + np.concatenate([[0.0], k[:-1]]))  # (h^2/4)(1+z)K(z)
    numer[0] += 1.0
    a = 2.0 * numer
    a[:2] -= 1.0 + hh * k[0]  # a = 2 numer - (1 + h^2 K_0/4)(1 + z)
    b = np.array([1.0 / a[0]])
    while b.size < n + 1:
        length = min(2 * b.size, n + 1)
        residual = _product(a[:length], b, length)[b.size:]  # a b = 1 + z^size residual
        b = np.concatenate([b, -_product(b, residual, length - b.size)])
    c = _product(numer, b, n + 1)
    c[0] = 1.0  # numer_0 / a_0 exactly; the FFT rounds it
    return c


def _lag_lattice(p: ModelParams, h: float, n: int) -> np.ndarray:
    return memory_kernel(h * np.arange(n + 1), p)


def solve_volterra(p: ModelParams, t_end: float, steps: int = DEFAULT_STEPS) -> VolterraSolution:
    """Solve the memory-kernel equation on [0, t_end] with c_a(0) = 1.

    Returns the half-step (finest) solution; ``richardson_error`` estimates
    its pa error as max|pa_h - pa_h/2| / (2^p - 1) over the step-h times.
    The order p is read from a third march at step 2h, as
    log2(max|pa_2h - pa_h| / max|pa_h - pa_h/2|) at the times that march
    reaches, clipped to [1, 2].  The march is second order while the kernel
    is smooth on the step; once the chirped kernel collapses within one
    step it is first order (4.8e-4 against a true 4.3e-4 at d = 1,
    chi = 1e6, t_end = 1, 1024 steps, where p = 2 would read 1.6e-4).  The
    estimate is no bound.
    """
    if not isinstance(steps, (int, np.integer)) or not 16 <= steps <= MAX_STEPS:
        raise ValidationError(f"steps must be an integer in [16, {MAX_STEPS}], got {steps!r}")
    if not 0 < t_end < np.inf:
        raise ValidationError(f"t_end must be positive and finite, got {t_end}")
    n = int(steps)
    h = t_end / n
    # The step must resolve the kernel's decay and the Rabi period 2 pi /
    # sqrt(4 d^2 - 1): past h d = 1 the estimate no longer follows the error
    # (0.028 against a true 0.93 at d = 1e4, h d = 625).  With h <= 1 and d
    # below 1e100, no sum of h^2, d^2 and (h d)^2 and no FFT product overflows.
    if not (h * max(p.d, 1.0) <= 1.0 and p.d < 1e100):
        raise ValidationError(
            f"step h = {h:g} does not resolve d = {p.d:g}: need h max(d, 1) <= 1 "
            "and d < 1e100; raise --steps, or lower --d or --t-end"
        )
    fine = _lag_lattice(p, 0.5 * h, 2 * n)
    pa_fine = np.abs(_march(fine, 0.5 * h, 2 * n)) ** 2
    pa_coarse = np.abs(_march(fine[::2], h, n)) ** 2
    pa_coarsest = np.abs(_march(fine[::4], 2.0 * h, n // 2)) ** 2
    _check_population(pa_fine)
    gap = np.abs(pa_fine[::2] - pa_coarse)
    fine_gap = float(np.max(gap[::2]))
    coarse_gap = float(np.max(np.abs(pa_coarse[::2] - pa_coarsest)))
    if fine_gap == 0.0 or coarse_gap == 0.0:
        order = 1.0 if fine_gap else 2.0
    else:
        order = min(max(math.log2(coarse_gap) - math.log2(fine_gap), 1.0), 2.0)
    estimate = float(np.max(gap)) / (2.0**order - 1.0)
    times = np.linspace(0.0, t_end, 2 * n + 1)
    return VolterraSolution(times=times, pa=pa_fine, richardson_error=estimate)
