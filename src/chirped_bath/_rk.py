"""Embedded Dormand-Prince 5(4) stepper for complex-valued ODE systems.

Fifth-order propagation with the fourth-order embedded error estimate, FSAL
reuse of the last stage, and a PI step-size controller.  Steps are clipped to
land exactly on the requested sample times, so output needs no interpolation
and is deterministic for a fixed configuration.
"""

from __future__ import annotations

import numpy as np

from .errors import StepSizeUnderflowError

_C = np.array([0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0])
_A = (
    (),
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
    (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84),
)
_B5 = np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0])
_B4 = np.array([5179 / 57600, 0.0, 7571 / 16695, 393 / 640, -92097 / 339200, 187 / 2100, 1 / 40])
_E = _B5 - _B4

_SAFETY = 0.9
_MIN_FACTOR = 0.2
_MAX_FACTOR = 5.0
_ABS_TOL = 1e-10


def integrate(rhs, t0, y0, sample_times, rel_tol=1e-8):
    """Advance ``dy/dt = rhs(t, y)`` from ``t0``, sampling at ``sample_times``.

    Returns ``(samples, n_steps)`` where samples has one state row per sample
    time.  Sample times must be increasing and start at or after ``t0``.
    """
    sample_times = np.asarray(sample_times, dtype=float)
    t = float(t0)
    y = np.asarray(y0, dtype=complex).copy()
    out = np.empty((sample_times.size, y.size), dtype=complex)
    idx = 0
    if sample_times[0] <= t + 1e-15:
        out[0] = y
        idx = 1
    k = [np.empty_like(y) for _ in range(7)]
    k[0] = rhs(t, y)

    scale = _ABS_TOL + rel_tol * np.abs(y)
    d0 = np.sqrt(np.mean(np.abs(y / scale) ** 2))
    d1 = np.sqrt(np.mean(np.abs(k[0] / scale) ** 2))
    h = 0.01 * d0 / d1 if d1 > 1e-10 else 1e-6
    err_prev = 1.0
    n_steps = 0

    while idx < sample_times.size:
        t_target = sample_times[idx]
        clipped = t + h > t_target
        h_use = t_target - t if clipped else h
        for i in range(1, 7):
            yi = y + h_use * sum(_A[i][j] * k[j] for j in range(i))
            k[i] = rhs(t + _C[i] * h_use, yi)
        y5 = y + h_use * sum(_B5[j] * k[j] for j in range(7) if _B5[j] != 0.0)
        err_vec = h_use * sum(_E[j] * k[j] for j in range(7) if _E[j] != 0.0)
        scale = _ABS_TOL + rel_tol * np.maximum(np.abs(y), np.abs(y5))
        err = np.sqrt(np.mean(np.abs(err_vec / scale) ** 2))
        if err <= 1.0:
            t = t_target if clipped else t + h_use
            y = y5
            k[0] = k[6]  # first-same-as-last
            n_steps += 1
            if clipped:
                out[idx] = y
                idx += 1
            fac = _SAFETY * (err + 1e-16) ** -0.14 * err_prev**0.08
            err_prev = max(err, 1e-16)
            h = h_use * min(_MAX_FACTOR, max(_MIN_FACTOR, fac))
        else:
            h = h_use * max(_MIN_FACTOR, _SAFETY * err**-0.2)
        if h < 1e-14 * max(1.0, abs(t)):
            raise StepSizeUnderflowError(t)
    return out, n_steps
