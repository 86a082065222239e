"""Embedded Dormand-Prince 5(4) stepper for complex-valued ODE systems.

Fifth-order propagation with the fourth-order embedded error estimate, FSAL
reuse of the last stage, and a PI step-size controller.  The error
controller alone sets the step; only the last step is shortened, to land on
the last sample time.  Samples inside an accepted step are read off the
quartic continuous extension of the pair (Shampine, Math. Comp. 46 (1986)
135; Hairer, Norsett & Wanner, Solving ODEs I, sec. II.6), which reuses the
step's seven stages and so costs no right-hand-side call.  Output is
deterministic for a fixed configuration.

The state and the seven stages are the rows of one (8, N) complex array.
Every stage input, the error estimate and the dense output is a weighted
sum of its rows with real weights, taken by one ``np.dot`` over the float
view: a BLAS gemv, or a gemm for the dense output.  On OpenBLAS 0.3.31
(2-CPU Xeon) gemv runs on one thread up to at least 3e4 modes and, up to
2e4, takes 0.45-0.65 of the time of the same sum by ``np.einsum``; from
about 5e4 modes it takes two threads, at half einsum's wall time and about
its CPU time.  gemm takes a second thread from about 1e6 multiply-adds,
which ``_BLOCK_BYTES`` keeps the dense output below.
"""

from __future__ import annotations

import numpy as np

from .errors import SolverError

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
# The last row of _A is the fifth-order solution, so the input of the last
# stage is the new state.
_E = (
    -71 / 57600, 0.0, 71 / 16695, -71 / 1920, 17253 / 339200, -22 / 525, 1 / 40,
)
# Dense output: y(t + theta h) = y + h sum_j b_j(theta) k_j, with
# b_j(theta) = sum_m _P[j, m] theta^(m+1) and b_j(1) the fifth-order weights.
_P = np.array([
    [1, -8048581381 / 2820520608, 8663915743 / 2820520608, -12715105075 / 11282082432],
    [0, 0, 0, 0],
    [0, 131558114200 / 32700410799, -68118460800 / 10900136933, 87487479700 / 32700410799],
    [0, -1754552775 / 470086768, 14199869525 / 1410260304, -10690763975 / 1880347072],
    [0, 127303824393 / 49829197408, -318862633887 / 49829197408,
     701980252875 / 199316789632],
    [0, -282668133 / 205662961, 2019193451 / 616988883, -1453857185 / 822651844],
    [0, 40617522 / 29380423, -110615467 / 29380423, 69997945 / 29380423],
])

_SAFETY = 0.9
_MIN_FACTOR = 0.2
_MAX_FACTOR = 5.0
# Absolute floor of the error scale at rel_tol >= 1e-8; below, it is rel_tol
# / 100.  Mode amplitudes sit near it, so a fixed floor fixed the norm drift
# (about 2.5e-9 at d = 8 for every rel_tol).
_ABS_TOL = 1e-10
# Interpolated states are handed to ``keep`` in blocks of at most this size.
# A block of r states of N amplitudes takes 16 r N bytes and its gemm 16 r N
# multiply-adds, so this keeps the gemm on one thread with a 2x margin.
_BLOCK_BYTES = 2**19

# Weights over the rows (y, k_0, ..., k_6) of the stack, before the factor
# h: row i of _STAGE_W gives the input of stage i, y + h sum_j a_ij k_j (row
# 6 is the fifth-order solution), and _ERR_W the error estimate over the
# stages alone.
_STAGE_W = np.array([(1.0, *row) + (0.0,) * (7 - len(row)) for row in _A])
_ERR_W = np.array(_E)
_POWERS = np.arange(1, 5)


def _dense(stack, theta, h):
    """States at t + theta*h for each theta of an accepted step: row t is
    y + h sum_j b_j(theta_t) k_j, one gemm over the stack's float view."""
    w = np.ones((theta.size, 8))
    np.einsum("tm,jm->tj", h * theta[:, None] ** _POWERS, _P, out=w[:, 1:])
    block = np.empty((theta.size, stack.shape[1]), dtype=complex)
    np.dot(w, stack.view(float), out=block.view(float))
    return block


def integrate(rhs, t0, y0, sample_times, rel_tol=1e-8, *, keep):
    """Advance ``dy/dt = rhs(t, y)`` from ``t0`` to ``sample_times[-1]``.

    Returns ``(kept, n_steps)``: ``kept`` stacks ``keep(block)`` over the
    blocks of states at consecutive sample times (one state row per sample
    time), and ``n_steps`` counts accepted steps.  ``rhs`` returns a complex
    array shaped like ``y``; it is copied at once, so ``rhs`` may reuse it.
    Sample times must be increasing and start at or after ``t0``.  Each
    attempted step calls ``rhs`` six times, plus once at the start.
    """
    sample_times = np.asarray(sample_times, dtype=float)
    t = float(t0)
    t_last = float(sample_times[-1])
    stack = np.empty((8, np.size(y0)), dtype=complex)
    flat = stack.view(float)
    y, k = stack[0], stack[1:]
    y[:] = y0
    y_new = np.empty_like(y)
    err_vec = np.empty_like(y)
    rows = max(1, _BLOCK_BYTES // (16 * y.size))
    kept = []
    idx = int(np.searchsorted(sample_times, t + 1e-15, side="right"))
    if idx:
        kept.append(keep(np.tile(y, (idx, 1))))
    k[0] = rhs(t, y)

    abs_tol = min(_ABS_TOL, 1e-2 * rel_tol)
    scale = abs_tol + rel_tol * np.abs(y)
    d0 = np.sqrt(np.mean(np.abs(y / scale) ** 2))
    d1 = np.sqrt(np.mean(np.abs(k[0] / scale) ** 2))
    h = 0.01 * d0 / d1 if d1 > 1e-10 else 1e-6
    err_prev = 1.0
    n_steps = 0

    while idx < sample_times.size:
        if h < 1e-14 * max(1.0, abs(t)):
            raise SolverError(f"step size underflow at t = {t:.6g}")
        last = t + h >= t_last
        h_use = t_last - t if last else h
        w = h_use * _STAGE_W
        w[:, 0] = 1.0  # y takes no factor h
        for i in range(1, 7):
            np.dot(w[i, :i + 1], flat[:i + 1], out=y_new.view(float))
            k[i] = rhs(t + _C[i] * h_use, y_new)
        np.dot(h_use * _ERR_W, flat[1:], out=err_vec.view(float))
        scale = abs_tol + rel_tol * np.maximum(np.abs(y), np.abs(y_new))
        ratio = np.abs(err_vec) / scale
        # einsum, not np.dot: OpenBLAS's ddot takes a second thread from 1e4 modes
        err = np.sqrt(np.einsum("i,i->", ratio, ratio) / y.size)
        if err <= 1.0:
            t_next = t_last if last else t + h_use
            stop = sample_times.size if last else int(
                np.searchsorted(sample_times, t_next, side="right")
            )
            for lo in range(idx, stop, rows):
                theta = (sample_times[lo:min(stop, lo + rows)] - t) / h_use
                kept.append(keep(_dense(stack, theta, h_use)))
            idx = stop
            t = t_next
            y[:] = y_new
            k[0] = k[6]  # first-same-as-last
            n_steps += 1
            fac = _SAFETY * (err + 1e-16) ** -0.14 * err_prev**0.08
            err_prev = max(err, 1e-16)
            h = h_use * min(_MAX_FACTOR, max(_MIN_FACTOR, fac))
        else:
            h = h_use * max(_MIN_FACTOR, _SAFETY * err**-0.2)
    return np.concatenate(kept), n_steps
