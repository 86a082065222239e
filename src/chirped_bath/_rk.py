"""Sixth-order Magnus propagator for an emitter coupled to a bath of modes.

The state y = (c_a, c_1, ..., c_N) obeys dy/dt = A(t) y with the star
generator A(t) = -i(e_0 u(t)^H + u(t) e_0^H): the emitter e_0 exchanges
amplitude with the mode vector u(t), whose e_0 entry is zero.  A step of
size h takes A at the three Gauss-Legendre nodes t + c_k h and applies
exp(Omega_6), the sixth-order Magnus exponent built from them (Blanes,
Casas, Oteo & Ros, Phys. Rep. 470 (2009) 151, sec. 5).  Only the last step
is shortened, to land on the last sample time.  Output is deterministic for
a fixed configuration.

Every A_k vanishes on the complement of S = span{e_0, u_1, u_2, u_3}, and
so does Omega.  So exp(Omega) y = y + B x, with B = [e_0, b_1, b_2, b_3]
and b_k = u_k / |u_k|.  On S, A_k is a 4x4 matrix built from the Gram
matrix of the b_k, which is never inverted.  The state enters only through
c_a and the projections b_k^H y; appended as a fifth column, they make x the
last column of the exponential of a 5x5 matrix.  A step therefore costs
three generator calls, eleven dot products and one three-row update of y.
exp(Omega) is unitary, so the norm holds to rounding at any step size.

A sample inside a step is the same algebra over [t, t + theta h], with A
interpolated quadratically through the three nodes, so c_a and the norm
cost O(1) per sample.  Mode amplitudes are formed only on request, from
one more step over [t, t + theta h] with A at its own nodes, since the
interpolated A is far less accurate for single modes.  Two estimates set
the step: the state's local error, from the fourth-order exponent Omega_4
on the same nodes, and the error the interpolated A puts into the samples'
c_a, from the divided difference of u(s)^H y through the three nodes and
the last node of the step before.  The second sets most steps on the
paper's presets.

Dot products are taken in ``_DOT_CHUNK`` pieces: OpenBLAS 0.3.31's zdotc
takes a second thread from about 1e4 modes, and chunks of this length stay
on one.  The three-row update is three elementwise products for the same
reason.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import SolverError

_DOT_CHUNK = 8192
_C = 0.5 + np.sqrt(15.0) / 10.0 * np.array([-1.0, 0.0, 1.0])
# alpha_i = h sum_k _D[i, k] A(t + c_k h): the Magnus alphas from the nodes.
_D = np.array([
    [0.0, 1.0, 0.0],
    [-np.sqrt(15.0) / 3.0, 0.0, np.sqrt(15.0) / 3.0],
    [10.0 / 3.0, -20.0 / 3.0, 10.0 / 3.0],
])
# The linear combinations of (alpha_1, alpha_2, alpha_3) that Omega_6 takes:
# alpha_1, alpha_2, 2 alpha_3, alpha_1 / 60, (-20 alpha_1 - alpha_3) / 240
# and alpha_1 + alpha_3 / 12.
_COMBOS = np.array([
    [1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 2.0],
    [1.0 / 60.0, 0.0, 0.0], [-1.0 / 12.0, 0.0, -1.0 / 240.0], [1.0, 0.0, 1.0 / 12.0],
])
# _LAGRANGE[p, l]: the s^p coefficient of the l-th Lagrange basis polynomial.
_LAGRANGE = np.array([
    [a * b, -(a + b), 1.0] / ((c - a) * (c - b))
    for c, (a, b) in ((_C[l], np.delete(_C, l)) for l in range(3))
]).T
# Combination j of the alphas over the step is h sum_l _STEP_W[j, l] A_l,
# and over [t, t + theta h], with A the quadratic through the node values
# A_l, it is h sum_p theta^(p+1) sum_l _THETA_W[p, j, l] A_l.  Built
# elementwise: a BLAS call at import adds 0.5 MiB of peak memory to the
# commands that make no BLAS call (volterra).
_STEP_W = (_COMBOS[:, :, None] * _D).sum(1)
_THETA_W = np.array(
    [(_STEP_W * _C**p).sum(1)[:, None] * _LAGRANGE[p] for p in range(3)]
).reshape(3, 18)
_POWERS = np.arange(1, 4)
_EYE4 = np.eye(4, dtype=complex)
# Taylor coefficients 1/k!, k = 0..12, for Paterson-Stockmeyer: B_i = sum_j
# _TAYLOR_B[i, j] M^(j+1) + _TAYLOR[4 i] I.
_TAYLOR = np.cumprod(np.concatenate(([1.0], 1.0 / np.arange(1, 13))))
_TAYLOR_B = _TAYLOR[:12].reshape(3, 4)[:, 1:]
_TAYLOR_I = np.outer(_TAYLOR[:12:4], np.eye(10).ravel())[:, None]
# A complex 5x5 matrix X is held in the real 10x10 form [[Re X, -Im X],
# [Im X, Re X]].  The node generator A_l / |u_l| = -i J_l is [[Im J, Re J],
# [-Re J, Im J]], where J_l has 1 at (l + 1, 0), (gram[l], proj_l) in row
# 0 from column 1 and c_a at (l + 1, 4).  _GEN holds the constant 1s, and
# _EMBED[l] maps the real and then the imaginary parts of (gram[l], proj_l,
# c_a) to their places.
_GEN = np.zeros((3, 1, 100))
_EMBED = np.zeros((3, 10, 100))
for _l in range(3):
    _GEN[_l, 0, [(_l + 1) * 10 + 5, (_l + 6) * 10]] = 1.0, -1.0
    for _e, (_r, _c) in enumerate([(0, 1), (0, 2), (0, 3), (0, 4), (_l + 1, 4)]):
        _EMBED[_l, _e, [10 * _r + _c + 5, 10 * (_r + 5) + _c]] = 1.0, -1.0
        _EMBED[_l, _e + 5, [10 * _r + _c, 10 * (_r + 5) + _c + 5]] = 1.0
# Shares of rel_tol for the first step's local error and for the samples'
# error in |c_a|^2 (see integrate).
_FIRST_SHARE = 0.1
_DENSE_SHARE = 0.5
_SAFETY = 0.9
_MIN_FACTOR = 0.2
_MAX_FACTOR = 5.0
# Samples are taken in blocks of at most this many, which keeps the (6 rows,
# 3) x (3, 100) product of _exponents below OpenBLAS's 2.6e5 multiply-adds
# for a second thread.
_BLOCK_ROWS = 64


def _dot(a, b):
    """sum conj(a) b, one np.vdot per ``_DOT_CHUNK`` entries."""
    total = np.vdot(a[:_DOT_CHUNK], b[:_DOT_CHUNK])
    for lo in range(_DOT_CHUNK, a.size, _DOT_CHUNK):
        total += np.vdot(a[lo:lo + _DOT_CHUNK], b[lo:lo + _DOT_CHUNK])
    return total


def _update(base, coef, u):
    """base + sum_k coef[k] u[k], elementwise: the BLAS product takes a
    second thread already at 3 x 1600 complex."""
    out = base + coef[0] * u[0]
    out += coef[1] * u[1]
    out += coef[2] * u[2]
    return out


def _exponents(theta, hs, gen):
    """Omega_6 over the step and over [t, t + theta_m h] for each theta_m, in
    real form, and the last column of Omega_6 - Omega_4 over the step;
    ``hs`` is h |u_l| and ``gen`` holds the flat node generators A_l / |u_l|."""
    w = _STEP_W.reshape(1, 18)
    if theta is not None:  # the step's own weights stay the same bytes
        w = np.concatenate((w, (theta[:, None] ** _POWERS) @ _THETA_W))
    w = w.reshape(-1, 6, 3).transpose(1, 0, 2) * hs
    a1, a2, a3x2, a1_60, lin, base = (w.reshape(-1, 3) @ gen).reshape(6, -1, 10, 10)
    c1 = a1 @ a2 - a2 @ a1
    x = a3x2 + c1
    z = a2 + (x @ a1_60 - a1_60 @ x)  # alpha_2 + C_2
    lin += c1 / 240.0
    tail = lin @ z - z @ lin
    return base + tail, c1[0, :, 4] / 12.0 + tail[0, :, 4]


def _expm(m):
    """exp(m) for each matrix of the stack ``m``: scaling and squaring with
    the degree-12 Taylor polynomial, whose remainder is below 3e-18 at a
    scaled 1-norm of at most 1/4, evaluated as B_0 + M^4 (B_1 + M^4 (B_2 +
    M^4 / 12!)) with cubic B_i (Paterson-Stockmeyer)."""
    norm = float(np.abs(m).sum(-2).max())
    squarings = math.ceil(math.log2(norm / 0.25)) if norm > 0.25 else 0
    if squarings:
        m = m * 0.5**squarings
    powers = np.empty((3,) + m.shape)
    powers[0] = m
    np.matmul(m, m, out=powers[1])
    np.matmul(powers[1], m, out=powers[2])
    m4 = powers[1] @ powers[1]
    b = (_TAYLOR_B @ powers.reshape(3, -1)).reshape(3, -1, 100)
    b += _TAYLOR_I
    b = b.reshape(3, -1, 10, 10)
    e = b[0] + m4 @ (b[1] + m4 @ (b[2] + _TAYLOR[12] * m4))
    for _ in range(squarings):
        e = e @ e
    return e[:, :4, 4] + 1j * e[:, 5:9, 4]


def _attempt(rhs, e0, t, h, y, u, theta):
    """One step of size h from (t, y), with u(t) at its nodes written to the
    rows of ``u``.  Returns Omega_6 over the step and over [t, t + theta_m h]
    for each theta_m (or the step alone when ``theta`` is None), the step's
    local error estimate, |u_l| at the nodes, the projections b_l^H y[1:],
    the metric B^H B of B = (e_0, b_1, b_2, b_3) and the node generators."""
    for k in range(3):
        np.multiply(rhs(t + _C[k] * h, e0)[1:], 1j, out=u[k])
    s0, s1, s2 = (math.sqrt(_dot(u[k], u[k]).real) for k in range(3))
    g01 = _dot(u[0], u[1]) / (s0 * s1)
    g02 = _dot(u[0], u[2]) / (s0 * s2)
    g12 = _dot(u[1], u[2]) / (s1 * s2)
    proj = (_dot(u[0], y[1:]) / s0, _dot(u[1], y[1:]) / s1, _dot(u[2], y[1:]) / s2)
    ca = complex(y[0])
    # The state enters as the fifth column of the generators:
    # A_l y = -i |u_l| (proj_l e_0 + c_a b_l).
    part = np.array([
        [1.0, g01, g02, proj[0], ca],
        [g01.conjugate(), 1.0, g12, proj[1], ca],
        [g02.conjugate(), g12.conjugate(), 1.0, proj[2], ca],
    ])
    metric = _EYE4.copy()
    metric[1:, 1:] = part[:, :3]
    gen = (np.concatenate((part.real, part.imag), 1)[:, None] @ _EMBED + _GEN).reshape(3, 100)
    scale = np.array((s0, s1, s2))
    omega, col = _exponents(theta, h * scale, gen)
    diff = col[:4] + 1j * col[5:9]
    local = math.sqrt(max((diff.conj() @ metric @ diff).real, 0.0))
    return omega, local, scale, proj, metric, gen


def integrate(rhs, t0, y0, sample_times, rel_tol=1e-8, *, keep=False):
    """Advance ``dy/dt = rhs(t, y)`` from ``t0`` to ``sample_times[-1]``.

    ``rhs(t, y)`` must be A(t) y for a star generator as above.  It is called
    with y = e_0 only, and u(t) is read off as i rhs(t, e_0)[1:], copied at
    once, so ``rhs`` may reuse its buffer.  Each attempted step calls it three
    times, at the step's nodes.  Sampling c_a and the norm calls it never;
    with ``keep``, each sample's mode amplitudes come from one more step,
    from the start of the step it falls in to the sample time, which calls
    it three times more and leaves the step sequence as it is.

    Returns ``(kept, n_steps)``.  ``kept`` is complex with one row per sample
    time: c_a, the squared norm and, when ``keep``, the mode amplitudes
    y[1:].  ``n_steps`` counts accepted steps.  Sample times must be
    increasing and start at or after ``t0``.

    ``rel_tol`` bounds two estimates at each step: the local error of the
    state, in its 2-norm, and twice the error that the interpolated A puts
    into c_a at samples inside the step, which bounds their error in
    |c_a|^2, held to ``_DENSE_SHARE * rel_tol``.  The first step has no node
    before it, and there the local error alone is held to ``_FIRST_SHARE *
    rel_tol``.  On the paper's presets the samples' |c_a|^2 then lies within
    rel_tol of the converged solution.
    """
    sample_times = np.asarray(sample_times, dtype=float)
    t = float(t0)
    t_last = float(sample_times[-1])
    y = np.array(y0, dtype=complex)
    e0 = np.zeros_like(y)
    e0[0] = 1.0
    # u at the nodes of this step, of the last step taken and, with keep, of
    # a sample's step
    nodes = np.empty((3 if keep else 2, 3, y.size - 1), dtype=complex)
    t_prev = None  # the last node of the last step taken
    kept = np.empty((sample_times.size, 2 + (y.size - 1 if keep else 0)), dtype=complex)
    idx = int(sample_times.searchsorted(t + 1e-15, side="right"))
    kept[:idx, 0] = y[0]
    kept[:idx, 1] = _dot(y, y)
    if keep:
        kept[:idx, 2:] = y[1:]
    h = t_last - t
    n_steps = 0

    while idx < sample_times.size:
        if h < 1e-14 * max(1.0, abs(t)):
            raise SolverError(f"step size underflow at t = {t:.6g}")
        last = t + h >= t_last
        h_use = t_last - t if last else h
        t_next = t_last if last else t + h_use
        stop = sample_times.size if last else int(sample_times.searchsorted(t_next, "right"))
        # The step itself, then the first block of samples inside it.
        hi = min(stop, idx + _BLOCK_ROWS)
        theta = (sample_times[idx:hi] - t) / h_use if hi > idx else None
        u = nodes[n_steps % 2]
        omega, local, scale, proj, metric, gen = _attempt(rhs, e0, t, h_use, y, u, theta)
        local /= rel_tol
        if t_prev is None:
            dense = local / _FIRST_SHARE
        else:
            # The samples' c_a misses -i int (u - P)^H y[1:] over [t, t + theta
            # h], P the quadratic through the nodes: about h^4 |f[4 nodes]| /
            # 400 for f(s) = u(s)^H y[1:], with the last node of the last step
            # as the fourth (|int_0^theta prod_k (s - c_k) ds| <= 1/400).
            times = (t_prev - t, *(_C * h_use))  # offsets from t stay distinct
            values = (_dot(nodes[(n_steps + 1) % 2, 2], y[1:]), *(proj * scale))
            div = sum(
                v / math.prod(a - b for j, b in enumerate(times) if j != i)
                for i, (a, v) in enumerate(zip(times, values))
            )
            dense = 2.0 * h_use**4 * abs(div) / (400.0 * _DENSE_SHARE * rel_tol)
        err = max(local, dense)
        fac = _SAFETY * min(max(local, 1e-300) ** -0.2, max(dense, 1e-300) ** -0.25)
        if err <= 1.0:
            x = _expm(omega)
            if stop > idx:
                # |y + B x|^2 = |y|^2 + 2 Re(yb^H x) + x^H G x with yb = B^H y
                norm0 = _dot(y, y).real
                yb2 = 2.0 * np.array((y[0], *proj)).conj()
            for lo in range(idx, stop, _BLOCK_ROWS):
                end = min(stop, lo + _BLOCK_ROWS)
                if lo == idx:
                    xs = x[1:]
                else:
                    theta = (sample_times[lo:end] - t) / h_use
                    xs = _expm(_exponents(theta, h_use * scale, gen)[0])[1:]
                kept[lo:end, 0] = y[0] + xs[:, 0]
                kept[lo:end, 1] = norm0 + ((xs.conj() @ metric + yb2) * xs).sum(1).real
            if keep:
                for row in range(idx, stop):
                    sub = _attempt(rhs, e0, t, sample_times[row] - t, y, nodes[2], None)
                    kept[row, 2:] = _update(y[1:], _expm(sub[0])[0, 1:] / sub[2], nodes[2])
            idx = stop
            t_prev = t + _C[2] * h_use
            t = t_next
            y[0] += x[0, 0]
            y[1:] = _update(y[1:], x[0, 1:] / scale, u)
            n_steps += 1
            h = h_use * min(_MAX_FACTOR, max(_MIN_FACTOR, fac))
        else:
            # Until a step is taken, the estimate alone sizes the retry.
            floor = 1e-3 if t_prev is None else _MIN_FACTOR
            h = h_use * max(floor, min(_SAFETY, fac))
    return kept, n_steps
