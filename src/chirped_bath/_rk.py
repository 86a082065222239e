"""Sixth-order Magnus propagator for an emitter coupled to a bath of modes.

The state y = (c_a, c_1, ..., c_N) obeys dy/dt = A(t) y with the star
generator A(t) = -i(e_0 u(t)^H + u(t) e_0^H): the emitter e_0 exchanges
amplitude with the mode vector u(t), whose e_0 entry is zero.  A step of
size h takes A at the three Gauss-Legendre nodes t + c_k h and applies
exp(Omega_6), the sixth-order Magnus exponent built from them (Blanes,
Casas, Oteo & Ros, Phys. Rep. 470 (2009) 151, sec. 5).  No step is longer
than the caller's ``max_step``, and only the last is shortened, to land on
the last sample time.  Output is deterministic for a fixed configuration.

Every A_k vanishes on the complement of S = span{e_0, u_1, u_2, u_3}, and
so does Omega.  So exp(Omega) y = y + B x, with B = [e_0, b_1, b_2, b_3]
and b_k = u_k / |u_k|.  On S, A_k is a 4x4 matrix built from the Gram
matrix of the b_k, which is never inverted.  The state enters only through
c_a and the projections b_k^H y; appended as a column, they make x the
last column of the exponential of a small matrix.  exp(Omega) is unitary,
so the norm holds to rounding at any step size.

A sample inside a step takes A cubic through the three nodes and the last
node of the step before, whose u_p adds b_p to the basis: 5x5 plus the
state column.  h A(t + s h) is then sum_p s^p C_p, p = 0..3, and the state
column of its propagator has the Taylor series v(s) = sum_k s^k v_k, with
(k + 1) v_{k+1} = sum_p C_p v_{k-p} from v_0 = e_state.  A sample at
theta is v(theta): the exact solution of the interpolated generator, whose
only error is the interpolation's.  The series runs until a remainder bound
lies below rounding, and [0, 1] is cut into pieces wherever its terms would
grow large enough to lose digits.  The recurrence runs for the samples of
many steps at once, in blocks of a few hundred samples, and each
sample's value depends on its own step alone.  c_a and the norm so cost
O(1) per sample, and a step costs three generator calls, thirteen dot
products and one three-row update of y.  Mode amplitudes are formed only on
request, from one more step over [t, t + theta h] with A at its own nodes,
since the interpolated A is far less accurate for single modes.  Two
estimates set the step: the local error of the fourth-order exponent
Omega_4 on the same nodes, which bounds Omega_6's, and the error the
interpolated A puts into the samples' c_a, from the fourth divided
difference of u(s)^H y through the step's nodes and the middle and last
nodes of the step before.

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
# The node polynomial omega(s) = prod_k (s - c_k), low powers first, and its
# derivative omega'(c_k) at the nodes.
_OMEGA = np.array([-0.05, 0.6, -1.5, 1.0])
_OMEGA_PRIME = (0.3, -0.15, 0.3)
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
# _LAGRANGE[p, l]: the s^p coefficient of the l-th quadratic Lagrange basis
# polynomial on the nodes.
_LAGRANGE = np.array([
    [a * b, -(a + b), 1.0] / ((c - a) * (c - b))
    for c, (a, b) in ((_C[l], np.delete(_C, l)) for l in range(3))
]).T
# With s in units of h from t and A_p = A(t - r h) at the last node of the
# step before, the cubic through the four node values is
# sum_l L_l(s) A_l + omega(s) A_D, where L_l is the quadratic Lagrange
# basis and A_D = sum_l A_l / ((r + c_l) omega'(c_l)) + A_p / omega(-r).
# Combination j of the alphas over the step is h sum_l _STEP_W[j, l] A_l,
# and h A(t + s h) = sum_p s^p C_p with C = _INTERP @ (h A_1, h A_2, h A_3,
# h A_D).  Built elementwise: a BLAS call at import adds 0.5 MiB of peak
# memory to the commands that make no BLAS call (volterra).
_STEP_W = (_COMBOS[:, :, None] * _D).sum(1)
_INTERP = np.concatenate((np.concatenate((_LAGRANGE, np.zeros((1, 3)))), _OMEGA[:, None]), 1)
# Over the piece [sigma, sigma + delta] of a step, in units of delta,
# delta h A = sum_q r^q C'_q with C'_q = delta^(q + 1) sum_p _BINOM[q, p]
# sigma^_SHIFT[q, p] C_p, where _BINOM[q, p] is binomial(p, q).
_BINOM = np.array([[math.comb(p, q) for p in range(4)] for q in range(4)], dtype=float)
_SHIFT = np.maximum(np.arange(4) - np.arange(4)[:, None], 0)
# max over theta in [0, 1] of |int_0^theta (s + r) omega(s) ds| for r >= 0 is
# the larger of a + b r over these (a, b), its values at c_2 and c_3: the
# integral vanishes at 0 and 1, and its integrand only at the nodes in
# between, where c_1's value lies below c_3's.
_PEAKS = ((1.0 / 640.0, 1.0 / 320.0), (1.0 / 800.0 + 3.0 * math.sqrt(15.0) / 1e4, 1.0 / 400.0))
# Taylor coefficients 1/k!, k = 0..12, for Paterson-Stockmeyer: B_i = sum_j
# _TAYLOR_B[i, j] M^(j+1) + _TAYLOR[4 i] I.
_TAYLOR = np.cumprod(np.concatenate(([1.0], 1.0 / np.arange(1, 13))))
_TAYLOR_B = _TAYLOR[:12].reshape(3, 4)[:, 1:]
_TAYLOR_I = np.outer(_TAYLOR[:12:4], np.eye(12).ravel())
# A complex 6x6 matrix X, on the basis (e_0, b_1, b_2, b_3, b_p) and the
# state, is held in the real 12x12 form [[Re X, -Im X], [Im X, Re X]].  The
# node generator A_l / |u_l| = -i J_l is [[Im J, Re J], [-Re J, Im J]], where
# J_l has 1 at (l + 1, 0), row l of the Gram matrix of (b_1, b_2, b_3, b_p)
# and proj_l = b_l^H y[1:] in row 0 from column 1, and c_a at (l + 1, 5).
# _attempt lists the entries: the Gram matrix above its diagonal (in _PAIRS
# order), c_a, the four proj_l, 1 and 0.  _BUILD takes their real and
# imaginary parts, interleaved, to the four generators, and _METRIC picks
# B^H B = [[1, 0], [0, Gram]] out of them and, from 13 on, their conjugates.
_PAIRS = ((0, 1), (0, 2), (1, 2), (0, 3), (1, 3), (2, 3))
_BUILD = np.zeros((26, 4, 12, 12))
_METRIC = np.full((5, 5), 12)
np.fill_diagonal(_METRIC, 11)
for _i, (_a, _b) in enumerate(_PAIRS):
    _METRIC[_a + 1, _b + 1], _METRIC[_b + 1, _a + 1] = _i, 13 + _i
for _l in range(4):
    # (entry, sign of its imaginary part, row, column) of J_l
    _at = [(11, 1, _l + 1, 0), (6, 1, _l + 1, 5), (7 + _l, 1, 0, 5), (11, 1, 0, _l + 1)]
    for _i, (_a, _b) in enumerate(_PAIRS):
        if _l == _a:
            _at.append((_i, 1, 0, _b + 1))
        elif _l == _b:
            _at.append((_i, -1, 0, _a + 1))
    for _i, _sign, _r, _c in _at:
        _BUILD[2 * _i, _l, _r, _c + 6] = 1.0
        _BUILD[2 * _i, _l, _r + 6, _c] = -1.0
        _BUILD[2 * _i + 1, _l, _r, _c] = _BUILD[2 * _i + 1, _l, _r + 6, _c + 6] = _sign
_BUILD = _BUILD.reshape(26, 576)
# Shares of rel_tol for the local error of Omega_4, for the first step's
# local error and for the samples' error in |c_a|^2 (see integrate).
_LOCAL_SHARE = 3.0
_FIRST_SHARE = 0.1
_DENSE_SHARE = 0.3
_SAFETY = 0.9
_MIN_FACTOR = 0.2
_MAX_FACTOR = 5.0
# A block of samples is taken once it holds _BLOCK samples or _BLOCK / 4
# steps, and a step's samples join it at most _BLOCK at a time, so it holds
# fewer than 2 _BLOCK samples: a step's C takes 4.6 KB, and a block's
# arrays stay below about 1 MiB.
_BLOCK = 256
# A piece of a step has nu = sum_p |C_p| (max row sums) at most
# _PIECE_NORM.  e^nu bounds the growth of its series' terms but overstates
# it: over a paper-figures pass no term exceeded 1.2 and no piece's terms
# summed above 3.5, so the sum loses a few ulps.  A series stops where its
# remainder bound falls below _SERIES_TOL.
_PIECE_NORM = 16.0
_SERIES_TOL = 1e-17


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


def _exponents(gen):
    """Omega_6 over the step, in real form, and the last column of Omega_6 -
    Omega_4; ``gen`` holds h A_1, h A_2, h A_3 and h A_D, flat."""
    a1, a2, a3x2, a1_60, lin, base = (_STEP_W @ gen[:3]).reshape(6, 12, 12)
    c1 = a1 @ a2 - a2 @ a1
    x = a3x2 + c1
    z = a2 + (x @ a1_60 - a1_60 @ x)  # alpha_2 + C_2
    lin += c1 / 240.0
    tail = lin @ z - z @ lin
    return base + tail, c1[:, 5] / 12.0 + tail[:, 5]


def _expm(m):
    """exp(m)'s last column on (e_0, b_1, b_2, b_3, b_p): scaling and
    squaring with the degree-12 Taylor polynomial, whose remainder is below
    3e-18 at a scaled 1-norm of at most 1/4, evaluated as B_0 + M^4 (B_1 +
    M^4 (B_2 + M^4 / 12!)) with cubic B_i (Paterson-Stockmeyer)."""
    norm = float(np.abs(m).sum(0).max())
    squarings = math.ceil(math.log2(norm / 0.25)) if norm > 0.25 else 0
    if squarings:
        m = m * 0.5**squarings
    powers = np.empty((3, 12, 12))
    powers[0] = m
    np.matmul(m, m, out=powers[1])
    np.matmul(powers[1], m, out=powers[2])
    m4 = powers[1] @ powers[1]
    b = (_TAYLOR_B @ powers.reshape(3, 144) + _TAYLOR_I).reshape(3, 12, 12)
    e = b[0] + m4 @ (b[1] + m4 @ (b[2] + _TAYLOR[12] * m4))
    for _ in range(squarings):
        e = e @ e
    return e[:5, 5] + 1j * e[6:11, 5]


def _attempt(rhs, e0, t, h, y, u, prev):
    """One step of size h from (t, y), with u(t) at its nodes written to the
    rows of ``u``.  ``prev`` is None or, for the step before: u at its last
    node and |u| there, f(s) = u(s)^H y[1:] at its middle and last nodes,
    its size and its |f[5 nodes]|.

    Returns Omega_6 over the step, the step's local error estimate, the
    estimated largest error of the samples' c_a and the |f[5 nodes]| behind
    it (both None without ``prev``), |u_l| at the nodes, B^H y and the
    metric B^H B for B = (e_0, b_1, b_2, b_3, b_p), and the generators h
    A_1, h A_2, h A_3 and h A_D."""
    for k in range(3):
        np.multiply(rhs(t + _C[k] * h, e0)[1:], 1j, out=u[k])
    yb = y[1:]
    s0, s1, s2 = (math.sqrt(_dot(u[k], u[k]).real) for k in range(3))
    f = [_dot(u[k], yb) for k in range(3)]  # f(s) = u(s)^H y[1:] at the nodes
    # The entries of the generators, in _BUILD's order.
    v = [_dot(u[0], u[1]) / (s0 * s1), _dot(u[0], u[2]) / (s0 * s2), _dot(u[1], u[2]) / (s1 * s2),
         0.0, 0.0, 0.0, y[0], f[0] / s0, f[1] / s1, f[2] / s2, 0.0, 1.0, 0.0]
    sp = 0.0
    if prev is not None:
        u_last, sp, f_mid, f_last, h_prev, fourth_prev = prev
        v[3:6] = (_dot(u[0], u_last) / (s0 * sp), _dot(u[1], u_last) / (s1 * sp),
                  _dot(u[2], u_last) / (s2 * sp))
        v[10] = f_last / sp
    v = np.array(v)
    metric = np.concatenate((v, v.conj()))[_METRIC]
    # The state enters as the last column of the generators:
    # A_l y = -i |u_l| (proj_l e_0 + c_a b_l).
    gen = (v.view(float) @ _BUILD).reshape(4, 144)
    scale = (s0, s1, s2)
    gen *= h * np.array((s0, s1, s2, sp))[:, None]
    ca_err = fourth = None
    if prev is not None:
        # The previous step's last and middle nodes sit r h and r_mid h
        # before t.
        r, r_mid = (1.0 - _C[2]) * h_prev / h, 0.5 * h_prev / h
        q, q_mid = (r + _C).tolist(), (r_mid + _C).tolist()
        mix = [1.0 / (a * b) for a, b in zip(q, _OMEGA_PRIME)] + [-1.0 / (q[0] * q[1] * q[2])]
        gen[3] = np.array(mix) @ gen
        # The samples' c_a misses -i int (u - P)^H y[1:] over [t, t + theta
        # h], P the cubic through the four nodes: about h^5 |f[5 nodes]|
        # times the integral in _PEAKS, with the previous middle node as the
        # fifth.  One divided difference of the oscillating f can read far
        # low, so the larger of this step's and the last step's is taken.
        div = sum(m * fk / a for m, fk, a in zip(mix, f, q_mid)) + (
            mix[3] * f_last + f_mid / (q_mid[0] * q_mid[1] * q_mid[2])
        ) / (r_mid - r)
        fourth = abs(div) / h**4  # |f[5 nodes]|: div is in units of h
        ca_err = h**5 * max(fourth, fourth_prev) * max(a + b * r for a, b in _PEAKS)
    omega, col = _exponents(gen)
    diff = col[:5] + 1j * col[6:11]
    local = math.sqrt(max((diff.conj() @ metric @ diff).real, 0.0))
    return omega, local, ca_err, fourth, scale, v[6:11], metric, gen


def _series(c, start, nu):
    """Taylor coefficients v_k, stacked (k, row, 12), of v(r) with dv/dr =
    sum_q r^q C_q v and v(0) = ``start``, for each row of ``c`` (C_0 .. C_3
    side by side, 12 x 48) whose sum_q |C_q| is at most ``nu``.

    With q = nu / (K + 1) < 1 and M the largest |v_k| over k = K - 3..K,
    the recurrence gives |v_{K+j}| <= q M for j = 1..4, and so on four
    terms at a time, so the terms past K sum to at most 4 q M / (1 - q) for
    r in [0, 1].  A row keeps its terms up to the first K where that lies
    below _SERIES_TOL and zeros after, so the other rows do not change it."""
    hist = np.zeros((start.shape[0], 48, 1))  # v_k, v_{k-1}, v_{k-2}, v_{k-3}
    hist[:, :12, 0] = start
    terms = [start]
    while True:
        k = len(terms)
        v = c @ hist
        v *= 1.0 / k
        hist = np.concatenate((v, hist[:, :36]), 1)
        terms.append(v[:, :, 0])
        if k % 4 == 0:
            q = nu / (k + 1)
            bound = 4.0 * q * np.abs(hist).max((1, 2)) / (1.0 - q)
            if not np.any((q >= 1.0) | (bound > _SERIES_TOL)):
                break  # a NaN row stops it too
    terms = np.array(terms)
    size = np.abs(terms).max(2)
    most = size.copy()  # the largest |v| over k - 3..k
    for back in range(1, 4):
        most[back:] = np.maximum(most[back:], size[:-back])
    q = nu / np.arange(1.0, k + 2.0)[:, None]
    done = (q < 1.0) & (4.0 * q * most / (1.0 - q) <= _SERIES_TOL)
    last = np.where(done.any(0), done.argmax(0), k)  # a NaN row keeps all
    terms[np.arange(k + 1)[:, None] > last] = 0.0
    return terms[:last.max() + 1]


def _horner(terms, which, r):
    """sum_k r^k terms[k, which], one row per r."""
    x = terms[-1].take(which, 0)
    r = r[:, None]
    for term in terms[-2::-1]:
        x *= r
        x += term.take(which, 0)
    return x


def _samples(block, sample_times, kept):
    """Write c_a and the norm of a block of samples to their rows of
    ``kept``.  Each entry of ``block`` covers the sample rows [lo, hi) of
    one step, the next entry's rows following on: lo, hi, the step's start
    and size, c_a and |y|^2 at its start, 2 conj(B^H y), the metric B^H B
    and its C_0 .. C_3 side by side.

    A step whose sum_p |C_p| (max row sums) is nu is cut into
    ceil(nu / _PIECE_NORM) equal pieces; each piece's series starts from
    the value the one before ends at, and only the pieces up to its last
    sample are summed."""
    lo, hi, t, h, ca, norm0, yb2, metric, c = (np.array(col) for col in zip(*block))
    n = len(block)
    nu = np.abs(c).reshape(n, 12, 4, 12).sum(3).max(1).sum(1)
    pieces = np.ceil(np.maximum(nu / _PIECE_NORM, 1.0))
    step = np.repeat(np.arange(n), hi - lo)
    rows = slice(lo[0], hi[-1])
    scaled = (sample_times[rows] - t[step]) / h[step] * pieces[step]
    piece = np.minimum(np.floor(scaled), pieces[step] - 1.0)
    r = scaled - piece
    need = piece[hi - lo[0] - 1]  # each step's last piece with a sample
    x = np.empty((step.size, 12))
    start = np.zeros((n, 12))
    start[:, 5] = 1.0  # the state column
    for j in range(int(need.max()) + 1):
        live = np.flatnonzero(need >= j)
        cj = c[live]
        cut = np.flatnonzero(pieces[live] > 1.0)
        if cut.size:
            # C over [j delta, (j + 1) delta], in units of delta
            delta = 1.0 / pieces[live[cut], None, None]
            shift = _BINOM * (j * delta) ** _SHIFT * delta ** np.arange(1.0, 5.0)[:, None]
            cj[cut] = np.einsum(
                "kqp,kipj->kiqj", shift, cj[cut].reshape(-1, 12, 4, 12)
            ).reshape(-1, 12, 48)
        terms = _series(cj, start[live], nu[live] / pieces[live])
        at = np.flatnonzero(piece == j)
        x[at] = _horner(terms, np.searchsorted(live, step[at]), r[at])
        on = np.flatnonzero(need[live] > j)
        start[live[on]] = _horner(terms, on, np.ones(on.size))
    x = x[:, :5] + 1j * x[:, 6:11]
    # |y + B x|^2 = |y|^2 + 2 Re(yb^H x) + x^H G x with yb = B^H y
    gx = (x.conj()[:, :, None] * metric[step]).sum(1)
    kept[rows, 0] = ca[step] + x[:, 0]
    kept[rows, 1] = norm0[step] + ((gx + yb2[step]) * x).sum(1).real


def integrate(rhs, t0, y0, sample_times, rel_tol=1e-8, *, keep=False, max_step=math.inf):
    """Advance ``dy/dt = rhs(t, y)`` from ``t0`` to ``sample_times[-1]`` in
    steps of at most ``max_step``.

    ``rhs(t, y)`` must be A(t) y for a star generator as above.  It is called
    with y = e_0 only, and u(t) is read off as i rhs(t, e_0)[1:], copied at
    once, so ``rhs`` may reuse its buffer.  Each attempted step calls it three
    times, at the step's nodes.  Sampling c_a and the norm calls it never:
    a sample is summed from its step's Taylor series (see above), in blocks
    taken after their steps, and from its own step's data alone, so its
    bytes do not depend on which other sample times are asked for.  With
    ``keep``, each sample's mode amplitudes come from one more step,
    from the start of the step it falls in to the sample time, which calls
    it three times more and leaves the step sequence as it is.

    Returns ``(kept, n_steps)``.  ``kept`` is complex with one row per sample
    time: c_a, the squared norm and, when ``keep``, the mode amplitudes
    y[1:].  ``n_steps`` counts accepted steps.  Sample times must be
    increasing and start at or after ``t0``.

    ``rel_tol`` bounds two estimates at each step: the local error of
    Omega_4, in the state's 2-norm, held to ``_LOCAL_SHARE * rel_tol``, and
    twice the largest error that the interpolated A puts into c_a at samples
    inside the step, which bounds their error in |c_a|^2, held to
    ``_DENSE_SHARE * rel_tol``.  The first step has no node before it, its
    samples take the quadratic through its own nodes, and there the local
    error alone is held to ``_FIRST_SHARE * rel_tol``.  On the paper's
    presets the samples' |c_a|^2 then lies within rel_tol of the converged
    solution, as long as ``max_step`` resolves the generator's own sweep.
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
    prev = None  # the last step taken, as _attempt reads it
    kept = np.empty((sample_times.size, 2 + (y.size - 1 if keep else 0)), dtype=complex)
    idx = int(sample_times.searchsorted(t + 1e-15, side="right"))
    kept[:idx, 0] = y[0]
    kept[:idx, 1] = _dot(y, y)
    if keep:
        kept[:idx, 2:] = y[1:]
    h = min(t_last - t, max_step)
    n_steps = 0
    block = []  # samples not yet taken, as _samples reads them

    while idx < sample_times.size:
        if h < 1e-14 * max(1.0, abs(t)):
            raise SolverError(f"step size underflow at t = {t:.6g}")
        last = t + h >= t_last
        h_use = t_last - t if last else h
        t_next = t_last if last else t + h_use
        stop = sample_times.size if last else int(sample_times.searchsorted(t_next, "right"))
        u = nodes[n_steps % 2]
        omega, local, ca_err, fourth, scale, coords, metric, gen = _attempt(
            rhs, e0, t, h_use, y, u, prev
        )
        if prev is None:
            err = local / (_FIRST_SHARE * rel_tol)
        else:
            err = max(local / _LOCAL_SHARE, 2.0 * ca_err / _DENSE_SHARE) / rel_tol
        # both estimates scale as h^5
        fac = _SAFETY * max(err, 1e-300) ** -0.2
        if err <= 1.0:
            x = _expm(omega)
            if stop > idx:
                c = (_INTERP @ gen).reshape(4, 12, 12).transpose(1, 0, 2).reshape(12, 48)
                entry = (t, h_use, y[0], _dot(y, y).real, 2.0 * coords.conj(), metric, c)
                for lo in range(idx, stop, _BLOCK):
                    block.append((lo, min(stop, lo + _BLOCK)) + entry)
                    if block[-1][1] - block[0][0] >= _BLOCK or 4 * len(block) >= _BLOCK:
                        _samples(block, sample_times, kept)
                        block = []
            if keep:
                for row in range(idx, stop):
                    sub = _attempt(rhs, e0, t, sample_times[row] - t, y, nodes[2], None)
                    kept[row, 2:] = _update(y[1:], _expm(sub[0])[1:4] / sub[4], nodes[2])
            idx = stop
            # b^H y[1:] moves by B^H B x over the step, which gives f at
            # this step's middle and last nodes for the next one
            after = coords + metric @ x
            prev = (u[2], scale[2], after[2] * scale[1], after[3] * scale[2], h_use, fourth or 0.0)
            t = t_next
            y[0] += x[0]
            y[1:] = _update(y[1:], x[1:4] / scale, u)
            n_steps += 1
            h = min(max_step, h_use * min(_MAX_FACTOR, max(_MIN_FACTOR, fac)))
        else:
            # Until a step is taken, the estimate alone sizes the retry.
            floor = 1e-3 if prev is None else _MIN_FACTOR
            h = h_use * max(floor, min(_SAFETY, fac))
    if block:
        _samples(block, sample_times, kept)
    return kept, n_steps
