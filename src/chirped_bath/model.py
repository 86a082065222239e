"""Physical model shared by every solver: a two-level emitter coupled to a
bath of modes whose frequencies rise linearly in time underneath a fixed
Lorentzian coupling envelope.

Everything internal is dimensionless: the envelope half-width gamma sets the
frequency unit and 1/gamma the time unit, all mode positions are detunings
from the emitter transition, and the chirp rate is measured in gamma^2.
SI values enter only through optional conversion at the CLI boundary.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

import numpy as np
from scipy.special import roots_legendre, sici

from .errors import GridCoverageError, ValidationError

# Half-window of the detuning grid when there is no oscillatory structure to
# resolve (weak coupling), in units of the envelope half-width.
WEAK_HALF_WINDOW = 10.0
# Pad beyond the Rabi half-splitting for strongly coupled grids.  The
# truncated Lorentzian wings bias pa by ~(2/3pi) d^2/W^3; 40 keeps that bias
# below the 1e-3 pointwise budget at d=8 with margin.
STRONG_WINDOW_PAD = 40.0
MODE_CAP = 2_000_000
# Grid modes per unit of the envelope half-width; the inverse is the spacing.
DEFAULT_MODES_PER_GAMMA = 10.0

# Relative truncation budget for the analytic kernel tail (next omitted term).
_KERNEL_TAIL_BUDGET = 5e-10
# The tail switches from its Si closed form to its asymptotic series at
# z = cut*tau = 100, where 20 terms leave a relative error below 1e-17.
_TAIL_SERIES_FROM = 100.0
_TAIL_SERIES_TERMS = 20
_PANEL_GROWTH = 1.5
# 2048 panels of 16 nodes: 256 KiB per float array of a block.
_KERNEL_BLOCK_PANELS = 2048
# A node costs 15-20 ns on a 2-CPU Xeon, so a lattice at this limit takes
# 1-1.5 minutes.  Every |chi| <= 400, t_end <= 2 fits at every step count
# (3.3e9 nodes at chi = 400, t_end = 2, 65536 steps, where the lattice took
# 50-63 s).
MAX_KERNEL_NODES = 4e9


@dataclass(frozen=True)
class ModelParams:
    """Dimensionless configuration: coupling weight ``d`` (in gamma) and chirp
    rate ``chi`` (in gamma^2), both finite."""

    d: float
    chi: float = 0.0

    def __post_init__(self) -> None:
        if not 0 < self.d < np.inf:
            raise ValidationError(f"coupling weight d must be positive and finite, got {self.d}")
        if not np.isfinite(self.chi):
            raise ValidationError(f"chirp rate chi must be finite, got {self.chi}")


@dataclass(frozen=True)
class BathGrid:
    """Uniform grid of initial mode detunings.

    The inverse spacing plays the role of the density of states, so a mode
    amplitude squared divided by ``spacing`` is a spectral density.
    """

    detunings: np.ndarray
    spacing: float

    def __post_init__(self) -> None:
        det = np.asarray(self.detunings, dtype=float)
        if det.ndim != 1 or det.size < 2:
            raise ValidationError("grid needs at least two detunings")
        if not 0 < self.spacing < np.inf:
            raise ValidationError(f"spacing must be positive and finite, got {self.spacing}")
        steps = np.diff(det)
        if np.any(steps <= 0):
            raise ValidationError("detunings must be strictly increasing")
        if np.max(np.abs(steps - self.spacing)) > 1e-9 * self.spacing:
            raise ValidationError("detunings must be uniformly spaced to 1 part in 1e9")
        # Snap to the exact progression the RHS phase table assumes.
        det = det[0] + self.spacing * np.arange(det.size)
        det.flags.writeable = False
        object.__setattr__(self, "detunings", det)

    @property
    def window(self) -> tuple[float, float]:
        return float(self.detunings[0]), float(self.detunings[-1])

    @property
    def size(self) -> int:
        return int(self.detunings.size)


def structure_function(delta, p: ModelParams):
    """Lorentzian spectral density (d^2/pi)/(1 + delta^2) at detuning ``delta``.

    Its integral over all detunings is d^2, independent of time, because the
    envelope is pinned while the modes slide underneath it.
    """
    delta = np.asarray(delta, dtype=float)
    out = (p.d * p.d / np.pi) / (1.0 + delta * delta)
    return out if out.ndim else float(out)


def coupling(inst, spacing: float, p: ModelParams):
    """Real coupling g of a grid mode at instantaneous detuning ``inst``.

    A mode that started at delta0 sits at delta0 + chi*t, and its coupling
    follows it under the fixed envelope: g^2 = spacing * structure_function(inst).
    """
    return np.sqrt((spacing * p.d * p.d / np.pi) / (1.0 + inst * inst))


def _window_half_widths(p: ModelParams, horizon: float, spacing: float) -> tuple[float, float]:
    """Half-widths (below, above zero detuning) of the window that holds every
    significantly coupled mode over [0, horizon].

    The static half-width covers the Rabi half-splitting plus a pad (or a
    fixed width at weak coupling); the side modes flow in from is widened by
    |chi|*horizon, so every mode reaching resonance already exists at t=0.
    A grid of this spacing revives at 2 pi / spacing and its error grows well
    before that, so a horizon beyond half the revival time is refused.
    """
    if horizon > np.pi / spacing:
        raise GridCoverageError(
            f"horizon {horizon:g} exceeds pi * modes_per_gamma = {np.pi / spacing:g}, half "
            "the discrete bath's recurrence time; raise --modes-per-gamma"
        )
    if 2.0 * p.d <= 1.0:
        base = WEAK_HALF_WINDOW
    else:
        base = 0.5 * np.sqrt(4.0 * p.d * p.d - 1.0) + STRONG_WINDOW_PAD
    return base + max(0.0, p.chi * horizon), base + max(0.0, -p.chi * horizon)


def build_grid(
    p: ModelParams, horizon: float, modes_per_gamma: float = DEFAULT_MODES_PER_GAMMA
) -> BathGrid:
    """Construct a bath grid that stays resolved over ``[0, horizon]``.

    The window follows ``_window_half_widths``; its boundaries snap outward
    to integer multiples of the spacing.
    """
    if not 0 < horizon < np.inf:
        raise ValidationError(f"horizon must be positive and finite, got {horizon}")
    if not 1 <= modes_per_gamma < np.inf:
        raise ValidationError(f"modes_per_gamma must be >= 1 and finite, got {modes_per_gamma}")
    spacing = 1.0 / float(modes_per_gamma)
    w_low, w_high = _window_half_widths(p, horizon, spacing)
    n_low = int(np.ceil(w_low / spacing - 1e-12))
    n_high = int(np.ceil(w_high / spacing - 1e-12))
    count = n_low + n_high + 1
    if count > MODE_CAP:
        raise ValidationError(
            f"grid of {count} modes exceeds the cap {MODE_CAP}; "
            "the horizon/chirp combination is infeasible at this density"
        )
    detunings = spacing * np.arange(-n_low, n_high + 1)
    return BathGrid(detunings=detunings, spacing=spacing)


def rabi_frequency(p: ModelParams) -> float:
    """Angular frequency sqrt(4 d^2 - 1) of strong-coupling population exchange."""
    if not p.d > 0.5:
        raise ValidationError(
            f"Rabi frequency is real only for d > 1/2 (strong coupling); got d = {p.d}"
        )
    return float(np.sqrt(4.0 * p.d * p.d - 1.0))


def xi(p: ModelParams) -> float:
    """Dimensionless chirp 4*pi*chi/Omega^2: frequency sweep per Rabi period
    relative to the Rabi half-splitting."""
    om = rabi_frequency(p)
    return 4.0 * np.pi * p.chi / (om * om)


@cache
def _panel_rule() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Nodes and weights of the 16-point Gauss-Legendre rule, and the cos and
    sin of the node phases 2 xi_j about the centre of a capped panel.

    Built on first use: the eigensolver behind roots_legendre leaves about
    0.75 MiB of workspace resident, which runs without chirp need not carry.
    """
    nodes, weights = roots_legendre(16)
    return nodes, weights, np.stack([np.cos(2.0 * nodes), np.sin(2.0 * nodes)])


def _panel_edge(k, geo, cap):
    """Distance from the envelope peak of the k-th panel edge on one side:
    geometric up to edge ``geo``, then uniform steps of ``cap``."""
    span = _PANEL_GROWTH ** np.minimum(k, geo) - 1.0
    return span + np.maximum(k - geo, 0.0) * cap


def _panels_to(length, geo, cap):
    """Number of panels from the envelope peak out to distance ``length``."""
    span = _PANEL_GROWTH**geo - 1.0
    inner = np.ceil(np.log1p(length) / np.log(_PANEL_GROWTH))
    return np.where(length <= span, inner, geo + np.ceil((length - span) / cap))


def _kernel_tail(cut, tau, u):
    """Integral of the envelope's tail 1/x^2 + (u^2-1)/x^4 against cos(tau*x)
    over [cut, inf).

    Small z = cut*tau: closed form through Si.  Large z: the same integrals as
    int_z^inf e^{it} t^-n dt = i e^{iz} z^-n sum_k (n)_k (-i/z)^k, summed to
    a fixed order; the closed form would subtract Si from pi/2 there and lose
    every digit of the x^-4 term.
    """
    z = cut * tau
    out = np.empty_like(z)
    small = z < _TAIL_SERIES_FROM
    c, t, w = cut[small], tau[small], z[small]
    si, _ = sici(w)
    i2 = np.cos(w) / c - t * (0.5 * np.pi - si)
    i4 = np.cos(w) / (3.0 * c**3) - (t / 3.0) * (np.sin(w) / (2.0 * c * c) + 0.5 * t * i2)
    out[small] = i2 + (u[small] ** 2 - 1.0) * i4
    large = ~small
    c, t, w = cut[large], tau[large], z[large]
    step = -1j / w
    s2 = np.ones_like(step)
    s4 = np.ones_like(step)
    for k in range(_TAIL_SERIES_TERMS, 0, -1):
        s2 = 1.0 + (k + 1) * step * s2
        s4 = 1.0 + (k + 3) * step * s4
    series = s2 / (c * c) + (u[large] ** 2 - 1.0) * s4 / c**4
    out[large] = (1j * np.exp(1j * w) * series).real / t
    return out


def _chirped_kernel(tau: np.ndarray, p: ModelParams) -> np.ndarray:
    """(2 d^2/pi) int_0^inf envelope(x) cos(tau x) dx at positive lags.

    [0, cut] is split into panels, each integrated by a 16-point
    Gauss-Legendre rule; [cut, inf) is the analytic tail.  Panels start at
    the envelope peak x = u, widen as 0.5 + 0.5|x - u| away from it and are
    capped at 4/tau, so each spans at most 4 radians of cos(tau x).  All
    lags' panels form one flat sequence, laid out in closed form and
    evaluated in blocks of _KERNEL_BLOCK_PANELS.  cos(tau x) is split at the
    panel centre, so the capped panels, whose nodes all sit at the phases
    2 xi_j about it, cost no trigonometric call per node.
    """
    nodes, weights, capped_phases = _panel_rule()
    u = 0.5 * abs(p.chi) * tau
    cap = 4.0 / tau
    with np.errstate(over="ignore", invalid="ignore"):
        # Truncate where the O(x^-6) remainder of the analytic tail is negligible.
        c6 = 1.5 * (1.0 + u * u) ** 2
        budget_cut = (c6 * (2.0 / np.pi) / _KERNEL_TAIL_BUDGET) ** 0.2
        cut = np.maximum(np.maximum(60.0, 2.0 * u + 20.0), budget_cut)
        # Panels 0.5 * 1.5**k wide (k < geo) stay within the cap.
        geo = np.maximum(np.floor(np.log(2.0 * cap) / np.log(_PANEL_GROWTH)) + 1.0, 0.0)
        left = _panels_to(u, geo, cap)
        counts = left + _panels_to(cut - u, geo, cap)
        total_nodes = nodes.size * float(np.sum(counts))
    if not total_nodes <= MAX_KERNEL_NODES:
        raise ValidationError(
            f"the memory-kernel lattice needs {total_nodes:.3g} quadrature nodes, above the limit "
            f"{MAX_KERNEL_NODES:.3g}; lower --chi or --t-end"
        )
    ends = np.cumsum(counts.astype(np.int64))
    starts = ends - counts
    total = int(ends[-1])
    main = np.zeros_like(tau)
    buf_minus = np.empty((nodes.size, _KERNEL_BLOCK_PANELS))
    buf_plus = np.empty_like(buf_minus)
    for first in range(0, total, _KERNEL_BLOCK_PANELS):
        panel = np.arange(first, min(first + _KERNEL_BLOCK_PANELS, total))
        lag = np.searchsorted(ends, panel, side="right")
        k = panel - starts[lag]
        on_left = k < left[lag]
        k = np.where(on_left, k, k - left[lag])
        g, width, peak = geo[lag], cap[lag], u[lag]
        # Each panel covers distances [near, far] from the peak on its side,
        # clipped to x >= 0 on the left and x <= cut on the right.
        reach = np.where(on_left, peak, cut[lag] - peak)
        far = _panel_edge(k + 1.0, g, width)
        capped = (k >= g) & (far <= reach)
        near = np.minimum(_panel_edge(k, g, width), reach)
        far = np.minimum(far, reach)
        half = np.where(capped, 0.5 * width, 0.5 * (far - near))
        offset = np.where(on_left, -0.5, 0.5) * (far + near)  # centre minus peak
        # x - u and x + u at the nodes (one row per node), then the envelope
        x_minus = np.multiply(nodes[:, None], half, out=buf_minus[:, :panel.size])
        x_plus = np.add(x_minus, 2.0 * peak + offset, out=buf_plus[:, :panel.size])
        x_minus += offset
        x_minus *= x_minus
        x_minus += 1.0
        x_plus *= x_plus
        x_plus += 1.0
        x_minus *= x_plus
        env = np.sqrt(x_minus, out=x_minus)
        np.divide(weights[:, None], env, out=env)
        # sum_j w_j env_j (cos, sin)(tau half xi_j) per panel
        cos_part, sin_part = np.einsum("kj,jp->kp", capped_phases, env)
        loose = np.flatnonzero(~capped)
        env_loose = env[:, loose]
        phase = nodes[:, None] * (tau[lag[loose]] * half[loose])
        cos_part[loose] = np.einsum("ij,ij->j", env_loose, np.cos(phase))
        sin_part[loose] = np.einsum("ij,ij->j", env_loose, np.sin(phase, out=phase))
        centre = tau[lag] * (peak + offset)
        sums = half * (np.cos(centre) * cos_part - np.sin(centre) * sin_part)
        main[lag[0]:lag[-1] + 1] += np.bincount(lag - lag[0], weights=sums)
    return (p.d * p.d / np.pi) * 2.0 * (main + _kernel_tail(cut, tau, u))


def memory_kernel(tau, p: ModelParams):
    """Memory kernel K(tau) of the reduced emitter equation at lag ``tau``, a
    scalar or an array of lags.

    For the linear chirp the kernel depends on the lag t - t' alone (shifting
    the integration variable by chi*(t+t')/2 removes the absolute times), is
    real and even in the lag, and equals d^2 at zero lag; without chirp it is
    d^2 exp(-|tau|).
    """
    lags = np.abs(np.asarray(tau, dtype=float))
    if not np.all(np.isfinite(lags)):
        raise ValidationError(f"kernel lag must be finite, got {tau}")
    if p.chi == 0.0:
        out = p.d * p.d * np.exp(-lags)
    else:
        out = np.full(lags.shape, p.d * p.d, dtype=float)
        moving = lags >= 1e-12
        if np.any(moving):
            out[moving] = _chirped_kernel(lags[moving], p)
    return out if out.ndim else float(out)
