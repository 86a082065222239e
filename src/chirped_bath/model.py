"""Physical model shared by every solver: a two-level emitter coupled to a
bath of modes whose frequencies rise linearly in time underneath a fixed
Lorentzian coupling envelope.

Everything internal is dimensionless: the envelope half-width gamma sets the
frequency unit and 1/gamma the time unit, all mode positions are detunings
from the emitter transition, and the chirp rate is measured in gamma^2.
SI values enter only through optional conversion at the CLI boundary.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.integrate import quad
from scipy.special import sici

from .errors import QuadratureError, ValidationError

# Half-window of the detuning grid when there is no oscillatory structure to
# resolve (weak coupling), in units of the envelope half-width.
WEAK_HALF_WINDOW = 10.0
# Pad beyond the Rabi half-splitting for strongly coupled grids.  The
# truncated Lorentzian wings bias pa by ~(2/3pi) d^2/W^3; 40 keeps that bias
# below the 1e-3 pointwise budget at d=8 with margin.
STRONG_WINDOW_PAD = 40.0
DEFAULT_MODE_CAP = 2_000_000

_KERNEL_EPS = 1e-11
# Relative truncation budget for the analytic kernel tail (next omitted term).
_KERNEL_TAIL_BUDGET = 5e-10


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
    window: tuple[float, float] = field(default=(0.0, 0.0))

    def __post_init__(self) -> None:
        det = np.asarray(self.detunings, dtype=float)
        if det.ndim != 1 or det.size < 2:
            raise ValidationError("grid needs at least two detunings")
        steps = np.diff(det)
        if np.any(steps <= 0):
            raise ValidationError("detunings must be strictly increasing")
        if np.max(np.abs(steps - self.spacing)) > 1e-9 * self.spacing:
            raise ValidationError("detunings must be uniformly spaced to 1 part in 1e9")
        window = (float(det[0]), float(det[-1]))
        expected = round((window[1] - window[0]) / self.spacing) + 1
        if expected != det.size:
            raise ValidationError(
                f"grid count {det.size} does not match window/spacing ({expected} expected)"
            )
        det = det.copy()
        det.flags.writeable = False
        object.__setattr__(self, "detunings", det)
        object.__setattr__(self, "window", window)

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


def chirped_detuning(delta0, t: float, chi: float):
    """Instantaneous detuning of a mode that started at ``delta0``."""
    return delta0 + chi * t


def _coupling(inst, spacing: float, p: ModelParams):
    """Real coupling g of a grid mode at instantaneous detuning ``inst``:
    g^2 = spacing * structure_function(inst)."""
    return np.sqrt((spacing * p.d * p.d / np.pi) / (1.0 + inst * inst))


def coupling_at(delta0, t: float, grid: BathGrid, p: ModelParams):
    """Real coupling of the grid mode at initial detuning ``delta0`` at time t.

    The coupling follows the mode as it slides under the fixed envelope:
    g_k(t)^2 = spacing * structure_function(delta0 + chi*t).
    """
    lo, hi = grid.window
    d0 = np.asarray(delta0, dtype=float)
    tol = 1e-9 * grid.spacing
    if np.any(d0 < lo - tol) or np.any(d0 > hi + tol):
        raise ValidationError(f"detuning {delta0} lies outside the grid window [{lo}, {hi}]")
    g = _coupling(chirped_detuning(d0, t, p.chi), grid.spacing, p)
    return g if g.ndim else float(g)


def _window_half_widths(p: ModelParams, horizon: float) -> tuple[float, float]:
    """Half-widths (below, above zero detuning) of the window that holds every
    significantly coupled mode over [0, horizon].

    The static half-width covers the Rabi half-splitting plus a pad (or a
    fixed width at weak coupling); the side modes flow in from is widened by
    |chi|*horizon, so every mode reaching resonance already exists at t=0.
    """
    if 2.0 * p.d <= 1.0:
        base = WEAK_HALF_WINDOW
    else:
        base = 0.5 * np.sqrt(4.0 * p.d * p.d - 1.0) + STRONG_WINDOW_PAD
    return base + max(0.0, p.chi * horizon), base + max(0.0, -p.chi * horizon)


def build_grid(
    p: ModelParams,
    horizon: float,
    modes_per_gamma: float = 10.0,
    mode_cap: int = DEFAULT_MODE_CAP,
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
    w_low, w_high = _window_half_widths(p, horizon)
    n_low = int(np.ceil(w_low / spacing - 1e-12))
    n_high = int(np.ceil(w_high / spacing - 1e-12))
    count = n_low + n_high + 1
    if count > mode_cap:
        raise ValidationError(
            f"grid of {count} modes exceeds the cap {mode_cap}; "
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


def _kernel_envelope(x: np.ndarray, u: float) -> np.ndarray:
    return 1.0 / np.sqrt((1.0 + (x + u) ** 2) * (1.0 + (x - u) ** 2))


def _kernel_of_lag(tau: float, p: ModelParams) -> float:
    if tau < 1e-12:
        return p.d * p.d
    u = 0.5 * abs(p.chi) * tau
    # Truncate where the O(x^-6) remainder of the analytic tail is negligible.
    c6 = 1.5 * (1.0 + u * u) ** 2
    cut = max(60.0, 2.0 * u + 20.0, (c6 * (2.0 / np.pi) / _KERNEL_TAIL_BUDGET) ** 0.2)
    if tau * cut > 2.0:
        res = quad(
            _kernel_envelope,
            0.0,
            cut,
            args=(u,),
            weight="cos",
            wvar=tau,
            epsabs=_KERNEL_EPS,
            epsrel=_KERNEL_EPS,
            limit=int(tau * cut / np.pi) + 200,
            full_output=1,
        )
    else:
        res = quad(
            lambda x: _kernel_envelope(x, u) * np.cos(tau * x),
            0.0,
            cut,
            epsabs=_KERNEL_EPS,
            epsrel=_KERNEL_EPS,
            limit=400,
            full_output=1,
        )
    if len(res) > 3:
        raise QuadratureError(
            f"memory-kernel quadrature did not converge at lag {tau:.6g} "
            f"(achieved error estimate {res[1]:.2e})"
        )
    main = res[0]
    # Analytic tail of the envelope, 1/x^2 + (u^2-1)/x^4, integrated against
    # cos(tau*x) on [cut, inf) in closed form.
    si, _ = sici(cut * tau)
    i2 = np.cos(cut * tau) / cut - tau * (0.5 * np.pi - si)
    i4 = np.cos(cut * tau) / (3.0 * cut**3) - (tau / 3.0) * (
        np.sin(cut * tau) / (2.0 * cut * cut) + 0.5 * tau * i2
    )
    tail = i2 + (u * u - 1.0) * i4
    return float((p.d * p.d / np.pi) * 2.0 * (main + tail))


def two_time_kernel(t: float, t_prime: float, p: ModelParams) -> complex:
    """Memory kernel K(t, t') of the reduced emitter equation.

    For the linear chirp the kernel depends on the lag t - t' alone (shifting
    the integration variable by chi*(t+t')/2 removes the absolute times), is
    real and even in the lag, and equals d^2 at zero lag.  Exchanging the
    arguments conjugates the value, which for a real kernel is an identity.
    """
    if t < 0 or t_prime < 0:
        raise ValidationError(f"kernel times must be non-negative, got ({t}, {t_prime})")
    return complex(_kernel_of_lag(abs(t - t_prime), p), 0.0)
