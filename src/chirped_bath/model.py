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

import numpy as np
from scipy.integrate import quad
from scipy.special import sici

from .errors import GridCoverageError, QuadratureError, ValidationError

# Half-window of the detuning grid when there is no oscillatory structure to
# resolve (weak coupling), in units of the envelope half-width.
WEAK_HALF_WINDOW = 10.0
# Pad beyond the Rabi half-splitting for strongly coupled grids.  The
# truncated Lorentzian wings bias pa by ~(2/3pi) d^2/W^3; 40 keeps that bias
# below the 1e-3 pointwise budget at d=8 with margin.
STRONG_WINDOW_PAD = 40.0
MODE_CAP = 2_000_000

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

    def __post_init__(self) -> None:
        det = np.asarray(self.detunings, dtype=float)
        if det.ndim != 1 or det.size < 2:
            raise ValidationError("grid needs at least two detunings")
        steps = np.diff(det)
        if np.any(steps <= 0):
            raise ValidationError("detunings must be strictly increasing")
        if np.max(np.abs(steps - self.spacing)) > 1e-9 * self.spacing:
            raise ValidationError("detunings must be uniformly spaced to 1 part in 1e9")
        expected = round((det[-1] - det[0]) / self.spacing) + 1
        if expected != det.size:
            raise ValidationError(
                f"grid count {det.size} does not match window/spacing ({expected} expected)"
            )
        det = det.copy()
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


def build_grid(p: ModelParams, horizon: float, modes_per_gamma: float = 10.0) -> BathGrid:
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


def _kernel_envelope(x: np.ndarray, u: float) -> np.ndarray:
    return 1.0 / np.sqrt((1.0 + (x + u) ** 2) * (1.0 + (x - u) ** 2))


def memory_kernel(tau: float, p: ModelParams) -> float:
    """Memory kernel K(tau) of the reduced emitter equation at lag ``tau``.

    For the linear chirp the kernel depends on the lag t - t' alone (shifting
    the integration variable by chi*(t+t')/2 removes the absolute times), is
    real and even in the lag, and equals d^2 at zero lag.
    """
    if not np.isfinite(tau):
        raise ValidationError(f"kernel lag must be finite, got {tau}")
    tau = abs(tau)
    if tau < 1e-12:
        return p.d * p.d
    u = 0.5 * abs(p.chi) * tau
    # Truncate where the O(x^-6) remainder of the analytic tail is negligible.
    c6 = 1.5 * (1.0 + u * u) ** 2
    cut = max(60.0, 2.0 * u + 20.0, (c6 * (2.0 / np.pi) / _KERNEL_TAIL_BUDGET) ** 0.2)
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

