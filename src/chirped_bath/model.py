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

from .errors import ValidationError

# Half-window of the detuning grid when there is no oscillatory structure to
# resolve (weak coupling), in units of the envelope half-width.
WEAK_HALF_WINDOW = 10.0
# Pad beyond the Rabi half-splitting for strongly coupled grids.  Against
# pseudomode_solve the truncated Lorentzian wings bias pa by 3.7e-4 at d = 8
# (t_end 2 and 8), inside the 1e-3 pointwise budget; a pad of 20 gives 1.5e-3.
STRONG_WINDOW_PAD = 40.0
MODE_CAP = 2_000_000
# Grid modes per unit of the envelope half-width; the inverse is the spacing.
DEFAULT_MODES_PER_GAMMA = 10.0

# First node and step, in v, of the trapezoid sum of the kernel's cut integral.
_CUT_START = -3.5
_CUT_STEP = 0.12


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
    """One discrete-bath problem: params ``p``, the horizon it is solved to
    and the uniform grid of initial mode detunings that stays resolved over
    ``[0, horizon]``.

    The window follows ``_window_half_widths``; its boundaries snap outward
    to integer multiples of ``spacing``.  The inverse spacing plays the role
    of the density of states, so a mode amplitude squared divided by
    ``spacing`` is a spectral density.
    """

    p: ModelParams
    horizon: float
    spacing: float
    detunings: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not 0 < self.horizon < np.inf:
            raise ValidationError(f"horizon must be positive and finite, got {self.horizon}")
        spacing = self.spacing
        if not 0 < spacing < np.inf:
            raise ValidationError(f"spacing must be positive and finite, got {spacing}")
        # Counted in floats before any int(): from d = 6.7e153 the window is inf.
        with np.errstate(over="ignore"):
            w_low, w_high = _window_half_widths(self.p, self.horizon, spacing)
            n_low = np.ceil(w_low / spacing - 1e-12)
            n_high = np.ceil(w_high / spacing - 1e-12)
        count = n_low + n_high + 1
        if count > MODE_CAP:
            raise ValidationError(
                f"grid of {count:.3g} modes exceeds the cap {MODE_CAP}; "
                "the horizon/chirp combination is infeasible at this density"
            )
        # The exact progression det_0 + spacing * j that the RHS phase table assumes.
        det = spacing * -n_low + spacing * np.arange(int(count))
        det.flags.writeable = False
        object.__setattr__(self, "detunings", det)

    @property
    def window(self) -> tuple[float, float]:
        return float(self.detunings[0]), float(self.detunings[-1])

    @property
    def size(self) -> int:
        return int(self.detunings.size)


def coupling(inst, spacing: float, p: ModelParams):
    """Real coupling g of a grid mode at instantaneous detuning ``inst``.

    A mode that started at delta0 sits at delta0 + chi*t, and its coupling
    follows it under the fixed envelope: g^2 = spacing (d^2/pi) / (1 + inst^2),
    a Lorentzian density whose integral over detunings is d^2 at every t.
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
        raise ValidationError(
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
    """The bath grid of ``p`` over ``[0, horizon]`` at ``modes_per_gamma``
    modes per unit of the envelope half-width."""
    if not 1 <= modes_per_gamma < np.inf:
        raise ValidationError(f"modes_per_gamma must be >= 1 and finite, got {modes_per_gamma}")
    return BathGrid(p, horizon, 1.0 / float(modes_per_gamma))


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


def _chirped_kernel(tau: np.ndarray, u: np.ndarray, p: ModelParams) -> np.ndarray:
    """(2 d^2/pi) int_0^inf envelope(x) cos(tau x) dx at positive lags, with
    u = |chi| tau / 2, from the envelope's two branch cuts.

    The envelope is even, so the kernel is (d^2/pi) times its Fourier
    transform over the real line.  Closed in the upper half-plane, that path
    wraps the cuts from x = +-u + i upwards; on the cut above u + i put
    x = u + i(1 + t^2).  The cut above -u + i gives the conjugate, so

        K(tau) = (8 d^2/pi) e^-tau Im[e^(i u tau) J],
        J = int_0^inf e^(-tau t^2) dt / sqrt((t^2 - 2iu)(t^2 + 2 - 2iu)(t^2 + 2)).

    Every factor's argument lies in (-pi/2, 0], so one square root of the
    product is the product of the three.  J is a trapezoid sum in v with
    t = exp(y0 + v - e^-v): the substitution thins out doubly exponentially
    below t = e^y0, which sits 3 below the log of the smallest scale of
    the integrand (sqrt(2u), 1 and the Gaussian's sqrt(45/tau)).  The sum
    stops where e^(-tau t^2) < 3e-20, or at t = e^20 max(sqrt(2u), 1) if
    that comes first: the integrand is below t^-3, so the rest of J is below
    2.2e-18 there.  All lags share the nodes in v, as many as the lag with
    the widest span needs.  The two factors that grow with u are scaled by
    1/(1 + 2u), which keeps the product finite.
    """
    scale = 1.0 / (1.0 + 2.0 * u)
    log_turn = 0.5 * np.log(2.0 * u)
    reach = np.minimum(0.5 * np.log(45.0 / tau), np.maximum(log_turn, 0.0) + 20.0)
    y0 = np.minimum(np.minimum(log_turn, 0.0), reach) - 3.0
    # reach - y0 >= 3, so the last node's e^-v is below 0.05.
    count = int(np.ceil((np.max(reach - y0) + 0.05 - _CUT_START) / _CUT_STEP)) + 1
    low = -2j * u * scale
    high = (2.0 - 2j * u) * scale
    total = np.zeros(tau.shape, dtype=complex)
    for v in _CUT_START + _CUT_STEP * np.arange(count):
        shrink = np.exp(-v)
        t = np.exp(y0 + (v - shrink))
        t2 = t * t
        t2s = t2 * scale
        weight = (1.0 + shrink) * t * np.exp(-tau * t2)
        total += weight / np.sqrt((t2s + low) * (t2s + high) * (t2 + 2.0))
    j = _CUT_STEP * scale * total
    return (8.0 * p.d * p.d / np.pi) * np.exp(-tau) * (np.exp(1j * u * tau) * j).imag


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
    with np.errstate(all="ignore"):
        u = 0.5 * abs(p.chi) * lags
        out = np.asarray(p.d * p.d * np.exp(-lags))
        # Below u = 1e-8 the chirp moves the kernel by less than 0.3 u^2 d^2.
        chirped = u >= 1e-8
        if np.any(chirped):
            out[chirped] = _chirped_kernel(lags[chirped], u[chirped], p)
    if not np.all(np.isfinite(out)):
        raise ValidationError(
            f"the memory kernel overflows at chi = {p.chi:g}; lower --chi or --t-end"
        )
    return out if out.ndim else float(out)
