"""Observable extraction: regime classification, exponential decay fits,
Rabi-frequency measurement from population minima, and the mapping from a
moving cavity mirror to a chirp rate.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dynamics import Trajectory
from .errors import ValidationError
from .model import ModelParams, xi

# Published regime thresholds: the chirp parameter xi is "low" up to 0.2 and
# "high" from 10; between them neither perturbative picture applies cleanly.
LOW_CHIRP_MAX_XI = 0.2
HIGH_CHIRP_MIN_XI = 10.0
CRITICAL_COUPLING_TOL = 1e-9

# Above this log-domain rms a decay fit is flagged as non-exponential.
NONEXPONENTIAL_RMS = 0.5

_MIN_FIT_SAMPLES = 5
_MIN_RABI_MINIMA = 3


@dataclass(frozen=True)
class RegimeReport:
    coupling_class: str
    chirp_class: str
    xi_value: float | None = None

    def __post_init__(self) -> None:
        if (self.coupling_class == "strong") != (self.xi_value is not None):
            raise ValidationError("xi_value must be present exactly for strong coupling")


@dataclass(frozen=True)
class DecayFit:
    """Least-squares exponential fit ln pa = intercept - rate * t."""

    rate: float
    intercept: float
    rms_residual: float
    window: tuple[float, float]

    def __post_init__(self) -> None:
        if not np.isfinite(self.rate):
            raise ValidationError(f"fitted rate is not finite: {self.rate}")
        if self.rms_residual < 0:
            raise ValidationError("rms residual cannot be negative")

    @property
    def nonexponential(self) -> bool:
        return self.rms_residual > NONEXPONENTIAL_RMS


@dataclass(frozen=True)
class RabiMeasurement:
    omega: float
    uncertainty: float


def classify(p: ModelParams) -> RegimeReport:
    """Place parameters on the coupling/chirp regime map.

    Coupling is weak below d = 1/2 (no Rabi oscillation exists, so the chirp
    classes do not apply), critical on the boundary, strong above.  Strong
    coupling is subdivided by xi = 4 pi chi / Omega^2: static at chi = 0,
    low up to 0.2, high from 10, intermediate between.
    """
    if abs(p.d - 0.5) <= CRITICAL_COUPLING_TOL:
        return RegimeReport(coupling_class="critical", chirp_class="not-applicable")
    if p.d < 0.5:
        return RegimeReport(coupling_class="weak", chirp_class="not-applicable")
    x = xi(p)
    if p.chi == 0.0:
        chirp_class = "static"
    elif abs(x) <= LOW_CHIRP_MAX_XI:
        chirp_class = "low"
    elif abs(x) >= HIGH_CHIRP_MIN_XI:
        chirp_class = "high"
    else:
        chirp_class = "intermediate"
    return RegimeReport(coupling_class="strong", chirp_class=chirp_class, xi_value=x)


def _refined_extrema(times: np.ndarray, values: np.ndarray, find_minima: bool):
    """Interior local extrema with parabolic sub-sample refinement.

    Returns (positions, heights).  Plateau edges count once (strict
    inequality on the left neighbour, non-strict on the right).
    """
    y = -values if find_minima else values
    mask = (y[1:-1] > y[:-2]) & (y[1:-1] >= y[2:])
    t_out, y_out = [], []
    for i in np.flatnonzero(mask) + 1:
        a, b, c = values[i - 1], values[i], values[i + 1]
        den = a - 2.0 * b + c
        dt = 0.5 * (times[i + 1] - times[i - 1])
        if (den > 0 if find_minima else den < 0):
            t_out.append(times[i] + 0.5 * dt * (a - c) / den)
            y_out.append(b - (a - c) ** 2 / (8.0 * den))
        else:
            t_out.append(times[i])
            y_out.append(b)
    return np.asarray(t_out), np.asarray(y_out)


def fit_decay(traj: Trajectory, window: tuple[float, float], envelope: bool = False) -> DecayFit:
    """Fit ln pa against t on the window; rate is minus the slope.

    With envelope=True the fit runs over refined local maxima of pa instead
    of the raw samples, which is the right notion of "decay" for strongly
    oscillating populations.
    """
    t_lo, t_hi = float(window[0]), float(window[1])
    if not t_hi > t_lo:
        raise ValidationError(f"empty fit window ({t_lo}, {t_hi})")
    sel = (traj.times >= t_lo - 1e-12) & (traj.times <= t_hi + 1e-12)
    ts, pa = traj.times[sel], traj.pa[sel]
    if envelope:
        ts, pa = _refined_extrema(ts, pa, find_minima=False)
    if ts.size < _MIN_FIT_SAMPLES:
        raise ValidationError(
            f"need at least {_MIN_FIT_SAMPLES} samples in the fit window, got {ts.size}"
        )
    if pa.min() <= 0.0:
        raise ValidationError("population must stay positive over the fit window")
    slope, intercept = np.polyfit(ts, np.log(pa), 1)
    resid = np.log(pa) - (slope * ts + intercept)
    return DecayFit(
        rate=-float(slope),
        intercept=float(intercept),
        rms_residual=float(np.sqrt(np.mean(resid**2))),
        window=(t_lo, t_hi),
    )


def extract_rabi(traj: Trajectory) -> RabiMeasurement:
    """Measure the population oscillation frequency from successive minima
    of pa: omega = 2 pi / (mean minima spacing), with the standard error of
    the spacings propagated into the uncertainty.
    """
    t_min, _ = _refined_extrema(traj.times, traj.pa, find_minima=True)
    if t_min.size < _MIN_RABI_MINIMA:
        raise ValidationError(
            f"need at least {_MIN_RABI_MINIMA} population minima, found {t_min.size}"
        )
    gaps = np.diff(t_min)
    mean = float(np.mean(gaps))
    stderr = float(np.std(gaps, ddof=1) / np.sqrt(gaps.size))
    return RabiMeasurement(
        omega=2.0 * np.pi / mean,
        uncertainty=2.0 * np.pi * stderr / mean**2,
    )


def mirror_chirp(omega0_si: float, cavity_length_si: float, length_rate_si: float) -> float:
    """Chirp rate (s^-2) produced by sweeping the outer mirror of a cavity:
    chi = -(omega0 / L) dL/dt.  Shrinking the cavity chirps upward."""
    if not 0 < omega0_si < np.inf:
        raise ValidationError(f"omega0_si must be positive and finite, got {omega0_si}")
    if not 0 < cavity_length_si < np.inf:
        raise ValidationError(f"cavity length must be positive and finite, got {cavity_length_si}")
    if not np.isfinite(length_rate_si):
        raise ValidationError(f"length rate must be finite, got {length_rate_si}")
    chi_si = -(omega0_si / cavity_length_si) * length_rate_si
    if not np.isfinite(chi_si):
        raise ValidationError(f"chirp rate {chi_si} s^-2 is out of floating-point range")
    return chi_si


def dimensionless_chi(chi_si: float, gamma_si: float) -> float:
    """Convert a laboratory chirp rate (s^-2) to linewidth units: chi / gamma^2."""
    if not 0 < gamma_si < np.inf:
        raise ValidationError(f"gamma_si must be positive and finite, got {gamma_si}")
    gamma2 = gamma_si * gamma_si
    if not np.finfo(float).tiny <= gamma2 < np.inf:
        raise ValidationError(f"gamma_si^2 = {gamma2} is out of floating-point range")
    chi = chi_si / gamma2
    if not np.isfinite(chi):
        raise ValidationError(f"chi_si / gamma_si^2 = {chi} is out of floating-point range")
    return chi
