"""Bath excitation spectra.

The spectrum S is the mode population per unit frequency, |c_k|^2 / spacing,
reported against instantaneous detuning delta + chi * t so that the resonance
window stays put while the bath slides.  The static strong-coupling amplitude
and its long-time two-Lorentzian limit are available in closed form for
cross-checks against the evolved states.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .model import BathGrid, ModelParams, rabi_frequency, structure_function

SPECTRUM_GATE_MIN_D = 4.0

# The detached high-chirp feature sits above the upper Rabi peak; the search
# window for the valley separating it from the resonant lobes starts past the
# linewidth-scale shoulder at delta_now = 2.
_VALLEY_SEARCH_LOW = 2.0


@dataclass(frozen=True)
class SpectrumSeries:
    """Spectrum snapshot on the instantaneous-detuning axis."""

    detunings_now: np.ndarray
    values: np.ndarray
    t: float

    def __post_init__(self) -> None:
        x = np.asarray(self.detunings_now, dtype=float)
        s = np.asarray(self.values, dtype=float)
        if x.shape != s.shape or x.ndim != 1:
            raise ValidationError(
                f"detunings and values must be matching 1-d arrays, got {x.shape} vs {s.shape}"
            )
        if s.size and s.min() < 0.0:
            raise ValidationError(f"spectrum values must be non-negative, min = {s.min()}")
        object.__setattr__(self, "detunings_now", x)
        object.__setattr__(self, "values", s)


def numeric_spectrum(c_modes, t: float, grid: BathGrid, p: ModelParams) -> SpectrumSeries:
    """Spectrum of the mode amplitudes ``c_modes`` at time ``t``:
    S_k = |c_k|^2 / spacing at delta_k + chi*t."""
    c = np.asarray(c_modes)
    if c.size != grid.size:
        raise ValidationError(
            f"{c.size} mode amplitudes given but the grid has {grid.size}"
        )
    values = np.abs(c) ** 2 / grid.spacing
    return SpectrumSeries(detunings_now=grid.detunings + p.chi * t, values=values, t=t)


def static_ck(delta, t: float, p: ModelParams):
    """Static strong-coupling mode amplitude, continuum normalized so that
    |static_ck|^2 is directly the spectrum S(delta, t).

    Builds on c_a ~ e^{-t/2} cos(Omega t / 2): each half of the cosine drives
    the mode at delta -/+ Omega/2 with linewidth 1/2.
    """
    if not p.d > 0.5:
        raise ValidationError(f"static_ck needs strong coupling d > 1/2, got d = {p.d}")
    om = rabi_frequency(p)
    delta = np.asarray(delta, dtype=float)
    g_bar = np.sqrt(structure_function(delta, p))
    out = np.zeros(delta.shape, dtype=complex)
    for sign in (+1.0, -1.0):
        z = delta - sign * 0.5 * om + 0.5j
        out += (np.exp(1j * z * t) - 1.0) / z
    out *= -0.5 * g_bar
    return out if out.ndim else complex(out)


def analytic_static_spectrum(delta, t: float, p: ModelParams):
    """Static spectrum in the deep strong-coupling limit: two Lorentzians at
    +/- Omega/2 with transient interference factors, plus a central term
    proportional to e^{-t} sin^2(Omega t / 2) that dies with the emitter.
    """
    if p.d < SPECTRUM_GATE_MIN_D:
        raise ValidationError(
            f"the simplified spectrum needs d >= {SPECTRUM_GATE_MIN_D}, got d = {p.d}"
        )
    om = rabi_frequency(p)
    delta = np.asarray(delta, dtype=float)
    out = np.zeros(delta.shape, dtype=float)
    for sign in (+1.0, -1.0):
        x = delta - sign * 0.5 * om
        lorentz = 0.5 / (2.0 * np.pi * (x * x + 0.25))
        out += lorentz * (1.0 + np.exp(-t) - 2.0 * np.exp(-0.5 * t) * np.cos(x * t))
    out += np.exp(-t) * np.sin(0.5 * om * t) ** 2 / (np.pi * (delta * delta + 1.0))
    return out if out.ndim else float(out)


def longtime_spectrum(delta, p: ModelParams):
    """Long-time limit of the static spectrum: half the excitation in each of
    two width-1/2 Lorentzians at +/- Omega/2 (integrates to 1 over delta)."""
    if p.d < SPECTRUM_GATE_MIN_D:
        raise ValidationError(
            f"the simplified spectrum needs d >= {SPECTRUM_GATE_MIN_D}, got d = {p.d}"
        )
    om = rabi_frequency(p)
    delta = np.asarray(delta, dtype=float)
    out = np.zeros(delta.shape, dtype=float)
    for sign in (+1.0, -1.0):
        x = delta - sign * 0.5 * om
        out += 0.5 / (2.0 * np.pi * (x * x + 0.25))
    return out if out.ndim else float(out)


def spectrum_closure(series: SpectrumSeries, pa: float) -> float:
    """Emitter population ``pa`` plus the trapezoidal integral of S; 1 up to
    grid truncation."""
    return pa + float(np.trapezoid(series.values, series.detunings_now))


def detached_peak_area(series: SpectrumSeries, p: ModelParams) -> float:
    """Area of the high-frequency feature that detaches from the Rabi lobes
    under chirp, measured from the spectral valley between them.

    The valley is located as the minimum of S on instantaneous detunings in
    [2, Omega]; everything above it counts as the detached peak.
    """
    om = rabi_frequency(p)
    x = series.detunings_now
    window = (x >= _VALLEY_SEARCH_LOW) & (x <= om)
    if not np.any(window):
        raise ValidationError(
            "no grid points in the valley search window; spectrum does not "
            "extend past the upper Rabi lobe"
        )
    idx = np.flatnonzero(window)
    valley = idx[np.argmin(series.values[idx])]
    spacing = float(np.median(np.diff(x)))
    return float(np.sum(series.values[valley:]) * spacing)
