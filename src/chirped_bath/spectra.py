"""Bath excitation spectra.

The spectrum S is the mode population per unit frequency, |c_k|^2 / spacing,
reported against instantaneous detuning delta + chi * t so that the resonance
window stays put while the bath slides.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .model import BathGrid, ModelParams, rabi_frequency

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
        if not np.all(np.isfinite(x)):
            raise ValidationError("detunings must be finite")
        if not np.all((s >= 0.0) & (s < np.inf)):
            raise ValidationError("spectrum values must be finite and non-negative")
        object.__setattr__(self, "detunings_now", x)
        object.__setattr__(self, "values", s)


def numeric_spectrum(c_modes, t: float, grid: BathGrid) -> SpectrumSeries:
    """Spectrum of the mode amplitudes ``c_modes`` at time ``t``:
    S_k = |c_k|^2 / spacing at delta_k + chi*t."""
    c = np.asarray(c_modes)
    if c.size != grid.size:
        raise ValidationError(
            f"{c.size} mode amplitudes given but the grid has {grid.size}"
        )
    values = np.abs(c) ** 2 / grid.spacing
    return SpectrumSeries(detunings_now=grid.detunings + grid.p.chi * t, values=values, t=t)


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
