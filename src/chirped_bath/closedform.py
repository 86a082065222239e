"""Closed-form solutions and limits: the exact static strong-coupling
amplitude, the damped pseudomode pair (propagated exactly by a matrix
exponential), weak-coupling rates, the high-chirp Markovian rate built on
|K_0(i y)|^2, its large-chirp asymptote, and the low-chirp perturbed Rabi
frequency.

The Bessel pair J_0/Y_0 comes from ``scipy.special``; the acceptance suite
checks |K_0(i y)|^2 built from it against direct quadrature.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import expm
from scipy.special import j0, y0

from .dynamics import DEFAULT_SAMPLE_EVERY, Trajectory, _sample_times
from .errors import ValidationError
from .model import ModelParams, rabi_frequency, xi

PERTURBED_RABI_MIN_D = 4.0
PERTURBED_RABI_MAX_XI = 0.2
ASYMPTOTIC_MIN_CHI = 10.0


def static_exact_ca(t, p: ModelParams):
    """Exact emitter amplitude for the static bath at strong coupling:
    e^{-t/2} [cos(Omega t / 2) + sin(Omega t / 2) / Omega]."""
    om = rabi_frequency(p)
    t = np.asarray(t, dtype=float)
    out = np.exp(-0.5 * t) * (np.cos(0.5 * om * t) + np.sin(0.5 * om * t) / om)
    return out if out.ndim else float(out)


def pseudomode_solve(p: ModelParams, t_end: float) -> Trajectory:
    """Propagate the two-amplitude pseudomode pair for the static bath:
    dc_a/dt = -i d b,  db/dt = -i d c_a - b.

    The pair has constant coefficients, so it is advanced exactly by the
    matrix exponential of its generator: one exp(G h) for the sample spacing
    h, applied from sample to sample, and one more for the last interval,
    which ends at t_end. ``expm`` stays exact at the critical point d = 1/2,
    where the generator is defective. The result is accurate to rounding
    (about 1e-13). The sample times are those of the discrete-bath route.

    Valid only for chi = 0 (the pair represents the static Lorentzian
    memory exactly); any chirp is rejected rather than extrapolated.
    """
    if p.chi != 0.0:
        raise ValidationError(
            f"the pseudomode pair is exact only for a static bath; got chi = {p.chi}"
        )
    if not 0 < t_end < np.inf:
        raise ValidationError(f"t_end must be positive and finite, got {t_end}")
    gen = np.array([[0.0, -1j * p.d], [-1j * p.d, -1.0]])
    times = _sample_times(t_end, DEFAULT_SAMPLE_EVERY)
    step = expm(gen * DEFAULT_SAMPLE_EVERY)
    samples = np.empty((times.size, 2), dtype=complex)
    samples[0] = (1.0, 0.0)
    for i in range(1, times.size - 1):
        samples[i] = step @ samples[i - 1]
    samples[-1] = expm(gen * (times[-1] - times[-2])) @ samples[-2]
    return Trajectory(times=times, pa=np.abs(samples[:, 0]) ** 2)


def weak_gamma_t(t, p: ModelParams):
    """Time-dependent weak-coupling decay rate 2 d^2 (1 - e^{-t})."""
    t = np.asarray(t, dtype=float)
    out = 2.0 * p.d * p.d * (1.0 - np.exp(-t))
    return out if out.ndim else float(out)


def bessel_k0i_abs2(y: float) -> float:
    """|K_0(i y)|^2 = (pi^2/4)(J_0(y)^2 + Y_0(y)^2) for y > 0."""
    y = float(y)
    if y <= 0:
        raise ValidationError(f"bessel_k0i_abs2 requires y > 0, got {y}")
    return float(0.25 * np.pi**2 * (j0(y) ** 2 + y0(y) ** 2))


def gamma_infinity(p: ModelParams) -> float:
    """Asymptotic Markovian decay rate under chirp:
    2 d^2 * [2 |K_0(i/x)|^2 / (pi x)] with x = 4 chi.

    Strictly positive and monotonically decreasing in chi; the chi -> 0
    limit is the static weak-coupling rate 2 d^2.
    """
    if not p.chi > 0:
        raise ValidationError(
            f"gamma_infinity requires chi > 0 (the static limit is 2 d^2), got chi = {p.chi}"
        )
    x = 4.0 * p.chi
    return 2.0 * p.d * p.d * (2.0 * bessel_k0i_abs2(1.0 / x) / (np.pi * x))


def gamma_infinity_asymptotic(p: ModelParams) -> float:
    """Large-chirp approximation d^2 [ln(4 chi)]^2 / (pi chi)."""
    if p.chi < ASYMPTOTIC_MIN_CHI:
        raise ValidationError(
            f"the large-chirp expansion needs chi >= {ASYMPTOTIC_MIN_CHI}, got {p.chi}"
        )
    return p.d * p.d * np.log(4.0 * p.chi) ** 2 / (np.pi * p.chi)


def markovian_ca(t, p: ModelParams):
    """High-chirp emitter amplitude exp(-gamma_infinity * t / 2)."""
    rate = gamma_infinity(p)
    t = np.asarray(t, dtype=float)
    out = np.exp(-0.5 * rate * t)
    return out if out.ndim else float(out)


def perturbed_rabi(p: ModelParams) -> tuple[float, float]:
    """Low-chirp corrected Rabi frequency and largest accumulated phase:
    Omega' = Omega (1 + chi^2 / (4 Omega^2)), Delta_Phi = chi^2 / (4 Omega).

    Gated to the regime where the perturbation applies (d >= 4, xi <= 0.2).
    """
    if p.d < PERTURBED_RABI_MIN_D:
        raise ValidationError(
            f"perturbed_rabi needs d >= {PERTURBED_RABI_MIN_D} (got d = {p.d})"
        )
    x = xi(p)
    if abs(x) > PERTURBED_RABI_MAX_XI:
        raise ValidationError(
            f"perturbed_rabi needs |xi| <= {PERTURBED_RABI_MAX_XI} (got xi = {x:.4f})"
        )
    om = rabi_frequency(p)
    correction = p.chi * p.chi / (4.0 * om * om)
    return om * (1.0 + correction), correction * om


def weak_lowchirp_gamma(p: ModelParams) -> float:
    """Leading chirp correction to the weak-coupling rate: 2 d^2 (1 - 2 chi^2)."""
    return 2.0 * p.d * p.d * (1.0 - 2.0 * p.chi * p.chi)
