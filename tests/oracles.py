"""Independent numerical oracles used to pin library results.

The helpers deliberately avoid the code paths they are meant to check: the
kernel oracle uses QUADPACK's semi-infinite Fourier integrator on the real
axis end to end (the library integrates along the envelope's branch cuts in
the upper half-plane, where nothing oscillates), the convolution oracle never
touches the envelope at all, and the Hankel-magnitude oracle rewrites
|K_0(i y)|^2 as a smooth [0, 1] integral plus a Fourier tail instead of
going through Bessel functions.  The march oracle steps the implicit
trapezoid rule one time point at a time, where the library divides two
power series.

The closed forms at the end are limits of the model that no command needs:
the weak-coupling rates, the large-chirp asymptote of the flat rate, the
Lorentzian spectral density written out on its own, and the static bath
spectrum with its long-time limit.  Each refuses parameters outside the
regime where its approximation holds, so a reference used out of range
fails loudly.
"""

import numpy as np
from scipy.integrate import quad
from scipy.special import k0

from chirped_bath import ValidationError, rabi_frequency

ASYMPTOTIC_MIN_CHI = 10.0
SPECTRUM_GATE_MIN_D = 4.0


def kernel_oracle(tau: float, d: float, chi: float) -> float:
    """Memory kernel at lag tau by direct semi-infinite Fourier quadrature.

    Its range is u = |chi| tau / 2 up to about 60, where it agrees with the
    library to 3e-11 d^2.  From u = 100 on it returns nearly zero: at d = 1,
    chi = 1000, tau = 1 it gives 1.4e-15 against a kernel of -4.74e-4.  Use
    ``kernel_convolution_oracle`` beyond that.
    """
    if tau == 0.0:
        return d * d
    u = abs(chi) * tau / 2.0

    def envelope(x):
        return 1.0 / np.sqrt((1.0 + (x + u) ** 2) * (1.0 + (x - u) ** 2))

    val, _ = quad(envelope, 0.0, np.inf, weight="cos", wvar=tau, limlst=200, limit=400)
    return 2.0 * (d * d / np.pi) * val


def kernel_convolution_oracle(tau: float, d: float, chi: float) -> float:
    """Memory kernel at lag tau > 0 as the Fourier transform of a product.

    The envelope is f(x + u) f(x - u) with f = 1/sqrt(1 + x^2), whose cosine
    transform is 2 K_0(|k|), so

        K(tau) = (2 d^2/pi^2) int K_0(|k|) K_0(|tau - k|) cos(chi tau (k - tau/2)) dk.

    The integrand is even about k = tau/2; in s = k - tau/2 the integral is
    split at the log singularity s = tau/2 (k = tau, mirrored to k = 0) and
    at s = tau/2 + 1.  The two finite pieces go to QUADPACK's cosine-weighted
    QAWO, the infinite one to QAWF, which thus never meets the singularity.
    QAWO's Clenshaw-Curtis rule samples the singular endpoint, so the
    integrand is set to 0 at that single point; bisection then closes in on
    it with Gauss-Kronrod nodes, which never touch an endpoint.  The first
    piece runs in s = h x over x in [0, 1]: over [0, h] itself, at tau =
    5e-13, QUADPACK's error estimate met rounding, raised
    IntegrationWarning and lost 2.4e-15 d^2; scaled, the kernel at (tau,
    chi) = (5e-13, 1e18) and (5e-13, 1e20) agrees with a 40-digit mpmath
    quadrature of the envelope form to 1e-16 d^2.

    It holds to u = |chi| tau / 2 of 5e7 at least; at chi = 1e10, tau = 1 it
    reads -1.3e-12 d^2 where the kernel is -5.2e-11 d^2.
    """
    omega = abs(chi) * tau
    h = 0.5 * tau

    def product(s):
        return 0.0 if s == h else k0(h + s) * k0(abs(h - s))

    def scaled(x):
        return 0.0 if x == 1.0 else k0(h * (1.0 + x)) * k0(h * (1.0 - x))

    near, _ = quad(scaled, 0.0, 1.0, weight="cos", wvar=omega * h, limit=400,
                   epsabs=1e-14, epsrel=1e-12)
    near *= h
    opts = dict(weight="cos", wvar=omega, limit=400)
    mid, _ = quad(product, h, h + 1.0, epsabs=1e-14, epsrel=1e-12, **opts)
    far, _ = quad(product, h + 1.0, np.inf, epsabs=1e-13, limlst=100, **opts)
    return 4.0 * d * d / np.pi**2 * (near + mid + far)


def k0i_abs2_oracle(y: float) -> float:
    """|K_0(i y)|^2 via |integral_0^inf e^{-2iy u^2} / sqrt(u^2+1) du|^2 * 4.

    The [0, 1] piece is smooth and integrated directly; the remainder is
    mapped to a decaying Fourier integral in w = u^2.
    """
    a = 2.0 * y
    re1, _ = quad(
        lambda u: np.cos(a * u * u) / np.sqrt(u * u + 1.0),
        0.0, 1.0, limit=800, epsabs=1e-12, epsrel=1e-12,
    )
    im1, _ = quad(
        lambda u: -np.sin(a * u * u) / np.sqrt(u * u + 1.0),
        0.0, 1.0, limit=800, epsabs=1e-12, epsrel=1e-12,
    )

    def tail(w):
        return 0.5 / np.sqrt(w * (w + 1.0))

    re2, _ = quad(tail, 1.0, np.inf, weight="cos", wvar=a)
    im2, _ = quad(tail, 1.0, np.inf, weight="sin", wvar=a)
    re, im = re1 + re2, im1 - im2
    return 4.0 * (re * re + im * im)


def march_oracle(kernel_values: np.ndarray, h: float, n: int) -> np.ndarray:
    """Implicit-trapezoid product integration of dc/dt = -int_0^t K(t-s) c(s) ds
    with c(0) = 1, one step at a time (O(n^2)); kernel_values[j] = K(j*h)."""
    # rev[n - j] = K(j*h) as complex: each step's convolution sum is one dot.
    rev = kernel_values[::-1].astype(complex)
    c = np.empty(n + 1, dtype=complex)
    c[0] = 1.0
    k0 = kernel_values[0]
    denom = 1.0 + 0.25 * h * h * k0
    # q_here: trapezoid sum of K(t_m - s) c(s) over [0, t_m]; q_next: the
    # same over [0, t_m+1] without its implicit end term 0.5 h K(0) c[m+1].
    q_here = 0.0
    for m in range(n):
        q_next = h * (0.5 * kernel_values[m + 1] * c[0] + np.dot(rev[n - m:n], c[1:m + 1]))
        c[m + 1] = (c[m] - 0.5 * h * (q_here + q_next)) / denom
        q_here = q_next + 0.5 * h * k0 * c[m + 1]
    return c


def weak_gamma_t(t, p):
    """Time-dependent weak-coupling decay rate 2 d^2 (1 - e^{-t})."""
    t = np.asarray(t, dtype=float)
    out = 2.0 * p.d * p.d * (1.0 - np.exp(-t))
    return out if out.ndim else float(out)


def weak_lowchirp_gamma(p):
    """Leading chirp correction to the weak-coupling rate: 2 d^2 (1 - 2 chi^2)."""
    return 2.0 * p.d * p.d * (1.0 - 2.0 * p.chi * p.chi)


def gamma_infinity_asymptotic(p):
    """Large-chirp approximation d^2 [ln(4 chi)]^2 / (pi chi) to gamma_infinity."""
    if p.chi < ASYMPTOTIC_MIN_CHI:
        raise ValidationError(
            f"the large-chirp expansion needs chi >= {ASYMPTOTIC_MIN_CHI}, got {p.chi}"
        )
    return p.d * p.d * np.log(4.0 * p.chi) ** 2 / (np.pi * p.chi)


def structure_function(delta, p):
    """Lorentzian spectral density (d^2/pi)/(1 + delta^2) at detuning ``delta``.

    Its integral over all detunings is d^2, independent of time, because the
    envelope is pinned while the modes slide underneath it.
    """
    delta = np.asarray(delta, dtype=float)
    out = (p.d * p.d / np.pi) / (1.0 + delta * delta)
    return out if out.ndim else float(out)


def static_ck(delta, t, p):
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


def analytic_static_spectrum(delta, t, p):
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


def longtime_spectrum(delta, p):
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
