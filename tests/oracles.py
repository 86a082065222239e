"""Independent numerical oracles used to pin library results.

The helpers deliberately avoid the code paths they are meant to check: the
kernel oracle uses QUADPACK's semi-infinite Fourier integrator end to end
(the library splits at a finite breakpoint, integrates panels by
Gauss-Legendre and attaches an analytic tail), the convolution oracle never
touches the envelope at all, and the Hankel-magnitude oracle rewrites
|K_0(i y)|^2 as a smooth [0, 1] integral plus a Fourier tail instead of
going through Bessel functions.  The march oracle steps the implicit
trapezoid rule one time point at a time, where the library divides two
power series.
"""

import numpy as np
from scipy.integrate import quad
from scipy.special import k0


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
    it with Gauss-Kronrod nodes, which never touch an endpoint.
    """
    omega = abs(chi) * tau
    h = 0.5 * tau

    def product(s):
        return 0.0 if s == h else k0(h + s) * k0(abs(h - s))

    opts = dict(weight="cos", wvar=omega, limit=400)
    near, _ = quad(product, 0.0, h, epsabs=1e-14, epsrel=1e-12, **opts)
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
