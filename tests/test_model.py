"""Envelope, grid policy, and memory kernel of the chirped Lorentzian bath."""

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import k0

from chirped_bath import (
    BathGrid,
    ModelParams,
    ValidationError,
    build_grid,
    coupling,
    memory_kernel,
    rabi_frequency,
    xi,
)
from oracles import kernel_convolution_oracle, kernel_oracle, structure_function


# Detunings of a grid wider than any built one, of spacing WIDE_SPACING.
WIDE_SPACING = 0.02
WIDE = WIDE_SPACING * np.arange(-15000, 15001)


def test_params_validation():
    with pytest.raises(ValidationError):
        ModelParams(d=0.0)
    with pytest.raises(ValidationError):
        ModelParams(d=-1.0)
    ModelParams(d=1.0, chi=-5.0)  # negative chirp is a legitimate sweep direction


def test_structure_function_peak_and_halfwidth():
    p = ModelParams(d=1.0)
    assert structure_function(0.0, p) == pytest.approx(1.0 / np.pi, rel=1e-12)
    assert structure_function(1.0, p) == pytest.approx(1.0 / (2.0 * np.pi), rel=1e-12)
    assert structure_function(-3.7, p) == structure_function(3.7, p)


def test_structure_function_normalization():
    """The envelope integrates to d^2 over a wide window."""
    p = ModelParams(d=8.0)
    total, _ = quad(lambda w: structure_function(w, p), -1e4, 1e4, points=[0.0], limit=200)
    assert abs(total - 64.0) / 64.0 < 1e-3


def test_coupling_envelope_value():
    p = ModelParams(d=8.0)
    grid = build_grid(p, 1.0)
    g0 = coupling(0.0, grid.spacing, p)
    assert g0 == pytest.approx(np.sqrt(0.1 * 64.0 / np.pi), rel=1e-12)
    assert g0 == pytest.approx(1.4273, abs=1e-4)


def test_coupling_follows_structure_function():
    """g^2 / spacing is the Lorentzian density at every instantaneous
    detuning, against the oracle's own copy of the formula."""
    p = ModelParams(d=3.0)
    inst = np.linspace(-500.0, 500.0, 2001)
    g = coupling(inst, 0.1, p)
    assert np.max(np.abs(g * g / 0.1 / structure_function(inst, p) - 1.0)) < 1e-14


def test_coupling_sum_rule_time_independent():
    """Sum of g_k^2 over a wide fine grid reproduces d^2 at any instant;
    the Lorentzian tail outside +-300 carries only ~2 d^2/(300 pi)."""
    p = ModelParams(d=8.0, chi=20.0)
    for t in (0.0, 0.7):
        total = np.sum(coupling(WIDE + p.chi * t, WIDE_SPACING, p) ** 2)
        assert abs(total - 64.0) / 64.0 < 5e-3


def test_coupling_resonant_mode_is_maximal():
    p = ModelParams(d=8.0, chi=20.0)
    g = coupling(WIDE + p.chi * 0.7, WIDE_SPACING, p)
    assert np.argmax(g) == np.argmin(np.abs(WIDE + 20.0 * 0.7))


def test_coupling_translation_covariance():
    # only the combination delta0 + chi*t enters: the mode that starts at
    # -14 has, at t = 0.7, the coupling of the resonant mode at t = 0
    p = ModelParams(d=8.0, chi=20.0)
    assert coupling(-14.0 + p.chi * 0.7, WIDE_SPACING, p) == pytest.approx(
        coupling(0.0, WIDE_SPACING, p), rel=1e-9
    )


def test_grid_validation():
    for spacing in (np.nan, np.inf, 0.0, -0.1):
        with pytest.raises(ValidationError, match="spacing"):
            BathGrid(ModelParams(d=0.2), 1.0, spacing)
    grid = build_grid(ModelParams(d=0.2), 1.0)
    with pytest.raises(ValueError):
        grid.detunings[0] = -99.0


def test_grid_policy_windows():
    """Strong coupling widens the window beyond the Rabi sidebands; a
    positive chirp deepens the low-frequency wing so every mode that will
    reach resonance exists from the start."""
    grid = build_grid(ModelParams(d=8.0), 1.0)
    assert grid.window[0] == pytest.approx(-48.0, abs=1e-9)
    assert grid.window[1] == pytest.approx(48.0, abs=1e-9)
    assert grid.size == 961
    assert grid.spacing == pytest.approx(0.1)

    up = build_grid(ModelParams(d=8.0, chi=400.0), 1.0)
    assert up.window[0] == pytest.approx(-448.0, abs=1e-9)
    assert up.window[1] == pytest.approx(48.0, abs=1e-9)

    down = build_grid(ModelParams(d=8.0, chi=-400.0), 1.0)
    assert down.window[0] == pytest.approx(-48.0, abs=1e-9)
    assert down.window[1] == pytest.approx(448.0, abs=1e-9)

    weak = build_grid(ModelParams(d=0.2), 5.0)
    assert weak.window == pytest.approx((-10.0, 10.0), abs=1e-9)
    assert weak.size == 201


def test_grid_mode_cap():
    with pytest.raises(ValidationError):
        build_grid(ModelParams(d=8.0, chi=1e6), 2.0)


@pytest.mark.parametrize("t", [0.0, 0.3, 2.0])
def test_kernel_equal_times(t):
    # equal times t = t' mean zero lag, where K(0) = d^2 whatever the chirp
    p = ModelParams(d=8.0, chi=400.0)
    assert memory_kernel(t - t, p) == pytest.approx(64.0 + 0.0j, abs=1e-10)


def test_kernel_static_reduction():
    p = ModelParams(d=1.0)
    assert memory_kernel(1.0, p) == pytest.approx(np.exp(-1.0), abs=1e-9)
    for tau in np.linspace(0.0, 20.0, 41):
        assert abs(memory_kernel(tau, p) - np.exp(-tau)) < 1e-6


def test_kernel_collapses_under_fast_chirp():
    # by the time chi*(t - t') ~ 1 the kernel has lost most of K(0) = d^2
    p = ModelParams(d=8.0, chi=400.0)
    assert abs(memory_kernel(0.05, p)) < 0.2 * 64.0


def test_kernel_even_in_lag():
    p = ModelParams(d=8.0, chi=400.0)
    assert memory_kernel(-0.2, p) == pytest.approx(memory_kernel(0.2, p), rel=1e-12)


def test_kernel_rejects_non_finite_lag():
    for tau in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValidationError):
            memory_kernel(tau, ModelParams(d=1.0))


@pytest.mark.parametrize(
    "tau,d,chi",
    [
        (0.5, 1.0, 0.0),
        (0.05, 8.0, 400.0),
        (0.3, 8.0, 20.0),
        (1.0, 8.0, 8.4),
        (2.0, 2.0, 30.0),
    ],
)
def test_kernel_matches_fourier_quadrature(tau, d, chi):
    """Cross-check against the independent semi-infinite cosine-weighted
    quadrature in oracles.py."""
    val = memory_kernel(tau, ModelParams(d=d, chi=chi))
    assert abs(val - kernel_oracle(tau, d, chi)) < 1e-7


@pytest.mark.parametrize(
    "tau,chi",
    [
        (0.5, 1e4), (0.5, 1e5), (1.0, 1e4), (1.0, 1e5),
        (5e-13, 1e18), (5e-13, 1e20), (1e-3, 1e8), (1.0, 1e8),
    ],
)
def test_kernel_large_chirp_matches_convolution_form(tau, chi):
    """Large chirps, u = |chi| tau / 2 from 2.5e3 to 5e7.  The kernel is then
    a small remainder of d^2 (4.7e-7 d^2 at tau = 5e-13, chi = 1e20), so a
    lag near zero must not be taken for zero lag.  The convolution form
    shares no step with the library's kernel."""
    d = 2.0
    val = memory_kernel(tau, ModelParams(d=d, chi=chi))
    assert abs(val - kernel_convolution_oracle(tau, d, chi)) < 1e-12 * d * d


@pytest.mark.parametrize("tau,chi", [(1.0, 1e10), (0.3, 1e11), (1.0, 1e12)])
def test_kernel_huge_chirp_matches_asymptotic_form(tau, chi):
    """For u = |chi| tau / 2 >> 1 the kernel tends to
    (2 d^2 / (pi u)) K_0(tau) cos(u tau), with a relative correction of
    order 1/u.  QUADPACK's oracles lose these 1e-11 d^2 kernels (the
    convolution form reads -1.3e-12 d^2 for -5.2e-11 d^2 at chi = 1e10)."""
    d = 2.0
    u = 0.5 * chi * tau
    val = memory_kernel(tau, ModelParams(d=d, chi=chi))
    assert abs(val - 2.0 * d * d / (np.pi * u) * k0(tau) * np.cos(u * tau)) < 1e-19 * d * d


@pytest.mark.parametrize("chi", [2.6, 30.0, 71.0])
@pytest.mark.parametrize("tau", [5e-4, 1e-3, 2e-3])
def test_kernel_small_lag_matches_convolution_form(tau, chi):
    """At lags of a few 1e-3 the cosine turns slowly, so the tail beyond the
    cut is a sizeable part of the kernel: it must be integrated to rounding,
    not cut off after the x^-4 term of its expansion."""
    d = 2.0
    val = memory_kernel(tau, ModelParams(d=d, chi=chi))
    assert abs(val - kernel_convolution_oracle(tau, d, chi)) < 1e-13 * d * d


def test_kernel_of_lag_array_matches_scalar_calls():
    """An array of lags gives each lag's scalar value, although the array
    sums every lag over as many cut nodes as its widest lag needs."""
    p = ModelParams(d=3.0, chi=60.0)
    lags = np.concatenate([[-0.2, 0.0], np.linspace(1e-3, 2.0, 400)])
    values = memory_kernel(lags, p)
    assert values.shape == lags.shape
    for lag, value in zip(lags, values):
        assert abs(value - memory_kernel(lag, p)) < 1e-14 * p.d**2


def test_rabi_frequency():
    assert rabi_frequency(ModelParams(d=8.0)) == pytest.approx(np.sqrt(255.0), rel=1e-14)
    assert rabi_frequency(ModelParams(d=2.0)) == pytest.approx(np.sqrt(15.0), rel=1e-14)
    with pytest.raises(ValidationError):
        rabi_frequency(ModelParams(d=0.5))


def test_xi_values():
    assert xi(ModelParams(d=8.0, chi=400.0)) == pytest.approx(1600 * np.pi / 255, rel=1e-14)
    assert xi(ModelParams(d=8.0, chi=8.4)) == pytest.approx(0.41395, abs=1e-5)
    assert xi(ModelParams(d=8.0, chi=2.0)) == pytest.approx(0.098560, abs=1e-5)
    with pytest.raises(ValidationError):
        xi(ModelParams(d=0.4, chi=1.0))


def test_build_grid_unchanged_by_snap():
    """A built grid, the progression det_0 + spacing * j that the RHS phase
    table assumes, differs from spacing * arange(-n_low, n_high + 1) by
    rounding alone."""
    for p, horizon in ((ModelParams(d=8.0), 1.0), (ModelParams(d=2.0, chi=-50.0), 3.0)):
        grid = build_grid(p, horizon)
        n_low = round(-grid.window[0] / grid.spacing)
        unsnapped = grid.spacing * np.arange(-n_low, grid.size - n_low)
        assert np.max(np.abs(grid.detunings - unsnapped)) <= 4e-16 * np.max(np.abs(unsnapped))
