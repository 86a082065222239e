"""Observable extraction: regime labels, decay-rate fits, Rabi measurement,
and the SI mirror-motion conversion."""

import numpy as np
import pytest

import chirped_bath as cb


@pytest.mark.parametrize(
    "d,chi,coupling,chirp",
    [
        (8.0, 400.0, "strong", "high"),
        (8.0, 8.4, "strong", "intermediate"),
        (8.0, 2.0, "strong", "low"),
        (2.0, 12.0, "strong", "high"),
        (8.0, 0.0, "strong", "static"),
        (0.2, 123.0, "weak", "not-applicable"),
        (0.5, 5.0, "critical", "not-applicable"),
    ],
)
def test_classify_labels(d, chi, coupling, chirp):
    report = cb.classify(cb.ModelParams(d=d, chi=chi))
    assert report.coupling_class == coupling
    assert report.chirp_class == chirp
    assert (report.xi_value is not None) == (coupling == "strong")


def test_classify_xi_value():
    report = cb.classify(cb.ModelParams(d=8.0, chi=400.0))
    assert report.xi_value == pytest.approx(1600 * np.pi / 255, rel=1e-12)


def test_classify_scale_consistency():
    # chi and Omega^2 scaled by the same factor leave xi untouched
    a = cb.classify(cb.ModelParams(d=2.0, chi=10.0))
    b = cb.classify(cb.ModelParams(d=np.sqrt(61.0) / 2.0, chi=40.0))
    assert a.xi_value == pytest.approx(b.xi_value, rel=1e-12)
    assert a.chirp_class == b.chirp_class


def test_regime_report_invariant():
    with pytest.raises(cb.ValidationError):
        cb.RegimeReport(coupling_class="weak", chirp_class="not-applicable", xi_value=1.0)
    with pytest.raises(cb.ValidationError):
        cb.RegimeReport(coupling_class="strong", chirp_class="low", xi_value=None)


def test_fit_decay_exact_exponential():
    times = np.linspace(0.0, 2.0, 401)
    fit = cb.fit_decay(cb.Trajectory(times=times, pa=np.exp(-3.0 * times)), (0.0, 2.0))
    assert fit.rate == pytest.approx(3.0, abs=1e-6)
    assert fit.rms_residual < 1e-10
    assert not fit.nonexponential


def test_fit_decay_validation():
    times = np.linspace(0.0, 2.0, 401)
    clean = cb.Trajectory(times=times, pa=np.exp(-3.0 * times))
    with pytest.raises(cb.ValidationError):
        cb.fit_decay(clean, (0.0, 0.015))  # four samples only
    dipped = np.exp(-3.0 * times)
    dipped[200] = 0.0
    with pytest.raises(cb.ValidationError):
        cb.fit_decay(cb.Trajectory(times=times, pa=dipped), (0.0, 2.0))


def test_fit_decay_envelope_mode():
    times = np.arange(0.0, 3.0, 1e-3)
    pa = np.exp(-2.0 * times) * (0.9 * np.cos(20.0 * times) ** 2 + 0.1)
    fit = cb.fit_decay(cb.Trajectory(times=times, pa=pa), (0.0, 3.0), envelope=True)
    assert fit.rate == pytest.approx(2.0, rel=0.02)


def test_fit_decay_flags_nonexponential():
    times = np.linspace(0.0, 6.0, 1201)
    pa = np.exp(-times + 1.2 * np.sin(3.0 * times) - 2.0)
    fit = cb.fit_decay(cb.Trajectory(times=times, pa=pa), (0.0, 6.0))
    assert fit.rms_residual > 0.5
    assert fit.nonexponential
    assert np.isfinite(fit.rate)


@pytest.mark.parametrize("d,chi", [(8.0, 400.0), (2.0, 100.0)])
def test_fit_recovers_flat_rate(d, chi):
    p = cb.ModelParams(d=d, chi=chi)
    times = np.linspace(0.0, 1.0, 201)
    traj = cb.Trajectory(times=times, pa=np.abs(cb.markovian_ca(times, p)) ** 2)
    fit = cb.fit_decay(traj, (0.0, 1.0))
    assert abs(fit.rate / cb.gamma_infinity(p) - 1.0) < 1e-6


def test_extract_rabi_synthetic():
    om = 15.97
    times = np.arange(0.0, 3.0, 1e-3)
    pa = np.exp(-times) * np.cos(om * times / 2.0) ** 2
    measured = cb.extract_rabi(cb.Trajectory(times=times, pa=pa))
    assert measured.omega == pytest.approx(om, rel=5e-3)
    assert 0.0 <= measured.uncertainty < 0.1


def test_extract_rabi_needs_three_minima():
    times = np.arange(0.0, 0.5, 1e-3)
    pa = np.exp(-times) * np.cos(15.97 * times / 2.0) ** 2
    with pytest.raises(cb.ValidationError):
        cb.extract_rabi(cb.Trajectory(times=times, pa=pa))


def test_extract_rabi_from_simulation():
    p = cb.ModelParams(d=8.0)
    grid = cb.build_grid(p, 1.0)
    traj = cb.evolve(grid)
    measured = cb.extract_rabi(traj)
    assert measured.omega == pytest.approx(np.sqrt(255.0), rel=0.01)


def test_mirror_chirp_conversion():
    omega0 = 2.0 * np.pi * 3.5e14
    chi = cb.mirror_chirp(omega0, 0.01, -0.1)
    assert chi == pytest.approx(omega0 * 0.1 / 0.01, rel=1e-12)
    assert chi == pytest.approx(2.2e16, rel=5e-3)
    assert cb.mirror_chirp(omega0, 0.01, -0.65) == pytest.approx(6.5 * chi, rel=1e-12)
    assert cb.mirror_chirp(omega0, 0.01, 0.0) == 0.0
    with pytest.raises(cb.ValidationError):
        cb.mirror_chirp(omega0, 0.0, -0.1)


def test_dimensionless_chi_round_trip():
    gamma = 2.0 * np.pi * 4.1e6
    chi_si = 2.199e16
    chi = cb.dimensionless_chi(chi_si, gamma)
    assert chi * gamma**2 == pytest.approx(chi_si, rel=1e-12)
    with pytest.raises(cb.ValidationError):
        cb.dimensionless_chi(chi_si, 0.0)
    with pytest.raises(cb.ValidationError):
        cb.dimensionless_chi(chi_si, np.inf)
