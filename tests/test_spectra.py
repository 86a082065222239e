"""Bath excitation spectra: numeric series from evolved states, static
analytic forms, closure, and the detached-peak area measure."""

import numpy as np
import pytest
from scipy.integrate import trapezoid

import chirped_bath as cb
import oracles


def _evolved(p, t_end, snap_times, rel_tol=1e-7):
    grid = cb.build_grid(p, t_end)
    snap = np.asarray(snap_times, dtype=float)
    traj = cb.evolve(grid, rel_tol=rel_tol, sample_times=snap, store_modes=True)
    return traj, grid


def test_series_validation():
    with pytest.raises(cb.ValidationError):
        cb.SpectrumSeries(detunings_now=np.array([0.0, 1.0]), values=np.array([1.0]), t=0.0)
    with pytest.raises(cb.ValidationError):
        cb.SpectrumSeries(
            detunings_now=np.array([0.0, 1.0]), values=np.array([1.0, -0.2]), t=0.0
        )
    for x, s in ((0.0, np.nan), (0.0, np.inf), (np.nan, 1.0)):
        with pytest.raises(cb.ValidationError):
            cb.SpectrumSeries(detunings_now=np.array([x, 1.0]), values=np.array([s, 1.0]), t=0.0)


def test_initial_spectrum_is_zero():
    p = cb.ModelParams(d=8.0)
    grid = cb.build_grid(p, 1.0)
    series = cb.numeric_spectrum(np.zeros(grid.size, dtype=complex), 0.0, grid)
    assert not series.values.any()
    assert cb.spectrum_closure(series, 1.0) == pytest.approx(1.0)


def test_numeric_spectrum_rejects_misaligned_state():
    p = cb.ModelParams(d=8.0)
    grid = cb.build_grid(p, 1.0)
    with pytest.raises(cb.ValidationError):
        cb.numeric_spectrum(np.zeros(7, dtype=complex), 0.0, grid)


def test_static_spectrum_symmetric():
    p = cb.ModelParams(d=8.0)
    traj, grid = _evolved(p, 0.5, [0.5])
    series = cb.numeric_spectrum(traj.modes[-1], traj.times[-1], grid)
    assert np.max(np.abs(series.values - series.values[::-1])) < 1e-12


def test_closure_on_evolved_state():
    p = cb.ModelParams(d=8.0)
    traj, grid = _evolved(p, 0.5, [0.5])
    series = cb.numeric_spectrum(traj.modes[-1], traj.times[-1], grid)
    assert abs(cb.spectrum_closure(series, traj.pa[-1]) - 1.0) < 1e-3


def test_chirped_population_drifts_upward():
    """Excitation already dumped into the bath rides the chirp: the center
    of mass of the transferred part climbs at close to chi."""
    chi = 8.4
    p = cb.ModelParams(d=8.0, chi=chi)
    snaps = [1.0, 1.5, 2.0]
    traj, grid = _evolved(p, 2.0, snaps)
    coms = []
    for t, c_modes in zip(traj.times, traj.modes):
        series = cb.numeric_spectrum(c_modes, t, grid)
        sel = series.detunings_now > 3.0 + chi * (t - snaps[0])
        weight = series.values[sel]
        coms.append(np.sum(series.detunings_now[sel] * weight) / np.sum(weight))
    slopes = np.diff(coms) / np.diff(snaps)
    assert coms[0] < coms[1] < coms[2]
    assert np.all(np.abs(slopes / chi - 1.0) < 0.2)


def test_static_ck_starts_empty_and_gates():
    p = cb.ModelParams(d=8.0)
    assert np.max(np.abs(oracles.static_ck(np.linspace(-5.0, 5.0, 11), 0.0, p))) == 0.0
    with pytest.raises(cb.ValidationError):
        oracles.static_ck(0.0, 1.0, cb.ModelParams(d=0.5))


def test_static_ck_peaks_at_half_splitting():
    p = cb.ModelParams(d=8.0)
    om = cb.rabi_frequency(p)
    xs = np.linspace(-12.0, 12.0, 4801)
    amp = np.abs(oracles.static_ck(xs, 60.0, p))
    pos = xs > 0
    assert abs(xs[pos][np.argmax(amp[pos])] - om / 2) < 0.05
    assert abs(xs[~pos][np.argmax(amp[~pos])] + om / 2) < 0.05


def test_static_ck_tracks_dynamics_near_peaks():
    p = cb.ModelParams(d=8.0)
    om = cb.rabi_frequency(p)
    t = 4.0 * np.pi / om
    traj, grid = _evolved(p, t, [t])
    series = cb.numeric_spectrum(traj.modes[-1], traj.times[-1], grid)
    approx = np.abs(oracles.static_ck(grid.detunings, t, p)) ** 2
    near = np.abs(np.abs(grid.detunings) - om / 2) < 1.0
    assert np.max(np.abs(approx[near] / series.values[near] - 1.0)) < 0.10


def test_analytic_static_spectrum_gate():
    with pytest.raises(cb.ValidationError):
        oracles.analytic_static_spectrum(0.0, 1.0, cb.ModelParams(d=2.0))


def test_analytic_spectrum_reaches_longtime_form():
    p = cb.ModelParams(d=8.0)
    xs = np.linspace(-30.0, 30.0, 2001)
    late = oracles.analytic_static_spectrum(xs, 60.0, p)
    assert np.max(np.abs(late - oracles.longtime_spectrum(xs, p))) < 1e-12


def test_longtime_spectrum_carries_all_excitation():
    p = cb.ModelParams(d=8.0)
    xs = np.linspace(-2000.0, 2000.0, 400001)
    assert trapezoid(oracles.longtime_spectrum(xs, p), xs) == pytest.approx(1.0, abs=5e-3)


def test_central_transient_vanishes_on_rabi_nodes():
    """The on-axis transient oscillates as sin^2(Omega t / 2): after whole
    population cycles only the two-peak background remains at delta = 0."""
    p = cb.ModelParams(d=8.0)
    om = cb.rabi_frequency(p)
    t_node = 8.0 * np.pi / om
    s_node = oracles.analytic_static_spectrum(0.0, t_node, p)
    for frac in (0.25, 0.5, 0.75):
        t_off = t_node + frac * 2.0 * np.pi / om
        assert oracles.analytic_static_spectrum(0.0, t_off, p) > s_node


def test_detached_peak_area_synthetic():
    xs = np.linspace(-20.0, 20.0, 2001)
    h = xs[1] - xs[0]
    main = np.exp(-0.5 * (xs + 5.0) ** 2)
    main *= 0.6 / (np.sum(main) * h)
    detached = np.exp(-0.5 * (xs - 10.0) ** 2)
    detached *= 0.4 / (np.sum(detached) * h)
    series = cb.SpectrumSeries(detunings_now=xs, values=main + detached, t=5.0)
    area = cb.detached_peak_area(series, cb.ModelParams(d=8.0))
    assert area == pytest.approx(0.4, rel=0.02)


def test_detached_peak_needs_search_window():
    xs = np.linspace(-1.5, 1.9, 35)
    series = cb.SpectrumSeries(detunings_now=xs, values=np.ones_like(xs), t=1.0)
    with pytest.raises(cb.ValidationError):
        cb.detached_peak_area(series, cb.ModelParams(d=8.0))


def test_snapshots_do_not_follow_rounding_of_rel_tol():
    """A 1e-15 relative change of rel_tol moves no snapshot spectrum by more
    than 1e-12: every step size comes from error estimates far above
    rounding.  (A stepper whose first steps were sized by error estimates
    near rounding moved S by 4.8e-10 here.)"""
    p = cb.ModelParams(d=5.0, chi=120.0)
    times = [0.4, 0.8, 1.2, 1.6]
    a, grid = _evolved(p, 1.6, times, rel_tol=1e-7)
    b, _ = _evolved(p, 1.6, times, rel_tol=1e-7 * (1 + 1e-15))
    for k, t in enumerate(times):
        sa = cb.numeric_spectrum(a.modes[k], t, grid).values
        sb = cb.numeric_spectrum(b.modes[k], t, grid).values
        assert np.max(np.abs(sa - sb)) <= 1e-12
