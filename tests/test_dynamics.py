"""Direct integration of the coupled amplitude equations: accuracy,
unitarity bookkeeping, sampling controls, and horizon guards."""

import inspect
import time
import tracemalloc

import numpy as np
import pytest

import chirped_bath as cb
from chirped_bath import dynamics

# The tolerance every command runs at: evolve's default.
REL_TOL = inspect.signature(cb.evolve).parameters["rel_tol"].default


def _run(p, t_end, **kw):
    grid = cb.build_grid(p, t_end)
    return cb.evolve(grid, **kw), grid


def test_starts_excited_with_empty_bath():
    traj, _ = _run(cb.ModelParams(d=0.2), 1.0, sample_times=np.array([0.0, 0.5]), store_modes=True)
    assert traj.pa[0] == 1.0
    assert not traj.modes[0].any()
    assert traj.norms[0] == 1.0


def test_integrator_config_validation():
    p = cb.ModelParams(d=0.2)
    grid = cb.build_grid(p, 0.1)
    with pytest.raises(cb.ValidationError):
        cb.evolve(grid, rel_tol=0.0)
    with pytest.raises(cb.ValidationError):
        cb.evolve(grid, sample_every=-1e-3)


def test_trajectory_validation():
    with pytest.raises(cb.ValidationError):
        cb.Trajectory(times=np.array([0.0, 1.0]), pa=np.array([1.0]))
    with pytest.raises(cb.ValidationError):
        cb.Trajectory(times=np.array([0.0, 0.0]), pa=np.array([1.0, 1.0]))
    with pytest.raises(cb.ValidationError):
        cb.Trajectory(times=np.array([0.0, 1.0]), pa=np.array([0.5, 1.5]))
    with pytest.raises(cb.ValidationError):
        cb.Trajectory(
            times=np.array([0.0, 1.0]), pa=np.array([1.0, 0.5]), norms=np.array([1.0])
        )
    with pytest.raises(cb.ValidationError):
        cb.Trajectory(times=np.array([0.0, 1.0, 2.0]), pa=np.array([1.0, np.nan, 0.5]))
    for times in ([0.0, np.nan, 2.0], [0.0, 1.0, np.inf]):
        with pytest.raises(cb.ValidationError):
            cb.Trajectory(times=np.array(times), pa=np.array([1.0, 0.8, 0.5]))
    with pytest.raises(cb.ValidationError):
        cb.Trajectory(
            times=np.array([0.0, 1.0]), pa=np.array([1.0, 0.5]), norms=np.array([1.0, np.nan])
        )


def test_static_run_matches_exact_solution():
    p = cb.ModelParams(d=2.0)
    traj, _ = _run(p, 1.0)
    exact = np.abs(cb.static_exact_ca(traj.times, p)) ** 2
    assert np.max(np.abs(traj.pa - exact)) < 1e-3


def test_mode_density_refinement_converged():
    """Doubling modes_per_gamma moves pa by far less than the default
    grid's own discretization budget."""
    p = cb.ModelParams(d=2.0, chi=3.0)
    coarse_grid = cb.build_grid(p, 0.5, modes_per_gamma=10.0)
    fine_grid = cb.build_grid(p, 0.5, modes_per_gamma=20.0)
    coarse = cb.evolve(coarse_grid)
    fine = cb.evolve(fine_grid)
    assert np.max(np.abs(coarse.pa - fine.pa)) < 1e-3


def test_decoupled_limit_stays_excited():
    traj, _ = _run(cb.ModelParams(d=1e-8), 1.0)
    assert np.max(np.abs(traj.pa - 1.0)) < 1e-10
    assert np.max(np.abs(traj.norms - 1.0)) < 1e-10


def test_default_sampling_cadence():
    traj, _ = _run(cb.ModelParams(d=0.2), 0.25)
    assert traj.times[0] == 0.0
    assert traj.times[-1] == pytest.approx(0.25)
    assert np.allclose(np.diff(traj.times), 1e-3)
    assert traj.norms is not None
    assert np.max(np.abs(traj.norms - 1.0)) < 1e-6


def test_explicit_sample_times():
    p = cb.ModelParams(d=0.2)
    grid = cb.build_grid(p, 1.0)
    want = np.array([0.1, 0.25, 0.9])
    traj = cb.evolve(grid, sample_times=want)
    assert np.array_equal(traj.times, want)
    with pytest.raises(cb.ValidationError):
        cb.evolve(grid, sample_times=np.array([0.5, 0.2]))
    with pytest.raises(cb.ValidationError):
        cb.evolve(grid, sample_times=np.array([0.5, 2.0]))
    # 7000 samples of a 10201-mode grid's amplitudes would take 1.1 GiB
    fast = cb.ModelParams(d=0.2, chi=1000.0)
    wide = cb.build_grid(fast, 1.0)
    assert wide.size == 10201
    with pytest.raises(cb.ValidationError, match="sample-every"):
        cb.evolve(wide, sample_times=np.linspace(0.01, 1.0, 7000), store_modes=True)


def test_sample_limit_counts_only_the_kept_columns(monkeypatch):
    """Without mode amplitudes a sample keeps c_a and the norm alone, so
    1e4 samples of a 95 971-mode grid take 320 KB and run; with them they
    would take 14.3 GiB and are refused before any step."""
    grid = cb.build_grid(cb.ModelParams(d=8.0), 1.0, modes_per_gamma=1000.0)
    assert grid.size == 95971

    def integrate(rhs, t0, y0, sample_times, rel_tol, *, keep, max_step):
        return np.ones((sample_times.size, 2 + (y0.size - 1 if keep else 0)), dtype=complex), 0

    monkeypatch.setattr(dynamics._rk, "integrate", integrate)
    assert cb.evolve(grid, sample_every=1e-4).times.size == 10001
    with pytest.raises(cb.ValidationError, match=r"14\.3 GiB.*sample-every"):
        cb.evolve(grid, sample_every=1e-4, store_modes=True)


def test_horizon_coverage_guard():
    """A grid holds the modes that reach resonance up to its own horizon,
    and evolve runs to that horizon, no further: a longer run needs a grid
    built for it, whose inflow wing is wider by chi times the extra time."""
    p = cb.ModelParams(d=2.0, chi=20.0)
    grid = cb.build_grid(p, 1.0)
    assert cb.evolve(grid).times[-1] == grid.horizon == 1.0
    assert cb.evolve(grid, sample_every=0.3).times[-1] == 1.0
    longer = cb.build_grid(p, 2.0)
    assert longer.window[0] == pytest.approx(grid.window[0] - 20.0, abs=1e-9)
    assert longer.window[1] == grid.window[1]


def test_recurrence_horizon_guard():
    """A grid of spacing 1/modes_per_gamma revives at 2 pi modes_per_gamma;
    horizons beyond half of that are refused when the grid is built."""
    p = cb.ModelParams(d=0.2)
    with pytest.raises(cb.ValidationError, match="modes-per-gamma"):
        cb.build_grid(p, 70.0)
    with pytest.raises(cb.ValidationError, match="modes-per-gamma"):
        cb.BathGrid(p, 40.0, 0.1)
    assert cb.build_grid(p, 70.0, modes_per_gamma=30.0).spacing == pytest.approx(1 / 30)


def test_norm_drift_checked_at_every_sample(monkeypatch):
    """A norm excursion at a middle sample fails the run even when the last
    sample is back within budget."""
    integrate = dynamics._rk.integrate

    def bumped(*args, **kwargs):
        samples, n_steps = integrate(*args, **kwargs)
        samples[samples.shape[0] // 2] *= 1.0 + 1e-3
        return samples, n_steps

    monkeypatch.setattr(dynamics._rk, "integrate", bumped)
    with pytest.raises(cb.SolverError):
        _run(cb.ModelParams(d=0.2), 0.5)


@pytest.mark.parametrize("rel_tol", [1e-10, 1e-11])
def test_tight_tolerance_tightens_the_norm(rel_tol):
    """Below the default tolerance the norm drift stays well inside evolve's
    budget: the propagator is unitary, so the norm moves by rounding alone.  (A stepper whose norm held only through its error
    control, with a fixed absolute error floor, drifted 2.5e-9 here.)"""
    traj, _ = _run(cb.ModelParams(d=8.0), 2.0, rel_tol=rel_tol)
    assert np.max(np.abs(traj.norms - 1.0)) <= rel_tol * 2.0


def test_t_end_must_advance():
    p = cb.ModelParams(d=0.2)
    for horizon in (0.0, -1.0, np.nan, np.inf):
        with pytest.raises(cb.ValidationError, match="horizon"):
            cb.build_grid(p, horizon)


def test_store_modes():
    p = cb.ModelParams(d=0.2)
    assert _run(p, 0.5)[0].modes is None
    traj, grid = _run(p, 0.5, store_modes=True)
    assert traj.modes.shape == (traj.times.size, grid.size)
    assert traj.pa[-1] + np.sum(np.abs(traj.modes[-1]) ** 2) == pytest.approx(1.0, abs=1e-8)


def test_samples_do_not_keep_the_state_matrix():
    """Without store_modes only pa and the norm are kept per sample, so a run
    of 2001 samples x 1001 modes peaks far below the 32 MB that its
    samples x modes matrix would take."""
    p = cb.ModelParams(d=0.2, chi=40.0)
    grid = cb.build_grid(p, 2.0)
    assert grid.size == 1001
    tracemalloc.start()
    try:
        traj = cb.evolve(grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert traj.times.size == 2001 and traj.modes is None
    assert peak < 8 * 2**20
    kept = cb.evolve(grid, store_modes=True)
    assert kept.modes.shape == (2001, 1001)
    assert np.array_equal(kept.pa, traj.pa)


def _direct_rhs(grid, p, t, y):
    """The amplitude equations written out: each mode's coupling times its
    full phase e^{-i(det t + chi t^2 / 2)}."""
    det = grid.detunings
    gp = cb.coupling(det + p.chi * t, grid.spacing, p) * np.exp(
        -1j * (det * t + 0.5 * p.chi * t * t)
    )
    return np.concatenate(([-1j * np.dot(gp, y[1:])], -1j * y[0] * np.conj(gp)))


@pytest.mark.parametrize("chi", [0.0, 400.0, -400.0], ids=lambda chi: f"build_grid-{chi}")
def test_tabulated_rhs_matches_direct_formula(chi):
    """The phase table (a scalar times the outer product of two short
    exponential tables) gives the written-out RHS up to t = pi *
    modes_per_gamma.  The chirped grids have one mode per gamma so that the
    phase stays near 2000 rad, where its own double rounding is below 1e-12."""
    p = cb.ModelParams(d=2.0, chi=chi)
    modes_per_gamma = 10.0 if chi == 0 else 1.0
    horizon = np.pi * modes_per_gamma
    grid = cb.build_grid(p, horizon, modes_per_gamma=modes_per_gamma)
    assert grid.size % 64
    rng = np.random.default_rng(3)
    y = rng.normal(size=grid.size + 1) + 1j * rng.normal(size=grid.size + 1)
    rhs = dynamics._make_rhs(grid)
    for t in np.append(np.linspace(0.0, horizon, 5), 0.7317):
        want = _direct_rhs(grid, p, t, y)
        assert np.max(np.abs(rhs(t, y) - want)) <= 1e-12 * np.max(np.abs(want))


@pytest.mark.parametrize("chi", [0.0, 400.0])
def test_rhs_rebuilds_couplings_whenever_time_changes(chi):
    """The RHS builds its phased couplings at every call: two calls at the
    same time agree, and any other time, even 1 ulp away, gets its own."""
    p = cb.ModelParams(d=2.0, chi=chi)
    grid = cb.build_grid(p, 3.0, modes_per_gamma=10.0 if chi == 0 else 1.0)
    rng = np.random.default_rng(5)
    rhs = dynamics._make_rhs(grid)
    t1, t2 = 0.7317, 1.9
    t1_next = float(np.nextafter(t1, np.inf))
    for t in (t1, t2, t2, t1, t1_next):
        y = rng.normal(size=grid.size + 1) + 1j * rng.normal(size=grid.size + 1)
        want = _direct_rhs(grid, p, t, y)
        got = rhs(t, y).copy()
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
    # The ulp step is below the tolerance above, so compare it bit for bit
    # with a fresh RHS, whose values at t1 and 1 ulp later do differ.
    fresh = dynamics._make_rhs(grid)
    assert not np.array_equal(fresh(t1, y).copy(), fresh(t1_next, y))
    assert np.array_equal(got, fresh(t1_next, y))


def test_solve_stays_on_one_thread():
    """The step and sample algebra makes BLAS calls; at the benchmark's grid
    sizes none may start a second thread, which would raise CPU time above
    wall time.  Sampling every 1e-4 puts several samples in every step."""
    p = cb.ModelParams(d=8.0)
    grid = cb.build_grid(p, 1.0, modes_per_gamma=52.5)
    assert grid.size >= 4000
    time.sleep(0.2)  # lets threads of earlier BLAS calls stop spinning
    wall, cpu = time.perf_counter(), time.process_time()
    cb.evolve(grid, sample_every=1e-4)
    wall, cpu = time.perf_counter() - wall, time.process_time() - cpu
    assert cpu <= 1.25 * wall + 0.05


def test_large_grid_rhs_stays_on_one_thread():
    """At 14 877 modes the RHS mode sum would be one zdotc long enough for
    OpenBLAS to take a second thread; in chunks it stays on one."""
    p = cb.ModelParams(d=8.0)
    grid = cb.build_grid(p, 1.0, modes_per_gamma=155.0)
    assert grid.size > 14000
    time.sleep(0.2)  # lets threads of earlier BLAS calls stop spinning
    wall, cpu = time.perf_counter(), time.process_time()
    cb.evolve(grid, sample_times=np.array([1.0]))
    wall, cpu = time.perf_counter() - wall, time.process_time() - cpu
    assert cpu <= 1.25 * wall + 0.05


def test_whole_solve_stays_on_one_thread_at_1e5_modes():
    """At 95 971 modes the Gram and projection sums of a step would each be
    a zdotc long enough for two threads, and a BLAS three-row update takes
    two from far fewer modes; in chunks and elementwise they stay on one."""
    grid = cb.build_grid(cb.ModelParams(d=8.0), 0.05, modes_per_gamma=1000.0)
    assert grid.size == 95971
    wall, cpu = time.perf_counter(), time.process_time()
    cb.evolve(grid, sample_times=np.array([0.05]))
    wall, cpu = time.perf_counter() - wall, time.process_time() - cpu
    assert cpu <= 1.25 * wall + 0.05


OMEGA_D8 = np.sqrt(255.0)


def _drawn_points(seed=20):
    """A point of the benchmark's snapshots range (d 4-8, chi 20-200 drawn
    log-uniform, chi t_end 150-250) on its full grid, sampled every 1e-3
    over the first 0.1, and a chirped kernel-range point at weak coupling
    (d 0.15-0.35, chi 2-100, t_end 1-2), where the local error, not the
    sweep, sets the step."""
    rng = np.random.default_rng(seed)
    d, chi = rng.uniform(4.0, 8.0), np.exp(rng.uniform(np.log(20.0), np.log(200.0)))
    t_end = rng.uniform(150.0, 250.0) / chi
    snapshot_point = (d, chi, t_end, 1e-3 * np.arange(101), (1e-7, REL_TOL), False)
    d, chi = rng.uniform(0.15, 0.35), np.exp(rng.uniform(np.log(2.0), np.log(100.0)))
    kernel_point = (d, chi, rng.uniform(1.0, 2.0), None, (1e-8, REL_TOL), False)
    return [snapshot_point, kernel_point]


@pytest.mark.parametrize(
    "d, chi, horizon, snapshots, tolerances, modes",
    [
        # fig4's, fig6's and fig7's parameters over part of their horizons,
        # sampled every 1e-3; the worst |dpa| is reached early (as large as
        # over the whole horizons), and the short runs keep the 1e-12
        # references cheap
        (8.0, 400.0, 0.05, None, (1e-8, 1e-7, REL_TOL), False),
        (8.0, 20.0, 0.3, None, (1e-8, 1e-7, REL_TOL), False),
        (8.0, 8.4, 0.2, None, (1e-8, 1e-7, REL_TOL), False),
        # the fig2 spectrum preset's first two snapshots, with the mode
        # amplitudes the spectra read
        (8.0, 0.0, 4.0 * np.pi / OMEGA_D8, np.array([1.0, 4.0]) * np.pi / OMEGA_D8,
         (1e-7, REL_TOL), True),
        *_drawn_points(),
        # weak coupling, fast chirp: a mode's coupling sweeps past in 1 / chi,
        # between the nodes of a step sized by the smooth parts of u(t); with
        # no step cap pa was off by 53 rel_tol at 1e-7 and 4.7 at 1e-8 (chi
        # 1000), and by 1.25 rel_tol at 1e-7 (chi 300)
        (1.0, 1000.0, 0.1, None, (1e-8, 1e-7, REL_TOL), False),
        (1.0, 300.0, 0.1, None, (1e-7, REL_TOL), False),
    ],
    ids=["fig4", "fig6", "fig7", "fig2", "snapshots", "kernel", "sweep-1000", "sweep-300"],
)
def test_pa_lies_within_rel_tol_of_the_converged_solution(
    d, chi, horizon, snapshots, tolerances, modes
):
    """evolve's accuracy target: at every sample, pa (and, where kept, each
    mode amplitude) lies within rel_tol of a rel_tol = 1e-12 solve of the
    same grid, and the norm within 1e-12 of 1.  At REL_TOL that is 100
    times below the smallest window error of the presets (1.3e-4)."""
    grid = cb.build_grid(cb.ModelParams(d=d, chi=chi), horizon)
    reference = cb.evolve(grid, rel_tol=1e-12, sample_times=snapshots, store_modes=modes)
    for rel_tol in tolerances:
        traj = cb.evolve(grid, rel_tol=rel_tol, sample_times=snapshots, store_modes=modes)
        assert np.max(np.abs(traj.pa - reference.pa)) <= rel_tol
        assert np.max(np.abs(traj.norms - 1.0)) <= 1e-12
        if modes:
            assert np.max(np.abs(traj.modes - reference.modes)) <= rel_tol
