"""Direct integration of the coupled amplitude equations: accuracy,
unitarity bookkeeping, sampling controls, and coverage guards."""

import tracemalloc

import numpy as np
import pytest

import chirped_bath as cb
from chirped_bath import dynamics


def _run(p, t_end, **kw):
    grid = cb.build_grid(p, t_end)
    return cb.evolve(grid, p, t_end, **kw), grid


def test_starts_excited_with_empty_bath():
    traj, _ = _run(cb.ModelParams(d=0.2), 1.0, sample_times=np.array([0.0, 0.5]), store_modes=True)
    assert traj.pa[0] == 1.0
    assert not traj.modes[0].any()
    assert traj.norms[0] == 1.0


def test_integrator_config_validation():
    p = cb.ModelParams(d=0.2)
    grid = cb.build_grid(p, 0.1)
    with pytest.raises(cb.ValidationError):
        cb.evolve(grid, p, 0.1, rel_tol=0.0)
    with pytest.raises(cb.ValidationError):
        cb.evolve(grid, p, 0.1, sample_every=-1e-3)


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
    coarse = cb.evolve(coarse_grid, p, 0.5)
    fine = cb.evolve(fine_grid, p, 0.5)
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
    traj = cb.evolve(grid, p, 1.0, sample_times=want)
    assert np.array_equal(traj.times, want)
    with pytest.raises(cb.ValidationError):
        cb.evolve(grid, p, 1.0, sample_times=np.array([0.5, 0.2]))
    with pytest.raises(cb.ValidationError):
        cb.evolve(grid, p, 1.0, sample_times=np.array([0.5, 2.0]))
    # 7000 samples of a 10201-mode grid would need a 1.1 GiB state matrix
    fast = cb.ModelParams(d=0.2, chi=1000.0)
    wide = cb.build_grid(fast, 1.0)
    assert wide.size == 10201
    with pytest.raises(cb.ValidationError, match="sample-every"):
        cb.evolve(wide, fast, 1.0, sample_times=np.linspace(0.01, 1.0, 7000))


def test_horizon_coverage_guard():
    # the grid was sized for t <= 1, so modes reaching resonance later are missing
    p = cb.ModelParams(d=2.0, chi=20.0)
    grid = cb.build_grid(p, 1.0)
    with pytest.raises(cb.GridCoverageError):
        cb.evolve(grid, p, 2.0)


def test_recurrence_horizon_guard():
    """A grid of spacing 1/modes_per_gamma revives at 2 pi modes_per_gamma;
    horizons beyond half of that are refused, when the grid is built and
    when an existing grid is evolved."""
    p = cb.ModelParams(d=0.2)
    with pytest.raises(cb.GridCoverageError, match="modes-per-gamma"):
        cb.build_grid(p, 70.0)
    assert cb.build_grid(p, 70.0, modes_per_gamma=30.0).spacing == pytest.approx(1 / 30)
    grid = cb.build_grid(p, 10.0)
    with pytest.raises(cb.GridCoverageError):
        cb.evolve(grid, p, 40.0)


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


def test_static_grid_rejects_chirped_params():
    static_grid = cb.build_grid(cb.ModelParams(d=2.0), 1.0)
    chirped = cb.ModelParams(d=2.0, chi=50.0)
    with pytest.raises(cb.GridCoverageError):
        cb.evolve(static_grid, chirped, 1.0)


def test_t_end_must_advance():
    p = cb.ModelParams(d=0.2)
    grid = cb.build_grid(p, 1.0)
    with pytest.raises(cb.ValidationError):
        cb.evolve(grid, p, 0.0)


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
        traj = cb.evolve(grid, p, 2.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert traj.times.size == 2001 and traj.modes is None
    assert peak < 8 * 2**20
    kept = cb.evolve(grid, p, 2.0, store_modes=True)
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


@pytest.mark.parametrize("chi", [0.0, 400.0, -400.0])
@pytest.mark.parametrize("hand_built", [False, True], ids=["build_grid", "hand_built"])
def test_tabulated_rhs_matches_direct_formula(chi, hand_built):
    """The phase table (a scalar times the outer product of two short
    exponential tables) gives the written-out RHS up to t = pi *
    modes_per_gamma, also on a grid whose first detuning is no multiple of
    the spacing.  The chirped grids have one mode per gamma so that the
    phase stays near 2000 rad, where its own double rounding is below 1e-12."""
    p = cb.ModelParams(d=2.0, chi=chi)
    modes_per_gamma = 10.0 if chi == 0 else 1.0
    horizon = np.pi * modes_per_gamma
    if hand_built:
        spacing = 1.0 / modes_per_gamma
        grid = cb.BathGrid(detunings=-12.345 + spacing * np.arange(300), spacing=spacing)
    else:
        grid = cb.build_grid(p, horizon, modes_per_gamma=modes_per_gamma)
    assert grid.size % 64
    rng = np.random.default_rng(3)
    y = rng.normal(size=grid.size + 1) + 1j * rng.normal(size=grid.size + 1)
    rhs = dynamics._make_rhs(grid, p)
    for t in np.append(np.linspace(0.0, horizon, 5), 0.7317):
        want = _direct_rhs(grid, p, t, y)
        assert np.max(np.abs(rhs(t, y) - want)) <= 1e-12 * np.max(np.abs(want))
