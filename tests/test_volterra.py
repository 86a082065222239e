"""Product-integration solver for the reduced memory-kernel equation."""

import tracemalloc

import numpy as np
import pytest

import chirped_bath as cb
from chirped_bath import volterra
from oracles import march_oracle


def test_config_validation():
    """The step count is an integer in range: a fractional one is refused,
    not truncated, and a numpy integer is accepted."""
    p = cb.ModelParams(d=1.0)
    for steps in (8, 10**20, 100.7, 100.0, "100"):
        with pytest.raises(cb.ValidationError):
            cb.solve_volterra(p, 0.1, steps=steps)
    cb.solve_volterra(p, 0.1, steps=16)
    assert cb.solve_volterra(p, 0.1, steps=np.int64(100)).times.size == 201


def test_t_end_validation():
    with pytest.raises(cb.ValidationError):
        cb.solve_volterra(cb.ModelParams(d=1.0), 0.0)


def test_time_grid_and_bounds():
    sol = cb.solve_volterra(cb.ModelParams(d=1.0), 0.8, steps=32)
    assert np.allclose(sol.times, np.linspace(0.0, 0.8, 65))
    assert sol.pa[0] == 1.0
    assert np.all(sol.pa >= 0.0) and np.all(sol.pa <= 1.0 + 1e-6)
    assert sol.richardson_error >= 0.0


def test_static_strong_coupling_matches_exact():
    p = cb.ModelParams(d=8.0)
    sol = cb.solve_volterra(p, 1.0, steps=500)
    exact = np.abs(cb.static_exact_ca(sol.times, p)) ** 2
    assert np.max(np.abs(sol.pa - exact)) < 1e-3


def test_richardson_estimate_bounds_step_halving():
    """Going to a much finer step moves the answer by less than 4x the
    reported estimate (the march is second order, so the factor is ~1)."""
    p = cb.ModelParams(d=8.0, chi=20.0)
    sol = cb.solve_volterra(p, 1.0, steps=128)
    ref = cb.solve_volterra(p, 1.0, steps=1024)
    actual = np.max(np.abs(sol.pa - ref.pa[::8]))
    assert actual < 4.0 * sol.richardson_error


def test_vanishing_coupling_keeps_population():
    sol = cb.solve_volterra(cb.ModelParams(d=1e-4), 1.0, steps=64)
    assert np.max(np.abs(sol.pa - 1.0)) < 1e-6


def test_chirped_cross_check_against_dynamics():
    p = cb.ModelParams(d=8.0, chi=20.0)
    sol = cb.solve_volterra(p, 1.0, steps=500)
    grid = cb.build_grid(p, 1.0)
    traj = cb.evolve(grid, p, 1.0)
    assert traj.times.size == sol.times.size
    assert np.max(np.abs(traj.times - sol.times)) < 1e-9
    assert np.max(np.abs(traj.pa - sol.pa)) < 1e-3


def test_fast_chirp_flat_rate():
    """At high chirp the memory collapses and the solution decays at the
    flat Markovian rate."""
    p = cb.ModelParams(d=8.0, chi=400.0)
    sol = cb.solve_volterra(p, 1.0, steps=500)
    fit = cb.fit_decay(sol, (0.2, 1.0))
    assert abs(fit.rate / cb.gamma_infinity(p) - 1.0) < 0.05


@pytest.mark.parametrize("chi", [0.0, 20.0])
@pytest.mark.parametrize("n", [16, 17, 500, 1024, 4097])
def test_march_matches_stepwise_oracle(n, chi):
    """The series-division march gives the step-by-step trapezoid amplitudes,
    at power-of-two lengths and off them."""
    p = cb.ModelParams(d=8.0, chi=chi)
    h = 1.0 / n
    kernel = volterra._lag_lattice(p, h, n)
    c = volterra._march(kernel, h, n)
    assert c.shape == (n + 1,)
    assert np.max(np.abs(c - march_oracle(kernel, h, n))) < 1e-12


def test_lag_lattice_memory_is_bounded():
    """The lattice loops over its cut nodes, with a few arrays of one value
    per lag alive at a time: 2049 lags at chi = 100 share about 110 nodes,
    3.5 MiB as one complex lags x nodes array, and peak far lower."""
    p = cb.ModelParams(d=4.0, chi=100.0)
    tracemalloc.start()
    try:
        kernel = volterra._lag_lattice(p, 2.0 / 2048, 2048)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert kernel.shape == (2049,) and kernel[0] == 16.0
    assert peak < 8 * 2**20
