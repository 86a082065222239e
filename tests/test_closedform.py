"""Closed-form routes: static exact solution, pseudomode pair, flat-rate
limits, and the hand-rolled Bessel evaluation behind them."""

import numpy as np
import pytest
import scipy.special as sp

import chirped_bath as cb
import oracles

# Frozen from the quadrature oracle in oracles.py (k0i_abs2_oracle(1.0)).
K0I_ABS2_AT_1 = 1.4639505035310052
# Pinned reference evaluations, guarding against silent regressions.
GINF_8_400 = 2.9856338905786814
GINF_ASYM_8_400 = 2.7721646952918033


def test_static_exact_initial_value_and_gate():
    assert cb.static_exact_ca(0.0, cb.ModelParams(d=8.0)) == pytest.approx(1.0)
    with pytest.raises(cb.ValidationError):
        cb.static_exact_ca(0.5, cb.ModelParams(d=0.5))


def test_static_exact_first_zero():
    """|c_a| first vanishes at (2/Omega)(pi - arctan Omega), a few percent
    past the nominal quarter-period pi/Omega."""
    p = cb.ModelParams(d=8.0)
    om = cb.rabi_frequency(p)
    t0 = (2.0 / om) * (np.pi - np.arctan(om))
    assert t0 == pytest.approx(0.2045670721, abs=1e-9)
    assert abs(cb.static_exact_ca(t0, p)) < 1e-12
    assert np.abs(cb.static_exact_ca(np.pi / om, p)) ** 2 < 0.01


def test_static_exact_local_maximum():
    p = cb.ModelParams(d=8.0)
    om = cb.rabi_frequency(p)
    pa = np.abs(cb.static_exact_ca(4.0 * np.pi / om, p)) ** 2
    assert pa == pytest.approx(np.exp(-4.0 * np.pi / om), rel=1e-12)
    assert pa == pytest.approx(0.455, abs=0.01)


@pytest.mark.parametrize("d", [1.0, 2.0, 8.0])
def test_pseudomode_matches_static_exact(d):
    p = cb.ModelParams(d=d)
    traj = cb.pseudomode_solve(p, 1.0)
    exact = np.abs(cb.static_exact_ca(traj.times, p)) ** 2
    assert np.max(np.abs(traj.pa - exact)) < 1e-8


def test_pseudomode_critical_point_exact():
    """At d = 1/2 static_exact_ca is gated off and lambda^2 + lambda + d^2 = 0
    has a double root, so c_a'' + c_a' + c_a / 4 = 0 with c_a(0) = 1,
    c_a'(0) = 0 gives c_a(t) = e^{-t/2} (1 + t/2)."""
    p = cb.ModelParams(d=0.5)
    with pytest.raises(cb.ValidationError):
        cb.static_exact_ca(1.0, p)
    traj = cb.pseudomode_solve(p, 20.0)
    exact = np.exp(-traj.times) * (1.0 + 0.5 * traj.times) ** 2
    assert traj.times[-1] == 20.0
    assert np.max(np.abs(traj.pa - exact)) < 1e-12


@pytest.mark.parametrize("k", [1001, 1003, 2002, 2046])
def test_pseudomode_end_near_sample_grid(k):
    """An end time within rounding of a sample point (1001 * 1e-3 =
    1.0010000000000001) is snapped onto it, not sampled twice."""
    p = cb.ModelParams(d=2.0)
    traj = cb.pseudomode_solve(p, k * 1e-3)
    assert traj.times[-1] == k * 1e-3
    assert traj.times.size == k + 1
    exact = np.abs(cb.static_exact_ca(traj.times, p)) ** 2
    assert np.max(np.abs(traj.pa - exact)) < 1e-12


def test_pseudomode_rejects_chirp():
    with pytest.raises(cb.ValidationError):
        cb.pseudomode_solve(cb.ModelParams(d=2.0, chi=1.0), 1.0)


def test_pseudomode_weak_coupling_rate():
    """For d << 1 the decay is exponential at 2 d^2 to leading order; the
    exact pole sits at (1 - sqrt(1 - 4 d^2))/2 per amplitude, so a
    few-percent offset is the honest size of the approximation at d = 0.2."""
    p = cb.ModelParams(d=0.2)
    traj = cb.pseudomode_solve(p, 20.0)
    mask = traj.times >= 2.0
    ratio = traj.pa[mask] / np.exp(-0.08 * traj.times[mask])
    assert np.max(np.abs(ratio - 1.0)) < 0.08
    fit = cb.fit_decay(traj, (2.0, 20.0))
    assert fit.rate == pytest.approx(0.08, rel=0.05)


def test_weak_rate_buildup():
    p = cb.ModelParams(d=0.2)
    assert oracles.weak_gamma_t(0.0, p) == 0.0
    assert oracles.weak_gamma_t(1.0, p) == pytest.approx(0.08 * (1 - np.exp(-1.0)), rel=1e-12)
    assert oracles.weak_gamma_t(50.0, p) == pytest.approx(0.08, rel=1e-9)


def test_bessel_frozen_point():
    assert cb.bessel_k0i_abs2(1.0) == pytest.approx(K0I_ABS2_AT_1, rel=1e-9)


def test_bessel_wide_range_against_scipy():
    ys = np.geomspace(1e-4, 1e3, 200)
    ref = 0.25 * np.pi**2 * (sp.j0(ys) ** 2 + sp.y0(ys) ** 2)
    got = np.array([cb.bessel_k0i_abs2(y) for y in ys])
    assert np.max(np.abs(got / ref - 1.0)) < 1e-6


def test_bessel_log_growth_at_small_argument():
    # |K0(iy)|^2 ~ (ln y)^2 as y -> 0+
    assert cb.bessel_k0i_abs2(1e-3) > 0.9 * np.log(1e-3) ** 2


def test_bessel_domain():
    for y in (0.0, -1.0):
        with pytest.raises(cb.ValidationError):
            cb.bessel_k0i_abs2(y)


def test_gamma_infinity_frozen_and_headline_value():
    p = cb.ModelParams(d=8.0, chi=400.0)
    g = cb.gamma_infinity(p)
    assert g == pytest.approx(GINF_8_400, rel=1e-12)
    assert g == pytest.approx(3.0, rel=0.1)


def test_gamma_infinity_requires_positive_chirp():
    for chi in (0.0, -1.0):
        with pytest.raises(cb.ValidationError):
            cb.gamma_infinity(cb.ModelParams(d=1.0, chi=chi))


def test_gamma_infinity_monotone_decreasing():
    rates = [
        cb.gamma_infinity(cb.ModelParams(d=2.0, chi=c))
        for c in np.geomspace(1e-2, 1e6, 25)
    ]
    assert np.all(np.diff(rates) < 0)


def test_gamma_infinity_static_limit():
    for d in (0.2, 2.0):
        g = cb.gamma_infinity(cb.ModelParams(d=d, chi=1e-3))
        assert abs(g / (2 * d * d) - 1.0) < 5e-3


def test_asymptotic_form():
    p = cb.ModelParams(d=8.0, chi=400.0)
    a = oracles.gamma_infinity_asymptotic(p)
    assert a == pytest.approx(GINF_ASYM_8_400, rel=1e-12)
    assert a == pytest.approx(64.0 * np.log(1600.0) ** 2 / (400.0 * np.pi), rel=1e-12)
    with pytest.raises(cb.ValidationError):
        oracles.gamma_infinity_asymptotic(cb.ModelParams(d=8.0, chi=9.0))


def test_asymptotic_approaches_exact():
    errs = []
    for c in (1e2, 1e4, 1e6):
        p = cb.ModelParams(d=8.0, chi=c)
        errs.append(abs(oracles.gamma_infinity_asymptotic(p) / cb.gamma_infinity(p) - 1.0))
    assert errs[2] < 0.05
    assert errs[0] > errs[1] > errs[2]


def test_markovian_amplitude():
    p = cb.ModelParams(d=8.0, chi=400.0)
    assert cb.markovian_ca(0.0, p) == pytest.approx(1.0)
    pa1 = np.abs(cb.markovian_ca(1.0, p)) ** 2
    assert pa1 == pytest.approx(np.exp(-GINF_8_400), rel=1e-12)
    assert pa1 == pytest.approx(0.0498, rel=0.15)
    pa2 = np.abs(cb.markovian_ca(2.0, p)) ** 2
    assert pa2 == pytest.approx(pa1**2, rel=1e-10)


def test_perturbed_rabi_shift():
    p = cb.ModelParams(d=8.0, chi=2.0)
    om = cb.rabi_frequency(p)
    new_om, dphi = cb.perturbed_rabi(p)
    assert new_om - om == pytest.approx(1.0 / np.sqrt(255.0), rel=1e-9)
    assert dphi == pytest.approx(0.0627, abs=2e-4)


def test_perturbed_rabi_unchirped_is_identity():
    p = cb.ModelParams(d=8.0, chi=0.0)
    new_om, dphi = cb.perturbed_rabi(p)
    assert new_om == cb.rabi_frequency(p)
    assert dphi == 0.0


def test_perturbed_rabi_regime_gates():
    with pytest.raises(cb.ValidationError):
        cb.perturbed_rabi(cb.ModelParams(d=2.0, chi=0.5))
    with pytest.raises(cb.ValidationError):
        cb.perturbed_rabi(cb.ModelParams(d=8.0, chi=5.0))  # xi ~ 0.25
    cb.perturbed_rabi(cb.ModelParams(d=8.0, chi=4.0))  # xi ~ 0.197 passes


def test_relative_shift_grows_at_weaker_coupling():
    def rel_shift(d):
        p = cb.ModelParams(d=d, chi=1.0)
        return cb.perturbed_rabi(p)[0] / cb.rabi_frequency(p) - 1.0

    assert rel_shift(4.0) > rel_shift(8.0)


def test_weak_lowchirp_correction():
    assert oracles.weak_lowchirp_gamma(cb.ModelParams(d=0.2, chi=0.1)) == pytest.approx(
        0.0784, rel=1e-12
    )
    assert oracles.weak_lowchirp_gamma(cb.ModelParams(d=0.3, chi=0.0)) == pytest.approx(0.18)
    for chi in (0.01, 0.05):
        q = cb.ModelParams(d=0.2, chi=chi)
        assert abs(oracles.weak_lowchirp_gamma(q) / cb.gamma_infinity(q) - 1.0) < 0.01
