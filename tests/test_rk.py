"""The integrator's contract: dense samples are as accurate as the steps,
the step count does not follow the sample cadence, and sampling costs no
generator call."""

import numpy as np
import pytest

from chirped_bath import _rk
from chirped_bath.errors import SolverError

# A static star: mode j couples with g_j at detuning delta_j, so that
# u_j(t) = g_j e^{i delta_j t}.
G = np.array([1.0, 0.7, 0.4])
DELTA = np.array([0.5, 3.0, 10.0])
T_LAST = 2.0
NODE_SPAN = np.sqrt(15.0) / 5.0  # c_3 - c_1 of the Gauss-Legendre nodes


def _star(coupling):
    """rhs(t, y) = A(t) y for u(t) = coupling(t), recording every call time;
    the integrator only ever passes y = e_0."""
    calls = []

    def rhs(t, y):
        assert y[0] == 1.0 and not np.any(y[1:])
        calls.append(t)
        u = coupling(t)
        return np.concatenate(([-1j * np.vdot(u, y[1:])], -1j * u * y[0]))

    return rhs, calls


def _run(sample_times, coupling=lambda t: G * np.exp(1j * DELTA * t), keep=True):
    rhs, calls = _star(coupling)
    y0 = np.zeros(G.size + 1, dtype=complex)
    y0[0] = 1.0
    kept, n_steps = _rk.integrate(rhs, 0.0, y0, sample_times, rel_tol=1e-8, keep=keep)
    return kept, n_steps, np.array(calls)


def _exact(times):
    """In the frame b_j = e^{-i delta_j t} c_j the star is time-independent,
    d(c_a, b)/dt = -i H (c_a, b) with H = [[0, g^T], [g, diag(delta)]]."""
    h = np.diag(np.concatenate(([0.0], DELTA)))
    h[0, 1:] = h[1:, 0] = G
    energies, vectors = np.linalg.eigh(h)
    states = (vectors[0] * np.exp(-1j * np.outer(times, energies))) @ vectors.T
    states[:, 1:] *= np.exp(1j * np.outer(times, DELTA))
    return states


def _attempts(calls):
    """Split the calls into attempts of three nodes and count the rejected
    attempts after the first step: a rejected attempt restarts from its own
    start time.  The first step may take several attempts to size."""
    nodes = calls.reshape(-1, 3)
    h = (nodes[:, 2] - nodes[:, 0]) / NODE_SPAN
    assert np.allclose(nodes[:, 1] - nodes[:, 0], nodes[:, 2] - nodes[:, 1], rtol=1e-6, atol=1e-13)
    starts = nodes[:, 1] - h / 2
    ends = starts + h
    repeat = np.abs(starts[1:] - starts[:-1]) < np.abs(starts[1:] - ends[:-1])
    sizing = int(np.argmin(repeat))  # attempts before the first step taken
    return nodes.shape[0], sizing, int(np.sum(repeat[sizing:]))


def test_dense_samples_match_exact_solution():
    # 0.0137 is no multiple of any step, so the samples fall inside steps
    times = np.append(0.0137 * np.arange(146), T_LAST)
    kept, _, _ = _run(times)
    exact = _exact(times)
    assert kept.shape == (times.size, 2 + G.size)
    assert np.array_equal(kept[0], [1.0, 1.0, 0.0, 0.0, 0.0])
    assert np.max(np.abs(kept[:, 0] - exact[:, 0])) < 1e-8
    assert np.max(np.abs(kept[:, 2:] - exact[:, 1:])) < 1e-7
    assert np.max(np.abs(kept[:, 1] - 1.0)) < 1e-14


def test_step_count_does_not_follow_sample_cadence():
    """Sampling c_a and the norm takes no generator call; sampling the mode
    amplitudes takes three per sample, and neither moves a step."""
    times = np.linspace(0.0, T_LAST, 1000)
    sparse_kept, sparse, sparse_calls = _run(np.array([0.0, T_LAST]), keep=False)
    dense_kept, dense, dense_calls = _run(times, keep=False)
    some = np.append(np.arange(0, 999, 10), 999)
    modes_kept, with_modes, modes_calls = _run(times[some])
    assert dense == sparse == with_modes < 1000
    assert np.array_equal(dense_calls, sparse_calls)
    assert modes_calls.size == sparse_calls.size + 3 * (some.size - 1)
    assert sparse_kept.shape == (2, 2) and dense_kept.shape == (1000, 2)
    assert np.max(np.abs(dense_kept[-1] - sparse_kept[-1])) <= 1e-15
    assert np.max(np.abs(modes_kept[:, :2] - dense_kept[some])) <= 1e-14


@pytest.mark.parametrize("jump", [1.0, 5.0], ids=["smooth", "rejecting"])
def test_generator_calls_are_three_per_attempt(jump):
    """Every call belongs to an attempted step, at its three nodes, and none
    lies past the last sample time."""
    coupling = lambda t: G * np.exp(1j * DELTA * t) * (jump if t > 1.0 else 1.0)  # noqa: E731
    _, sparse, sparse_calls = _run(np.array([0.0, T_LAST]), coupling, keep=False)
    _, n_steps, calls = _run(np.linspace(0.0, T_LAST, 1000), coupling, keep=False)
    assert np.array_equal(calls, sparse_calls) and n_steps == sparse
    assert calls.size % 3 == 0
    attempts, sizing, rejected = _attempts(calls)
    assert attempts == sizing + n_steps + rejected
    assert (rejected > 0) == (jump > 1.0)
    assert calls.max() <= T_LAST * (1 + 1e-15)


def test_step_size_underflow_at_blow_up():
    """u(t) = e^{-i ln|1 - t|} / |1 - t| has a rate and a frequency that both
    grow as 1 / (1 - t): in s = -ln(1 - t) the star is steady, so the steps
    in t shrink like 1 - t and reach nothing at t = 1, and the integrator
    says so instead of looping."""
    def coupling(t):
        return np.exp(-1j * np.log(abs(1.0 - t))) / abs(1.0 - t) * np.ones(1)

    rhs, _ = _star(coupling)
    with pytest.raises(SolverError, match=r"^step size underflow at t = ") as exc:
        _rk.integrate(
            rhs, 0.0, np.array([1.0, 0.0], dtype=complex), np.array([0.0, 1.5]), rel_tol=1e-4
        )
    assert float(str(exc.value).rsplit("= ", 1)[1]) == pytest.approx(1.0, abs=1e-6)


def test_interpolation_constants_match_numpy_polynomial():
    """The node polynomial, the samples' cubic, its pieces and the peaks of
    its error bound, recomputed with numpy.polynomial.  The quadratic's bound is
    1/320, at theta = 1/2; the cubic's follows r, the previous node's
    distance before the step in units of h."""
    poly = np.polynomial.Polynomial
    omega = poly.fromroots(_rk._C)
    assert np.allclose(omega.coef, _rk._OMEGA, rtol=0.0, atol=1e-15)
    assert np.allclose(omega.deriv()(_rk._C), _rk._OMEGA_PRIME, rtol=0.0, atol=1e-15)

    def peak(integral):
        crit = integral.deriv().roots()
        crit = crit.real[(np.abs(crit.imag) < 1e-12) & (crit.real >= 0) & (crit.real <= 1)]
        points = np.concatenate(([0.0, 1.0], crit))
        return points[np.argmax(np.abs(integral(points)))], np.max(np.abs(integral(points)))

    at, value = peak(omega.integ())
    assert at == pytest.approx(0.5) and value == pytest.approx(1.0 / 320.0, rel=1e-12)
    for r in (0.0, 0.05, 0.3, 1.0, 1.35, 1.4, 3.0, 1e3):
        _, value = peak((poly([r, 1.0]) * omega).integ())
        assert max(a + b * r for a, b in _rk._PEAKS) == pytest.approx(value, rel=1e-12)

    # A scalar generator: the cubic through (-r, a_p) and (c_k, a_k) is
    # sum_l L_l A_l + omega A_D, whose power coefficients _INTERP gives;
    # over the piece [sigma, sigma + delta] of a step, delta times it is the
    # cubic in units of delta that _BINOM and _SHIFT give.
    rng = np.random.default_rng(4)
    for r, sigma, delta in ((0.1, 0.0, 1.0), (0.6, 0.25, 0.25), (4.0, 0.5, 0.5), (0.2, 0.9, 0.1)):
        values = rng.normal(size=4)
        cubic = poly.fit(np.append(-r, _rk._C), values[[3, 0, 1, 2]], 3).convert()
        quadratic = poly.fit(_rk._C, values[:3], 2).convert()
        coef = _rk._INTERP @ np.append(values[:3], (cubic - quadratic).coef[3])
        assert np.allclose(coef, cubic.coef, rtol=0.0, atol=1e-12)
        shift = _rk._BINOM * sigma**_rk._SHIFT * delta ** np.arange(1.0, 5.0)[:, None]
        at = np.linspace(0.0, 1.0, 7)
        want = delta * cubic(sigma + delta * at)
        assert np.allclose(poly(shift @ coef)(at), want, rtol=0.0, atol=1e-12)


def test_a_sample_does_not_depend_on_the_other_samples():
    """A sample's c_a and norm are the same bytes whichever other samples
    are taken: 20 000 more times before the last one fill many blocks, put
    more than a block into one step and cut the steps' entries at block
    boundaries, and move no row."""
    base = np.array([0.31415, 0.7771, 1.2345, 1.99991, T_LAST])
    extra = np.linspace(0.0, T_LAST, 20001)[:-1]
    times = np.union1d(base, extra)
    alone, steps_alone, _ = _run(base, keep=False)
    crowded, steps_crowded, _ = _run(times, keep=False)
    assert steps_crowded == steps_alone and steps_crowded * _rk._BLOCK < times.size
    assert np.array_equal(crowded[np.searchsorted(times, base)], alone)


def test_one_long_step_is_sampled_in_pieces():
    """One static mode at detuning 0 with coupling 2: A is constant, both
    estimates read rounding, and the steps grow until one spans most of
    [0, 40] with |h A| far above _PIECE_NORM, so its samples' series runs
    in pieces.  c_a = cos(2 t) exactly."""
    rhs, calls = _star(lambda t: np.array([2.0]))
    times = np.linspace(0.0, 40.0, 4001)
    kept, n_steps = _rk.integrate(rhs, 0.0, np.array([1.0, 0.0], dtype=complex), times)
    nodes = np.array(calls).reshape(-1, 3)
    assert 2.0 * np.max(nodes[:, 2] - nodes[:, 0]) / NODE_SPAN > 4.0 * _rk._PIECE_NORM
    assert np.max(np.abs(kept[:, 0] - np.cos(2.0 * times))) < 1e-10
    assert np.max(np.abs(kept[:, 1] - 1.0)) < 1e-13


@pytest.mark.parametrize("scale", [0.3, 40.0], ids=["one-piece", "pieces"])
def test_constant_generator_samples_match_the_exponential(scale):
    """With A_1 = A_2 = A_3 = A_p the interpolated generator is the constant
    M, and a sample at theta is the last column of exp(theta M), which
    _expm gives; M is the real form of -i [[H, w], [0, 0]] with H Hermitian,
    so the exponential stays bounded at any scale."""
    rng = np.random.default_rng(7)
    x = rng.normal(size=(5, 6)) + 1j * rng.normal(size=(5, 6))
    gen = np.zeros((6, 6), dtype=complex)
    gen[:5, :5] = -0.5j * (x[:, :5] + x[:, :5].conj().T)
    gen[:5, 5] = -1j * x[:, 5]
    gen *= scale / np.abs(gen).sum(0).max()
    m = np.block([[gen.real, -gen.imag], [gen.imag, gen.real]])
    # the generators' mix for A_D vanishes when the four are equal
    c = (_rk._INTERP @ np.array([m, m, m, 0.0 * m]).reshape(4, 144))
    c = c.reshape(4, 12, 12).transpose(1, 0, 2).reshape(12, 48)
    theta = np.linspace(0.0, 1.0, 37)
    kept = np.empty((theta.size, 2), dtype=complex)
    entry = (0, theta.size, 0.0, 1.0, 0.0, 0.0, np.zeros(5), np.eye(5), c)
    _rk._samples([entry], theta, kept)
    want = np.array([_rk._expm(s * m) for s in theta])
    size = np.abs(want).max()
    assert np.max(np.abs(kept[:, 0] - want[:, 0])) < 1e-13 * size
    assert np.max(np.abs(kept[:, 1].real - (np.abs(want) ** 2).sum(1))) < 1e-13 * size**2
