"""The integrator's contract: dense samples are as accurate as the steps,
the step count does not follow the sample cadence, and sampling costs no
right-hand-side call."""

import numpy as np
import pytest

from chirped_bath import _rk
from chirped_bath.errors import StepSizeUnderflowError

OMEGA = np.array([0.5, 3.0, 10.0])
T_LAST = 2.0


def _counted(omega):
    """y' = -i omega(t) y, recording the time of every call."""
    calls = []

    def rhs(t, y):
        calls.append(t)
        return -1j * omega(t) * y

    return rhs, calls


def _run(sample_times, omega=lambda t: OMEGA):
    rhs, calls = _counted(omega)
    states, n_steps = _rk.integrate(
        rhs, 0.0, np.ones(OMEGA.size), sample_times, rel_tol=1e-8, keep=lambda block: block
    )
    return states, n_steps, np.array(calls)


def _attempts(calls):
    """Split the calls after the first into attempts of six stages and count
    the rejected ones: a rejected attempt restarts from its own start time."""
    stages = calls[1:].reshape(-1, 6)
    # stages 5 and 6 both sit at the end of the attempt (c = 1)
    assert np.array_equal(stages[:, 4], stages[:, 5])
    starts = (5.0 * stages[:, 0] - stages[:, 4]) / 4.0
    ends = stages[:, 4]
    rejected = np.abs(starts[1:] - starts[:-1]) < np.abs(starts[1:] - ends[:-1])
    return stages.shape[0], int(np.sum(rejected))


def test_dense_samples_match_exact_solution():
    # 0.0137 is no multiple of any step, so the samples fall inside steps
    times = np.append(0.0137 * np.arange(146), T_LAST)
    states, _, _ = _run(times)
    exact = np.exp(-1j * np.outer(times, OMEGA))
    assert states.shape == (times.size, OMEGA.size)
    assert np.array_equal(states[0], np.ones(OMEGA.size))
    assert np.max(np.abs(states - exact)) < 1e-7


def test_step_count_does_not_follow_sample_cadence():
    _, sparse, _ = _run(np.array([0.0, T_LAST]))
    _, dense, _ = _run(np.linspace(0.0, T_LAST, 1000))
    assert abs(dense - sparse) <= 2
    assert sparse < 1000


@pytest.mark.parametrize("jump", [1.0, 5.0], ids=["smooth", "rejecting"])
def test_rhs_calls_are_one_plus_six_per_attempt(jump):
    """Every call belongs to an attempted step, none is made to interpolate
    the samples, and none lies past the last sample time."""
    omega = lambda t: OMEGA * (jump if t > 1.0 else 1.0)  # noqa: E731
    _, sparse, sparse_calls = _run(np.array([0.0, T_LAST]), omega)
    _, n_steps, calls = _run(np.linspace(0.0, T_LAST, 1000), omega)
    assert calls.size == sparse_calls.size and n_steps == sparse
    assert (calls.size - 1) % 6 == 0
    attempts, rejected = _attempts(calls)
    assert attempts == n_steps + rejected
    assert (rejected > 0) == (jump > 1.0)
    assert calls.max() <= T_LAST * (1 + 1e-15)


def test_step_size_underflow_at_blow_up():
    """y' = y^2 from y(0) = 1 is 1 / (1 - t): the steps shrink to nothing at
    t = 1, and the integrator says so instead of looping."""
    with pytest.raises(StepSizeUnderflowError) as exc:
        _rk.integrate(
            lambda t, y: y * y, 0.0, np.ones(1, dtype=complex), np.array([0.0, T_LAST]),
            keep=lambda block: block,
        )
    assert exc.value.t == pytest.approx(1.0, abs=1e-6)
