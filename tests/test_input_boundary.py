"""The input boundary is total: any input either is refused with a
``ValidationError`` or ``SolverError``, or gives a finite result, and the
command line answers any flag or config text with exit 0, or with exit 2
and one ``error:`` line.  Hypothesis runs derandomized and keeps no
example database, so reruns try the same examples (its other cache goes
to a temporary directory, see ``conftest.py``)."""

import contextlib
import inspect
import io
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chirped_bath import (
    ModelParams,
    SolverError,
    ValidationError,
    build_grid,
    cli,
    solve_volterra,
)
from chirped_bath.model import _window_half_widths

SETTINGS = settings(database=None, derandomize=True, deadline=None)

# Every float, with the extremes where products overflow drawn on purpose.
NUMBERS = st.floats() | st.sampled_from(
    [1e-300, 1e300, -1e300, 1e154, 1e200, 5e-324, 1.7976931348623157e308, 0.0, -1.0]
)


def _total(call):
    """Run ``call`` with every ``RuntimeWarning`` raised; return its result,
    or None if it refused the input."""
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        try:
            return call()
        except (ValidationError, SolverError):
            return None


@SETTINGS
@given(d=NUMBERS, chi=NUMBERS, horizon=NUMBERS, modes_per_gamma=NUMBERS)
def test_build_grid_is_total(d, chi, horizon, modes_per_gamma):
    """A grid that is built holds the window the rule gives its params and
    horizon, to within rounding and less than one spacing more, as the exact
    progression det_0 + spacing * j."""
    grid = _total(lambda: build_grid(ModelParams(d=d, chi=chi), horizon, modes_per_gamma))
    if grid is None:
        return
    s = grid.spacing
    assert np.all(np.isfinite(grid.detunings))
    assert np.array_equal(grid.detunings, grid.detunings[0] + s * np.arange(grid.size))
    needs = _window_half_widths(grid.p, horizon, s)
    for held, need in zip((-grid.window[0], grid.window[1]), needs):
        slack = 1e-12 * s + 4e-16 * need
        assert need - slack <= held < need + s + slack


@SETTINGS
@given(d=NUMBERS, chi=NUMBERS, t_end=NUMBERS)
def test_solve_volterra_is_total(d, chi, t_end):
    sol = _total(lambda: solve_volterra(ModelParams(d=d, chi=chi), t_end, steps=16))
    if sol is not None:
        assert np.all(np.isfinite(sol.pa)) and np.isfinite(sol.richardson_error)


TEXT = st.text() | NUMBERS.map(repr) | st.integers().map(str) | st.sampled_from(
    ["nan", "-inf", "1e999", "-4e2", "1,2", "1,,2", "", " ", "yes", "off", "0x10"]
)


def _command_keys(command):
    core = cli.COMMANDS[command][0]
    return inspect.signature(getattr(cli, core)).parameters.values()


@SETTINGS
@given(data=st.data(), command=st.sampled_from(sorted(cli.COMMANDS)))
def test_cli_answers_any_text_with_exit_0_or_one_error_line(tmp_path_factory, data, command):
    """Each core is a stub here, so only the parsing layer runs: a key takes
    random text as ``--key=value`` or as a config line (a bool key only as
    a config line: its flag takes no value)."""
    argv, lines = [command], []
    for param in _command_keys(command):
        value = data.draw(st.none() | TEXT, label=param.name)
        if value is None:
            continue
        if param.annotation != "bool" and data.draw(st.booleans(), label="as flag"):
            argv.append(f"--{param.name.replace('_', '-')}={value}")
        else:
            lines.append(f"{param.name} = {value}")
    presets = [name for name, p in cli.PRESETS.items() if p["command"] == command]
    if presets and data.draw(st.booleans(), label="preset"):
        argv += ["--preset", data.draw(st.sampled_from(presets))]
    if lines:
        cfg = tmp_path_factory.mktemp("cfg") / "run.cfg"
        cfg.write_text("\n".join(lines) + "\n")
        argv += ["--config", str(cfg)]
    err = io.StringIO()
    with pytest.MonkeyPatch.context() as mp, contextlib.redirect_stderr(err):
        for core in {core for core, _ in cli.COMMANDS.values()} | {"sec5_table"}:
            mp.setattr(cli, core, lambda **kw: "ok")
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(argv)
    messages = err.getvalue().splitlines()
    assert (code, messages) == (0, []) or (
        code == 2 and len(messages) == 1 and messages[0].startswith("error: ")
    ), (argv, lines, code, messages)
