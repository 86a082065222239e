"""Command-line surface: precedence rules, table formats, determinism, and
exit codes."""

import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import chirped_bath as cb
from chirped_bath import cli, dynamics, volterra


def _read_csv(path):
    return np.genfromtxt(path, delimiter=",", names=True)


def test_rerun_is_byte_identical(tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    for args in (
        ["simulate", "--d", "0.2", "--t-end", "0.5"],
        ["volterra", "--d", "4", "--chi", "30", "--t-end", "1", "--steps", "300"],
    ):
        assert cli.main(args + ["--out", str(a)]) == 0
        assert cli.main(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()


def test_write_formats_numeric_and_text_tables(tmp_path):
    """Numbers print as %.16e; a column with text in a later row only (the
    gamma-inf table's shape) prints its text as is and its numbers as the
    all-numeric table does."""
    out = tmp_path / "a.csv"
    cli._write(str(out), (["a", "b"], [(1, np.float64(0.1)), (-2.5, float("nan"))]))
    assert out.read_text() == (
        "a,b\n1.0000000000000000e+00,1.0000000000000001e-01\n"
        "-2.5000000000000000e+00,nan\n"
    )
    cli._write(str(out), (["a", "b"], [(1, np.float64(0.1)), (-2.5, "")]))
    assert out.read_text() == (
        "a,b\n1.0000000000000000e+00,1.0000000000000001e-01\n-2.5000000000000000e+00,\n"
    )


def test_config_file_and_flag_precedence(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("d = 0.2\nt_end = 0.4   # horizon\nchi = 0\n")
    out = tmp_path / "a.csv"
    assert cli.main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
    assert _read_csv(out)["t"][-1] == pytest.approx(0.4)
    # a flag overrides the config entry
    assert cli.main(
        ["simulate", "--config", str(cfg), "--t-end", "0.2", "--out", str(out)]
    ) == 0
    assert _read_csv(out)["t"][-1] == pytest.approx(0.2)


def test_config_rejects_unknown_key(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("bogus = 1\nd = 0.2\nt_end = 0.1\n")
    assert cli.main(["simulate", "--config", str(cfg)]) == 2


def test_config_rejects_malformed_line(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("d 0.2\n")
    assert cli.main(["simulate", "--config", str(cfg)]) == 2


def test_missing_required_parameter_exits_2(tmp_path):
    assert cli.main(["simulate", "--t-end", "0.1"]) == 2


def test_solver_failure_exits_3(monkeypatch):
    def boom(**kwargs):
        raise cb.SolverError("forced")

    monkeypatch.setattr(cli, "simulate_table", boom)
    assert cli.main(["simulate", "--d", "0.2", "--t-end", "0.1"]) == 3


def _overshoot_integrate(monkeypatch):
    integrate = dynamics._rk.integrate

    def overshoot(*args, **kwargs):
        kept, n_steps = integrate(*args, **kwargs)
        kept[kept.shape[0] // 2, 0] = 1.0 + 1e-4  # the c_a column
        return kept, n_steps

    monkeypatch.setattr(dynamics._rk, "integrate", overshoot)


def _overshoot_march(monkeypatch):
    march = volterra._march

    def overshoot(*args, **kwargs):
        c = march(*args, **kwargs)
        c[c.size // 2] = np.sqrt(1.0 + 1e-4)
        return c

    monkeypatch.setattr(volterra, "_march", overshoot)


@pytest.mark.parametrize(
    "patch, argv",
    [
        # the patch edits only the pa column, so only the pa check can fire
        (_overshoot_integrate, ["simulate", "--d", "0.2", "--t-end", "1"]),
        (_overshoot_march, ["volterra", "--d", "0.2", "--t-end", "0.5", "--steps", "16"]),
    ],
    ids=["simulate", "volterra"],
)
def test_solver_overshoot_exits_3(tmp_path, capsys, monkeypatch, patch, argv):
    """A pa above 1 + 1e-6 that a solver produced is a solver failure, not
    invalid input."""
    patch(monkeypatch)
    assert cli.main(argv + ["--out", str(tmp_path / "a.csv")]) == 3
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("solver failure: ")
    assert "pa reached" in err[0]


def test_simulate_columns(tmp_path):
    out = tmp_path / "a.csv"
    rc = cli.main(
        [
            "simulate", "--d", "0.2", "--chi", "1.0", "--t-end", "0.3",
            "--with-static", "--with-markov", "--out", str(out),
        ]
    )
    assert rc == 0
    header = out.read_text().splitlines()[0]
    assert header == "t,pa,norm,pa_static,norm_static,pa_markov"
    table = _read_csv(out)
    assert table.shape == (301,)
    assert abs(table["norm"][-1] - 1.0) < 1e-6
    assert table["pa_markov"][0] == pytest.approx(1.0)


def test_simulate_ends_on_t_end_off_the_sample_grid(tmp_path):
    """A t_end between two sample times is appended as the last row."""
    out = tmp_path / "a.csv"
    assert cli.main(["simulate", "--d", "0.2", "--t-end", "0.1005", "--out", str(out)]) == 0
    table = _read_csv(out)
    assert table.shape == (102,)
    assert table["t"][-2] == pytest.approx(0.1)
    assert table["t"][-1] == 0.1005


@pytest.mark.parametrize("value", ["yes", "off"])
def test_config_bool_words(tmp_path, value):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"d = 0.2\nt_end = 0.01\nwith_static = {value}\n")
    out = tmp_path / "a.csv"
    assert cli.main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
    assert ("pa_static" in out.read_text().splitlines()[0]) == (value == "yes")


def test_volterra_command(tmp_path, capsys):
    out = tmp_path / "a.csv"
    rc = cli.main(["volterra", "--d", "8", "--t-end", "0.5", "--steps", "64", "--out", str(out)])
    assert rc == 0
    table = _read_csv(out)
    assert table.shape == (129,)
    assert "richardson error estimate" in capsys.readouterr().err


def test_classify_line(capsys):
    assert cli.main(["classify", "--d", "2", "--chi", "12"]) == 0
    line = capsys.readouterr().out.strip()
    assert line.startswith("coupling_class=strong chirp_class=high xi=")
    assert cli.main(["classify", "--d", "0.2", "--chi", "12"]) == 0
    line = capsys.readouterr().out.strip()
    assert line == "coupling_class=weak chirp_class=not-applicable"


def test_sec5_case_table(tmp_path):
    out = tmp_path / "sec5.csv"
    assert cli.main(["classify", "--preset", "sec5", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 5
    assert lines[0].startswith("case,")
    assert lines[1].startswith("fast-mirror-strong,")


def test_mirror_round_trip(capsys):
    omega0 = 2.0 * np.pi * 3.5e14
    gamma = 2.0 * np.pi * 4.1e6
    rc = cli.main(
        [
            "mirror", "--omega0-si", repr(omega0), "--length-si", "0.01",
            "--length-rate-si", "-0.65", "--gamma-si", repr(gamma),
        ]
    )
    assert rc == 0
    fields = dict(tok.split("=") for tok in capsys.readouterr().out.split())
    chi_si = float(fields["chi_si"])
    assert chi_si == pytest.approx(omega0 * 0.65 / 0.01, rel=1e-12)
    assert float(fields["chi_over_gamma2"]) == pytest.approx(chi_si / gamma**2, rel=1e-12)


def test_spectrum_closure_column(tmp_path):
    out = tmp_path / "a.csv"
    rc = cli.main(["spectrum", "--d", "8", "--times", "0.2,0.39", "--out", str(out)])
    assert rc == 0
    table = _read_csv(out)
    assert set(np.unique(table["t"])) == {0.2, 0.39}
    assert np.max(np.abs(table["closure"] - 1.0)) < 1e-3
    assert np.all(table["S"] >= 0.0)


def test_gamma_inf_sweep(tmp_path):
    out = tmp_path / "a.csv"
    rc = cli.main(
        [
            "gamma-inf", "--d-list", "0.5,2", "--chi-min", "1e-3",
            "--chi-max", "10", "--chi-points", "3", "--out", str(out),
        ]
    )
    assert rc == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 7
    assert lines[0] == "d,chi,gamma_inf_analytic,gamma_inf_fitted,xi"
    rows = [ln.split(",") for ln in lines[1:]]
    # d=0.5 sits on the critical point: no Rabi frequency, so no xi column
    assert rows[0][3] == "" and rows[0][4] == ""
    assert float(rows[3][0]) == 2.0
    assert float(rows[3][1]) == pytest.approx(1e-3)
    assert float(rows[3][2]) == pytest.approx(8.0, rel=5e-3)
    assert rows[3][4] != ""
    assert [float(r[0]) for r in rows] == sorted(float(r[0]) for r in rows)


@pytest.mark.parametrize(
    "argv, config, out",
    [
        (["simulate", "--t-end", "0.1"], "d = abc\n", "a.csv"),
        (["simulate", "--d", "0.2", "--t-end", "inf"], None, "a.csv"),
        (["volterra", "--d", "0.2", "--t-end", "0.5", "--chi", "inf"], None, "a.csv"),
        (["simulate", "--d", "0.2", "--t-end", "0.1", "--chi", "nan"], None, "a.csv"),
        (["classify", "--d", "2"], None, "missing/a.csv"),
        (["simulate", "--d", "0.2", "--t-end", "70"], None, "a.csv"),
        # rel_tol is no longer a key: the config file naming it is refused
        (["simulate", "--d", "0.2", "--t-end", "0.1"], "rel_tol = inf\n", "a.csv"),
        pytest.param(
            ["gamma-inf", "--d-list", "1", "--chi-min", "1", "--chi-max", "inf",
             "--chi-points", "3"],
            None,
            "a.csv",
            # pytest captures the overflow warning; only this mark makes it count
            marks=pytest.mark.filterwarnings("error::RuntimeWarning"),
        ),
        (["mirror", "--omega0-si", "nan", "--length-si", "0.01", "--length-rate-si", "1"],
         None, "a.csv"),
        (["mirror", "--omega0-si", "-1", "--length-si", "0.01", "--length-rate-si", "1"],
         None, "a.csv"),
        (["mirror", "--omega0-si", "1e15", "--length-si", "0.01", "--length-rate-si", "1",
          "--gamma-si", "1e-200"], None, "a.csv"),
        (["mirror", "--omega0-si", "1e15", "--length-si", "0.01", "--length-rate-si", "1",
          "--gamma-si", "1e200"], None, "a.csv"),
        (["mirror", "--omega0-si", "1e300", "--length-si", "1e-10", "--length-rate-si", "1e10"],
         None, "a.csv"),
        (["simulate", "--d", "1", "--t-end", "1", "--sample-every", "1e-300"], None, "a.csv"),
        (["volterra", "--d", "1", "--chi", "1.7e308", "--t-end", "2", "--steps", "16"],
         None, "a.csv"),
        (["simulate", "--d", "0.2", "--t-end", "0.01"], "with_static = maybe\n", "a.csv"),
        (["gamma-inf", "--d-list", "1", "--chi-points", "1000000000"], None, "a.csv"),
        (["gamma-inf", "--d-list", "1,2", "--chi-points", "600000"], None, "a.csv"),
        # 4 d^2 overflows past d = 6.7e153: an infinite window, no int mode count
        (["simulate", "--d", "1e200", "--t-end", "1"], None, "a.csv"),
        (["spectrum", "--d", "1e200", "--times", "0.1"], None, "a.csv"),
        (["gamma-inf", "--d-list", "1", "--fit-d", "1e160", "--fit-chis", "5"], None, "a.csv"),
        (["volterra", "--d", "1", "--t-end", "1e300", "--steps", "16"], None, "a.csv"),
        # the whole solve ran before open() refused the path with a traceback
        (["simulate", "--d", "1", "--t-end", "0.1"], None, "a\x00b.csv"),
        # h d = 625: the Richardson estimate read 0.028 against a true error of 0.93
        (["volterra", "--d", "1e4", "--t-end", "1", "--steps", "16"], None, "a.csv"),
        # h d = 977: pa reached 1e22 and the solve exited 3
        (["volterra", "--d", "1e6", "--t-end", "1", "--steps", "1024"], None, "a.csv"),
    ],
    ids=[
        "config-text", "t-end-inf", "chi-inf", "chi-nan", "out-unwritable",
        "past-recurrence", "rel-tol-inf", "chi-max-inf", "mirror-nan", "mirror-negative",
        "mirror-gamma-underflow", "mirror-gamma-overflow", "mirror-chi-overflow",
        "sample-every-tiny", "kernel-phase-overflow", "bool-maybe", "sweep-chi-points",
        "sweep-d-list", "grid-d-overflow", "spectrum-d-overflow", "fit-d-overflow",
        "march-step-overflow", "out-nul-byte", "march-unresolved", "march-unresolved-exit-3",
    ],
)
def test_bad_input_exits_2_with_one_line(tmp_path, capsys, argv, config, out):
    if config is not None:
        cfg = tmp_path / "run.cfg"
        cfg.write_text(config)
        argv = argv + ["--config", str(cfg)]
    assert cli.main(argv + ["--out", str(tmp_path / out)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")


@pytest.mark.parametrize(
    "chi, t_end, steps",
    [("1e12", "1", "16"), ("1e300", "1", "1024"), ("1e300", "1e-290", "1024"),
     ("1.7e308", "1", "1024"), ("1.7e308", "1e-290", "1024")],
)
def test_volterra_at_extreme_chirp(tmp_path, capsys, chi, t_end, steps):
    """The memory kernel stays finite while its phase |chi| t_end^2 / 2 is
    below 1.8e308: a chirp this far beyond the paper's range runs and gives
    a finite pa (the refusal past it is the kernel-phase-overflow case)."""
    out = tmp_path / "a.csv"
    argv = ["volterra", "--d", "1", "--chi", chi, "--t-end", t_end, "--steps", steps]
    assert cli.main(argv + ["--out", str(out)]) == 0, capsys.readouterr().err
    pa = _read_csv(out)["pa"]
    assert pa.size == 2 * int(steps) + 1 and np.all(np.isfinite(pa))


def test_preset_keys_are_parameters_of_their_core():
    """A preset key its core does not take would be dropped without a word."""
    for name, preset in cli.PRESETS.items():
        core = preset.get("core", cli.COMMANDS[preset["command"]][0])
        params = inspect.signature(getattr(cli, core)).parameters
        assert set(preset) - {"command", "core"} <= set(params), name


def test_preset_must_match_command():
    with pytest.raises(SystemExit) as exc:
        cli.main(["simulate", "--preset", "fig2"])
    assert exc.value.code == 2


def test_commands_load_only_the_scipy_they_call(tmp_path):
    """Importing the CLI loads no scipy module, and neither do spectrum,
    simulate and chirped volterra runs; gamma-inf loads scipy.special for
    its Bessel functions and nothing heavier."""
    out = str(tmp_path / "a.csv")
    steps = [
        [],
        ["spectrum", "--d", "2", "--times", "0.2", "--out", out],
        ["simulate", "--d", "0.2", "--chi", "1", "--t-end", "0.1", "--out", out],
        ["volterra", "--d", "2", "--chi", "30", "--t-end", "0.5", "--steps", "64", "--out", out],
        ["gamma-inf", "--d-list", "0.2", "--chi-min", "1", "--chi-max", "10",
         "--chi-points", "2", "--out", out],
    ]
    script = (
        "import json, sys\n"
        "from chirped_bath import cli\n"
        "for argv in json.loads(sys.argv[1]):\n"
        "    assert not argv or cli.main(argv) == 0, argv\n"
        "    print(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')))\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(cb.__file__).parents[1])}
    run = subprocess.run(
        [sys.executable, "-c", script, json.dumps(steps)],
        env=env, capture_output=True, text=True, timeout=120, check=True,
    )
    loaded = [json.loads(line) for line in run.stdout.splitlines()]
    assert loaded[:4] == [[], [], [], []]
    assert "scipy.special" in loaded[4]
    for heavy in ("scipy.integrate", "scipy.linalg", "scipy.fft"):
        assert not any(m.startswith(heavy) for m in loaded[4]), heavy
