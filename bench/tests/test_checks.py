"""The benchmark's own checks: each passes on a correct output of the program
and fails on a deliberately perturbed copy of it.

Run from the repository root (about a minute; the figures fixture
regenerates all eight presets):

    PYTHONPATH=src python3 -m pytest -q bench/tests
"""

from __future__ import annotations

import shutil
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from chirped_bath import _rk, cli, volterra  # noqa: E402

def run(op: workloads.Op, out_dir: Path) -> dict[str, np.ndarray]:
    assert cli.main(op.argv(out_dir)) == 0
    return checks.read_table(out_dir / op.output)


def failures(check, *args) -> list[str]:
    report = checks.Report()
    check(*args, report)
    return report.failures


def perturbed(table: dict, column: str, change) -> dict:
    out = {k: v.copy() for k, v in table.items()}
    out[column] = change(out["t"] if "t" in out else None, out[column])
    return out


@pytest.fixture(scope="module")
def figures_dir(tmp_path_factory) -> Path:
    out = tmp_path_factory.mktemp("figures")
    assert cli.main(["paper-figures", "--out", str(out)]) == 0
    return out


@pytest.fixture(scope="module")
def tables(figures_dir) -> dict:
    return {name: checks.read_table(figures_dir / f"{name}.csv") for name in checks.FIGURE_TABLES}


def test_figures_checks_pass_on_program_output(figures_dir):
    report = checks.Report()
    checks.figures(figures_dir, report)
    assert report.failures == []
    assert report.deviations["norm"] < 1e-6


FIGURE_CASES = {
    "fig4_pa_static": (checks.fig4_static, "fig4", "pa_static", lambda t, v: v + 2e-3),
    "fig4_decay_rate": (checks.fig4_rate, "fig4", "pa", lambda t, v: v * np.exp(-0.5 * t)),
    "fig2_closure": (lambda tb, r: checks.closure("fig2", tb, r), "fig2", "closure",
                     lambda t, v: v + 2e-3),
    "fig9_closure": (lambda tb, r: checks.closure("fig9", tb, r), "fig9", "closure",
                     lambda t, v: v - 2e-3),
    "fig5_analytic": (checks.fig5_rates, "fig5", "gamma_inf_analytic", lambda t, v: v * 1.01),
    "fig5_fitted": (checks.fig5_rates, "fig5", "gamma_inf_fitted", lambda t, v: v * 1.2),
    "fig6_envelope": (checks.fig6_rate, "fig6", "pa", lambda t, v: v * np.exp(2.0 * t)),
    "fig7_envelope": (checks.fig7_envelope, "fig7", "pa",
                      lambda t, v: np.where(t > 7.0, 0.5 * v, v)),
    "fig9_area": (checks.fig9_area, "fig9", "S", lambda t, v: 1.2 * v),
}


@pytest.mark.parametrize("case", sorted(FIGURE_CASES))
def test_figure_check_fails_on_perturbed_copy(tables, case):
    check, name, column, change = FIGURE_CASES[case]
    assert failures(check, tables[name]) == []
    assert failures(check, perturbed(tables[name], column, change))


@pytest.mark.parametrize("column", ["norm", "norm_static"])
def test_norm_check_fails_on_shifted_norm(tables, column):
    shifted = dict(tables, fig7=perturbed(tables["fig7"], column, lambda t, v: v + 1e-5))
    assert failures(checks.norms, tables) == []
    assert failures(checks.norms, shifted)


def test_rabi_shift_check_fails_without_chirp(tables):
    fig8 = tables["fig8"]
    assert failures(checks.fig8_shift, fig8) == []
    assert failures(checks.fig8_shift, dict(fig8, pa=fig8["pa_static"]))


def test_sec5_check_fails_on_scaled_rate(figures_dir):
    rows = checks.read_rows(figures_dir / "sec5.csv")
    assert failures(checks.sec5_numbers, rows) == []
    case = rows["fast-mirror-strong"]
    scaled = dict(case, gamma_inf_over_gamma=repr(1.03 * float(case["gamma_inf_over_gamma"])))
    assert failures(checks.sec5_numbers, dict(rows, **{"fast-mirror-strong": scaled}))


@pytest.fixture(scope="module")
def snapshot(tmp_path_factory):
    out = tmp_path_factory.mktemp("snapshots")
    op = workloads.snapshots_ops(0)[0]
    return op, run(op, out), run(workloads.snapshot_check_op(op), out)


def test_snapshot_checks_fail_on_perturbed_copies(snapshot):
    op, table, kernel = snapshot
    times = op.params["times"]
    assert failures(checks.snapshot_properties, table, times) == []
    assert failures(checks.snapshot_two_paths, table, kernel) == []
    negative = perturbed(table, "S", lambda t, v: np.where(np.arange(v.size) == 7, -1e-12, v))
    assert failures(checks.snapshot_properties, negative, times)
    assert failures(checks.snapshot_properties,
                    perturbed(table, "closure", lambda t, v: v + 2e-3), times)
    assert failures(checks.snapshot_properties, table, times[:-1])
    assert failures(checks.snapshot_two_paths, perturbed(table, "S", lambda t, v: 1.01 * v), kernel)
    assert failures(checks.snapshot_two_paths, table,
                    perturbed(kernel, "pa", lambda t, v: v + 3e-3))


@pytest.fixture(scope="module")
def kernel_points(tmp_path_factory):
    out = tmp_path_factory.mktemp("kernel")
    ops = workloads.kernel_ops(0)
    static = next(op for op in ops if op.params["chi"] == 0.0)
    chirped = next(op for op in ops if op.params["chi"] != 0.0)
    return (static, run(static, out), chirped, run(chirped, out),
            run(workloads.kernel_check_op(chirped), out))


def test_kernel_checks_fail_on_perturbed_copies(kernel_points):
    static, static_table, chirped, chirped_table, bath = kernel_points
    d = static.params["d"]
    assert failures(checks.kernel_static, static_table, d) == []
    assert failures(checks.kernel_static, perturbed(static_table, "pa", lambda t, v: v + 3e-3), d)
    assert failures(checks.kernel_vs_bath, chirped_table, bath) == []
    assert failures(checks.kernel_vs_bath,
                    perturbed(chirped_table, "pa", lambda t, v: v - 3e-3), bath)
    assert failures(checks.kernel_vs_bath, chirped_table,
                    perturbed(bath, "t", lambda t, v: v + 1e-6))


def test_static_closed_form_covers_every_damping_regime():
    t = np.linspace(0.0, 3.0, 7)
    for d in (0.2, 0.5, 8.0):
        pa_near = checks.static_pa(t, d * (1.0 + 1e-7))
        assert np.max(np.abs(checks.static_pa(t, d) - pa_near)) < 1e-5
    assert checks.static_pa(0.0, 3.0) == 1.0


def test_determinism_check_fails_on_one_changed_byte(figures_dir, tmp_path):
    copy = tmp_path / "copy"
    shutil.copytree(figures_dir, copy)
    assert failures(checks.identical, figures_dir, copy) == []
    data = bytearray((copy / "fig8.csv").read_bytes())
    data[100] ^= 1
    (copy / "fig8.csv").write_bytes(bytes(data))
    assert failures(checks.identical, figures_dir, copy)
    (copy / "fig8.csv").unlink()
    assert failures(checks.identical, figures_dir, copy, True) == []  # subset
    assert failures(checks.identical, figures_dir, copy)


def test_workloads_follow_the_seed():
    assert workloads.snapshots_ops(3) == workloads.snapshots_ops(3)
    assert workloads.snapshots_ops(3) != workloads.snapshots_ops(4)
    assert workloads.kernel_ops(3) == workloads.kernel_ops(3)
    for seed in range(20):
        t_ends = [op.params["t_end"] for op in workloads.snapshots_ops(seed)]
        assert max(t_ends) <= workloads.SNAP_T_MAX
        chis = [op.params["chi"] for op in workloads.kernel_ops(seed)]
        assert chis.count(0.0) >= 1 and len(chis) - chis.count(0.0) >= 3


def test_tracer_counts_one_solve_and_restores_the_program(tmp_path):
    originals = (cli.main, cli.evolve, _rk.integrate, volterra._march)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert cli.main(["simulate", "--d", "0.2", "--chi", "2", "--t-end", "0.5",
                         "--sample-every", "0.1", "--out", str(tmp_path / "s.csv")]) == 0
    finally:
        tracer.uninstall()
    assert (cli.main, cli.evolve, _rk.integrate, volterra._march) == originals
    assert tracer.absent == []
    spans = tracer.take()
    layer = tracing.pass_metrics(spans, 1, 2)
    assert layer["dynamics.solves"] == 1 and layer["dynamics.samples"] == 6
    assert layer["rk.steps"] > 0
    assert layer["rk.rhs_evals"] == 1 + 6 * (layer["rk.steps"] + layer["rk.rejected_steps"])
    parents = {s["id"]: s["parent"] for s in spans}
    integrate = next(s for s in spans if s["name"] == "rk.integrate")
    evolve = next(s for s in spans if s["name"] == "dynamics.evolve")
    assert parents[integrate["id"]] == evolve["id"]
