"""Correctness checks on the outputs the benchmark's workloads write.

Every reference is built here, apart from the program: closed forms of the
static bath, the flat decay rate from ``scipy.special.j0``/``y0``, and the
benchmark's own fits, extrema and trapezoids.  The rest are properties the
method must have (conservation, non-negative spectra, deterministic bytes),
plus, for chirped memory-kernel points, agreement with the program's
discrete-bath route.  Each check takes parsed tables, so a test can hand it
a perturbed copy of a correct output.
"""

from __future__ import annotations

import csv
from pathlib import Path

import numpy as np
from scipy.integrate import trapezoid
from scipy.special import j0, y0

NORM_BUDGET = 1e-6
CLOSURE_BUDGET = 1e-3
STATIC_BUDGET = 1e-3  # fig4 pa_static against the closed form
ROUTE_BUDGET = 2e-3  # two routes, or a route and a closed form, on pa
GAMMA_REL_BUDGET = 1e-8
FIT_REL_BUDGET = 0.15
DECAY_REL_BUDGET = 0.10
PAPER_REL_BUDGET = 0.02

# Presets of paper-figures read as numeric tables; sec5 holds text cells.
FIGURE_TABLES = ("fig2", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9")

# Section 5 of the paper: flat decay rates, the weak-coupling suppression and
# the slow mirror's xi, keyed by the sec5 case and column they appear in.
SEC5_PAPER = (
    ("fast-mirror-strong", "gamma_inf_over_gamma", 5.05),
    ("fast-mirror-strong-narrow-line", "gamma_inf_over_gamma", 13.6),
    ("fast-mirror-weak", "suppression", 9.92e-4),
    ("slow-mirror-strong", "xi", 1.52),
)


class Report:
    """Failures of the checks, plus the worst deviation seen per reference."""

    def __init__(self) -> None:
        self.failures: list[str] = []
        self.deviations: dict[str, float] = {}

    def within(self, name: str, deviation: float, budget: float) -> None:
        dev = float(deviation)
        if not self.deviations.get(name, -1.0) >= dev:
            self.deviations[name] = dev
        if not dev <= budget:
            self.failures.append(f"{name}: deviation {dev:.3e} exceeds {budget:.1e}")

    def require(self, name: str, ok: bool, detail: str) -> None:
        if not ok:
            self.failures.append(f"{name}: {detail}")


# ------------------------------------------------------------ references


def rabi(d: float) -> float:
    return float(np.sqrt(4.0 * d * d - 1.0))


def static_pa(t, d: float) -> np.ndarray:
    """|c_a|^2 of the static bath: c'' + c' + d^2 c = 0, c(0) = 1, c'(0) = 0."""
    t = np.asarray(t, dtype=float)
    disc = 4.0 * d * d - 1.0
    if disc > 1e-12:
        om = np.sqrt(disc)
        c = np.exp(-0.5 * t) * (np.cos(0.5 * om * t) + np.sin(0.5 * om * t) / om)
    elif disc < -1e-12:
        k = np.sqrt(-disc)
        c = np.exp(-0.5 * t) * (np.cosh(0.5 * k * t) + np.sinh(0.5 * k * t) / k)
    else:
        c = np.exp(-0.5 * t) * (1.0 + 0.5 * t)
    return c * c


def gamma_inf(d, chi) -> np.ndarray:
    """Flat decay rate 2 d^2 * 2 |K_0(i/x)|^2 / (pi x), x = 4 chi, with
    |K_0(i y)|^2 = (pi^2 / 4)(J_0(y)^2 + Y_0(y)^2)."""
    d = np.asarray(d, dtype=float)
    x = 4.0 * np.asarray(chi, dtype=float)
    y = 1.0 / x
    k2 = 0.25 * np.pi**2 * (j0(y) ** 2 + y0(y) ** 2)
    return 2.0 * d * d * (2.0 * k2 / (np.pi * x))


def log_slope_rate(t, pa) -> float:
    """Minus the least-squares slope of ln pa against t."""
    return -float(np.polyfit(np.asarray(t), np.log(np.asarray(pa)), 1)[0])


def extrema(t, y, minima: bool) -> tuple[np.ndarray, np.ndarray]:
    """Interior local extrema refined by the parabola through three samples."""
    t = np.asarray(t, dtype=float)
    y = np.asarray(y, dtype=float)
    s = -y if minima else y
    idx = np.flatnonzero((s[1:-1] > s[:-2]) & (s[1:-1] >= s[2:])) + 1
    a, b, c = y[idx - 1], y[idx], y[idx + 1]
    den = a - 2.0 * b + c
    safe = np.where(den != 0.0, den, 1.0)
    shift = np.where(den != 0.0, 0.5 * (a - c) / safe, 0.0)
    step = 0.5 * (t[idx + 1] - t[idx - 1])
    return t[idx] + shift * step, b - 0.25 * (a - c) * shift


def rabi_omega(t, pa) -> tuple[float, int]:
    """Oscillation frequency from the mean spacing of the minima of pa."""
    tm, _ = extrema(t, pa, minima=True)
    if tm.size < 2:
        return float("nan"), int(tm.size)
    return float(2.0 * np.pi / np.mean(np.diff(tm))), int(tm.size)


def detached_area(x, s, d: float) -> float:
    """Area of S above the valley between the upper Rabi lobe and the
    detached high-chirp feature, the valley searched for on x in [2, Omega]."""
    x = np.asarray(x, dtype=float)
    s = np.asarray(s, dtype=float)
    idx = np.flatnonzero((x >= 2.0) & (x <= rabi(d)))
    if idx.size == 0:
        return float("nan")
    valley = idx[np.argmin(s[idx])]
    return float(trapezoid(s[valley:], x[valley:]))


# ------------------------------------------------------------- reading


def read_table(path: Path) -> dict[str, np.ndarray]:
    """Numeric CSV with a header row; empty cells read as nan."""
    data = np.genfromtxt(path, delimiter=",", names=True, ndmin=1)
    return {name: np.asarray(data[name], dtype=float) for name in data.dtype.names}


def read_rows(path: Path) -> dict[str, dict[str, str]]:
    """CSV keyed by its first column, each row as a column -> text mapping."""
    with open(path, newline="") as fh:
        return {row[next(iter(row))]: row for row in csv.DictReader(fh)}


def snapshots(table: dict[str, np.ndarray]) -> list[tuple[float, dict[str, np.ndarray]]]:
    """Split a long-format spectrum table into (t, rows of that t)."""
    out = []
    for t in np.unique(table["t"]):
        sel = table["t"] == t
        out.append((float(t), {k: v[sel] for k, v in table.items()}))
    return out


def at_times(table: dict[str, np.ndarray], times) -> np.ndarray | None:
    """Rows of ``table`` at ``times`` (to 1e-9); None if one is missing."""
    idx = []
    for t in times:
        j = int(np.argmin(np.abs(table["t"] - t)))
        if abs(table["t"][j] - t) > 1e-9 * max(1.0, abs(t)):
            return None
        idx.append(j)
    return np.asarray(idx)


# ------------------------------------------------------------- figures


def fig4_static(fig4, report: Report) -> None:
    dev = np.max(np.abs(fig4["pa_static"] - static_pa(fig4["t"], 8.0)))
    report.within("fig4.pa_static_vs_closed_form", dev, STATIC_BUDGET)


def norms(tables: dict[str, dict[str, np.ndarray]], report: Report) -> None:
    for name in ("fig4", "fig6", "fig7", "fig8"):
        table = tables[name]
        for col in ("norm", "norm_static"):
            report.require(f"{name}.{col}", col in table, "column missing")
            if col in table:
                report.within("norm", np.max(np.abs(table[col] - 1.0)), NORM_BUDGET)


def closure(name: str, table, report: Report) -> None:
    report.within(f"{name}.closure", np.max(np.abs(table["closure"] - 1.0)), CLOSURE_BUDGET)


def fig5_rates(fig5, report: Report) -> None:
    ref = gamma_inf(fig5["d"], fig5["chi"])
    report.within(
        "fig5.gamma_inf_analytic_rel",
        np.max(np.abs(fig5["gamma_inf_analytic"] / ref - 1.0)),
        GAMMA_REL_BUDGET,
    )
    fitted = ~np.isnan(fig5["gamma_inf_fitted"])
    report.require("fig5.fitted", np.count_nonzero(fitted) == 3,
                   f"{np.count_nonzero(fitted)} fitted rows, 3 expected")
    if np.any(fitted):
        report.within(
            "fig5.gamma_inf_fitted_rel",
            np.max(np.abs(fig5["gamma_inf_fitted"][fitted] / ref[fitted] - 1.0)),
            FIT_REL_BUDGET,
        )


def fig4_rate(fig4, report: Report) -> None:
    sel = (fig4["t"] >= 0.1 - 1e-12) & (fig4["t"] <= 1.0 + 1e-12)
    rate = log_slope_rate(fig4["t"][sel], fig4["pa"][sel])
    report.within("fig4.decay_rate_rel", abs(rate / float(gamma_inf(8.0, 400.0)) - 1.0),
                  DECAY_REL_BUDGET)


def fig6_rate(fig6, report: Report) -> None:
    tm, ym = extrema(fig6["t"], fig6["pa"], minima=False)
    ok = tm.size >= 3
    rate = log_slope_rate(tm, ym) if ok else float("nan")
    report.require("fig6.envelope_rate", ok and rate > 1.0,
                   f"envelope decay rate {rate:.4g} over {tm.size} maxima, > 1 expected")


def fig7_envelope(fig7, report: Report) -> None:
    tm, ym = extrema(fig7["t"], fig7["pa"], minima=False)
    late = ym[tm > 7.0]
    report.require("fig7.late_envelope", late.size > 0 and late.min() > 0.25,
                   f"envelope after t = 7 is {late.min() if late.size else 'empty'}, "
                   "> 0.25 expected")


def fig8_shift(fig8, report: Report) -> None:
    chirped, n1 = rabi_omega(fig8["t"], fig8["pa"])
    static, n2 = rabi_omega(fig8["t"], fig8["pa_static"])
    predicted = 2.0**2 / (4.0 * rabi(8.0))
    ratio = (chirped - static) / predicted
    report.require("fig8.rabi_shift", min(n1, n2) >= 3 and 0.5 <= ratio <= 1.5,
                   f"shift / (chi^2 / 4 Omega) = {ratio:.4g} from {n1} and {n2} minima, "
                   "0.5-1.5 expected")


def fig9_area(fig9, report: Report) -> None:
    for t, snap in snapshots(fig9):
        area = detached_area(snap["detuning_now"], snap["S"], 8.0)
        report.require("fig9.detached_area", 0.45 <= area <= 0.55,
                       f"{area:.4g} at t = {t:g}, 0.45-0.55 expected")


def sec5_numbers(rows: dict[str, dict[str, str]], report: Report) -> None:
    for case, column, paper in SEC5_PAPER:
        try:
            value = float(rows[case][column])
        except (KeyError, ValueError):
            report.require(f"sec5.{case}.{column}", False, "missing")
            continue
        report.within(f"sec5.{case}.{column}_rel", abs(value / paper - 1.0), PAPER_REL_BUDGET)


def figures(out: Path, report: Report) -> None:
    """Every check on the eight presets written into ``out``."""
    tables = {name: read_table(out / f"{name}.csv") for name in FIGURE_TABLES}
    fig4_static(tables["fig4"], report)
    norms(tables, report)
    closure("fig2", tables["fig2"], report)
    closure("fig9", tables["fig9"], report)
    fig5_rates(tables["fig5"], report)
    fig4_rate(tables["fig4"], report)
    fig6_rate(tables["fig6"], report)
    fig7_envelope(tables["fig7"], report)
    fig8_shift(tables["fig8"], report)
    fig9_area(tables["fig9"], report)
    sec5_numbers(read_rows(out / "sec5.csv"), report)


# ------------------------------------------------------------ snapshots


def snapshot_properties(table, times, report: Report) -> None:
    got = np.unique(table["t"])
    report.require("snapshots.times", got.size == len(times)
                   and np.allclose(got, sorted(times), rtol=1e-12, atol=0.0),
                   f"snapshot times {got.tolist()}, {sorted(times)} requested")
    report.require("snapshots.S_nonnegative", table["S"].min() >= 0.0,
                   f"min S = {table['S'].min():.3e}")
    closure("snapshots", table, report)


def snapshot_two_paths(table, kernel, report: Report) -> None:
    """Trapezoid of S here plus pa from the memory-kernel route is 1."""
    for t, snap in snapshots(table):
        idx = at_times(kernel, [t])
        report.require("snapshots.kernel_time", idx is not None,
                       f"no memory-kernel sample at t = {t!r}")
        if idx is not None:
            total = trapezoid(snap["S"], snap["detuning_now"]) + kernel["pa"][idx[0]]
            report.within("snapshots.integral_S_plus_kernel_pa", abs(total - 1.0),
                          ROUTE_BUDGET)


# --------------------------------------------------------------- kernel


def kernel_static(table, d: float, report: Report) -> None:
    dev = np.max(np.abs(table["pa"] - static_pa(table["t"], d)))
    report.within("kernel.static_vs_closed_form", dev, ROUTE_BUDGET)


def kernel_vs_bath(table, bath, report: Report) -> None:
    idx = at_times(table, bath["t"])
    report.require("kernel.bath_times", idx is not None,
                   "discrete-bath sample times missing from the kernel output")
    if idx is not None:
        report.within("kernel.chirped_vs_discrete_bath",
                      np.max(np.abs(table["pa"][idx] - bath["pa"])), ROUTE_BUDGET)


# ----------------------------------------------------------- determinism


def identical(first: Path, later: Path, report: Report, subset: bool = False) -> None:
    """Byte-identical files below two pass directories.  With ``subset``
    the later directory may hold only some of the first's files."""
    a = {p.relative_to(first) for p in first.rglob("*") if p.is_file()}
    b = {p.relative_to(later) for p in later.rglob("*") if p.is_file()}
    if not (b <= a if subset else a == b):
        report.require("determinism.files", False,
                       f"{later} holds {sorted(map(str, b))}, {first} {sorted(map(str, a))}")
    for rel in sorted(a & b):
        x, y = (first / rel).read_bytes(), (later / rel).read_bytes()
        if x != y:
            at = next((i for i, (u, v) in enumerate(zip(x, y)) if u != v), min(len(x), len(y)))
            report.require("determinism.bytes", False, f"{later / rel} differs at byte {at}")
