"""Command-line front end.

Subcommands cover the three solution routes plus the analysis helpers, and a
set of named presets regenerates every reference data set (fig2 ... fig9,
sec5) as deterministic CSV.  ``COMMANDS`` names each subcommand's core
function; the core's signature declares the command's keys (a key's cast
from its annotation, required when it has no default), its flags and config
keys are generated from them, and ``paper-figures`` runs every preset through
the same path as ``<command> --preset <name>``.  Configuration comes from flat
key=value files with command-line flags taking precedence; identical inputs
always produce byte-identical output.
"""

from __future__ import annotations

import argparse
import inspect
import sys
from pathlib import Path

import numpy as np

from .analysis import classify, dimensionless_chi, fit_decay, mirror_chirp
from .closedform import gamma_infinity, markovian_ca
from .dynamics import DEFAULT_SAMPLE_EVERY, evolve
from .errors import SolverError, ValidationError
from .model import DEFAULT_MODES_PER_GAMMA, ModelParams, build_grid, xi
from .spectra import numeric_spectrum, spectrum_closure
from .volterra import DEFAULT_STEPS, solve_volterra

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_SOLVER = 3

FIT_WINDOW = (0.1, 1.0)
# A gamma-inf sweep point costs 13-14 us and holds about 0.55 KiB until the
# table is written (2-CPU Xeon; 5e5 points took 6.5-7.0 s and 321 MiB peak
# RSS), so a sweep at this limit takes about 14 s in about 0.6 GiB.
MAX_SWEEP_POINTS = 1_000_000

_OMEGA_D8 = float(np.sqrt(255.0))

# Laboratory constants for the sec5 case table: an optical transition at
# omega0/2pi = 3.5e14 Hz behind a 1 cm cavity whose outer mirror moves at
# the tabulated speed (negative rate = cavity shrinking = upward chirp).
_SEC5_OMEGA0_SI = 2.0 * np.pi * 3.5e14
_SEC5_LENGTH_SI = 0.01

PRESETS: dict[str, dict] = {
    "fig2": {
        "command": "spectrum",
        "d": 8.0,
        "chi": 0.0,
        "times": [
            np.pi / _OMEGA_D8,
            4.0 * np.pi / _OMEGA_D8,
            5.0 * np.pi / _OMEGA_D8,
            8.0 * np.pi / _OMEGA_D8,
        ],
    },
    "fig4": {
        "command": "simulate",
        "d": 8.0,
        "chi": 400.0,
        "t_end": 1.0,
        "with_static": True,
        "with_markov": True,
    },
    "fig5": {
        "command": "gamma-inf",
        "d_list": [0.5, 1.0, 2.0],
        "chi_min": 1e-3,
        "chi_max": 1e3,
        "chi_points": 61,
        "fit_d": 2.0,
        "fit_chis": [20.0, 60.0, 200.0],
    },
    "fig6": {"command": "simulate", "d": 8.0, "chi": 20.0, "t_end": 2.0, "with_static": True},
    "fig7": {"command": "simulate", "d": 8.0, "chi": 8.4, "t_end": 8.0, "with_static": True},
    "fig8": {"command": "simulate", "d": 8.0, "chi": 2.0, "t_end": 1.0, "with_static": True},
    "fig9": {"command": "spectrum", "d": 8.0, "chi": 8.4, "times": [3.81, 4.00, 7.60, 7.79]},
    "sec5": {"command": "classify", "core": "sec5_table"},
}


def _parse_bool(text: str) -> bool:
    v = text.strip().lower()
    if v in {"1", "true", "yes", "on"}:
        return True
    if v in {"0", "false", "no", "off"}:
        return False
    raise ValueError("expected one of 1/0, true/false, yes/no, on/off")


def _parse_float_list(text: str) -> list[float]:
    return [float(tok) for tok in text.split(",") if tok.strip()]


def _read_config(path: str) -> dict[str, str]:
    out: dict[str, str] = {}
    for ln_no, raw in enumerate(Path(path).read_text().splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValidationError(f"{path}:{ln_no}: expected key=value, got {raw!r}")
        key, value = line.split("=", 1)
        out[key.strip()] = value.strip()
    return out


def _fmt(value) -> str:
    if isinstance(value, str):
        return value
    return f"{float(value):.16e}"


def _write(out: str | None, result) -> None:
    """Write a core's result, a one-line report or a (header, rows) table, to
    ``out`` (or stdout)."""
    if isinstance(result, str):
        text = result + "\n"
    else:
        header, rows = result
        # One %-format per row; a table holding text raises TypeError there
        # and has every cell formatted on its own, to the same digits.
        template = ",".join(["%.16e"] * len(header))
        try:
            lines = [template % tuple(row) for row in rows]
        except TypeError:
            lines = [",".join(map(_fmt, row)) for row in rows]
        text = "\n".join([",".join(header), *lines]) + "\n"
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", newline="") as fh:
            fh.write(text)


# ---------------------------------------------------------------- cores


def simulate_table(
    d: float,
    t_end: float,
    chi: float = 0.0,
    modes_per_gamma: float = DEFAULT_MODES_PER_GAMMA,
    sample_every: float = DEFAULT_SAMPLE_EVERY,
    with_static: bool = False,
    with_markov: bool = False,
):
    """Trajectory columns for one parameter point, optionally with a chi=0
    reference run on the same sample times and the flat-rate overlay."""
    p = ModelParams(d=d, chi=chi)
    traj = evolve(build_grid(p, t_end, modes_per_gamma), sample_every=sample_every)
    header = ["t", "pa", "norm"]
    columns = [traj.times, traj.pa, traj.norms]
    if with_static:
        grid0 = build_grid(ModelParams(d=d, chi=0.0), t_end, modes_per_gamma)
        traj0 = evolve(grid0, sample_every=sample_every)
        header += ["pa_static", "norm_static"]
        columns += [traj0.pa, traj0.norms]
    if with_markov:
        header.append("pa_markov")
        columns.append(markovian_ca(traj.times, p) ** 2)
    return header, list(zip(*columns))


def volterra_table(d: float, t_end: float, chi: float = 0.0, steps: int = DEFAULT_STEPS):
    """Memory-kernel trajectory; its Richardson error estimate goes to stderr."""
    sol = solve_volterra(ModelParams(d=d, chi=chi), t_end, steps)
    print(f"richardson error estimate: {sol.richardson_error:.3e}", file=sys.stderr)
    return ["t", "pa"], list(zip(sol.times, sol.pa))


def spectrum_table(
    d: float, times: list[float], chi: float = 0.0, modes_per_gamma: float = DEFAULT_MODES_PER_GAMMA
):
    """Long-format spectrum snapshots (t, detuning_now, S, closure)."""
    if not times:
        raise ValidationError("at least one snapshot time is required")
    snap = np.asarray(sorted(set(float(t) for t in times)))
    if snap[0] <= 0:
        raise ValidationError("snapshot times must be positive")
    grid = build_grid(ModelParams(d=d, chi=chi), float(snap[-1]), modes_per_gamma)
    traj = evolve(grid, sample_times=snap, store_modes=True)
    rows = []
    for t, pa, c_modes in zip(traj.times, traj.pa, traj.modes):
        series = numeric_spectrum(c_modes, t, grid)
        closure = spectrum_closure(series, pa)
        rows.extend((t, x, s, closure) for x, s in zip(series.detunings_now, series.values))
    return ["t", "detuning_now", "S", "closure"], rows


def gamma_inf_table(
    d_list: list[float],
    chi_min: float = 1e-3,
    chi_max: float = 1e3,
    chi_points: int = 61,
    fit_d: float | None = None,
    fit_chis: list[float] | None = None,
    modes_per_gamma: float = DEFAULT_MODES_PER_GAMMA,
):
    """Analytic flat-rate sweep, with numerically fitted rates at selected
    points; rows are sorted by (d, chi)."""
    if not d_list:
        raise ValidationError("d_list must not be empty")
    if chi_points < 2 or not 0 < chi_min < chi_max < np.inf:
        raise ValidationError("need chi_points >= 2 and 0 < chi_min < chi_max < inf")
    points = chi_points * len(d_list)
    if points > MAX_SWEEP_POINTS:
        raise ValidationError(f"the sweep has {points} points, above the limit {MAX_SWEEP_POINTS}")
    # (d, chi) -> [params, analytic rate, fitted rate or None]
    entries: dict[tuple[float, float], list] = {}
    for d in d_list:
        for chi in np.geomspace(chi_min, chi_max, chi_points):
            p = ModelParams(d=float(d), chi=float(chi))
            entries[(p.d, p.chi)] = [p, gamma_infinity(p), None]
    if fit_chis and fit_d is None:
        raise ValidationError("fit_chis given without fit_d")
    for chi in fit_chis or ():
        p = ModelParams(d=fit_d, chi=chi)
        traj = evolve(build_grid(p, FIT_WINDOW[1], modes_per_gamma))
        key = (float(fit_d), float(chi))
        if key not in entries:
            entries[key] = [p, gamma_infinity(p), None]
        entries[key][2] = fit_decay(traj, FIT_WINDOW).rate

    rows = []
    for (d, chi) in sorted(entries):
        p, analytic, fitted = entries[(d, chi)]
        try:
            xi_cell = xi(p)
        except ValidationError:
            xi_cell = ""
        rows.append((d, chi, analytic, "" if fitted is None else fitted, xi_cell))
    return ["d", "chi", "gamma_inf_analytic", "gamma_inf_fitted", "xi"], rows


def sec5_table():
    """Laboratory case table: mirror speeds mapped to chirp rates, regime
    labels, and flat decay rates for the optical-cavity estimates."""
    cases = [
        ("fast-mirror-strong", 34.0 / 4.1, 2.0 * np.pi * 4.1e6, 0.65),
        ("fast-mirror-strong-narrow-line", 34.0 / 0.41, 2.0 * np.pi * 0.41e6, 0.65),
        ("fast-mirror-weak", 0.2, 2.0 * np.pi * 0.41e6, 0.65),
        ("slow-mirror-strong", 34.0 / 4.1, 2.0 * np.pi * 4.1e6, 0.10),
    ]
    rows = []
    for name, d, gamma_si, speed in cases:
        chi_si = mirror_chirp(_SEC5_OMEGA0_SI, _SEC5_LENGTH_SI, -speed)
        chi = dimensionless_chi(chi_si, gamma_si)
        p = ModelParams(d=d, chi=chi)
        report = classify(p)
        rate = gamma_infinity(p)
        rows.append(
            (
                name,
                d,
                gamma_si,
                chi_si,
                chi,
                "" if report.xi_value is None else report.xi_value,
                report.coupling_class,
                report.chirp_class,
                rate,
                rate / (2.0 * d * d),
            )
        )
    header = [
        "case",
        "d",
        "gamma_si",
        "chi_si",
        "chi",
        "xi",
        "coupling_class",
        "chirp_class",
        "gamma_inf_over_gamma",
        "suppression",
    ]
    return header, rows


def _classify_line(d: float, chi: float = 0.0) -> str:
    """One-line regime report for one parameter point."""
    report = classify(ModelParams(d=d, chi=chi))
    line = f"coupling_class={report.coupling_class} chirp_class={report.chirp_class}"
    if report.xi_value is not None:
        line += f" xi={report.xi_value:.6g}"
    return line


def _mirror_line(
    omega0_si: float, length_si: float, length_rate_si: float, gamma_si: float | None = None
) -> str:
    """SI chirp rate of a moving cavity mirror, optionally also in gamma^2."""
    chi_si = mirror_chirp(
        omega0_si=omega0_si, cavity_length_si=length_si, length_rate_si=length_rate_si
    )
    line = f"chi_si={chi_si:.16e}"
    if gamma_si is not None:
        line += f" chi_over_gamma2={dimensionless_chi(chi_si, gamma_si):.16e}"
    return line


# ------------------------------------------------------------- commands


COMMANDS: dict[str, tuple[str, str]] = {
    "simulate": ("simulate_table", "discrete-bath trajectory CSV"),
    "volterra": ("volterra_table", "memory-kernel route trajectory CSV"),
    "gamma-inf": ("gamma_inf_table", "flat decay rate sweep CSV"),
    "spectrum": ("spectrum_table", "bath spectrum snapshots CSV"),
    "classify": ("_classify_line", "regime report (or sec5 case table)"),
    "mirror": ("_mirror_line", "mirror motion to chirp rate"),
}

_CASTS = {"float": float, "int": int, "bool": _parse_bool, "list[float]": _parse_float_list}


def _keys(core: str) -> tuple[dict, list]:
    """The cast of every key ``core`` reads, from its parameter's annotation
    (less any ``| None``), and the keys it cannot run without: those with no
    default."""
    params = inspect.signature(globals()[core]).parameters.values()
    casts = {p.name: _CASTS[p.annotation.removesuffix(" | None")] for p in params}
    return casts, [p.name for p in params if p.default is p.empty]


# Read at import: a core replaced later (as the benchmark's tracer replaces
# them, by name) keeps the keys of the function it stands in for.
_KEYS = {core: _keys(core) for core, _ in COMMANDS.values()}
_KEYS.update((p["core"], _keys(p["core"])) for p in PRESETS.values() if "core" in p)


def _run(ns: argparse.Namespace) -> None:
    """Run one subcommand's core (or its preset's), with the keys read from
    the core's signature.  Each key takes its value from the first layer that
    sets it: flags, then the config file, then the preset.  Strings are cast
    here; keys nobody set are left to the core's defaults."""
    preset = PRESETS[ns.preset] if getattr(ns, "preset", None) else {}
    core = preset.get("core", COMMANDS[ns.command][0])
    casts, required = _KEYS[core]
    casts = {**casts, "out": str}
    config = _read_config(ns.config) if ns.config else {}
    unknown = set(config) - set(casts)
    if unknown:
        raise ValidationError(
            f"unknown config keys for this command: {', '.join(sorted(unknown))}"
        )
    kw = {}
    for key, cast in casts.items():
        for value in (getattr(ns, key, None), config.get(key), preset.get(key)):
            if value is not None:
                break
        else:
            continue
        if isinstance(value, str):
            try:
                value = cast(value)
            except (ValueError, OverflowError) as exc:
                raise ValidationError(f"cannot interpret {key} = {value!r}: {exc}") from exc
        kw[key] = value
    missing = [key for key in required if key not in kw]
    if missing:
        raise ValidationError(f"missing required parameter: {', '.join(missing)}")
    out = kw.pop("out", None)
    _check_path(out)
    _write(out, globals()[core](**kw))


def _check_path(out: str | None) -> None:
    """Refuse an output path that no file system call can take, before any
    solve runs or any directory is made."""
    if out is not None and "\0" in out:
        raise ValidationError(f"output path {out!r} holds a NUL byte")


# --------------------------------------------------------------- parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chirped-bath",
        description="Decay of a two-level emitter in a frequency-chirped Lorentzian bath",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (core, summary) in COMMANDS.items():
        sp = sub.add_parser(name, help=summary)
        sp.add_argument("--config", help="key=value config file; flags win")
        presets = [p for p, preset in PRESETS.items() if preset["command"] == name]
        if presets:
            sp.add_argument("--preset", choices=presets)
        sp.add_argument("--out", help="output path (default: stdout)")
        for key, cast in _KEYS[core][0].items():
            flag = "--" + key.replace("_", "-")
            if cast is _parse_bool:
                sp.add_argument(flag, dest=key, action="store_true", default=None)
            elif cast is _parse_float_list:
                sp.add_argument(flag, dest=key, help="comma-separated numbers")
            else:
                sp.add_argument(flag, dest=key)
    sp = sub.add_parser("paper-figures", help="regenerate every preset into a directory")
    sp.add_argument("--out", required=True, help="output directory")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    ns = parser.parse_args(argv)
    try:
        if ns.command != "paper-figures":
            _run(ns)
        else:
            _check_path(ns.out)
            out_dir = Path(ns.out)
            out_dir.mkdir(parents=True, exist_ok=True)
            for name, preset in PRESETS.items():
                out = str(out_dir / f"{name}.csv")
                _run(parser.parse_args([preset["command"], "--preset", name, "--out", out]))
    except (ValidationError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except SolverError as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
