"""The benchmark's workloads: the CLI commands of one pass, drawn from the seed.

A pass is a fixed list of operations, each one ``chirped_bath.cli.main``
call that writes one output below the pass directory.  Every pass of a run
repeats the same operations, so later passes must write the same bytes as
the first.  Parameter points come from ``random.Random(seed)`` by Latin
hypercube sampling: each axis is cut into as many strata as the pass has
points and every stratum is used once, so the cost of a pass varies little
from seed to seed while the points still cover the whole range.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from pathlib import Path

DEFAULT_SEED = 0

# snapshots: strong coupling, fast chirp, sparse sampling on large grids.
SNAP_POINTS = 6
SNAP_D = (4.0, 8.0)
SNAP_CHI = (20.0, 200.0)  # drawn log-uniform
# chi * t_end, the width the grid window gains on its inflow side; 150-250
# gives grids of 2000-4000 modes and points of 0.4-1 s.
SNAP_SWEEP = (150.0, 250.0)
SNAP_T_MAX = 8.0  # far below the discrete bath's recurrence time 2 pi / 0.1
SNAP_FRACTIONS = (0.25, 0.5, 0.75, 1.0)  # snapshot times as shares of t_end

# kernel: memory-kernel solves; two static points and four chirped ones.
KERNEL_WEAK_D = (0.15, 0.35)
KERNEL_STRONG_D = (4.0, 8.0)
KERNEL_CHI = (2.0, 100.0)  # drawn log-uniform
KERNEL_T = (1.0, 2.0)
# (chirped, strong coupling, steps) of each point in a pass
KERNEL_SLOTS = (
    (False, False, 500),
    (False, True, 1024),
    (True, False, 500),
    (True, False, 1024),
    (True, True, 500),
    (True, True, 1024),
)
# Sample times of the discrete-bath cross-check, as shares of t_end.  With
# an even step count they fall on the memory-kernel solver's time grid.
KERNEL_CHECK_EVERY = 0.25

# figures: presets rerun one by one, through their own commands, when a run
# makes a single pass.  They are the presets under 10 s, fig5 with its
# thread pool among them; fig4, fig6 and fig7 are left out to keep a run short.
FIGURES_RECHECK = (
    ("spectrum", "fig2"),
    ("gamma-inf", "fig5"),
    ("simulate", "fig8"),
    ("spectrum", "fig9"),
    ("classify", "sec5"),
)


@dataclass(frozen=True)
class Op:
    """One CLI call; ``output`` is its path below the pass directory."""

    name: str
    args: tuple[str, ...]
    output: str
    params: dict = field(default_factory=dict, compare=False)

    def argv(self, out_dir: Path) -> list[str]:
        return [*self.args, "--out", str(out_dir / self.output)]


def _num(x: float) -> str:
    return repr(float(x))


def _strata(rng: random.Random, n: int) -> list[float]:
    """n points in [0, 1), one in each of n equal strata, in random order."""
    order = rng.sample(range(n), n)
    return [(k + rng.random()) / n for k in order]


def _uniform(lo_hi: tuple[float, float], u: float) -> float:
    lo, hi = lo_hi
    return lo + (hi - lo) * u


def _log_uniform(lo_hi: tuple[float, float], u: float) -> float:
    lo, hi = lo_hi
    return math.exp(math.log(lo) + (math.log(hi) - math.log(lo)) * u)


def figures_ops(seed: int) -> list[Op]:
    """All eight presets in one ``paper-figures`` call; the seed is unused."""
    return [Op("paper-figures", ("paper-figures",), "figures")]


def figures_recheck_ops() -> list[Op]:
    return [
        Op(preset, (command, "--preset", preset), f"figures/{preset}.csv")
        for command, preset in FIGURES_RECHECK
    ]


def snapshots_ops(seed: int) -> list[Op]:
    rng = random.Random(f"snapshots:{seed}")
    n = SNAP_POINTS
    ud, uc, us = _strata(rng, n), _strata(rng, n), _strata(rng, n)
    ops = []
    for i in range(n):
        d = _uniform(SNAP_D, ud[i])
        chi = _log_uniform(SNAP_CHI, uc[i])
        t_end = min(SNAP_T_MAX, _uniform(SNAP_SWEEP, us[i]) / chi)
        times = [t_end * f for f in SNAP_FRACTIONS]
        args = ("spectrum", "--d", _num(d), "--chi", _num(chi),
                "--times", ",".join(_num(t) for t in times))
        ops.append(Op(f"p{i}", args, f"p{i}.csv",
                      {"d": d, "chi": chi, "t_end": t_end, "times": times}))
    return ops


def kernel_ops(seed: int) -> list[Op]:
    rng = random.Random(f"kernel:{seed}")
    n = len(KERNEL_SLOTS)
    n_chirped = sum(1 for chirped, _, _ in KERNEL_SLOTS if chirped)
    ud, ut = _strata(rng, n), _strata(rng, n)
    uc = iter(_strata(rng, n_chirped))
    ops = []
    for i, (chirped, strong, steps) in enumerate(KERNEL_SLOTS):
        d = _uniform(KERNEL_STRONG_D if strong else KERNEL_WEAK_D, ud[i])
        chi = _log_uniform(KERNEL_CHI, next(uc)) if chirped else 0.0
        t_end = _uniform(KERNEL_T, ut[i])
        args = ("volterra", "--d", _num(d), "--chi", _num(chi),
                "--t-end", _num(t_end), "--steps", str(steps))
        ops.append(Op(f"k{i}", args, f"k{i}.csv",
                      {"d": d, "chi": chi, "t_end": t_end, "steps": steps}))
    return ops


def kernel_check_op(op: Op) -> Op:
    """Discrete-bath run of a chirped kernel point, sampled sparsely."""
    p = op.params
    args = ("simulate", "--d", _num(p["d"]), "--chi", _num(p["chi"]),
            "--t-end", _num(p["t_end"]),
            "--sample-every", _num(KERNEL_CHECK_EVERY * p["t_end"]))
    return Op(f"{op.name}-bath", args, f"{op.name}-bath.csv", p)


def snapshot_check_op(op: Op) -> Op:
    """Memory-kernel run to the last snapshot time of a spectrum point.

    1024 steps put every snapshot time t_end * k / 4 on the solver's grid.
    """
    p = op.params
    args = ("volterra", "--d", _num(p["d"]), "--chi", _num(p["chi"]),
            "--t-end", _num(p["t_end"]), "--steps", "1024")
    return Op(f"{op.name}-kernel", args, f"{op.name}-kernel.csv", p)


WORKLOADS = {
    "figures": figures_ops,
    "snapshots": snapshots_ops,
    "kernel": kernel_ops,
}
