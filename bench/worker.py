"""Measured process of the benchmark; started by run.py, not by hand.

It imports the program (the set-up that ``setup_s`` times), runs whole
passes of one workload through ``chirped_bath.cli.main`` until ``--seconds``
of passes are measured, then checks the outputs outside the timed region
and prints the result line.  With ``--trace 1`` the first pass runs
untraced, as the reference for the tracing overhead, and the later passes
run with the program's module functions wrapped (see tracing.py).
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

import numpy  # noqa: F401  (numpy, scipy and the CLI are the timed set-up)
import scipy  # noqa: F401
from chirped_bath import cli

READY = time.monotonic()

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

OUT_ROOT = Path(".bench_out")
TRACE_ROOT = Path(".bench_trace")


def run_op(op: workloads.Op, out_dir: Path) -> str | None:
    """One CLI call; None on exit 0, else why it failed."""
    err = io.StringIO()
    (out_dir / op.output).parent.mkdir(parents=True, exist_ok=True)
    try:
        with contextlib.redirect_stderr(err):
            code = cli.main(op.argv(out_dir))
    except (Exception, SystemExit):
        return f"{op.name}: {traceback.format_exc().strip().splitlines()[-1]}"
    if code != 0:
        return f"{op.name}: exit {code}: {err.getvalue().strip()}"
    return None


def run_pass(ops, out_dir: Path) -> dict:
    out_dir.mkdir(parents=True)
    wall0, cpu0 = time.perf_counter(), time.process_time()
    results = [(op, run_op(op, out_dir)) for op in ops]
    wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
    return {"dir": out_dir, "wall_s": wall, "cpu_s": cpu,
            "failures": [f for _, f in results if f],
            "ok": [op for op, f in results if f is None]}


def bytes_below(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def check_outputs(workload: str, ok_ops, out_dir: Path, run_dir: Path,
                  report: checks.Report) -> None:
    """The workload's checks on the first pass's outputs."""
    if workload == "figures":
        for op in ok_ops:
            checks.figures(out_dir / op.output, report)
        return
    ref_dir = run_dir / "references"
    ref_dir.mkdir()
    for i, op in enumerate(ok_ops):
        table = checks.read_table(out_dir / op.output)
        p = op.params
        if workload == "snapshots":
            checks.snapshot_properties(table, p["times"], report)
            # The memory-kernel reference costs 1-2 s a point; two points a run.
            if i >= 2:
                continue
            ref = workloads.snapshot_check_op(op)
            failure = run_op(ref, ref_dir)
            report.require("snapshots.kernel_run", failure is None, str(failure))
            if failure is None:
                checks.snapshot_two_paths(table, checks.read_table(ref_dir / ref.output), report)
        elif p["chi"] == 0.0:
            checks.kernel_static(table, p["d"], report)
        else:
            ref = workloads.kernel_check_op(op)
            failure = run_op(ref, ref_dir)
            report.require("kernel.bath_run", failure is None, str(failure))
            if failure is None:
                checks.kernel_vs_bath(table, checks.read_table(ref_dir / ref.output), report)


def parse_args() -> argparse.Namespace:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, required=True)
    ap.add_argument("--threads", type=int, required=True)
    ap.add_argument("--t-launch", dest="t_launch", type=float, required=True)
    return ap.parse_args()


def main(args: argparse.Namespace) -> int:
    ops = workloads.WORKLOADS[args.workload](args.seed)
    run_dir = OUT_ROOT / f"{args.workload}-{os.getpid()}"
    tracer = tracing.Tracer() if args.trace else None
    passes, layers, spans = [], [], []
    report = checks.Report()
    try:
        measured = 0.0
        while measured < args.seconds or (tracer and len(passes) < 2):
            traced = tracer is not None and len(passes) > 0
            if traced and not layers:
                tracer.install()
            rec = run_pass(ops, run_dir / f"pass-{len(passes)}")
            passes.append(rec)
            measured += rec["wall_s"]
            if traced:
                taken = tracer.take()
                spans.extend(dict(s, pass_index=len(passes) - 1) for s in taken)
                layers.append(tracing.pass_metrics(taken, bytes_below(rec["dir"]), args.threads))
        if tracer:
            tracer.uninstall()
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

        first = passes[0]
        for later in passes[1:]:
            checks.identical(first["dir"], later["dir"], report)
        if len(passes) == 1:
            rerun = workloads.figures_recheck_ops() if args.workload == "figures" else ops
            redo = run_pass(rerun, run_dir / "recheck")
            report.require("determinism.rerun", not redo["failures"], "; ".join(redo["failures"]))
            checks.identical(first["dir"], redo["dir"], report, subset=True)
        try:
            check_outputs(args.workload, first["ok"], first["dir"], run_dir, report)
        except Exception:
            report.require("checks", False, traceback.format_exc().strip().splitlines()[-1])
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
        with contextlib.suppress(OSError):
            OUT_ROOT.rmdir()

    failures = [f for rec in passes for f in rec["failures"]]
    if tracer:
        metrics = tracing.combine(layers)
        overhead = statistics.median(r["wall_s"] for r in passes[1:]) - passes[0]["wall_s"]
        write_trace(args, passes, metrics, overhead, spans, tracer.absent, report)
    else:
        metrics = {
            "wall_s": statistics.median(r["wall_s"] for r in passes),
            "cpu_s": statistics.median(r["cpu_s"] for r in passes),
            "setup_s": READY - args.t_launch,
            "peak_rss_mb": peak_rss_mb,
        }
    units = tracing.LAYER_UNITS if tracer else {"wall_s": "s", "cpu_s": "s", "setup_s": "s",
                                              "peak_rss_mb": "MiB"}
    print("pass wall_s: " + " ".join(f"{r['wall_s']:.3f}" for r in passes), file=sys.stderr)
    for line in report.failures + failures:
        print(f"FAIL {line}", file=sys.stderr)
    for name, dev in sorted(report.deviations.items()):
        print(f"deviation {name} = {dev:.3e}", file=sys.stderr)
    result = {
        "correct": not report.failures,
        "attempted": len(ops) * len(passes),
        "failed": len(failures),
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def write_trace(args, passes, metrics, overhead, spans, absent, report) -> None:
    TRACE_ROOT.mkdir(exist_ok=True)
    path = TRACE_ROOT / f"{args.workload}-seed{args.seed}.json"
    t0 = min((s["start"] for s in spans), default=0.0)
    doc = {
        "workload": args.workload,
        "seed": args.seed,
        "thread_cap": args.threads,
        "passes": [{"wall_s": r["wall_s"], "cpu_s": r["cpu_s"], "traced": i > 0}
                   for i, r in enumerate(passes)],
        "tracing_overhead_s": overhead,
        "layers": metrics,
        "absent": absent,
        "worst_deviations": report.deviations,
        "spans": [{"name": s["name"], "start": s["start"] - t0, "end": s["end"] - t0,
                   "parent": s["parent"], "id": s["id"], "pass": s["pass_index"],
                   "thread": s["thread"], **s["attrs"]} for s in spans],
    }
    path.write_text(json.dumps(doc, indent=1) + "\n")
    print(f"trace: {path} (tracing overhead {overhead:+.3f} s a pass)", file=sys.stderr)


if __name__ == "__main__":
    sys.exit(main(parse_args()))
