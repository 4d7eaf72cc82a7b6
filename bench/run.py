#!/usr/bin/env python3
"""longwave benchmark: seeded workloads, time to a checked answer.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME "all" runs every workload in turn, each in its own child process.
Run from the root of a checkout; longwave is imported from its src/
directory.  One process, one client, closed loop: the next op starts
only after the previous op and its output checks have finished.  The
workloads, their inputs and their checks are in workloads.py.

--trace 0  measures set-up time in fresh child processes, then runs ops
           for S seconds and reports the end-to-end metrics.
--trace 1  runs the workload's fixed first ops twice each, untraced and
           traced, then the per-call layer sweep (sweep.py), and reports
           the per-layer metrics.  The spans are written to
           .bench_out/spans-<workload>-seed<N>.npz.

Op, span and sweep times are wall times scaled to a reference machine
speed by speed.py, because the shared host's speed drifts by up to 1.7x
within seconds.  Set-up time is a raw wall time.  The raw wall median
of the ops is printed beside the scaled one.

Every stdout line but the last is for people: the environment, why the
workload exists, each metric with its unit and sample count, and each
check that missed.  The last line is one JSON object with the keys
correct, attempted, failed and metrics.  Without src/longwave, or with
bad arguments, the benchmark exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

import speed

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_PROBES = 7

END_TO_END = (
    ("setup_s", "s"),
    ("ops_per_s", "op/s"),
    ("op_p50_s", "s"),
    ("op_p90_s", "s"),
    ("peak_rss_mb", "MB"),
    ("pass_ratio", "ratio"),
)


def parse_args(argv):
    ap = argparse.ArgumentParser(description="Run one longwave benchmark workload.")
    ap.add_argument("--workload", required=True,
                    help="a workload of workloads.py, or 'all' to run each in turn")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="small grids, one set-up probe and one traced op; "
                         "for the benchmark's own smoke test, not for measuring")
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def load_workloads():
    """Import workloads.py (and so longwave) from this checkout's src/."""
    if not (SRC / "longwave" / "__init__.py").is_file():
        return None
    sys.path.insert(0, str(SRC))
    import workloads

    return workloads


def environment() -> dict[str, str]:
    import numpy

    git = "unknown"
    if (ROOT / ".git").exists():
        try:
            done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                  capture_output=True, text=True, timeout=30)
            git = done.stdout.strip() or git
        except (OSError, subprocess.SubprocessError):
            pass
    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"git": git, "python": platform.python_version(), "numpy": numpy.__version__,
            "nproc": str(len(os.sched_getaffinity(0))), "cpu": cpu}


def child_command(args, workload: str, *extra: str) -> list[str]:
    """This script on another workload or mode, with the same seed and size."""
    return ([sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--seed", str(args.seed), *extra] + (["--tiny"] if args.tiny else []))


def setup_seconds(args, probes: int) -> float:
    """Median wall time from spawning a fresh interpreter to ready-for-op-0."""
    cmd = child_command(args, args.workload, "--setup-probe")
    walls = []
    for _ in range(probes):
        t0 = perf_counter()
        with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True) as child:
            ready = child.stdout.readline().strip() == "ready"
            walls.append(perf_counter() - t0)
            try:
                child.communicate(timeout=120)
            except subprocess.TimeoutExpired:
                child.kill()
                raise
        if not ready or child.returncode != 0:
            raise RuntimeError(f"set-up probe failed (exit {child.returncode})")
    return statistics.median(walls)


def run_op(wl, inp, out: Path, tracer=None, op_id: int = -1):
    """Run one op, then its checks; returns ((start, end), misses)."""
    if tracer is not None:
        tracer.op_id, tracer.active = op_id, True
    result = raised = None
    start = perf_counter()
    try:
        result = wl.run(inp, out)
    except Exception:
        raised = traceback.format_exc()
    finally:
        end = perf_counter()
        if tracer is not None:
            tracer.active = False
    if raised is not None:
        print(raised, file=sys.stderr)
        return (start, end), ["op raised"]
    try:
        return (start, end), wl.check(inp, result, out)
    except Exception:
        traceback.print_exc()
        return (start, end), ["check raised"]


def timed_loop(wl, seed: int, seconds: float, tiny: bool, out: Path):
    """Closed loop: ops 0, 1, ... until `seconds` have passed (at least one).

    Returns the reference-speed op times, the wall op times and each
    op's check misses.
    """
    spans, misses = [], []
    with speed.SpeedProbe() as probe:
        deadline = perf_counter() + seconds
        while not spans or perf_counter() < deadline:
            span, missed = run_op(wl, wl.inputs(seed, len(spans), tiny), out)
            spans.append(span)
            misses.append(missed)
    return probe.reference_seconds(spans), [b - a for a, b in spans], misses


def traced_replay(workloads, wl, seed: int, tiny: bool, out: Path):
    """Each of the workload's first ops untraced and traced; layer metrics per op."""
    import sweep
    import tracing

    n = 1 if tiny else wl.traced_ops
    plain, traced = [], []
    tracer = tracing.Tracer()
    tracer.install(workloads.api)
    try:
        with speed.SpeedProbe() as probe:
            for i in range(n):
                # alternate which twin runs first, so warm-up costs fall on both
                inp = wl.inputs(seed, i, tiny)
                for on in ((False, True) if i % 2 == 0 else (True, False)):
                    (traced if on else plain).append(
                        run_op(wl, inp, out, tracer if on else None, i))
    finally:
        tracer.uninstall()
    metrics = tracer.layer_metrics(n, probe.reference_clock)
    metrics["trace.overhead_ratio"] = (sum(probe.reference_seconds([s for s, _ in traced]))
                                       / sum(probe.reference_seconds([s for s, _ in plain])))
    metrics.update(sweep.run(out))
    tracer.save(OUT / f"spans-{wl.name}-seed{seed}.npz")
    units = dict(tracing.LAYER_METRICS)
    units.update((name, "us") for name in sweep.metric_names())
    return metrics, units, [m for _, m in plain + traced], n


def run_all(args, names) -> int:
    """Every workload in its own child process; metrics keyed workload.metric."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        cmd = child_command(args, name, "--seconds", str(args.seconds),
                            "--trace", str(args.trace))
        done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=900)
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or not lines:
            print(f"error: workload {name} exited with {done.returncode}", file=sys.stderr)
            return done.returncode or 1
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        total["correct"] &= result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        total["metrics"].update((f"{name}.{k}", v) for k, v in result["metrics"].items())
    print(json.dumps(total))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    workloads = load_workloads()
    if workloads is None:
        print(f"error: no longwave sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args, list(workloads.WORKLOADS))
    wl = workloads.WORKLOADS.get(args.workload)
    if wl is None:
        print(f"error: unknown workload {args.workload!r}; "
              f"known: {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    if not args.seconds > 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2

    out = OUT / f"run-{os.getpid()}"
    out.mkdir(parents=True, exist_ok=True)
    try:
        wl.warm(wl.inputs(args.seed, 0, args.tiny))
        if args.setup_probe:
            print("ready", flush=True)
            return 0

        env = environment()
        print("env " + " ".join(f"{k}={v}" for k, v in env.items()))
        print(f"workload {wl.name}: {wl.why}")
        if args.trace:
            metrics, units, misses, n = traced_replay(workloads, wl, args.seed,
                                                      args.tiny, out)
            samples = {name: f"{n} traced ops" for name in units}
        else:
            probes = 1 if args.tiny else SETUP_PROBES
            setup = setup_seconds(args, probes)
            times, walls, misses = timed_loop(wl, args.seed, args.seconds, args.tiny, out)
            passed = sum(1 for m in misses if not m)
            metrics = {
                "setup_s": setup,
                "ops_per_s": passed / sum(times),
                "op_p50_s": statistics.median(times),
                "op_p90_s": (statistics.quantiles(times, n=10, method="inclusive")[8]
                             if len(times) > 1 else times[0]),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                "pass_ratio": passed / len(times),
            }
            units = dict(END_TO_END)
            samples = {name: f"{len(times)} ops" for name in units}
            samples["setup_s"] = f"{probes} probes"
            samples["op_p50_s"] += f"; wall median {statistics.median(walls):.6g} s"
    finally:
        shutil.rmtree(out, ignore_errors=True)

    for i, missed in enumerate(misses):
        for miss in missed:
            print(f"check miss: op {i}: {miss}")
    failed = sum(1 for m in misses if m)
    for name, unit in units.items():
        print(f"{name} = {metrics[name]:.6g} {unit} ({samples[name]})")
    print(f"fail_ratio = {failed / len(misses):.6g} ({failed} of {len(misses)} ops)")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(misses),
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
