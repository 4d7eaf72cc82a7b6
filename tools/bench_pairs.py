#!/usr/bin/env python3
"""Alternating benchmark pairs of two longwave checkouts.

    python3 tools/bench_pairs.py PARENT CHANGE --workload NAME [--workload NAME ...]
                                 [--seed N] [--seconds S] [--pairs P] [--out FILE]

Each pair runs `bench/run.py --workload NAME --seed N --seconds S --trace 0`
once in each checkout, and the pairs alternate which side runs first: on
a shared host the run that goes second of the two reads differently, so
pairs that always run one side first report a difference the code does
not make.  Both checkouts must sit at paths of equal length, because
peak RSS moves with the checkout's layout.  Each side imports longwave
from its own src/.

For each workload and end-to-end metric it prints its verdicts first,
then both medians, the parent's q1-q3 and the number of pairs in which
the change was better, in the direction the parent's BENCHMARK.json
declares.  The verdicts:

- "claim holds" when the change is better in at least 9 of every 10
  pairs and its median is better than the parent's by more than the
  parent's q1-q3 is wide, the rule a claimed gain must meet;
- "beyond bound" when the change's median is worse than the parent's by
  more than the metric's relative bound in BENCHMARK.json;
- "unresolved" when the parent's q1-q3 is wider than that bound times
  the parent's median, unless every run of the change is better than
  every run of the parent: the runs then spread too widely to tell a
  change within the bound from one beyond it, so the metric is not
  reported as unchanged.  It is printed only where it applies.

Separate-process pairs on a shared host resolve differences of a few
percent at best, so the verdicts, not the medians, say whether a pair
run shows a gain or a loss.  --out writes every run, the summary and,
first in the file, the verdicts as JSON, with both sides' git hashes,
the NumPy version, Python version and nproc that the runs report, and
the PYTHONDONTWRITEBYTECODE value that the runs inherit (null when
unset): when it is set, every run compiles longwave afresh at start-up.
It also records the filesystem type and mount options under each
checkout (from /proc/self/mounts; null where that cannot be read): the
workloads write their output files inside the checkout, and what that
costs depends on both.
Standard library only.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")


def parse_args(argv):
    ap = argparse.ArgumentParser(description="Alternating benchmark pairs of two checkouts.")
    ap.add_argument("parent", type=Path, help="the checkout measured against")
    ap.add_argument("change", type=Path, help="the checkout whose gain or loss is measured")
    ap.add_argument("--workload", action="append", required=True,
                    help="a workload of bench/workloads.py (repeatable)")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--out", type=Path, help="write every run and the summary here as JSON")
    return ap.parse_args(argv)


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One `bench/run.py --trace 0` in checkout: its env line and its result line."""
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(cmd, cwd=checkout, stdout=subprocess.PIPE, text=True,
                          timeout=max(900.0, 20.0 * seconds))
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError(f"{checkout.name}: bench/run.py exited with {done.returncode}")
    result = json.loads(lines[-1])
    return {"env": parse_env(next(line for line in lines if line.startswith("env "))),
            "failed": result["failed"],
            "metrics": {k: v["value"] for k, v in result["metrics"].items()}}


def parse_env(line: str) -> dict[str, str]:
    """The keys of run.py's "env k=v ..." line; a value may hold spaces (the cpu's name)."""
    return dict(re.findall(r"(\w+)=(.*?)(?= \w+=|$)", line[len("env "):]))


def mount_of(path: Path, mounts: str) -> dict[str, str] | None:
    """The filesystem type and mount options under path, from the text of /proc/self/mounts.

    The mount is the one whose mount point is the longest that contains
    path, the later line of two at one point (it sits on top).  Mount
    points escape a space, tab, newline or backslash as three octal digits.
    """
    found, depth = None, -1
    for line in mounts.splitlines():
        fields = line.split()
        if len(fields) < 4:
            continue
        point = Path(re.sub(r"\\([0-7]{3})", lambda m: chr(int(m[1], 8)), fields[1]))
        if (point == path or point in path.parents) and len(point.parts) >= depth:
            found, depth = {"type": fields[2], "options": fields[3]}, len(point.parts)
    return found


def summarize(runs: list[dict], declared: dict[str, dict]) -> dict[str, dict]:
    """Per metric: both medians, the parent's q1-q3, the pairs the change won, and the verdicts.

    runs holds one {"parent": metrics, "change": metrics} entry per pair;
    declared maps each metric to its BENCHMARK.json entry, of which
    "better" ("lower" or "higher") and "bound" (relative) are read.
    """
    out = {}
    for name, spec in declared.items():
        parent = [r["parent"][name] for r in runs]
        change = [r["change"][name] for r in runs]
        q1, _, q3 = (statistics.quantiles(parent, n=4, method="inclusive")
                     if len(parent) > 1 else parent * 3)
        sign = -1.0 if spec["better"] == "lower" else 1.0
        p50, c50 = statistics.median(parent), statistics.median(change)
        won = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
        apart = min(sign * c for c in change) > max(sign * p for p in parent)
        out[name] = {
            "claim_holds": 10 * won >= 9 * len(runs) and sign * (c50 - p50) > q3 - q1,
            "beyond_bound": -sign * (c50 - p50) > spec["bound"] * abs(p50),
            "unresolved": q3 - q1 > spec["bound"] * abs(p50) and not apart,
            "parent_median": p50,
            "change_median": c50,
            "parent_q1": q1,
            "parent_q3": q3,
            "change_better_in": won,
            "pairs": len(runs),
        }
    return out


def verdict_line(workload: str, name: str, s: dict, better: str) -> str:
    """One metric's summary, its verdicts first."""
    return (f"{workload} {name}: {'claim holds' if s['claim_holds'] else 'no claim'}, "
            f"{'BEYOND BOUND' if s['beyond_bound'] else 'within bound'}"
            f"{', UNRESOLVED' if s['unresolved'] else ''}; "
            f"{s['parent_median']:.6g} -> {s['change_median']:.6g} "
            f"[parent q1-q3 {s['parent_q1']:.6g}-{s['parent_q3']:.6g}], change "
            f"{better} in {s['change_better_in']} of {s['pairs']}")


def main(argv=None) -> int:
    args = parse_args(argv)
    checkouts = dict(zip(SIDES, (args.parent.resolve(), args.change.resolve())))
    if len(str(checkouts["parent"])) != len(str(checkouts["change"])):
        print("error: the two checkouts' paths differ in length, and peak RSS with them",
              file=sys.stderr)
        return 2
    if not all((c / "bench" / "run.py").is_file() for c in checkouts.values()):
        print("error: each checkout needs bench/run.py", file=sys.stderr)
        return 2
    if not (args.pairs > 0 and args.seconds > 0):
        print("error: --pairs and --seconds must be positive", file=sys.stderr)
        return 2
    declared = json.loads((checkouts["parent"] / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared = {m["name"]: m for m in declared["end_to_end"]}

    try:
        mounts = Path("/proc/self/mounts").read_text(encoding="utf-8", errors="replace")
    except OSError:
        mounts = ""
    filesystems = {side: mount_of(checkouts[side], mounts) for side in SIDES}

    record = {"verdicts": {}, "seed": args.seed, "seconds": args.seconds, "workloads": {},
              "PYTHONDONTWRITEBYTECODE": os.environ.get("PYTHONDONTWRITEBYTECODE")}
    for workload in args.workload:
        runs = []
        for i in range(args.pairs):
            order = SIDES if i % 2 == 0 else SIDES[::-1]
            done = {side: run_once(checkouts[side], workload, args.seed, args.seconds)
                    for side in order}
            for side in SIDES:
                env = done[side]["env"]
                record.setdefault(side, {"dir": checkouts[side].name, "git": env.get("git"),
                                         "filesystem": filesystems[side]})
                record.update((k, env.get(k)) for k in ("numpy", "python", "nproc", "cpu"))
            runs.append({"first": order[0], **{side: done[side]["metrics"] for side in SIDES},
                         "failed": {side: done[side]["failed"] for side in SIDES}})
            print(f"{workload} pair {i + 1}/{args.pairs} ({order[0]} first): "
                  + ", ".join(f"{side} op_p50_s {done[side]['metrics']['op_p50_s']:.6g}"
                              for side in SIDES), flush=True)
        summary = summarize(runs, declared)
        record["workloads"][workload] = {"runs": runs, "summary": summary}
        record["verdicts"][workload] = {
            verdict: [name for name, s in summary.items() if s[verdict]]
            for verdict in ("claim_holds", "beyond_bound", "unresolved")}
        for name, s in summary.items():
            print(verdict_line(workload, name, s, declared[name]["better"]))
    if args.out is not None:
        args.out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
