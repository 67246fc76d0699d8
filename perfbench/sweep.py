#!/usr/bin/env python3
"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/sweep.py --seeds 1-10 [--workloads primal-n4,...]
                               [--trace 0] [--record perfbench/baseline.json]

For every workload and end-to-end metric it prints the median and the
spread, the distance between the first and third quartile of the per-seed
values as a share of their median, next to the metric's bound from
BENCHMARK.json. With `--record` it writes the machine, the versions and
the per-seed values to a JSON file. Runs one process at a time.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse_seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    start = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    wall = time.perf_counter() - start
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1]), wall


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def machine():
    import numpy
    import scipy
    sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                         capture_output=True, text=True).stdout.strip()
    return {"machine": platform.machine(), "platform": platform.platform(),
            "nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "git_sha": sha or None}


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--workloads",
                        default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", type=Path, default=None)
    args = parser.parse_args()

    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    runs = {}
    for workload in args.workloads.split(","):
        rows = []
        for seed in parse_seeds(args.seeds):
            out, wall = run_once(workload, seed, args.seconds, args.trace)
            values = {k: v["value"] for k, v in out["metrics"].items()}
            rows.append({"seed": seed, "wall_s": wall, "correct": out["correct"],
                         "attempted": out["attempted"], "failed": out["failed"],
                         "metrics": values})
            shown = {k: v for k, v in values.items()
                     if k in bounds or k in ("lp_core.solves", "lp_core.highs_iterations",
                                             "window_agent.cache_misses")}
            print(f"{workload} seed={seed} wall={wall:.1f}s correct={out['correct']} "
                  + " ".join(f"{k}={v:.6g}" for k, v in shown.items()), flush=True)
        runs[workload] = rows
        if len(rows) >= 2 and args.trace == 0:
            for name, bound in bounds.items():
                vals = [r["metrics"][name] for r in rows]
                s = spread(vals)
                flag = "ok" if s < bound / 3 else ("WIDE" if s <= bound else "OVER")
                print(f"  {workload} {name}: median={statistics.median(vals):.6g} "
                      f"spread={s:.4f} bound={bound} {flag}", flush=True)
    if args.record:
        doc = {"environment": machine(), "run_seconds": args.seconds,
               "trace": args.trace, "runs": runs}
        args.record.write_text(json.dumps(doc, indent=1) + "\n")


if __name__ == "__main__":
    main()
