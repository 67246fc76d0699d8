#!/usr/bin/env python3
"""Self-test of the benchmark.

    python3 perfbench/selftest.py [--full]

Checks, on every workload at tiny sizes:
  - BENCHMARK.json names exactly the metrics and units run.py reports;
  - `--trace 0` and `--trace 1` print every metric as `name = value unit`
    and end with a correct JSON result;
  - the self times of one traced pass add up to the traced round;
  - `--corrupt` (each checked output perturbed) drives error_rate above 0;
  - two traced runs with the same seed repeat the exact counts and the
    output digest;
  - without the package source the benchmark exits non-zero and prints no
    result.
`--full` repeats the exact-count check at benchmark sizes (about a minute
per workload), which also checks the side-1 n=4 LP size of primal-n4.
"""

from __future__ import annotations

import argparse
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import run

ROOT = run.ROOT
SELF_TIMED = ("lp_core.highs_s", "lp_core.assemble_s", "lp_core.build_s",
              "primal_solver.seq_system_s", "primal_solver.extract_s",
              "primal_solver.self_s", "best_response.self_s",
              "history_index.build_s", "other_s") + run.PER_LAYER_SHARES


def bench(workload, *flags, seed=1, seconds=1, trace=0, cwd=ROOT):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace), *flags]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=600)


def parse(proc):
    """(printed metric lines as {name: (value, unit)}, JSON result)."""
    if proc.returncode != 0:
        raise AssertionError(f"exit {proc.returncode}: {proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    printed = {}
    for line in lines[:-1]:
        name, sep, rest = line.partition(" = ")
        fields = rest.split()
        if sep and len(fields) >= 2:
            try:
                printed[name] = (float(fields[0]), fields[1])
            except ValueError:
                pass
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
    return printed, result


def check_metric_lists():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert e2e == run.END_TO_END, (e2e, run.END_TO_END)
    assert layer == run.per_layer_units(), set(layer) ^ set(run.per_layer_units())
    assert {w["name"] for w in spec["workloads"]} == set(run.WORKLOADS)
    return e2e, layer


def check_output(proc, expected):
    printed, result = parse(proc)
    assert result["correct"] and result["failed"] == 0, result
    assert set(result["metrics"]) == set(expected), set(result["metrics"]) ^ set(expected)
    for name, unit in expected.items():
        assert result["metrics"][name]["unit"] == unit, name
        assert printed[name][1] == unit, (name, printed.get(name))
    assert printed["error_rate"][0] == 0.0
    return printed, result


def check_self_times(printed):
    total = sum(printed[name][0] for name in SELF_TIMED)
    round_s = printed["traced_round_s"][0]
    assert abs(total - round_s) <= 1e-3 * round_s + 1e-5, (total, round_s)


def counts_of(proc):
    printed, result = parse(proc)
    digest = next(line for line in proc.stdout.splitlines()
                  if line.startswith("unit0_digest"))
    return {k: result["metrics"][k]["value"] for k in run.EXACT_COUNTS}, digest, result


def check_repeats(workload, flags, seconds):
    a = counts_of(bench(workload, *flags, seconds=seconds, trace=1))
    b = counts_of(bench(workload, *flags, seconds=seconds, trace=1))
    assert a[2]["correct"] and b[2]["correct"], (a[2], b[2])
    assert a[:2] == b[:2], (a[:2], b[:2])
    return a[0]


def check_missing_package():
    with tempfile.TemporaryDirectory(dir=ROOT) as tmp:
        shutil.copy(ROOT / "BENCHMARK.json", tmp)
        shutil.copytree(ROOT / "perfbench", Path(tmp) / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = bench("window-duel", cwd=tmp)
    assert proc.returncode != 0, proc.stdout
    assert not proc.stdout.strip().endswith("}"), proc.stdout


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--full", action="store_true")
    args = parser.parse_args()

    e2e, layer = check_metric_lists()
    print("metric lists match BENCHMARK.json")
    for workload in run.WORKLOADS:
        check_output(bench(workload, "--tiny"), e2e)
        printed, _ = check_output(bench(workload, "--tiny", seconds=0, trace=1), layer)
        check_self_times(printed)
        _, result = parse(bench(workload, "--tiny", "--corrupt"))
        assert result["failed"] > 0 and not result["correct"], result
        print(f"{workload}: metrics, self times and corrupt check ok "
              f"(corrupt error_rate {result['failed']}/{result['attempted']})")
        counts = check_repeats(workload, ["--tiny"], 0)
        print(f"{workload}: tiny counts repeat {counts}")
        if args.full:
            counts = check_repeats(workload, [], 0)
            print(f"{workload}: full counts repeat {counts}")
    check_missing_package()
    print("without src/ the benchmark exits non-zero and prints no result")
    print("selftest passed")


if __name__ == "__main__":
    main()
