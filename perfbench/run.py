#!/usr/bin/env python3
"""zsbgames benchmark: one workload in one process.

    python3 perfbench/run.py --workload primal-n4 --seed 1 --seconds 30 --trace 0

Run it from the root of a zsbgames checkout; it imports the package from
`src/` there and fails without printing a result if that is missing.

Workloads, all on the bundled case study, each unit of work with a cold
`SolverCache` (as every `zsbgames play` invocation has):

  primal-n4      full-horizon n=4 primal at lambda=0.3, sides 1 and 2;
                 one op per belief: (p0, q0), then seeded Dirichlet draws
  window-jammer  WindowAgent(side 1, n=3) vs the bundled fixed jammer at
                 N=12, lambda=0.9; one episode per cold cache
  window-duel    WindowAgent on both sides, n=2, N=8, lambda=0.6;
                 batches of DUEL_BATCH episodes sharing one cold cache

`--trace 0` runs units until `--seconds` have passed and prints the
end-to-end metrics: set-up time, ops per second (both in reference-host
seconds, see CalibratedStopwatch) and peak RSS. `--trace 1` runs the workload's
fixed trace round untraced and then traced (see tracer.py), again while
another pair fits in `--seconds`, and prints the per-layer metrics. Every
line before the last is `name = value unit` or a note; the last line is
one JSON object with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse
import dataclasses
import hashlib
import io
import json
import math
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import LP_KINDS, Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

PUBLISHED_VALUE = 112.9049          # case-study value, n=4, lambda=0.3
VALUE_TOL = 1e-3
DUALITY_TOL = 1e-6
E1_SIZE = (12480, 7995, 366670)      # side-1 n=4 primal: vars, rows, nnz
SETUP_REPS = 5
PROBE_REF_S = 0.015                  # CalibratedStopwatch._probe() on an idle 2-core x86-64 host
JAMMER_BATCH = 1
DUEL_BATCH = 1000
LAP_EPISODES = 50                    # window episodes per stopwatch lap
SEED_STRIDE = 1_000_000              # episode seeds of --seed s start at s * stride

END_TO_END = {                        # name -> unit
    "setup_s": "s",
    "ops_per_s": "1/s",
    "peak_rss_mb": "MB",
}
PER_LAYER_TIMES = (                   # seconds; every workload runs these layers
    "lp_core.highs_s", "lp_core.assemble_s", "lp_core.build_s",
    "primal_solver.seq_system_s", "primal_solver.extract_s",
    "primal_solver.self_s", "best_response.self_s", "history_index.build_s",
    "game_model.load_s", "other_s", "trace.overhead_s",
)
PER_LAYER_SHARES = (                  # self time / traced round time
    "dual_solver.self_s", "stat_updater.update_self_s", "stat_updater.belief_s",
    "window_agent.cache_self_s", "window_agent.agent_self_s", "simulator.self_s",
)
PER_LAYER_COUNTS = (
    "lp_core.solves", "lp_core.highs_iterations", "lp_core.vars", "lp_core.rows",
    "lp_core.nnz", "lp_core.not_optimal", "primal_solver.seq_system_calls",
    "best_response.solves", "history_index.builds", "dual_solver.solves",
    "stat_updater.update_solves", "stat_updater.belief_updates",
    "window_agent.cache_lookups", "window_agent.cache_misses",
    "window_agent.cache_entries", "simulator.episodes",
)
# counts that must repeat exactly for a seed
EXACT_COUNTS = ("lp_core.solves", "lp_core.highs_iterations", "lp_core.vars",
                "lp_core.rows", "lp_core.nnz", "window_agent.cache_lookups",
                "window_agent.cache_misses", "window_agent.cache_entries")


def per_layer_units() -> dict:
    """Every per-layer metric the traced run reports, with its unit."""
    units = {name: "s" for name in PER_LAYER_TIMES}
    units.update({name[:-2] + "_share": "ratio" for name in PER_LAYER_SHARES})
    units.update({name: "count" for name in PER_LAYER_COUNTS})
    units["window_agent.cache_hit_ratio"] = "ratio"
    for kind in LP_KINDS:
        units[f"lp_core.solves.{kind}"] = "count"
        units[f"lp_core.highs_iterations.{kind}"] = "count"
        units[f"lp_core.highs_share.{kind}"] = "ratio"
    return units


def import_package():
    if not (SRC / "zsbgames" / "__init__.py").is_file():
        sys.exit(f"error: no zsbgames package under {SRC}; "
                 "run from the root of a zsbgames checkout")
    sys.path.insert(0, str(SRC))
    import zsbgames
    if Path(zsbgames.__file__).resolve().parent != SRC / "zsbgames":
        sys.exit(f"error: imported zsbgames from {zsbgames.__file__}, "
                 f"not from {SRC}")
    return zsbgames


@dataclasses.dataclass
class UnitResult:
    ops: int                         # ops attempted
    failed: int                      # ops that raised or failed a check
    latencies: list                  # seconds per completed op
    digest: str                      # fingerprint of the unit's outputs
    entries: int = 0                 # SolverCache entries at the end


class PrimalN4:
    """Full-horizon primal LPs on both sides at one belief per op."""

    trace_units = 2

    def __init__(self, z, tiny, corrupt):
        self.z = z
        self.spec = z.load_case_study()
        self.n = 2 if tiny else 4
        self.check_reference = not tiny
        self.corrupt = corrupt

    def units(self, seed):
        import numpy as np
        rng = np.random.default_rng(seed)
        yield 0, self.spec.p0, self.spec.q0
        i = 1
        while True:
            yield i, rng.dirichlet(np.ones(self.spec.num_k)), \
                rng.dirichlet(np.ones(self.spec.num_l))
            i += 1

    def run_unit(self, unit, watch) -> UnitResult:
        i, p, q = unit
        z, spec = self.z, self.spec
        try:
            v1 = z.solve_primal(spec, p, q, self.n, spec.lam, 1).value
            elapsed = watch.lap()
            v2 = z.solve_primal(spec, p, q, self.n, spec.lam, 2).value
            elapsed += watch.lap()
        except Exception as exc:     # a failed op is counted, not fatal
            print(f"op {i} failed: {exc!r}", file=sys.stderr)
            watch.lap()
            return UnitResult(1, 1, [], "error")
        if self.corrupt:
            v1 += 1.0
        ok = math.isfinite(v1) and abs(v1 - v2) <= DUALITY_TOL
        if i == 0 and self.check_reference:
            ok = ok and abs(v1 - PUBLISHED_VALUE) <= VALUE_TOL
        if not ok:
            print(f"op {i}: check failed, values {v1!r} / {v2!r}", file=sys.stderr)
        return UnitResult(1, 0 if ok else 1, [elapsed], f"{v1!r},{v2!r}")


class WindowPlay:
    """Monte Carlo batches of window play with a cold cache per batch."""

    def __init__(self, z, spec, window_n, make_opponent, batch, trace_units,
                 corrupt):
        self.z = z
        self.spec = spec
        self.config = z.WindowConfig(window_n=window_n,
                                     total_horizon=spec.horizon_n)
        self.make_opponent = make_opponent
        self.batch = batch
        self.trace_units = trace_units
        self.corrupt = corrupt
        # largest possible discounted total: g_bar * sum_t lambda^(t-1)
        self.upper = z.g_bar(spec) * sum(spec.lam ** t
                                          for t in range(spec.horizon_n))

    def units(self, seed):
        base = seed * SEED_STRIDE
        while True:
            yield base
            base += self.batch

    def run_unit(self, base_seed, watch) -> UnitResult:
        z, spec = self.z, self.spec
        cache = z.SolverCache(spec)
        starts, latencies = [], []

        def window_agent():          # called as each episode starts
            if starts:
                latencies.append(time.perf_counter() - starts[-1])
                if len(starts) % LAP_EPISODES == 0:
                    watch.lap()
            starts.append(time.perf_counter())
            return z.WindowAgent(spec, self.config, 1, cache=cache)

        try:
            result = z.run_monte_carlo(spec, window_agent,
                                       lambda: self.make_opponent(cache),
                                       self.batch, base_seed)
        except Exception as exc:     # a failed batch fails all its episodes
            print(f"batch {base_seed} failed: {exc!r}", file=sys.stderr)
            watch.lap()
            return UnitResult(self.batch, self.batch, [], "error")
        latencies.append(time.perf_counter() - starts[-1])
        watch.lap()
        totals = result.totals * (-1.0 if self.corrupt else 1.0)
        bad = sum(1 for x in totals
                  if not (math.isfinite(x) and 0.0 <= x <= self.upper + 1e-9))
        if bad:
            print(f"batch {base_seed}: {bad} totals outside [0, {self.upper}]",
                  file=sys.stderr)
        buf = io.StringIO()
        z.simulator.write_results_csv(result, buf)
        digest = hashlib.sha256(buf.getvalue().encode()).hexdigest()
        entries = len(getattr(cache, "_store", ()))
        return UnitResult(self.batch, bad, latencies, digest, entries)


def make_workload(z, name, tiny=False, corrupt=False):
    spec = z.load_case_study()
    if name == "primal-n4":
        return PrimalN4(z, tiny, corrupt)
    if name == "window-jammer":
        horizon, window_n = (4, 2) if tiny else (12, 3)
        cell = dataclasses.replace(spec, lam=0.9, horizon_n=horizon)
        z.validate(cell)
        policy_file = Path(z.__file__).parent / "data" / "fixed_policy_jammer.json"
        policy = json.loads(policy_file.read_text())["policy"]
        z.FixedPolicyAgent(cell, 2, policy)           # validate once, up front
        return WindowPlay(z, cell, window_n,
                          lambda cache: z.FixedPolicyAgent(cell, 2, policy),
                          JAMMER_BATCH, 3 if tiny else 5, corrupt)
    if name == "window-duel":
        horizon = 4 if tiny else 8
        cell = dataclasses.replace(spec, lam=0.6, horizon_n=horizon)
        z.validate(cell)
        config = z.WindowConfig(window_n=2, total_horizon=horizon)
        return WindowPlay(z, cell, 2,
                          lambda cache: z.WindowAgent(cell, config, 2, cache=cache),
                          20 if tiny else DUEL_BATCH, 1, corrupt)
    raise ValueError(name)


WORKLOADS = ("primal-n4", "window-jammer", "window-duel")


def tail(latencies):
    """(percentile, value) of the highest percentile with >= 10 samples above."""
    n = len(latencies)
    if n < 11:
        return None
    return 100.0 * (n - 10) / n, sorted(latencies)[n - 11]


class Stopwatch:
    """Wall time split into laps; `lap()` ends one and starts the next."""

    def __init__(self):
        self.laps = []                       # (wall, reference-host) seconds
        self._start = time.perf_counter()

    def lap(self) -> float:
        wall = time.perf_counter() - self._start
        self.laps.append((wall, self._reference(wall)))
        self._start = time.perf_counter()
        return wall

    def _reference(self, wall: float) -> float:
        return wall


class CalibratedStopwatch(Stopwatch):
    """Stopwatch whose laps are also scaled to the reference host's speed.

    A shared host slows down by tens of percent for seconds to minutes at
    a time when its neighbours are busy. After each lap a fixed probe that
    does not touch zsbgames (a pure-Python dict loop and a small HiGHS LP)
    is timed, and the lap is scaled by PROBE_REF_S over the mean of the
    probe times before and after it. Probe time is in no lap.
    """

    def __init__(self):
        import numpy as np
        import scipy.sparse
        rng = np.random.default_rng(0)
        self._lp = (-rng.random(300), np.ones(150),
                    scipy.sparse.random(150, 300, density=0.05,
                                        random_state=rng, format="csr"))
        self._last = self._probe()
        super().__init__()

    def _probe(self) -> float:
        from scipy.optimize import linprog
        c, b, a = self._lp
        times = []
        for _ in range(3):
            start = time.perf_counter()
            acc = {}
            for i in range(10_000):
                key = (i & 63, i & 7)
                acc[key] = acc.get(key, 0.0) + i
            linprog(c, A_ub=a, b_ub=b, bounds=(0, 1), method="highs")
            times.append(time.perf_counter() - start)
        return statistics.median(times)

    def _reference(self, wall: float) -> float:
        probe = self._probe()
        factor = PROBE_REF_S / (0.5 * (self._last + probe))
        self._last = probe
        return wall * factor


def measure_setup(args):
    """Median (reference-host, wall) time of fresh processes that only set up."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload] + (["--tiny"] if args.tiny else [])
    watch = CalibratedStopwatch()
    for _ in range(SETUP_REPS):
        watch.lap()                          # restart the lap after the probe
        subprocess.run(cmd, check=True, cwd=ROOT)
        watch.lap()
    setups = watch.laps[1::2]                # the odd laps time a child each
    return (statistics.median(ref for _, ref in setups),
            statistics.median(wall for wall, _ in setups))


def run_untraced(wl, seed, seconds):
    """Units until `seconds` have passed; returns (results, stopwatch)."""
    results = []
    start = time.perf_counter()
    watch = CalibratedStopwatch()
    for unit in wl.units(seed):
        results.append(wl.run_unit(unit, watch))
        if time.perf_counter() - start >= seconds:
            break
    return results, watch


def traced_pass(wl, units):
    tracer = Tracer()
    tracer.install()
    try:
        root = tracer.open("root")
        watch = Stopwatch()
        results = [wl.run_unit(u, watch) for u in units]
        tracer.close(root)
    finally:
        tracer.uninstall()
    return tracer, results


def run_traced(wl, seed, seconds):
    """The trace round untraced, then traced; again while another pair fits
    in `seconds`.

    Returns one per-layer summary per traced pass, every unit result, and
    the list of failed run-level checks.
    """
    units = []
    for unit in wl.units(seed):
        units.append(unit)
        if len(units) == wl.trace_units:
            break
    passes, results, problems = [], [], []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        watch = Stopwatch()
        plain = [wl.run_unit(u, watch) for u in units]
        plain_s = time.perf_counter() - t0
        tracer, traced = traced_pass(wl, units)
        summary = tracer.summary()
        summary["trace.overhead_s"] = summary["root_s"] - plain_s
        summary["window_agent.cache_entries"] = sum(r.entries for r in traced)
        passes.append(summary)
        results += plain + traced
        if [r.digest for r in plain] != [r.digest for r in traced]:
            problems.append("traced and untraced outputs differ")
        if isinstance(wl, PrimalN4) and wl.n == 4:
            size = tracer.first_lp_size("primal1")
            if size != E1_SIZE:
                problems.append(f"side-1 n=4 LP size {size} != {E1_SIZE}")
        elapsed = time.perf_counter() - start
        if elapsed * (len(passes) + 1) / len(passes) > seconds:
            break
    for key in EXACT_COUNTS:
        if len({p[key] for p in passes}) > 1:
            problems.append(f"{key} differs between repetitions")
    return passes, results, problems


def layer_metrics(z, passes):
    """Per-layer metrics as the median over passes, plus extra printed lines."""
    loads = []
    for _ in range(5):
        t0 = time.perf_counter()
        z.load_case_study()
        loads.append(time.perf_counter() - t0)
    for p in passes:
        root_s = p["root_s"]
        lookups = p["window_agent.cache_lookups"]
        p["window_agent.cache_hit_ratio"] = (
            1.0 - p["window_agent.cache_misses"] / lookups if lookups else 0.0)
        for name in PER_LAYER_SHARES:
            p[name[:-2] + "_share"] = p[name] / root_s
        for kind in LP_KINDS:
            p[f"lp_core.highs_share.{kind}"] = p[f"lp_core.highs_s.{kind}"] / root_s
        p["game_model.load_s"] = statistics.median(loads)

    def median(name):
        return statistics.median(p[name] for p in passes)

    metrics = {}
    for name, unit in per_layer_units().items():
        value = median(name)
        metrics[name] = {"value": int(value) if unit == "count" else value,
                         "unit": unit}
    extra = {name: (median(name), "s") for name in PER_LAYER_SHARES}
    extra.update({f"lp_core.highs_s.{kind}": (median(f"lp_core.highs_s.{kind}"), "s")
                  for kind in LP_KINDS})
    extra["traced_round_s"] = (median("root_s"), "s")
    return metrics, extra


def print_metric(name, value, unit, note=""):
    print(f"{name} = {value:.6g} {unit}{note}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="small sizes, for the self-test")
    parser.add_argument("--corrupt", action="store_true",
                        help="perturb each checked output, for the self-test")
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    z = import_package()
    wl = make_workload(z, args.workload, args.tiny, args.corrupt)
    if args.setup_probe:
        return 0

    print(f"workload = {args.workload} seed = {args.seed} trace = {args.trace}")
    if args.trace:
        passes, results, problems = run_traced(wl, args.seed, args.seconds)
        metrics, extra = layer_metrics(z, passes)
        for name, m in metrics.items():
            print_metric(name, m["value"], m["unit"])
        for name, (value, unit) in extra.items():
            print_metric(name, value, unit)
        print(f"passes = {len(passes)}")
        latencies = [x for r in results[:wl.trace_units] for x in r.latencies]
    else:
        setup_s, wall_setup_s = measure_setup(args)
        results, watch = run_untraced(wl, args.seed, args.seconds)
        problems = []
        latencies = [x for r in results for x in r.latencies]
        if not latencies:
            sys.exit("error: every op failed")
        values = {
            "setup_s": setup_s,
            "ops_per_s": len(latencies) / sum(ref for _, ref in watch.laps),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}
        for name, m in metrics.items():
            print_metric(name, m["value"], m["unit"])
        wall = sum(w for w, _ in watch.laps)
        factors = [ref / w for w, ref in watch.laps]
        print_metric("wall.setup_s", wall_setup_s, "s")
        print_metric("wall.ops_per_s", len(latencies) / wall, "1/s")
        print_metric("speed_factor", statistics.median(factors), "ratio",
                     f" (min {min(factors):.4g}, max {max(factors):.4g}, "
                     f"{len(factors)} laps)")
        print(f"units = {len(results)} ops = {len(latencies)}")
        print_metric("op_ms_p50", 1000.0 * statistics.median(latencies), "ms",
                     f" (wall, {len(latencies)} ops)")
    attempted = sum(r.ops for r in results)
    failed = sum(r.failed for r in results)
    tl = tail(latencies)
    if tl:
        print_metric("op_ms_tail", 1000.0 * tl[1], "ms",
                     f" (p{tl[0]:.4g} of {len(latencies)} untraced ops)")
    print(f"unit0_digest = {results[0].digest}")
    print_metric("error_rate", failed / attempted, "ratio",
                 f" ({failed} of {attempted} ops)")
    for problem in problems:
        print(f"check failed: {problem}")
    correct = failed == 0 and not problems
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
