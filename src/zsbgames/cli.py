"""Command-line interface.

Subcommands: validate a game file, solve a game (value, vector payoff,
optional strategy and LP dump), play seeded Monte Carlo matches between
agents with a bound check, print the window bound, compute the oracle
value of a tiny game, and reproduce the bundled case study end to end.

Exit codes: 0 success, 2 validation, 3 capacity, 4 solver, 5 I/O.
"""

from __future__ import annotations

import dataclasses
import functools
import sys
from pathlib import Path

import click
import numpy as np

from . import bounds, game_model, lp_core, primal_solver, simulator
from .errors import (CapacityError, DomainError, NumericalError, ParseError,
                     SolverError, ValidationError)
from .window_agent import (FIXED_N, REMAINING_WINDOW, FixedPolicyAgent,
                           OptimalAgent, SolverCache, WindowAgent,
                           WindowConfig, load_fixed_policy)

EXIT_VALIDATION = 2
EXIT_CAPACITY = 3
EXIT_SOLVER = 4
EXIT_IO = 5


def _handle_errors(fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except (ValidationError, DomainError) as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(EXIT_VALIDATION)
        except CapacityError as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(EXIT_CAPACITY)
        except (SolverError, NumericalError) as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(EXIT_SOLVER)
        except (ParseError, OSError) as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(EXIT_IO)
    return wrapper


def _parse_dist(text: str | None, size: int, name: str) -> np.ndarray | None:
    if text is None:
        return None
    try:
        vec = np.array([float(x) for x in text.split(",")], dtype=float)
    except ValueError as exc:
        raise ValidationError(f"--{name} must be comma-separated floats") from exc
    if vec.size != size:
        raise ValidationError(f"--{name} has {vec.size} entries, expected {size}")
    # written so that NaN entries fail the test
    if not (np.all(vec >= 0) and abs(float(vec.sum()) - 1.0) <= 1e-9):
        raise ValidationError(f"--{name} must be a probability distribution")
    return vec


def _horizon_and_lambda(spec, horizon, lam):
    """The --horizon and --lambda overrides, else the file's values."""
    n = horizon if horizon is not None else spec.horizon_n
    if n < 1:
        raise ValidationError(f"--horizon must be >= 1, got {n}")
    lam = lam if lam is not None else spec.lam
    if not (0.0 < lam <= 1.0):
        raise ValidationError(f"--lambda must lie in (0, 1], got {lam}")
    return n, lam


@click.group()
def main():
    """Solvers and simulators for two-player zero-sum stochastic
    Bayesian games."""


@main.command()
@click.argument("spec_file", type=click.Path())
@_handle_errors
def validate(spec_file):
    """Check a game file against all model invariants."""
    game_model.load_spec(spec_file)
    click.echo(f"{spec_file}: valid")


@main.command()
@click.option("--spec", "spec_file", required=True, type=click.Path(),
              help="Game file (JSON).")
@click.option("--horizon", "horizon", type=int, default=None,
              help="Number of stages; defaults to the file's horizon.")
@click.option("--lambda", "lam", type=float, default=None,
              help="Discount factor; defaults to the file's value.")
@click.option("--side", type=click.Choice(["1", "2"]), default="1",
              help="Which player's LP to solve.")
@click.option("--p", "p_text", default=None,
              help="Override player 1's initial distribution (comma floats).")
@click.option("--q", "q_text", default=None,
              help="Override player 2's initial distribution (comma floats).")
@click.option("--strategy", "show_strategy", is_flag=True,
              help="Also print the stage-1 security strategy.")
@click.option("--dump-lp", "dump_lp", type=click.Path(), default=None,
              help="Write the LP in CPLEX text format to this path.")
@_handle_errors
def solve(spec_file, horizon, lam, side, p_text, q_text, show_strategy,
          dump_lp):
    """Game value, security strategy and initial vector payoff."""
    spec = game_model.load_spec(spec_file)
    n, lam = _horizon_and_lambda(spec, horizon, lam)
    side = int(side)
    p = _parse_dist(p_text, spec.num_k, "p")
    q = _parse_dist(q_text, spec.num_l, "q")
    p = spec.p0 if p is None else p
    q = spec.q0 if q is None else q

    dump = None if dump_lp is None else (
        lambda lp: lp_core.write_lp_text(lp, dump_lp))
    result = primal_solver.solve_primal(spec, p, q, n, lam, side,
                                        inspect_lp=dump)
    click.echo(f"value={result.value:.6f}")
    label = "nu" if side == 1 else "mu"
    for i, v in enumerate(result.initial_vector_payoff):
        click.echo(f"{label}[{i}]={v:.6f}")
    if show_strategy:
        mat = result.strategy.stage1_matrix()
        for s in range(mat.shape[1]):
            probs = ",".join(f"{x:.6f}" for x in mat[:, s])
            click.echo(f"stage1[state={s}]={probs}")


@main.command()
@click.option("--spec", "spec_file", required=True, type=click.Path())
@click.option("--horizon", type=int, default=None,
              help="Override the game file's horizon.")
@click.option("--lambda", "lam", type=float, default=None,
              help="Override the game file's discount factor.")
@_handle_errors
def oracle(spec_file, horizon, lam):
    """Exact value by brute-force enumeration (tiny games only)."""
    spec = game_model.load_spec(spec_file)
    n, lam = _horizon_and_lambda(spec, horizon, lam)
    value = bounds.oracle_value(spec, spec.p0, spec.q0, n, lam)
    click.echo(f"value={value:.6f}")


@main.command()
@click.option("--lambda", "lam", required=True, type=float)
@click.option("--window", "window_n", required=True, type=int)
@click.option("--horizon", "total_n", required=True, type=int)
@click.option("--gbar", required=True, type=float,
              help="Maximum one-stage payoff.")
@_handle_errors
def bound(lam, window_n, total_n, gbar):
    """Worst-case gap of window-by-window play versus the game value."""
    click.echo(f"bound={bounds.window_bound(lam, window_n, total_n, gbar):.6f}")


def _agent_factory(desc: str, spec, side: int, window_n, update_mode,
                   cache: SolverCache):
    """Factory of fresh agents per episode; heavy solves shared via cache."""
    if desc == "optimal":
        strategy = cache.primal(spec.p0, spec.q0, spec.horizon_n, spec.lam,
                                side).strategy
        return lambda: OptimalAgent(spec, side, strategy=strategy)
    if desc == "window":
        if window_n is None:
            raise ValidationError("--window is required for window agents")
        config = WindowConfig(window_n=window_n, total_horizon=spec.horizon_n,
                              update_horizon_mode=update_mode)
        return lambda: WindowAgent(spec, config, side, cache=cache)
    if desc.startswith("fixed:"):
        policy = load_fixed_policy(desc[len("fixed:"):])
        FixedPolicyAgent(spec, side, policy)      # validate once, up front
        return lambda: FixedPolicyAgent(spec, side, policy)
    raise ValidationError(
        f"unknown agent {desc!r}; use optimal, window, or fixed:<file>")


def _play_once(spec, p1_desc, p2_desc, window_n, update_mode, runs, seed,
               cache: SolverCache):
    f1 = _agent_factory(p1_desc, spec, 1, window_n, update_mode, cache)
    f2 = _agent_factory(p2_desc, spec, 2, window_n, update_mode, cache)
    return simulator.run_monte_carlo(spec, f1, f2, runs, seed)


def _bound_check_line(spec, result, window_n, cache) -> str:
    n_eff = window_n if window_n is not None else spec.horizon_n
    gap = bounds.window_bound(spec.lam, n_eff, spec.horizon_n,
                              game_model.g_bar(spec))
    try:
        value = cache.primal(spec.p0, spec.q0, spec.horizon_n, spec.lam,
                             1).value
    except CapacityError:
        return f"bound={gap:.6f} mean={result.mean:.6f} satisfied=unknown"
    # allow three standard errors of Monte Carlo noise on top of the bound
    slack = gap + 3.0 * result.stderr
    ok = abs(result.mean - value) <= slack
    return (f"bound={gap:.6f} mean={result.mean:.6f} "
            f"satisfied={'true' if ok else 'false'}")


@main.command()
@click.option("--spec", "spec_file", required=True, type=click.Path())
@click.option("--window", "window_n", type=int, default=None,
              help="Window size for window agents.")
@click.option("--horizon", type=int, default=None,
              help="Override the game file's horizon.")
@click.option("--runs", type=click.IntRange(min=1), default=500,
              show_default=True)
@click.option("--seed", type=click.IntRange(min=0), default=0,
              show_default=True)
@click.option("--p1", "p1_desc", default="optimal", show_default=True,
              help="Player 1 agent: optimal, window, or fixed:<file>.")
@click.option("--p2", "p2_desc", default="window", show_default=True,
              help="Player 2 agent: optimal, window, or fixed:<file>.")
@click.option("--update-mode", type=click.Choice([FIXED_N, REMAINING_WINDOW]),
              default=FIXED_N, show_default=True,
              help="Horizon fed to the vector-payoff update LP.")
@click.option("--out", "out_file", type=click.Path(), default=None,
              help="Write the CSV here instead of stdout.")
@_handle_errors
def play(spec_file, window_n, horizon, runs, seed, p1_desc, p2_desc,
         update_mode, out_file):
    """Monte Carlo matches between two agents, plus a bound check line."""
    spec = game_model.load_spec(spec_file)
    if horizon is not None:
        spec = dataclasses.replace(spec, horizon_n=horizon)
        game_model.validate(spec)
    cache = SolverCache(spec)
    result = _play_once(spec, p1_desc, p2_desc, window_n, update_mode, runs,
                        seed, cache)
    if out_file is not None:
        with open(out_file, "w") as fh:
            simulator.write_results_csv(result, fh)
    else:
        simulator.write_results_csv(result, sys.stdout)
    click.echo(_bound_check_line(spec, result, window_n, cache))


@main.command(name="reproduce-case-study")
@click.option("--outdir", type=click.Path(), default="case_study_results",
              show_default=True)
@click.option("--runs", type=click.IntRange(min=1), default=500,
              show_default=True,
              help="Episodes for the two extreme-case Monte Carlo checks.")
@click.option("--grid-runs", type=click.IntRange(min=0), default=100,
              show_default=True,
              help="Episodes per grid cell; 0 skips the grid.")
@click.option("--seed", type=click.IntRange(min=0), default=0,
              show_default=True)
@click.option("--full-grid", is_flag=True,
              help="Run the long-horizon grid (N=36) instead of N=8.")
@_handle_errors
def reproduce_case_study(outdir, runs, grid_runs, seed, full_grid):
    """Run the bundled jamming game end to end into a results directory."""
    spec = game_model.load_case_study()
    out = Path(outdir)
    out.mkdir(parents=True, exist_ok=True)
    window_n = 2
    gbar = game_model.g_bar(spec)

    # one cache for the value and both matchups, so the full-horizon primal
    # is solved once; the matchups' window agents share no other key
    cache = SolverCache(spec)
    value = cache.primal(spec.p0, spec.q0, spec.horizon_n, spec.lam, 1).value
    gap = bounds.window_bound(spec.lam, window_n, spec.horizon_n, gbar)
    summary = [f"value={value:.6f}", f"bound={gap:.6f}"]
    click.echo(summary[0])
    click.echo(summary[1])

    for name, p1_desc, p2_desc in (
            ("p1_optimal_vs_p2_window", "optimal", "window"),
            ("p1_window_vs_p2_optimal", "window", "optimal")):
        result = _play_once(spec, p1_desc, p2_desc, window_n, FIXED_N, runs,
                            seed, cache)
        with open(out / f"mc_{name}.csv", "w") as fh:
            simulator.write_results_csv(result, fh)
        line = _bound_check_line(spec, result, window_n, cache)
        summary.append(f"{name}: {line}")
        click.echo(summary[-1])

    if grid_runs > 0:
        grid_horizon = 36 if full_grid else 8
        if full_grid:
            click.echo("warning: full grid uses N=36 and can take a long "
                       "time", err=True)
        jammer = game_model.case_study_path().parent / "fixed_policy_jammer.json"
        with open(out / "grid.csv", "w") as fh:
            fh.write("lambda,horizon,window,runs,mean,stddev,stderr\n")
            for lam in (0.3, 0.6, 0.9):
                for n in (2, 3):
                    cell = dataclasses.replace(spec, lam=lam,
                                               horizon_n=grid_horizon)
                    result = _play_once(cell, "window", f"fixed:{jammer}", n,
                                        FIXED_N, grid_runs, seed,
                                        SolverCache(cell))
                    fh.write(f"{lam},{grid_horizon},{n},{result.num_runs},"
                             f"{result.mean:.10g},{result.stddev:.10g},"
                             f"{result.stderr:.10g}\n")
        summary.append(f"grid: grid.csv (N={grid_horizon}, n in (2, 3), "
                       f"lambda in (0.3, 0.6, 0.9))")

    (out / "summary.txt").write_text("\n".join(summary) + "\n")
    click.echo(f"results written to {out}")


if __name__ == "__main__":
    main()
