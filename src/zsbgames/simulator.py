"""Seeded Monte Carlo play of the game between two agents.

RNG: numpy's default PCG64 generator, one stream per episode seeded with
`base_seed + episode_index`, so traces reproduce across platforms and
episodes may be evaluated in any order. A Monte Carlo run memoizes the CDF
of each distribution it draws from, so a draw is a uniform and a bisection.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

from .game_model import GameSpec


@dataclass
class StageRecord:
    t: int
    k: int
    l: int
    a: int
    b: int
    stage_payoff: float


@dataclass
class EpisodeTrace:
    seed: int
    records: list
    total: float


@dataclass
class McResult:
    num_runs: int
    mean: float
    stddev: float
    stderr: float
    totals: np.ndarray
    seeds: list


def _sample(rng: np.random.Generator, probs: np.ndarray,
            cdfs: dict | None = None) -> int:
    """An index drawn with weights `probs` clipped at 0: the draw and the
    arithmetic of `rng.choice` with the normalized weights, without its
    per-call checks. `cdfs` memoizes CDFs by the weights' float64 bytes."""
    p = np.asarray(probs, dtype=float)
    cdfs = {} if cdfs is None else cdfs
    if (key := p.tobytes()) not in cdfs:
        p = np.maximum(p, 0.0)
        total = p.sum()
        if not 0.0 < total < np.inf:            # NaN fails too
            raise ValueError(f"probabilities {probs} have no positive finite sum")
        cdf = (p / total).cumsum()
        cdfs[key] = (cdf / cdf[-1]).tolist()
    return bisect_right(cdfs[key], rng.random())


def run_episode(spec: GameSpec, agent1, agent2, seed: int, *,
                cdfs=None) -> EpisodeTrace:
    """Play one episode of spec.horizon_n stages; deterministic given seed.

    Agents only ever receive the public action pair and their own next
    state, never the opponent's state or the stage payoff. Episodes may
    share one `cdfs` dict (see `_sample`).
    """
    rng = np.random.default_rng(seed)
    k = _sample(rng, spec.p0, cdfs)
    l = _sample(rng, spec.q0, cdfs)
    agent1.begin_episode(k)
    agent2.begin_episode(l)
    records = []
    total = 0.0
    for t in range(1, spec.horizon_n + 1):
        a = _sample(rng, agent1.act(), cdfs)
        b = _sample(rng, agent2.act(), cdfs)
        pay = spec.lam ** (t - 1) * float(spec.payoff[k, l, a, b])
        records.append(StageRecord(t=t, k=k, l=l, a=a, b=b, stage_payoff=pay))
        total += pay
        if t < spec.horizon_n:
            k_next = _sample(rng, spec.trans_p[a, b, k], cdfs)
            l_next = _sample(rng, spec.trans_q[a, b, l], cdfs)
            agent1.observe(a, b, k_next)
            agent2.observe(a, b, l_next)
            k, l = k_next, l_next
    return EpisodeTrace(seed=seed, records=records, total=total)


def run_monte_carlo(spec: GameSpec, agent_factory1, agent_factory2,
                    num_runs: int, base_seed: int) -> McResult:
    """Independent episodes with seeds base_seed + i; fresh agents each run."""
    if num_runs < 1:
        raise ValueError("num_runs must be >= 1")
    totals = np.empty(num_runs)
    seeds = []
    cdfs = {}
    for i in range(num_runs):
        seed = base_seed + i
        trace = run_episode(spec, agent_factory1(), agent_factory2(), seed,
                            cdfs=cdfs)
        totals[i] = trace.total
        seeds.append(seed)
    mean = float(totals.sum() / num_runs)       # fixed-order sum, deterministic
    stddev = float(totals.std(ddof=1)) if num_runs > 1 else 0.0
    stderr = stddev / np.sqrt(num_runs) if num_runs > 1 else 0.0
    return McResult(num_runs=num_runs, mean=mean, stddev=stddev,
                    stderr=float(stderr), totals=totals, seeds=seeds)


def write_results_csv(result: McResult, fh) -> None:
    """Per-episode rows followed by the aggregate row; fixed headers."""
    fh.write("seed,total\n")
    for seed, total in zip(result.seeds, result.totals):
        fh.write(f"{seed},{total:.10g}\n")
    fh.write("runs,mean,stddev,stderr\n")
    fh.write(f"{result.num_runs},{result.mean:.10g},"
             f"{result.stddev:.10g},{result.stderr:.10g}\n")
