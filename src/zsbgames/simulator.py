"""Seeded Monte Carlo play of the game between two agents.

RNG: numpy's default PCG64 generator, one stream per episode seeded with
`base_seed + episode_index`, so traces reproduce across platforms and
episodes may be evaluated in any order. A draw bisects a CDF at a uniform:
a Monte Carlo run builds chance's CDFs once (`_chance_tables`) and memoizes
those of agents' action rows by their bytes (`_sample`).
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from .game_model import GameSpec


@dataclass(slots=True)
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


def _cdf(probs) -> list:
    """The CDF of weights `probs` clipped at 0, as `rng.choice` has it."""
    p = np.maximum(np.asarray(probs, dtype=float), 0.0)
    total = p.sum()
    if not 0.0 < total < np.inf:                # NaN fails too
        raise ValueError(f"probabilities {probs} have no positive finite sum")
    cdf = (p / total).cumsum()
    return (cdf / cdf[-1]).tolist()


def _sample(rng: np.random.Generator, probs: np.ndarray,
            cdfs: dict | None = None) -> int:
    """An index drawn with weights `probs` clipped at 0: the draw and the
    arithmetic of `rng.choice` with the normalized weights, without its
    per-call checks. `cdfs` memoizes CDFs by the weights' float64 bytes."""
    p = np.asarray(probs, dtype=float)
    cdfs = {} if cdfs is None else cdfs
    if (key := p.tobytes()) not in cdfs:
        cdfs[key] = _cdf(p)
    return bisect_right(cdfs[key], rng.random())


def _chance_tables(spec: GameSpec) -> tuple:
    """The CDFs of p0, q0, trans_p[a][b][k] and trans_q[a][b][l]."""
    return (_cdf(spec.p0), _cdf(spec.q0),
            *([[list(map(_cdf, by_b)) for by_b in by_a] for by_a in trans]
              for trans in (spec.trans_p, spec.trans_q)))


def run_episode(spec: GameSpec, agent1, agent2, seed: int, *,
                cdfs=None, chance=None) -> EpisodeTrace:
    """Play one episode of spec.horizon_n stages; deterministic given seed.

    Agents only ever receive the public action pair and their own next
    state, never the opponent's state or the stage payoff. Episodes may
    share `chance`, `_chance_tables(spec)`, and `cdfs` (see `_sample`).
    """
    # one call draws the uniforms of k, l, then a, b, k' and l' per stage
    uniforms = np.random.default_rng(seed).random(4 * spec.horizon_n)
    rng = SimpleNamespace(random=iter(uniforms.tolist()).__next__)
    p0, q0, trans_p, trans_q = chance or _chance_tables(spec)
    lam, payoff = spec.lam, spec.payoff
    k = bisect_right(p0, rng.random())
    l = bisect_right(q0, rng.random())
    agent1.begin_episode(k)
    agent2.begin_episode(l)
    records = []
    total = 0.0
    for t in range(1, spec.horizon_n + 1):
        a = _sample(rng, agent1.act(), cdfs)
        b = _sample(rng, agent2.act(), cdfs)
        pay = lam ** (t - 1) * float(payoff[k, l, a, b])
        records.append(StageRecord(t, k, l, a, b, pay))
        total += pay
        if t < spec.horizon_n:
            k_next = bisect_right(trans_p[a][b][k], rng.random())
            l_next = bisect_right(trans_q[a][b][l], rng.random())
            agent1.observe(a, b, k_next)
            agent2.observe(a, b, l_next)
            k, l = k_next, l_next
    return EpisodeTrace(seed=seed, records=records, total=total)


def run_monte_carlo(spec: GameSpec, agent_factory1, agent_factory2,
                    num_runs: int, base_seed: int) -> McResult:
    """Independent episodes with seeds base_seed + i; fresh agents each run."""
    if num_runs < 1:
        raise ValueError("num_runs must be >= 1")
    seeds = list(range(base_seed, base_seed + num_runs))
    cdfs, chance = {}, _chance_tables(spec)
    totals = np.array([run_episode(spec, agent_factory1(), agent_factory2(),
                                   seed, cdfs=cdfs, chance=chance).total
                       for seed in seeds])
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
