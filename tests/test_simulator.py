import dataclasses
import io

import numpy as np
import pytest

from zsbgames import (FixedPolicyAgent, SolverCache, WindowAgent,
                      WindowConfig, load_case_study, run_episode,
                      run_monte_carlo)
from zsbgames.simulator import StageRecord, _sample, write_results_csv

from conftest import constant_spec, random_spec


class UniformAgent:
    def __init__(self, num_actions):
        self.num_actions = num_actions
        self.seen = []

    def begin_episode(self, own_state):
        self.seen = [own_state]

    def act(self):
        return np.full(self.num_actions, 1.0 / self.num_actions)

    def observe(self, a, b, own_next_state):
        self.seen.append(own_next_state)


def test_episode_deterministic_given_seed(rng):
    spec = random_spec(rng, horizon=4)
    t1 = run_episode(spec, UniformAgent(2), UniformAgent(2), 99)
    t2 = run_episode(spec, UniformAgent(2), UniformAgent(2), 99)
    assert t1.total == t2.total
    assert [(r.k, r.l, r.a, r.b) for r in t1.records] == \
           [(r.k, r.l, r.a, r.b) for r in t2.records]


def test_episode_total_is_discounted_sum(rng):
    spec = random_spec(rng, horizon=3)
    trace = run_episode(spec, UniformAgent(2), UniformAgent(2), 7)
    want = sum(spec.lam ** (r.t - 1) * spec.payoff[r.k, r.l, r.a, r.b]
               for r in trace.records)
    assert trace.total == pytest.approx(want, abs=1e-12)
    assert [r.t for r in trace.records] == [1, 2, 3]


def test_constant_payoff_total_exact():
    spec = constant_spec(c=2.0, lam=0.5, horizon=3)
    trace = run_episode(spec, UniformAgent(2), UniformAgent(2), 0)
    assert trace.total == pytest.approx(2.0 * (1 + 0.5 + 0.25), abs=1e-12)


def test_agents_observe_every_stage(rng):
    spec = random_spec(rng, horizon=4)
    a1, a2 = UniformAgent(2), UniformAgent(2)
    run_episode(spec, a1, a2, 3)
    assert len(a1.seen) == 4 and len(a2.seen) == 4


def _episode_one_draw_at_a_time(spec, agent1, agent2, seed, cdfs):
    """The records of `run_episode` drawing with one `_sample` call per
    draw: k, l, then a, b, k' and l' at each stage."""
    rng = np.random.default_rng(seed)
    k, l = _sample(rng, spec.p0, cdfs), _sample(rng, spec.q0, cdfs)
    agent1.begin_episode(k)
    agent2.begin_episode(l)
    records = []
    for t in range(1, spec.horizon_n + 1):
        a, b = _sample(rng, agent1.act(), cdfs), _sample(rng, agent2.act(), cdfs)
        records.append(StageRecord(t, k, l, a, b, spec.lam ** (t - 1)
                                   * float(spec.payoff[k, l, a, b])))
        if t < spec.horizon_n:
            k_next = _sample(rng, spec.trans_p[a, b, k], cdfs)
            l_next = _sample(rng, spec.trans_q[a, b, l], cdfs)
            agent1.observe(a, b, k_next)
            agent2.observe(a, b, l_next)
            k, l = k_next, l_next
    return records


def test_one_call_draw_plays_the_scalar_draws_with_fixed_policies():
    """An episode's uniforms drawn in one call are the stream's scalar
    draws in order, so fixed-policy episodes on random specs record the
    same stages as one `_sample` call per draw."""
    rng = np.random.default_rng(11)
    for i in range(40):
        sizes = [int(x) for x in rng.integers(1, 4, 4)]
        spec = random_spec(rng, *sizes, horizon=int(rng.integers(1, 7)))
        policies = [rng.dirichlet(np.ones(spec.side(side).num_actions),
                                  spec.side(side).num_states)
                    for side in (1, 2)]
        agents = [[FixedPolicyAgent(spec, side, policy)
                   for side, policy in zip((1, 2), policies)]
                  for _ in range(2)]
        got = run_episode(spec, *agents[0], 1000 + i, cdfs={})
        want = _episode_one_draw_at_a_time(spec, *agents[1], 1000 + i, {})
        assert got.records == want
        assert got.total == sum(r.stage_payoff for r in want)


def test_one_call_draw_plays_the_scalar_draws_in_a_window_duel():
    """The same for window agents on both sides of the case study, each way
    of drawing on a cache of its own."""
    spec = dataclasses.replace(load_case_study(), lam=0.6, horizon_n=6)
    config = WindowConfig(window_n=2, total_horizon=6)
    caches = [SolverCache(spec), SolverCache(spec)]
    memos = [{}, {}]
    for seed in range(30):
        agents = [[WindowAgent(spec, config, side, cache=cache)
                   for side in (1, 2)] for cache in caches]
        got = run_episode(spec, *agents[0], seed, cdfs=memos[0])
        want = _episode_one_draw_at_a_time(spec, *agents[1], seed, memos[1])
        assert got.records == want


def test_monte_carlo_seeds_and_stats(rng):
    spec = random_spec(rng, horizon=2)
    res = run_monte_carlo(spec, lambda: UniformAgent(2),
                          lambda: UniformAgent(2), 50, base_seed=10)
    assert res.seeds == list(range(10, 60))
    assert res.mean == pytest.approx(res.totals.sum() / 50, abs=0)
    assert res.stddev == pytest.approx(float(res.totals.std(ddof=1)), abs=0)
    assert res.stderr == pytest.approx(res.stddev / np.sqrt(50), abs=0)


def test_monte_carlo_single_run_has_zero_spread(rng):
    spec = random_spec(rng, horizon=2)
    res = run_monte_carlo(spec, lambda: UniformAgent(2),
                          lambda: UniformAgent(2), 1, base_seed=0)
    assert res.stddev == 0.0 and res.stderr == 0.0


def test_results_csv_layout(rng):
    spec = random_spec(rng, horizon=2)
    res = run_monte_carlo(spec, lambda: UniformAgent(2),
                          lambda: UniformAgent(2), 3, base_seed=4)
    buf = io.StringIO()
    write_results_csv(res, buf)
    lines = buf.getvalue().strip().splitlines()
    assert lines[0] == "seed,total"
    assert len(lines) == 6 and lines[4] == "runs,mean,stddev,stderr"
    assert lines[1].startswith("4,")
    assert lines[5].split(",")[0] == "3"


def test_sample_draws_what_generator_choice_draws():
    """`_sample` must pick the index `Generator.choice` picks from the same
    stream, with weights clipped at 0 and normalized, and leave the stream
    where choice leaves it."""
    gen = np.random.default_rng(5)
    for i in range(3000):
        probs = gen.dirichlet(np.ones(gen.integers(2, 6))) * gen.uniform(0.5, 2)
        if i % 3 == 0:
            probs[gen.integers(probs.size)] = -1e-17 if i % 2 else 0.0
        p = np.clip(probs, 0.0, None)
        want, got = np.random.default_rng(i), np.random.default_rng(i)
        assert _sample(got, probs) == want.choice(p.size, p=p / p.sum())
        assert got.random() == want.random()


def test_sample_with_a_shared_memo_draws_what_generator_choice_draws():
    """Over 60,000 draws from a few distributions, `_sample` with one CDF
    memo picks what `Generator.choice` picks from the same stream."""
    gen = np.random.default_rng(6)
    dists = [gen.dirichlet(np.ones(gen.integers(2, 6))) * gen.uniform(0.5, 2)
             for _ in range(40)]
    for i in range(0, 40, 4):
        dists[i][0] = -1e-17 if i % 8 else 0.0
    got, want, cdfs = np.random.default_rng(7), np.random.default_rng(7), {}
    for i in range(60_000):
        probs = dists[i % 40]
        p = np.clip(probs, 0.0, None)
        assert _sample(got, probs, cdfs) == want.choice(p.size, p=p / p.sum())
    assert got.random() == want.random()
    assert len(cdfs) == 40


def test_sample_memo_keys_on_every_bit():
    """Weights one ulp apart have CDFs of their own."""
    probs = np.array([0.3, 0.7])
    near = np.array([np.nextafter(0.3, 1.0), 0.7])
    cdfs = {}
    for p in (probs, near):
        _sample(np.random.default_rng(0), p, cdfs)
    assert cdfs.keys() == {probs.tobytes(), near.tobytes()}
    assert cdfs[probs.tobytes()] != cdfs[near.tobytes()]


@pytest.mark.parametrize("probs", [[0.0, 0.0], [-0.5, 0.0], [np.nan, 1.0],
                                   [np.inf, 1.0]])
def test_sample_rejects_weights_without_positive_finite_sum(probs):
    """Also when valid weights have filled a memo."""
    cdfs = {}
    _sample(np.random.default_rng(0), np.array([0.25, 0.75]), cdfs)
    for memo in (None, cdfs):
        with pytest.raises(ValueError):
            _sample(np.random.default_rng(0), np.array(probs), memo)
    assert len(cdfs) == 1
