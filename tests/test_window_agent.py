import dataclasses

import numpy as np
import pytest

from zsbgames import (FixedPolicyAgent, OptimalAgent, SolverCache,
                      ValidationError, WindowAgent, WindowConfig,
                      run_monte_carlo, solve_primal)
from zsbgames.window_agent import (FIXED_N, REMAINING_WINDOW,
                                   load_fixed_policy)

from conftest import random_spec


def test_window_config_validation():
    WindowConfig(window_n=2, total_horizon=4)
    with pytest.raises(ValidationError):
        WindowConfig(window_n=0, total_horizon=4)
    with pytest.raises(ValidationError):
        WindowConfig(window_n=5, total_horizon=4)
    with pytest.raises(ValidationError):
        WindowConfig(window_n=2, total_horizon=4, update_horizon_mode="bogus")


def test_full_window_equals_optimal(rng):
    """With n = N the window agent is the optimal agent."""
    spec = random_spec(rng, num_k=2, num_l=2, horizon=3)
    cache = SolverCache(spec)
    config = WindowConfig(window_n=3, total_horizon=3)
    for side in (1, 2):
        win = WindowAgent(spec, config, side, cache=cache)
        opt = OptimalAgent(spec, side, cache=cache)
        win.begin_episode(0)
        opt.begin_episode(0)
        path = [(0, 1, 1), (1, 0, 0)]
        for a, b, nxt in path:
            assert np.allclose(win.act(), opt.act(), atol=1e-9)
            win.observe(a, b, nxt)
            opt.observe(a, b, nxt)
        assert np.allclose(win.act(), opt.act(), atol=1e-9)


def test_full_window_monte_carlo_means_match(rng):
    spec = random_spec(rng, horizon=3)
    cache = SolverCache(spec)
    config = WindowConfig(window_n=3, total_horizon=3)
    r_opt = run_monte_carlo(spec, lambda: OptimalAgent(spec, 1, cache=cache),
                            lambda: OptimalAgent(spec, 2, cache=cache), 30, 5)
    r_win = run_monte_carlo(spec,
                            lambda: WindowAgent(spec, config, 1, cache=cache),
                            lambda: WindowAgent(spec, config, 2, cache=cache),
                            30, 5)
    assert r_win.mean == pytest.approx(r_opt.mean, abs=1e-9)


def test_first_window_uses_primal_strategy(rng):
    spec = random_spec(rng, horizon=4)
    config = WindowConfig(window_n=2, total_horizon=4)
    agent = WindowAgent(spec, config, 1)
    agent.begin_episode(1)
    want = solve_primal(spec, spec.p0, spec.q0, 2, spec.lam,
                        1).strategy.action_probs((1,), ())
    assert np.allclose(agent.act(), want, atol=1e-9)
    assert np.array_equal(
        agent.vector_payoff,
        solve_primal(spec, spec.p0, spec.q0, 2, spec.lam,
                     1).initial_vector_payoff)


def test_statistic_advances_and_windows_roll(rng):
    spec = random_spec(rng, horizon=5)
    config = WindowConfig(window_n=2, total_horizon=5)
    agent = WindowAgent(spec, config, 2)
    agent.begin_episode(0)
    windows = [agent.window_id]
    state = 0
    for t in range(1, 5):
        probs = agent.act()
        assert probs.shape == (spec.num_b,)
        assert probs.sum() == pytest.approx(1.0, abs=1e-7)
        state = (state + 1) % spec.num_l
        agent.observe(t % 2, (t + 1) % 2, state)
        windows.append(agent.window_id)
        assert abs(agent.belief.sum() - 1.0) < 1e-9
    assert agent.t == 5
    # N=5 with n=2 means windows of lengths 2, 2, 1
    assert agent.window_id == 3 and agent.window_len == 1
    assert windows == [1, 1, 2, 2, 3]
    with pytest.raises(ValidationError):
        agent.observe(0, 0, 0)


def test_remaining_window_mode_runs(rng):
    spec = random_spec(rng, horizon=4)
    config = WindowConfig(window_n=2, total_horizon=4,
                          update_horizon_mode=REMAINING_WINDOW)
    agent = WindowAgent(spec, config, 1)
    agent.begin_episode(0)
    for t in range(1, 4):
        agent.act()
        agent.observe(0, 1, t % spec.num_k)
    assert agent.t == 4


@pytest.mark.parametrize("mode, total, window_n, want", [
    (REMAINING_WINDOW, 5, 2, [1, 2, 1, 1]),
    (REMAINING_WINDOW, 7, 3, [2, 1, 3, 2, 1, 1]),
    (REMAINING_WINDOW, 4, 4, [3, 2, 1]),
    (FIXED_N, 5, 2, [2] * 4),
    (FIXED_N, 7, 3, [3] * 6),
    (FIXED_N, 4, 4, [4] * 3),
])
def test_update_horizon_per_observe(rng, monkeypatch, mode, total, window_n,
                                    want):
    """The update LP's horizon: the window size, or the stages left in the
    window and at its last stage the next window's length."""
    spec = random_spec(rng, num_k=1, num_l=2, horizon=total)
    cache = SolverCache(spec)
    seen, update = [], cache._update

    def record(kind, vec, belief, n, lam, a, b):
        seen.append(n)
        return update(kind, vec, belief, n, lam, a, b)

    monkeypatch.setattr(cache, "_update", record)
    agent = WindowAgent(spec, WindowConfig(window_n, total, mode), 2,
                        cache=cache)
    agent.begin_episode(0)
    for t in range(1, total):
        agent.observe(t % 2, 0, t % 2)
    assert seen == want


def test_cache_is_shared_across_agents(rng):
    spec = random_spec(rng, horizon=4)
    cache = SolverCache(spec)
    config = WindowConfig(window_n=2, total_horizon=4)
    for _ in range(3):
        agent = WindowAgent(spec, config, 1, cache=cache)
        agent.begin_episode(0)
        agent.act()
        agent.observe(0, 0, 1)
    stored = len(cache._store)
    agent = WindowAgent(spec, config, 1, cache=cache)
    agent.begin_episode(1)
    agent.act()
    agent.observe(0, 0, 0)   # same public actions: no new solves needed
    assert len(cache._store) == stored


def _case_agent(case_study, kind):
    spec = dataclasses.replace(case_study, horizon_n=2)
    if kind == "optimal":
        return OptimalAgent(spec, 1)
    if kind == "window":
        return WindowAgent(spec, WindowConfig(window_n=2, total_horizon=2), 1)
    return FixedPolicyAgent(spec, 2, [[0.5, 0.5], [1.0, 0.0]])


@pytest.mark.parametrize("kind, call, args", [
    ("optimal", "observe", (0, 0, 4)),
    ("optimal", "observe", (0, 2, 0)),
    ("optimal", "begin_episode", (3,)),
    ("window", "observe", (0, 0, 3)),
    ("window", "observe", (-1, 0, 0)),
    ("window", "begin_episode", (-1,)),
    ("fixed", "begin_episode", (-1,)),
    ("fixed", "observe", (0, 0, 2)),
])
def test_agents_reject_out_of_range_input(case_study, kind, call, args):
    """A state or action outside the game would index another history's
    entry (or, counted from the end, another state's row)."""
    agent = _case_agent(case_study, kind)
    agent.begin_episode(0)
    with pytest.raises(ValidationError):
        getattr(agent, call)(*args)


def test_fixed_policy_agent(rng):
    spec = random_spec(rng, num_l=3, horizon=3)
    policy = np.array([[0.9, 0.1], [0.75, 0.25], [0.5, 0.5]])
    agent = FixedPolicyAgent(spec, 2, policy)
    agent.begin_episode(2)
    assert np.array_equal(agent.act(), policy[2])
    agent.observe(0, 1, 0)
    assert np.array_equal(agent.act(), policy[0])
    with pytest.raises(ValidationError):
        FixedPolicyAgent(spec, 2, policy[:2])
    with pytest.raises(ValidationError):
        FixedPolicyAgent(spec, 2, np.array([[0.9, 0.3]] * 3))


def test_load_fixed_policy_files(tmp_path):
    good = tmp_path / "pol.json"
    good.write_text('{"policy": [[0.5, 0.5], [1.0, 0.0]]}')
    assert load_fixed_policy(good).shape == (2, 2)
    bad = tmp_path / "bad.json"
    bad.write_text('[[0.5, 0.5]]')
    from zsbgames import ParseError
    with pytest.raises(ParseError):
        load_fixed_policy(bad)
    with pytest.raises(ParseError):
        load_fixed_policy(tmp_path / "missing.json")
    for policy in ('[[1, 0], [0.5]]', '"abc"'):
        bad.write_text(f'{{"policy": {policy}}}')
        with pytest.raises(ParseError, match="numeric matrix"):
            load_fixed_policy(bad)
