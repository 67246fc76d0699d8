import dataclasses
import io
import json
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import zsbgames
from zsbgames import (FixedPolicyAgent, NumericalError, OptimalAgent,
                      SolverCache, SolverError, ValidationError, WindowAgent,
                      WindowConfig, dual_solver, lp_core, primal_solver,
                      run_episode, run_monte_carlo, solve_dual1, solve_primal,
                      stat_updater, window_agent)
from zsbgames.simulator import write_results_csv
from zsbgames.window_agent import load_fixed_policy

from conftest import random_spec


def test_window_config_validation():
    WindowConfig(window_n=2, total_horizon=4)
    with pytest.raises(ValidationError):
        WindowConfig(window_n=0, total_horizon=4)
    with pytest.raises(ValidationError):
        WindowConfig(window_n=5, total_horizon=4)


@pytest.mark.parametrize("total", [4, 2])
def test_config_horizon_must_be_the_game_horizon(case_study, total):
    """At N=3 a config with N=4 would play a 2-stage window at t=3, and one
    with N=2 would refuse the game's last observe."""
    spec = dataclasses.replace(case_study, horizon_n=3)
    with pytest.raises(ValidationError, match="horizon"):
        WindowAgent(spec, WindowConfig(window_n=2, total_horizon=total), 1)


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
                        1).strategy.probs[0][1]
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


@pytest.mark.parametrize("total, window_n, want", [
    pytest.param(5, 2, [2] * 4, id="fixed_n-5-2-want3"),
    pytest.param(7, 3, [3] * 6, id="fixed_n-7-3-want4"),
    pytest.param(4, 4, [], id="fixed_n-4-4-want5"),
    pytest.param(6, 3, [3] * 3, id="fixed_n-6-3-want7"),
])
def test_update_horizon_per_observe(rng, monkeypatch, total, window_n, want):
    """The vector-payoff update's horizon is the window size. The window
    that ends at the horizon does not advance the vector payoff."""
    spec = random_spec(rng, num_k=1, num_l=2, horizon=total)
    cache = SolverCache(spec)
    seen, update = [], cache._update

    def record(kind, vec, belief, n, lam, a, b, node=None):
        seen.append(n)
        return update(kind, vec, belief, n, lam, a, b, node)

    monkeypatch.setattr(cache, "_update", record)
    agent = WindowAgent(spec, WindowConfig(window_n, total), 2, cache=cache)
    agent.begin_episode(0)
    for t in range(1, total):
        agent.observe(t % 2, 0, t % 2)
    assert seen == want


def test_revisited_nodes_do_no_work_again(case_study, monkeypatch):
    """A node's read-out is made once, on its first child: 200 window-duel
    episodes on the case study (lambda=0.6, N=8, n=2) round a statistic
    for a read-out at most once per parent node that advances the vector
    payoff (one in windows 1-3 of the four). The same 200 episodes
    again on the same cache only walk the tree: they round no statistic,
    update no belief and call no solver, and they total the same."""
    spec = dataclasses.replace(case_study, lam=0.6, horizon_n=8)
    config = WindowConfig(window_n=2, total_horizon=8)
    cache = SolverCache(spec)
    calls, in_dual = [], []

    def counted(name, fn):
        def call(*args, **kwargs):
            if not in_dual or name != "stat_key":
                calls.append(name)
            return fn(*args, **kwargs)
        return call

    def dual(self, *args):          # keys its own solves: not a read-out
        in_dual.append(True)
        try:
            return dual_of(self, *args)
        finally:
            in_dual.pop()

    dual_of = SolverCache._dual
    monkeypatch.setattr(SolverCache, "_dual", dual)
    for module, name in ((window_agent, "_stat_key"),
                         (stat_updater, "update_belief_p"),
                         (stat_updater, "update_belief_q"),
                         (stat_updater, "update_mu"),
                         (stat_updater, "update_nu"),
                         (primal_solver, "solve_primal"),
                         (dual_solver, "solve_dual1"),
                         (dual_solver, "solve_dual2"),
                         (lp_core, "linprog")):
        monkeypatch.setattr(module, name, counted(
            name.removeprefix("_"), getattr(module, name)))

    def play():
        return run_monte_carlo(
            spec, lambda: WindowAgent(spec, config, 1, cache=cache),
            lambda: WindowAgent(spec, config, 2, cache=cache), 200, 0).totals

    first = play()
    updating = {key[0] for key in cache._tree
                if isinstance(key[0], window_agent._Node)
                and key[0].window_id < 4}
    assert 0 < calls.count("stat_key") <= len(updating)
    assert calls.count("linprog") > 0
    calls.clear()
    assert np.array_equal(play(), first)
    assert calls == []


@pytest.mark.parametrize("n", [1, 2, 3])
def test_read_out_keeps_the_update_lp_value(n):
    """Fixing every pair's vector variables of the update LP to the vector
    `SolverCache` reads off the dual's plan (at a degenerate pair, the
    update LP's own vector) keeps the LP's optimum w."""
    rng = np.random.default_rng(300 + n)
    for _ in range(6):
        sizes = rng.integers(1, 4, size=4)
        spec = random_spec(rng, *map(int, sizes), horizon=n)
        cache = SolverCache(spec)
        for kind in (1, 2):
            view = spec.side(kind)
            vec = rng.uniform(-20.0, 0.0, view.num_states)
            belief = rng.dirichlet(np.ones(view.num_opp_states))
            dual = (cache.dual1 if kind == 1 else cache.dual2)(
                *view.pair(vec, belief), n, spec.lam)
            lp, vector_vars = stat_updater._update_lp(
                spec, kind, vec, belief, dual.strategy.stage1_matrix(), n,
                spec.lam)
            w = lp_core.solve(lp).objective_value
            bounds = lp.bounds.copy()
            for a, b in np.ndindex(spec.num_a, spec.num_b):
                vector = cache._update(kind, vec, belief, n, spec.lam, a, b)
                if n == 1:
                    assert np.array_equal(vector, np.zeros(view.num_states))
                bounds[vector_vars[a, b]] = vector[:, None]
            fixed = lp_core.solve(dataclasses.replace(lp, bounds=bounds))
            assert fixed.objective_value == pytest.approx(w, rel=1e-9,
                                                          abs=1e-9)


def test_degenerate_pair_gets_the_update_lp_vector(case_study, monkeypatch):
    """A case-study statistic (lambda=0.6) at which player 2's n=2 dual
    plan never plays b = 1: observing b = 1 there is a degenerate pair."""
    spec = dataclasses.replace(case_study, lam=0.6, horizon_n=7)
    mu = np.array([-172.33215250082952, -154.14574, -42.10464240093827])
    q = np.array([0.7, 0.3])
    y_star = solve_dual1(spec, mu, q, 2, spec.lam).strategy.stage1_matrix()
    assert (y_star @ q)[1] <= stat_updater.DEGENERATE_TOL
    want = stat_updater.update_mu(spec, mu, q, y_star, 1, 1, 2, spec.lam)
    calls, update_mu = [], stat_updater.update_mu

    def record(*args):
        calls.append(args)
        return update_mu(*args)
    monkeypatch.setattr(stat_updater, "update_mu", record)
    cache = SolverCache(spec)
    got = cache.update_mu(mu, q, 2, spec.lam, 1, 1)
    assert len(calls) == 1
    assert np.isfinite(got).all()
    assert got.tobytes() == want.vector.tobytes()
    # b = 1 is never played, so (0, 1) is degenerate too: its vector comes
    # from the same update LP, solved once
    other = cache.update_mu(mu, q, 2, spec.lam, 0, 1)
    assert len(calls) == 1
    assert other.tobytes() == update_mu(spec, mu, q, y_star, 0, 1, 2,
                                        spec.lam).vector.tobytes()


@pytest.mark.parametrize("shift, fails", [(2.0, True), (0.5, False)])
def test_degenerate_pair_update_lp_is_certified(case_study, monkeypatch,
                                                shift, fails):
    """At the degenerate pair above, the update LP's w must be the dual
    game's value within `lp_core.check_gap`'s tolerance: a w shifted by
    twice the tolerance is refused and nothing is stored, half of it
    passes."""
    spec = dataclasses.replace(case_study, lam=0.6, horizon_n=7)
    mu = np.array([-172.33215250082952, -154.14574, -42.10464240093827])
    q = np.array([0.7, 0.3])
    update_mu = stat_updater.update_mu

    def shifted(*args):
        result = update_mu(*args)
        tol = lp_core.CERT_TOL * max(1.0, abs(result.w))
        return dataclasses.replace(result, w=result.w + shift * tol)
    monkeypatch.setattr(stat_updater, "update_mu", shifted)
    cache = SolverCache(spec)
    if fails:
        with pytest.raises(NumericalError, match="update-1"):
            cache.update_mu(mu, q, 2, spec.lam, 1, 1)
        assert not [key for key in cache._store if key[-1] == "lp"]
    else:
        assert np.isfinite(cache.update_mu(mu, q, 2, spec.lam, 1, 1)).all()


def test_window_play_against_the_jammer_solves_no_update_lp(case_study,
                                                           monkeypatch):
    def refuse(*args):
        raise AssertionError("update LP solved in window play")
    monkeypatch.setattr(stat_updater, "update_mu", refuse)
    monkeypatch.setattr(stat_updater, "update_nu", refuse)
    spec = dataclasses.replace(case_study, lam=0.9, horizon_n=12)
    policy = json.loads((Path(zsbgames.__file__).parent / "data" /
                         "fixed_policy_jammer.json").read_text())["policy"]
    config = WindowConfig(window_n=3, total_horizon=12)
    result = run_monte_carlo(spec, lambda: WindowAgent(spec, config, 1),
                             lambda: FixedPolicyAgent(spec, 2, policy), 1, 0)
    assert len(result.totals) == 1


def test_side1_primal_stores_the_side2_primal_it_ran(rng, monkeypatch):
    """Side 1's solve runs side 2's; the cache keeps it, byte for byte what
    an uncached side-2 solve returns, instead of solving it again."""
    spec = random_spec(rng, horizon=2)
    want = solve_primal(spec, spec.p0, spec.q0, 2, spec.lam, 2)
    sides, real = [], primal_solver.solve_primal

    def counting(spec, p, q, n, lam, side, **kwargs):
        sides.append(side)
        return real(spec, p, q, n, lam, side, **kwargs)
    monkeypatch.setattr(primal_solver, "solve_primal", counting)
    cache = SolverCache(spec)
    first = cache.primal(spec.p0, spec.q0, 2, spec.lam, 1)
    got = cache.primal(spec.p0, spec.q0, 2, spec.lam, 2)
    assert sides == [1, 2]
    assert got is first.pair and got.pair is None
    assert got.value == want.value
    assert len(got.plan.values) == len(want.plan.values)
    assert all(np.array_equal(w, ref)
               for w, ref in zip(got.plan.values, want.plan.values))
    for arr, ref in [(got.initial_vector_payoff, want.initial_vector_payoff),
                     *zip(got.strategy.probs, want.strategy.probs)]:
        assert arr.tobytes() == ref.tobytes()
    for name in ("col_status", "row_status"):
        assert (list(getattr(got.basis, name))
                == list(getattr(want.basis, name)))


@pytest.mark.parametrize("side", [1, 2])
def test_primal_is_keyed_on_its_exact_prior(rng, side):
    """Two own priors 1e-14 apart, alike when rounded to 12 decimals, are
    two primal entries: each result is solved at its own prior."""
    spec = random_spec(rng, horizon=2)
    cache = SolverCache(spec)
    prior = np.array([0.4, 0.6])
    for own in (prior, prior + [1e-14, -1e-14]):
        p, q = spec.side(side).pair(own, spec.side(3 - side).prior)
        result = cache.primal(p, q, 2, spec.lam, side)
        assert result.plan.root.tobytes() == own.tobytes()


def test_agents_refuse_a_cache_for_another_spec(rng):
    """The tree key holds no spec: an agent on another game's cache would
    play that game while it advances beliefs with its own."""
    spec = random_spec(rng, horizon=3)
    doubled = dataclasses.replace(spec, payoff=2 * spec.payoff)
    cache = SolverCache(spec)
    with pytest.raises(ValidationError, match="another game spec"):
        WindowAgent(doubled, WindowConfig(window_n=2, total_horizon=3), 1,
                    cache=cache)
    with pytest.raises(ValidationError, match="another game spec"):
        OptimalAgent(doubled, 2, cache=cache)
    OptimalAgent(spec, 2, cache=cache).begin_episode(0)


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
    ("window", "observe", (0, 0, -1)),
])
def test_agents_reject_out_of_range_input(case_study, kind, call, args):
    """A state or action outside the game would index another history's
    entry (or, counted from the end, another state's row). A window agent
    checks its input also on a prefix that an earlier episode on its cache
    walked, where observe is a lookup of a known child, and past the
    horizon on a last node such an episode reached."""
    agent = _case_agent(case_study, kind)
    agent.begin_episode(0)
    with pytest.raises(ValidationError):
        getattr(agent, call)(*args)
    if (kind, call) != ("window", "observe"):
        return
    earlier = WindowAgent(agent.spec, agent.config, 1, cache=agent.cache)
    earlier.begin_episode(0)
    earlier.observe(0, 0, 1)
    agent.begin_episode(0)
    assert (agent._node, 0, 0) in agent.cache._tree
    with pytest.raises(ValidationError, match="outside the game"):
        agent.observe(*args)
    agent.observe(0, 0, 1)
    assert agent._node is earlier._node
    with pytest.raises(ValidationError, match="past the horizon"):
        agent.observe(0, 0, 0)


@pytest.mark.parametrize("kind", ["optimal", "window"])
def test_agents_reject_observe_past_the_horizon(case_study, kind):
    """At horizon 2 one observe reaches the last stage; every later one
    raises and leaves the agent playing that stage."""
    agent = _case_agent(case_study, kind)
    agent.begin_episode(0)
    agent.observe(0, 0, 1)
    probs = agent.act()
    for _ in range(2):
        with pytest.raises(ValidationError, match="past the horizon"):
            agent.observe(0, 0, 1)
    assert np.array_equal(agent.act(), probs)


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


class _Recorder:
    """A window agent that records its belief, vector payoff and action
    distribution, as bytes, at every stage of the episode."""

    def __init__(self, agent, log):
        self.agent, self.log = agent, log

    def begin_episode(self, own_state):
        self.agent.begin_episode(own_state)

    def act(self):
        probs = self.agent.act()
        self.log.append((self.agent.belief.tobytes(),
                         self.agent.vector_payoff.tobytes(), probs.tobytes()))
        return probs

    def observe(self, a, b, own_next_state):
        self.agent.observe(a, b, own_next_state)


def _recorded_play(spec, config, seeds, cache=None):
    """seed -> (total, stage log); one cache for all seeds, or a fresh one
    per episode when `cache` is None."""
    out = {}
    for seed in seeds:
        shared = cache if cache is not None else SolverCache(spec)
        log = []
        total = run_episode(
            spec, _Recorder(WindowAgent(spec, config, 1, cache=shared), log),
            _Recorder(WindowAgent(spec, config, 2, cache=shared), log),
            seed).total
        out[seed] = (total.hex(), log)
    return out


@pytest.mark.parametrize("game, lam, total, window_n, runs, update_lps", [
    pytest.param("case", 0.6, 8, 2, 24, 0, id="0.6-8-2-fixed_n-24"),
    pytest.param((28, 1, 2), 0.9, 5, 2, 20, 4, id="random28-0.9-5-2-fixed_n-20"),
    pytest.param((2, 3, 2), 0.9, 6, 2, 20, 2, id="random2-3x2-0.9-6-2-fixed_n-20"),
])
def test_tree_plays_as_the_per_stage_update(case_study, monkeypatch, game,
                                            lam, total, window_n, runs,
                                            update_lps):
    """Episodes on one shared cache, whose prefixes merge into its agent
    states, in order and reversed, play byte for byte as the per-stage
    update does on one shared cache (states and steps capped at 0), and as
    episodes on a fresh cache each: memo entries are solved at their
    rounded statistic, so no stage depends on which episodes ran before,
    nor on which prefix reached a state first. The game is the case study
    or, by its (seed, num_k, num_l), a `random_spec` whose play meets
    degenerate pairs and so solves update LPs: one with one player-1 state,
    and one with three player-1 and two player-2 states."""
    spec = (dataclasses.replace(case_study, lam=lam, horizon_n=total)
            if game == "case" else
            random_spec(np.random.default_rng(game[0]), num_k=game[1],
                        num_l=game[2], horizon=total, lam=lam))
    config = WindowConfig(window_n, total)
    seeds = list(range(runs))
    plays = []
    for order in (seeds, seeds[::-1]):
        cache = SolverCache(spec)
        walked = _recorded_play(spec, config, order, cache)
        assert len(cache._tree) < 2 * runs * (total - 1)
        # more steps than states: some states are reached by two prefixes
        assert len(cache._states) < sum(
            isinstance(key[0], window_agent._Node) for key in cache._tree)
        assert sum(key[-1] == "lp" for key in cache._store) == update_lps
        with monkeypatch.context() as patch:
            patch.setattr(window_agent, "MAX_TREE_NODES", 0)
            assert _recorded_play(spec, config, order,
                                  SolverCache(spec)) == walked
        plays.append(walked)
    assert plays[1] == plays[0]
    assert _recorded_play(spec, config, seeds) == plays[0]


def test_tree_nodes_are_read_only(rng):
    spec = random_spec(rng, horizon=4)
    agent = WindowAgent(spec, WindowConfig(window_n=2, total_horizon=4), 1)
    agent.begin_episode(0)
    agent.observe(0, 1, 1)
    for arr in (agent.belief, agent.vector_payoff):
        with pytest.raises(ValueError):
            arr[0] = 0.5


def test_failed_miss_leaves_no_child(rng, monkeypatch):
    """A solve that raises while a new prefix is computed stores no node,
    and the agent stays where it was."""
    spec = random_spec(rng, horizon=4)
    agent = WindowAgent(spec, WindowConfig(window_n=2, total_horizon=4), 1)
    agent.begin_episode(0)
    agent.observe(0, 1, 1)
    node, tree = agent._node, agent.cache._tree

    def fail(*args, **kwargs):
        raise SolverError("refused")
    monkeypatch.setattr(dual_solver, "solve_dual2", fail)
    with pytest.raises(SolverError):
        agent.observe(1, 0, 0)     # ends the window: a dual-2 solve
    assert agent._node is node and agent.t == 2
    assert (node, 1, 0) not in tree and len(tree) == 2
    monkeypatch.undo()
    agent.observe(1, 0, 0)
    assert tree[node, 1, 0] is agent._node and agent.window_id == 2


def test_prefixes_reaching_one_state_share_its_node(case_study):
    """In the case-study duel (lambda=0.6, N=8, n=2), player 2 after the
    pairs (0, 0), (0, 0) and after (1, 0), (0, 0) holds the same statistic:
    the two prefixes are at different nodes at t=2 but reach one agent
    state, and so one node, at t=3, and from there share its steps."""
    spec = dataclasses.replace(case_study, lam=0.6, horizon_n=8)
    config = WindowConfig(window_n=2, total_horizon=8)
    cache = SolverCache(spec)
    a, b = (WindowAgent(spec, config, 2, cache=cache) for _ in range(2))
    for agent, first in ((a, (0, 0)), (b, (1, 0))):
        agent.begin_episode(0)
        agent.observe(*first, 0)
    assert a._node is not b._node
    for agent in (a, b):
        agent.observe(0, 0, 1)
    assert a._node is b._node and (a.t, a.window_id) == (3, 2)
    steps = len(cache._tree)
    a.observe(1, 1, 0)
    b.observe(1, 1, 1)
    assert a._node is b._node and len(cache._tree) == steps + 1


def test_capped_tree_plays_the_same(case_study, monkeypatch):
    """Past MAX_TREE_NODES a new step or state is computed and not stored."""
    spec = dataclasses.replace(case_study, lam=0.6, horizon_n=8)
    config = WindowConfig(window_n=2, total_horizon=8)

    def csv():
        cache = SolverCache(spec)
        result = run_monte_carlo(
            spec, lambda: WindowAgent(spec, config, 1, cache=cache),
            lambda: WindowAgent(spec, config, 2, cache=cache), 200, 0)
        buf = io.StringIO()
        write_results_csv(result, buf)
        return buf.getvalue(), len(cache._tree), len(cache._states)

    uncapped, steps, states = csv()
    monkeypatch.setattr(window_agent, "MAX_TREE_NODES", 5)
    assert csv() == (uncapped, 5, 5) and steps > 5 and states > 5


def test_bounded_store_plays_the_same(case_study, monkeypatch):
    """Past MAX_STORE_ENTRIES a result is computed and not stored."""
    spec = dataclasses.replace(case_study, lam=0.6, horizon_n=8)
    config = WindowConfig(window_n=2, total_horizon=8)

    def csv():
        cache = SolverCache(spec)
        result = run_monte_carlo(
            spec, lambda: WindowAgent(spec, config, 1, cache=cache),
            lambda: WindowAgent(spec, config, 2, cache=cache), 50, 0)
        buf = io.StringIO()
        write_results_csv(result, buf)
        return buf.getvalue(), len(cache._store)

    unbounded, entries = csv()
    monkeypatch.setattr(window_agent, "MAX_STORE_ENTRIES", 3)
    assert csv() == (unbounded, 3) and entries > 3


def test_jammer_cell_cache_stays_small(case_study):
    """A cache that served 20 window-vs-jammer episodes (lambda=0.9, N=12,
    n=3) holds plans as per-depth arrays, not per-weight Python objects:
    what stays allocated after the run is a few MiB."""
    spec = dataclasses.replace(case_study, lam=0.9, horizon_n=12)
    policy = json.loads((Path(zsbgames.__file__).parent / "data" /
                         "fixed_policy_jammer.json").read_text())["policy"]
    config = WindowConfig(window_n=3, total_horizon=12)
    tracemalloc.start()
    try:
        cache = SolverCache(spec)
        run_monte_carlo(spec, lambda: WindowAgent(spec, config, 1, cache=cache),
                        lambda: FixedPolicyAgent(spec, 2, policy), 20, 0)
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert cache._store
    assert held < 4 * 2 ** 20
