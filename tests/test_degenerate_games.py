"""Degenerate games: one state or one action per player, states with zero
prior weight, and no discounting (lambda = 1). Games are drawn from small
integer weights, so zero entries are common."""

import numpy as np
from hypothesis import given, settings, strategies as st

from zsbgames import (GameSpec, OptimalAgent, SolverCache, WindowAgent,
                      WindowConfig, best_response_vs_p1, best_response_vs_p2,
                      run_episode, solve_primal)


def _weights(draw, shape):
    size = int(np.prod(shape))
    return np.array(draw(st.lists(st.integers(0, 3), min_size=size,
                                  max_size=size)), dtype=float).reshape(shape)


@st.composite
def _dists(draw, shape):
    """Distributions along the last axis, zero entries allowed."""
    weights = _weights(draw, shape)
    weights[weights.sum(axis=-1) == 0, 0] = 1.0
    return weights / weights.sum(axis=-1, keepdims=True)


@st.composite
def _games(draw):
    nk, nl, na, nb = (draw(st.integers(1, 2)) for _ in range(4))
    return GameSpec(
        num_k=nk, num_l=nl, num_a=na, num_b=nb,
        payoff=_weights(draw, (nk, nl, na, nb)),
        p0=draw(_dists((nk,))), q0=draw(_dists((nl,))),
        trans_p=draw(_dists((na, nb, nk, nk))),
        trans_q=draw(_dists((na, nb, nl, nl))),
        lam=draw(st.sampled_from([0.5, 1.0])), horizon_n=3)


@settings(derandomize=True, database=None, deadline=None, max_examples=30)
@given(spec=_games(), n=st.integers(1, 2), side=st.sampled_from([1, 2]),
       seed=st.integers(0, 2 ** 16))
def test_degenerate_games_solve_and_play(spec, n, side, seed):
    results = {s: solve_primal(spec, spec.p0, spec.q0, n, spec.lam, s)
               for s in (1, 2)}
    assert abs(results[1].value - results[2].value) <= 1e-9
    for s, vs_plan in ((1, best_response_vs_p1), (2, best_response_vs_p2)):
        other = spec.side(s).pair(spec.p0, spec.q0)[1]
        br = vs_plan(spec, results[s].plan, other, n, spec.lam)
        assert abs(br.value - results[s].value) <= 1e-9
        assert np.isfinite(results[s].initial_vector_payoff).all()

    cache = SolverCache(spec)
    agents = {side: OptimalAgent(spec, side, cache=cache),
              3 - side: WindowAgent(spec, WindowConfig(1, spec.horizon_n),
                                    3 - side, cache=cache)}
    stats = []

    class Watched:
        """Records both agents' statistics after every observation."""

        def __init__(self, agent):
            self.agent = agent
            self.begin_episode, self.act = agent.begin_episode, agent.act

        def observe(self, a, b, own_next_state):
            self.agent.observe(a, b, own_next_state)
            stats.append((self.agent.belief, self.agent.vector_payoff))

    run_episode(spec, Watched(agents[1]), Watched(agents[2]), seed)
    assert len(stats) == 2 * (spec.horizon_n - 1)
    for belief, vector_payoff in stats:
        assert abs(belief.sum() - 1.0) <= 1e-9
        assert np.isfinite(vector_payoff).all()
