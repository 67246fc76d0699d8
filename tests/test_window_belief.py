"""The window agent's belief against the paper's stage-matrix Bayes rule.

The reference keeps the agent's posterior over the window's own-state
sequences as a dict, marginalizes the acting strategy's table into a stage
matrix X with it, and advances the belief with `update_belief_p/q`. Games
are drawn from small integer weights, so every likelihood is either zero
or well above the degenerate-update tolerances. Episodes share one cache,
so later ones walk the tree of public prefixes that earlier ones grew.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from zsbgames import GameSpec, SolverCache, WindowAgent, WindowConfig
from zsbgames.stat_updater import update_belief_p, update_belief_q


def _ints(draw, shape, hi):
    size = int(np.prod(shape))
    return np.array(draw(st.lists(st.integers(0, hi), min_size=size,
                                  max_size=size)), dtype=float).reshape(shape)


@st.composite
def _dists(draw, shape):
    """Distributions along the last axis from weights 0..3, none all zero."""
    weights = _ints(draw, shape, 3)
    weights[weights.sum(axis=-1) == 0] = 1.0
    return weights / weights.sum(axis=-1, keepdims=True)


@st.composite
def _plays(draw):
    """A game, a window config, a side and the (start state, public play)
    of one to three episodes."""
    nk, nl, na, nb = (draw(st.integers(1, hi)) for hi in (3, 2, 2, 2))
    total = draw(st.integers(2, 4))
    spec = GameSpec(
        num_k=nk, num_l=nl, num_a=na, num_b=nb,
        payoff=_ints(draw, (nk, nl, na, nb), 5),
        p0=draw(_dists((nk,))), q0=draw(_dists((nl,))),
        trans_p=draw(_dists((na, nb, nk, nk))),
        trans_q=draw(_dists((na, nb, nl, nl))),
        lam=draw(st.sampled_from([0.5, 0.9, 1.0])), horizon_n=total)
    config = WindowConfig(draw(st.integers(1, min(total, 2))), total)
    side = draw(st.sampled_from([1, 2]))
    ns = nk if side == 1 else nl
    stage = st.tuples(st.integers(0, na - 1), st.integers(0, nb - 1),
                      st.integers(0, ns - 1))
    episode = st.tuples(st.integers(0, ns - 1),
                        st.lists(stage, min_size=total - 1,
                                 max_size=total - 1))
    episodes = draw(st.lists(episode, min_size=1, max_size=3))
    return spec, config, side, episodes


def _reference_stage(spec, side, strategy, weights, acts, a, b):
    """(X, next weights) of the stage-matrix rule; `weights` maps the
    window's own-state sequences, played with `acts`, to their posterior."""
    view = spec.side(side)
    t = len(acts) + 1
    X = np.empty((view.num_actions, view.num_states))
    probs = {states: strategy.table[(t, strategy.index.id_of(side, t, states,
                                                             acts))]
             for states in weights}
    for s in range(view.num_states):
        num, den = np.zeros(view.num_actions), 0.0
        for states, w in weights.items():
            if states[-1] == s:
                num += w * probs[states]
                den += w
        X[:, s] = num / den if den > 1e-12 else 1.0 / view.num_actions
    own_act, _ = view.pair(a, b)
    for use_likelihood in (True, False):
        nxt = {}
        for states, w in weights.items():
            reach = w * float(probs[states][own_act]) if use_likelihood else w
            for k in range(view.num_states):
                step = reach * view.trans[a, b, states[-1], k]
                if step > 0.0:
                    nxt[states + (k,)] = nxt.get(states + (k,), 0.0) + step
        total = sum(nxt.values())
        if total > 1e-12:
            break
    return X, {k: v / total for k, v in nxt.items()}


def _check_stage(agent):
    """At every stage the belief is a distribution, the vector payoff is
    finite and the agent acts with a distribution."""
    for dist, tol in ((agent.belief, 1e-9), (agent.act(), 1e-7)):
        assert np.all(dist >= 0.0) and abs(dist.sum() - 1.0) <= tol
    assert np.isfinite(agent.vector_payoff).all()


@settings(derandomize=True, database=None, deadline=None, max_examples=100)
@given(_plays())
def test_belief_is_the_stage_matrix_posterior(case):
    spec, config, side, episodes = case
    update_belief = update_belief_p if side == 1 else update_belief_q
    cache = SolverCache(spec)
    for start, play in episodes:
        agent = WindowAgent(spec, config, side, cache=cache)
        agent.begin_episode(start)
        _check_stage(agent)
        for a, b, nxt in play:
            if agent.window_acts == ():
                weights = {(s,): float(w) for s, w in enumerate(agent.belief)}
            prior, strategy = agent.belief, agent.strategy
            X, weights = _reference_stage(spec, side, strategy, weights,
                                          agent.window_acts, a, b)
            agent.observe(a, b, nxt)
            want = update_belief(spec, prior, X, a, b)
            assert np.max(np.abs(agent.belief - want)) <= 1e-12
            _check_stage(agent)
