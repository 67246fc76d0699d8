"""Sufficient-statistic updates: Bayes rules for beliefs, a joint LP for
vector payoffs.

The vector-payoff update LP couples one sub-system per action pair
(a, b): a shortened (horizon n-1) opponent-side sequence system on (last
state, public pairs) rows (`primal_solver.add_sequence_system`) rooted at
the posterior belief for that pair, a scalar tail value, and the new
vector payoff itself. The coupling scalar equals the dual-game value, and
one solve gives every action pair's candidate payoff. Window play reads
the next vector payoff off the dual game's plan instead
(`SolverCache._update`) and solves this LP only for an observed pair the
plan owner plays with zero weight; each solve builds the LP afresh.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import lp_core
from .game_model import GameSpec, SideView
from .lp_core import LpBuilder
from .primal_solver import add_sequence_system

DEGENERATE_TOL = 1e-9


def _update_belief(view: SideView, belief: np.ndarray, strategy: np.ndarray,
                   a: int, b: int) -> np.ndarray:
    """`update_belief_p/q` for float arrays, with the side's view."""
    row = strategy[a if view.side == 1 else b]
    likelihood = float(np.dot(belief, row))
    if likelihood <= DEGENERATE_TOL:
        post = view.trans[a, b].T @ belief
    else:
        post = view.trans[a, b].T @ (belief * row / likelihood)
    total = float(post.sum())
    return post / total if total > 0 else np.full_like(post, 1.0 / post.size)


def update_belief_p(spec: GameSpec, p, X, a: int, b: int) -> np.ndarray:
    """Posterior over player 1's next state after seeing action pair (a, b).

    X[a', k] is the modeled probability that player 1 plays a' in state k.
    If the observed action has (near) zero prior likelihood the likelihood
    factor is dropped and the prior is pushed through the transition.
    """
    return _update_belief(spec.side(1), np.asarray(p, dtype=float),
                          np.asarray(X, dtype=float), a, b)


def update_belief_q(spec: GameSpec, q, Y, a: int, b: int) -> np.ndarray:
    """Posterior over player 2's next state; Y[b', l] mirrors X above."""
    return _update_belief(spec.side(2), np.asarray(q, dtype=float),
                          np.asarray(Y, dtype=float), a, b)


@dataclass
class UpdateResult:
    vector: np.ndarray              # new vector payoff for the observed pair
    w: float                        # dual-game value at the pre-update statistic
    all_vectors: dict               # (a, b) -> candidate vector payoff


def _update_lp(spec: GameSpec, kind: int, vec, belief, star, n: int,
               lam: float):
    """The kind-`kind` update LP at a statistic, and its [a, b] -> vector
    payoff variables. Kind 1 advances the vector payoff `vec` over player
    1's states for player 2's statistic (the sub-systems are player 2's);
    kind 2 mirrors it. `belief` and `star` are the plan owner's belief and
    stage-1 strategy (action, state) of the dual game at (vec, belief)."""
    view = spec.side(kind)          # the vector owner; view.opp owns the plans
    vec, belief, star = (np.asarray(x, dtype=float) for x in (vec, belief, star))
    posterior = update_belief_q if kind == 1 else update_belief_p
    builder = LpBuilder()
    scalar = builder.new_var()
    s = np.arange(view.num_states)
    tail_vars = np.zeros((spec.num_a, spec.num_b), int)
    vector_vars = np.zeros(tail_vars.shape + s.shape, int)
    for aa, bb in np.ndindex(tail_vars.shape):
        tail_vars[aa, bb] = builder.new_var()
        vector_vars[aa, bb] = builder.new_vars(view.num_states)
        entries = [(s, vector_vars[aa, bb], 1.0), (s, tail_vars[aa, bb], -1.0)]
        if n >= 2:
            _, payoff_vars, _ = add_sequence_system(
                builder, spec, view.opp, n - 1, lam,
                posterior(spec, belief, star, aa, bb))
            entries.append((s, payoff_vars.start + s, 1.0))
        builder.add_rows("<=" if kind == 1 else ">=", np.zeros(s.size), entries)

    # coupling row (o, s): 1 for the scalar, then for each plan owner's
    # action m -lam bar[m] for the tail and lam bar[m] T[s, :] for the
    # vector of pair (o, m), where bar[m] = sum_s' belief(s') star(m, s')
    bar = star @ belief
    o, m, s, nxt = np.ogrid[:view.num_actions, :view.num_opp_actions,
                            :view.num_states, :view.num_states]
    a, b = view.pair(o, m)
    row = o * view.num_states + s
    # rhs[o, s]: vec[s] plus the stage payoff against each m, in order
    pay = np.ascontiguousarray(view.payoff.transpose(3, 2, 0, 1)) * belief
    rhs = np.tile(vec, view.num_actions)
    for star_m, pay_m in zip(star, pay):
        rhs += [np.dot(pay_row, star_m)
                for pay_row in pay_m.reshape(-1, belief.size)]
    builder.add_rows(">=" if kind == 1 else "<=", rhs, [
        (row[:, 0, :, 0], scalar, 1.0),
        (row[..., 0], tail_vars[a, b][..., 0], -lam * bar[m][..., 0]),
        (row, vector_vars[a, b, nxt], (lam * bar)[m] * view.trans[a, b, s, nxt])])
    lp = builder.build(lp_core.MIN if kind == 1 else lp_core.MAX, {scalar: 1.0})
    return lp, vector_vars


def _update(spec, kind, vec, belief, star, a, b, n, lam) -> UpdateResult:
    lp, vector_vars = _update_lp(spec, kind, vec, belief, star, n, lam)
    sol = lp_core.solve(lp)
    vectors = sol.primal[vector_vars]
    all_vectors = {key: vectors[key] for key in np.ndindex(vectors.shape[:2])}
    return UpdateResult(vector=all_vectors[(a, b)],
                        w=sol.objective_value, all_vectors=all_vectors)


def update_mu(spec: GameSpec, mu, q, y_star, a: int, b: int, n: int,
              lam: float) -> UpdateResult:
    """Next vector payoff over player 1's states for player 2's statistic.

    `y_star` must be player 2's stage-1 strategy of the n-stage dual game
    at (mu, q); the returned scalar then equals that dual game's value.
    """
    return _update(spec, 1, mu, q, y_star, a, b, n, lam)


def update_nu(spec: GameSpec, nu, p, x_star, a: int, b: int, n: int,
              lam: float) -> UpdateResult:
    """Next vector payoff over player 2's states for player 1's statistic.

    Mirror of update_mu: `x_star` is player 1's stage-1 strategy of the
    n-stage dual game at (p, nu).
    """
    return _update(spec, 2, nu, p, x_star, a, b, n, lam)
