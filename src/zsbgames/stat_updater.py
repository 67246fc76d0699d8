"""Sufficient-statistic updates: Bayes rules for beliefs, joint LPs for
vector payoffs.

The vector-payoff update LP couples one sub-system per action pair
(a, b): a shortened (horizon n-1) opponent-side sequence system rooted at
the posterior belief for that pair, a scalar tail value, and the new
vector payoff itself. The coupling scalar equals the dual-game value, so
only one LP solve is needed per stage even though all action pairs'
candidate payoffs are produced. The LP is compiled once per (kind, n,
lambda) as an `UpdateTemplate`; see there for what a solve patches.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import lp_core
from .game_model import GameSpec
from .history_index import build_index
from .lp_core import CompiledLP, LpBuilder
from .primal_solver import add_sequence_system

DEGENERATE_TOL = 1e-9


def _update_belief(spec: GameSpec, side: int, belief, strategy, a: int,
                   b: int) -> np.ndarray:
    view = spec.side(side)
    belief = np.asarray(belief, dtype=float)
    strategy = np.asarray(strategy, dtype=float)
    own_act, _ = view.pair(a, b)
    likelihood = float(np.dot(belief, strategy[own_act]))
    if likelihood <= DEGENERATE_TOL:
        post = view.trans[a, b].T @ belief
    else:
        post = view.trans[a, b].T @ (belief * strategy[own_act] / likelihood)
    total = float(post.sum())
    return post / total if total > 0 else np.full_like(post, 1.0 / post.size)


def update_belief_p(spec: GameSpec, p, X, a: int, b: int) -> np.ndarray:
    """Posterior over player 1's next state after seeing action pair (a, b).

    X[a', k] is the modeled probability that player 1 plays a' in state k.
    If the observed action has (near) zero prior likelihood the likelihood
    factor is dropped and the prior is pushed through the transition.
    """
    return _update_belief(spec, 1, p, X, a, b)


def update_belief_q(spec: GameSpec, q, Y, a: int, b: int) -> np.ndarray:
    """Posterior over player 2's next state; Y[b', l] mirrors X above."""
    return _update_belief(spec, 2, q, Y, a, b)


@dataclass
class UpdateResult:
    vector: np.ndarray              # new vector payoff for the observed pair
    w: float                        # dual-game value at the pre-update statistic
    all_vectors: dict               # (a, b) -> candidate vector payoff


@dataclass
class UpdateTemplate:
    """Update LP of one kind, compiled without its statistic.

    Kind 1 advances the vector payoff over player 1's states (player 2's
    statistic, sub-systems are player 2's); kind 2 mirrors it. A solve
    patches the per-pair posteriors (flow-row right-hand sides) and appends
    the coupling block: one row per vector owner's action o and state s,
    over the fixed columns `coupling_cols` (the scalar, then for each plan
    owner's action m the tail and vector variables of pair (o, m)), whose
    coefficients scale with the plan owner's stage action weights.
    """

    spec: GameSpec
    kind: int
    n: int
    lam: float
    lp: CompiledLP
    tail_vars: np.ndarray           # [a, b] -> tail value variable
    vector_vars: np.ndarray         # [a, b] -> candidate vector payoff variables
    root_rows: np.ndarray           # [a, b] -> sub-system flow rows (none at n = 1)
    coupling_cols: np.ndarray       # [o * states + s] -> the row's columns

    def lp_at(self, vec, belief, star) -> CompiledLP:
        """The template's LP at a statistic: `vec` is the vector payoff being
        advanced, `belief` and `star` the plan owner's belief and stage-1
        strategy (action, state) of the dual game at (vec, belief)."""
        spec, view = self.spec, self.spec.side(self.kind)   # view: the vector owner
        posterior = update_belief_q if self.kind == 1 else update_belief_p
        roots = [posterior(spec, belief, star, aa, bb) for aa, bb in
                 (np.ndindex(spec.num_a, spec.num_b) if self.n >= 2 else ())]

        num_own, num_opp = view.num_actions, view.num_opp_actions
        bar = star @ belief             # bar[m] = sum_s belief(s) star(m, s)
        # row (o, s): 1 for the scalar, then for each m -lam bar[m] for the
        # tail and lam bar[m] T[s, :] for the vector of pair (o, m)
        trans = view.trans[view.pair(*np.ogrid[:num_own, :num_opp])].transpose(0, 2, 1, 3)
        tail = np.broadcast_to(-self.lam * bar, trans.shape[:3])[..., None]
        per_pair = np.concatenate([tail, (self.lam * bar)[:, None] * trans], axis=3)
        coeffs = np.insert(per_pair.reshape(len(self.coupling_cols), -1), 0, 1.0, axis=1)
        # rhs[o, s]: vec[s] plus the stage payoff against each m, in order
        pay = np.ascontiguousarray(view.payoff.transpose(3, 2, 0, 1)) * belief
        rhs = np.tile(vec, num_own)
        for star_m, pay_m in zip(star, pay):
            rhs += [np.dot(row, star_m) for row in pay_m.reshape(-1, belief.size)]
        return self.lp.with_rhs(self.root_rows.ravel(), np.ravel(roots), extra=(
            ">=" if self.kind == 1 else "<=", self.coupling_cols, coeffs, rhs))


def update_template(spec: GameSpec, kind: int, n: int,
                    lam: float) -> UpdateTemplate:
    view = spec.side(kind)          # the vector owner; view.opp owns the plans
    rel = "<=" if kind == 1 else ">="
    builder = LpBuilder()
    scalar = builder.new_var()
    sub_index = build_index(spec, n - 1) if n >= 2 else None
    s = np.arange(view.num_states)
    tail_vars = np.zeros((spec.num_a, spec.num_b), int)
    vector_vars = np.zeros(tail_vars.shape + s.shape, int)
    root_rows = np.zeros(tail_vars.shape + (view.num_opp_states * (n >= 2),), int)
    for aa, bb in np.ndindex(tail_vars.shape):
        tail_vars[aa, bb] = builder.new_var()
        vector_vars[aa, bb] = builder.new_vars(view.num_states)
        entries = [(s, vector_vars[aa, bb], 1.0), (s, tail_vars[aa, bb], -1.0)]
        if n >= 2:
            _, payoff_vars, root_rows[aa, bb] = add_sequence_system(
                builder, spec, sub_index, view.opp, n - 1, lam,
                np.zeros(view.num_opp_states))
            entries.append((s, payoff_vars.start + s, 1.0))
        builder.add_rows(rel, np.zeros(s.size), entries)
    lp = builder.build(lp_core.MIN if kind == 1 else lp_core.MAX, {scalar: 1.0})
    pair = view.pair(*np.ogrid[:view.num_actions, :view.num_opp_actions])
    cols = np.dstack([tail_vars[pair], vector_vars[pair]]).reshape(view.num_actions, -1)
    return UpdateTemplate(spec=spec, kind=kind, n=n, lam=lam, lp=lp,
                          tail_vars=tail_vars, vector_vars=vector_vars,
                          root_rows=root_rows, coupling_cols=np.repeat(
                              np.insert(cols, 0, scalar, axis=1), s.size, axis=0))


def _update(spec, kind, vec, belief, star, a, b, n, lam,
            template) -> UpdateResult:
    if template is None:
        template = update_template(spec, kind, n, lam)
    elif (template.kind, template.n, template.lam) != (kind, n, lam):
        raise ValueError(f"template is for update type {template.kind} at "
                         f"n={template.n}, lambda={template.lam}")
    sol = lp_core.solve(template.lp_at(np.asarray(vec, dtype=float),
                                       np.asarray(belief, dtype=float),
                                       np.asarray(star, dtype=float)))
    vectors = sol.primal[template.vector_vars]
    all_vectors = {key: vectors[key] for key in np.ndindex(vectors.shape[:2])}
    return UpdateResult(vector=all_vectors[(a, b)],
                        w=sol.objective_value, all_vectors=all_vectors)


def update_mu(spec: GameSpec, mu, q, y_star, a: int, b: int, n: int,
              lam: float,
              template: UpdateTemplate | None = None) -> UpdateResult:
    """Next vector payoff over player 1's states for player 2's statistic.

    `y_star` must be player 2's stage-1 strategy of the n-stage dual game
    at (mu, q); the returned scalar then equals that dual game's value.
    """
    return _update(spec, 1, mu, q, y_star, a, b, n, lam, template)


def update_nu(spec: GameSpec, nu, p, x_star, a: int, b: int, n: int,
              lam: float,
              template: UpdateTemplate | None = None) -> UpdateResult:
    """Next vector payoff over player 2's states for player 1's statistic.

    Mirror of update_mu: `x_star` is player 1's stage-1 strategy of the
    n-stage dual game at (p, nu).
    """
    return _update(spec, 2, nu, p, x_star, a, b, n, lam, template)
