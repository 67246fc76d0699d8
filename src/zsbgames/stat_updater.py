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
from .errors import SolverError
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
    statistic, sub-systems are player 2's); kind 2 mirrors it. Everything
    but the per-pair posteriors (flow-row right-hand sides) and the final
    coupling block (one row per vector owner's action and state, whose
    coefficients scale with the plan owner's stage action weights) is
    fixed, so the block is rebuilt per solve and appended last.
    """

    spec: GameSpec
    kind: int
    n: int
    lam: float
    lp: CompiledLP
    scalar: int                     # rho (kind 1) or phi (kind 2)
    tail_vars: dict                 # (a, b) -> tail value variable
    vector_vars: dict               # (a, b) -> candidate vector payoff variables
    root_rows: dict                 # (a, b) -> sub-system flow rows (none at n = 1)

    def lp_at(self, vec, belief, star) -> CompiledLP:
        """The template's LP at a statistic: `vec` is the vector payoff being
        advanced, `belief` and `star` the plan owner's belief and stage-1
        strategy (action, state) of the dual game at (vec, belief)."""
        spec, kind, lam = self.spec, self.kind, self.lam
        view = spec.side(kind)          # the vector owner's view
        posterior = update_belief_q if kind == 1 else update_belief_p
        rows, roots = [], []
        if self.n >= 2:
            for (aa, bb), flow in self.root_rows.items():
                rows += flow
                roots.extend(posterior(spec, belief, star, aa, bb))

        # coupling block: one row per (vector owner's action o, state s),
        # summed over the plan owner's action m
        bar = star @ belief             # bar[m] = sum_s belief(s) star(m, s)
        rel = ">=" if kind == 1 else "<="
        block = []
        for o in range(view.num_actions):
            for s in range(view.num_states):
                coeffs = {self.scalar: 1.0}
                rhs = float(vec[s])
                for m in range(view.num_opp_actions):
                    pair = view.pair(o, m)
                    rhs += float(np.dot(view.payoff[s, :, o, m] * belief, star[m]))
                    coeffs[self.tail_vars[pair]] = -lam * float(bar[m])
                    for s2, var in enumerate(self.vector_vars[pair]):
                        coeffs[var] = coeffs.get(var, 0.0) + \
                            lam * float(bar[m]) * view.trans[pair][s, s2]
                block.append((coeffs, rel, rhs))
        return self.lp.with_rhs(rows, roots, extra_rows=block)


def update_template(spec: GameSpec, kind: int, n: int,
                    lam: float) -> UpdateTemplate:
    view = spec.side(kind)          # the vector owner; view.opp owns the plans
    rel = "<=" if kind == 1 else ">="
    builder = LpBuilder()
    scalar = builder.new_var()
    sub_index = build_index(spec, n - 1) if n >= 2 else None
    tail_vars, vector_vars, root_rows = {}, {}, {}
    for aa in range(spec.num_a):
        for bb in range(spec.num_b):
            tail = tail_vars[(aa, bb)] = builder.new_var()
            vec = vector_vars[(aa, bb)] = builder.new_vars(view.num_states)
            root_rows[(aa, bb)] = []
            if n >= 2:
                _, payoff_vars, root_rows[(aa, bb)] = add_sequence_system(
                    builder, spec, sub_index, view.opp, n - 1, lam,
                    np.zeros(view.num_opp_states))
            for s in range(view.num_states):
                coeffs = {vec[s]: 1.0, tail: -1.0}
                if n >= 2:
                    root = sub_index.id_of(kind, 1, (s,), ())
                    coeffs[payoff_vars[(1, root)]] = 1.0
                builder.add_row(coeffs, rel, 0.0)
    lp = builder.build(lp_core.MIN if kind == 1 else lp_core.MAX, {scalar: 1.0})
    return UpdateTemplate(spec=spec, kind=kind, n=n, lam=lam, lp=lp,
                          scalar=scalar, tail_vars=tail_vars,
                          vector_vars=vector_vars, root_rows=root_rows)


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
    if sol.status != "optimal":
        raise SolverError(
            f"vector-payoff update LP (type {kind}) returned {sol.status}")
    all_vectors = {key: sol.primal[vars_]
                   for key, vars_ in template.vector_vars.items()}
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
