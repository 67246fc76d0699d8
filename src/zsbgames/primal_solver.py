"""Sequence-form LPs for the primal game.

Both players' LPs share one constraint-system builder: the acting player's
variables are realization-plan weights over its own histories, the
opponent side carries one weighted-payoff variable per opponent history.
The player-1 system uses >= payoff rows (the opponent minimizes), the
player-2 system uses <= rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import best_response, lp_core
from .errors import SolverError
from .game_model import GameSpec
from .history_index import HistoryIndex, build_index
from .lp_core import LpBuilder

UNREACHABLE_TOL = 1e-9


@dataclass
class RealizationPlan:
    """Reach-probability weights per (history, own action).

    `values[(t, hid, action)]` is the plan weight; `root` is the
    distribution its depth-1 row sums must match.
    """

    side: int
    depth: int
    index: HistoryIndex
    root: np.ndarray
    values: dict


@dataclass
class BehavioralStrategy:
    """Per-history action distributions, one entry per information set."""

    side: int
    depth: int
    index: HistoryIndex
    table: dict                     # (t, hid) -> np.ndarray over own actions

    def action_probs(self, states, acts) -> np.ndarray:
        t = len(states)
        return self.table[(t, self.index.id_of(self.side, t, states, acts))]

    def stage1_matrix(self) -> np.ndarray:
        """Stage-1 strategy as an (own action, own state) matrix."""
        view = self.index.spec.side(self.side)
        cols = [self.table[(1, self.index.id_of(self.side, 1, (s,), ()))]
                for s in range(view.num_states)]
        return np.stack(cols, axis=1)


@dataclass
class PrimalResult:
    value: float
    plan: RealizationPlan
    strategy: BehavioralStrategy
    weighted_payoffs: dict          # (t, opponent hid) -> float
    initial_vector_payoff: np.ndarray


class SequenceSystem(NamedTuple):
    plan_vars: dict                 # (t, hid, own action) -> var, own histories
    payoff_vars: dict               # (t, hid) -> var, opponent histories
    root_rows: list                 # [s] -> flow row whose rhs is root_dist[s]


def add_sequence_system(builder: LpBuilder, spec: GameSpec, index: HistoryIndex,
                        side: int, n: int, lam: float,
                        root_dist: np.ndarray) -> SequenceSystem:
    """Add one player's sequence-form constraint system to `builder`.

    plan_vars are nonnegative LP variables over side-`side` histories;
    payoff_vars are free variables over the opponent's histories. The
    terminal payoff variables at depth n+1 are the constant 0 and are
    substituted out. Only the depth-1 flow rows (`root_rows`) depend on
    `root_dist`, through their right-hand sides.
    """
    view = spec.side(side)
    opp = view.opp
    rel = ">=" if side == 1 else "<="

    plan_vars = {}
    for t in range(1, n + 1):
        for hid in range(index.count(side, t)):
            for act in range(view.num_actions):
                plan_vars[(t, hid, act)] = builder.new_var(lower=0.0)
    payoff_vars = {}
    for t in range(1, n + 1):
        for hid in range(index.count(opp, t)):
            payoff_vars[(t, hid)] = builder.new_var()

    # payoff rows: one per (opponent history, opponent action)
    for t in range(1, n + 1):
        disc = lam ** (t - 1)
        for j, (jstates, jacts) in enumerate(index.histories(opp, t)):
            opp_state = jstates[-1]
            compat = index.compatible(side, jacts)
            for opp_act in range(view.num_opp_actions):
                coeffs = {payoff_vars[(t, j)]: -1.0}
                for i in compat:
                    istates, _ = index.history(side, t, i)
                    own_state = istates[-1]
                    for act in range(view.num_actions):
                        var = plan_vars[(t, i, act)]
                        coeffs[var] = coeffs.get(var, 0.0) + \
                            disc * view.payoff[own_state, opp_state, act, opp_act]
                if t < n:
                    for act in range(view.num_actions):
                        a, b = view.pair(act, opp_act)
                        for nxt in range(view.num_opp_states):
                            child = index.child_id(opp, t, j, a, b, nxt)
                            var = payoff_vars[(t + 1, child)]
                            coeffs[var] = coeffs.get(var, 0.0) + \
                                view.opp_trans[a, b, opp_state, nxt]
                builder.add_row(coeffs, rel, 0.0)

    # flow rows; depth-1 history ids are the own states in order
    root_rows = []
    for hid in range(index.count(side, 1)):
        states, _ = index.history(side, 1, hid)
        coeffs = {plan_vars[(1, hid, act)]: 1.0
                  for act in range(view.num_actions)}
        root_rows.append(builder.add_row(coeffs, "=",
                                         float(root_dist[states[0]])))
    for t in range(2, n + 1):
        for hid, (states, acts) in enumerate(index.histories(side, t)):
            pid, (a_prev, b_prev) = index.parent(side, t, hid)
            own_prev, _ = view.pair(a_prev, b_prev)
            coeffs = {plan_vars[(t, hid, act)]: 1.0
                      for act in range(view.num_actions)}
            trans = view.trans[a_prev, b_prev, states[-2], states[-1]]
            var = plan_vars[(t - 1, pid, own_prev)]
            coeffs[var] = coeffs.get(var, 0.0) - trans
            builder.add_row(coeffs, "=", 0.0)

    return SequenceSystem(plan_vars, payoff_vars, root_rows)


def build_primal(spec: GameSpec, p, q, n: int, lam: float, side: int,
                 index: HistoryIndex | None = None):
    """Player `side`'s primal LP; returns (lp, plan_vars, payoff_vars, index).

    The plan is rooted at the player's own belief; the objective weights
    the opponent's root payoff variables with the opponent's belief.
    """
    view = spec.side(side)
    if index is None:
        index = build_index(spec, n)
    own, other = view.pair(p, q)
    builder = LpBuilder()
    plan_vars, payoff_vars, _ = add_sequence_system(
        builder, spec, index, side, n, lam, np.asarray(own, dtype=float))
    objective = {payoff_vars[(1, index.id_of(view.opp, 1, (s,), ()))]:
                 float(other[s]) for s in range(view.num_opp_states)}
    lp = builder.build(lp_core.MAX if side == 1 else lp_core.MIN, objective)
    return lp, plan_vars, payoff_vars, index


def plan_from_solution(index: HistoryIndex, side: int, n: int,
                       plan_vars: dict, primal: np.ndarray,
                       root: np.ndarray) -> RealizationPlan:
    values = {key: float(primal[var]) for key, var in plan_vars.items()}
    return RealizationPlan(side=side, depth=n, index=index,
                           root=np.asarray(root, dtype=float), values=values)


def extract_strategy(plan: RealizationPlan, spec: GameSpec) -> BehavioralStrategy:
    """Behavioral strategy from a realization plan.

    At information sets whose reach weight is below UNREACHABLE_TOL the
    plan pins down nothing; those sets get the uniform distribution.
    """
    index = plan.index
    side = plan.side
    view = spec.side(side)
    uniform = np.full(view.num_actions, 1.0 / view.num_actions)
    table = {}
    for t in range(1, plan.depth + 1):
        for hid, (states, acts) in enumerate(index.histories(side, t)):
            if t == 1:
                denom = float(plan.root[states[0]])
            else:
                pid, (a_prev, b_prev) = index.parent(side, t, hid)
                own_prev, _ = view.pair(a_prev, b_prev)
                denom = (view.trans[a_prev, b_prev, states[-2], states[-1]]
                         * plan.values[(t - 1, pid, own_prev)])
            if denom <= UNREACHABLE_TOL:
                table[(t, hid)] = uniform.copy()
            else:
                table[(t, hid)] = np.maximum(np.array(
                    [plan.values[(t, hid, act)] / denom
                     for act in range(view.num_actions)]), 0.0)
    return BehavioralStrategy(side=side, depth=plan.depth, index=index,
                              table=table)


def solve_primal(spec: GameSpec, p, q, n: int, lam: float, side: int,
                 inspect_lp=None) -> PrimalResult:
    """Game value, security strategy and initial vector payoff for `side`.

    The weighted payoffs (and hence the initial vector payoff of the
    other side's dual game) are recomputed as the best response against
    the extracted plan, so they are well defined even at opponent states
    with zero prior weight. `inspect_lp`, if given, is called with the
    compiled LP before it is solved.
    """
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    own, other = spec.side(side).pair(p, q)
    lp, plan_vars, _, index = build_primal(spec, p, q, n, lam, side)
    if inspect_lp is not None:
        inspect_lp(lp)
    sol = lp_core.solve(lp)
    if sol.status != "optimal":
        raise SolverError(f"primal LP (player {side}) returned {sol.status}")
    plan = plan_from_solution(index, side, n, plan_vars, sol.primal, own)
    strategy = extract_strategy(plan, spec)
    vs_plan = (best_response.best_response_vs_p1 if side == 1
               else best_response.best_response_vs_p2)
    br = vs_plan(spec, plan, other, n, lam)
    return PrimalResult(value=sol.objective_value, plan=plan,
                        strategy=strategy, weighted_payoffs=br.payoff_map,
                        initial_vector_payoff=-br.roots)
