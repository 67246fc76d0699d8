"""Best-response value against a fixed realization plan.

With the plan fixed, the responder's weighted payoff at each of its own
histories follows a backward recursion over its history tree: for each
responder action, the plan-weighted stage payoff of the compatible plan
histories plus the transition-weighted values of the history's children;
the responder takes the minimum against a player-1 plan and the maximum
against a player-2 plan. This is the sequence-form best response (von
Stengel 1996), exact at every history, including ones the responder
reaches with zero prior weight.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .game_model import GameSpec

if TYPE_CHECKING:
    from .primal_solver import RealizationPlan


@dataclass
class BestResponseResult:
    value: float
    payoff_map: dict                # (t, hid) -> float, responder histories
    roots: np.ndarray               # payoff_map at depth 1, by responder state


def _solve_vs_plan(spec: GameSpec, plan: RealizationPlan, weights, n: int,
                   lam: float) -> BestResponseResult:
    index = plan.index
    view = spec.side(plan.side)     # the plan owner's view
    opp = view.opp                  # the responder
    best = np.min if plan.side == 1 else np.max
    payoff_map = {}
    for t in range(n, 0, -1):
        disc = lam ** (t - 1)
        stage = {}                  # public history -> [opp state, opp action]
        for j, (jstates, jacts) in enumerate(index.histories(opp, t)):
            if jacts not in stage:
                reach = np.zeros((view.num_states, view.num_actions))
                for i in index.compatible(plan.side, jacts):
                    own_state = index.history(plan.side, t, i)[0][-1]
                    reach[own_state] += [plan.values[(t, i, act)]
                                         for act in range(view.num_actions)]
                stage[jacts] = disc * np.einsum("sa,soab->ob", reach,
                                                view.payoff)
            opp_state = jstates[-1]
            values = stage[jacts][opp_state].copy()
            if t < n:
                for opp_act in range(view.num_opp_actions):
                    for act in range(view.num_actions):
                        a, b = view.pair(act, opp_act)
                        for nxt in range(view.num_opp_states):
                            child = index.child_id(opp, t, j, a, b, nxt)
                            values[opp_act] += (view.opp_trans[a, b, opp_state, nxt]
                                                * payoff_map[(t + 1, child)])
            payoff_map[(t, j)] = float(best(values))
    roots = np.array([payoff_map[(1, index.id_of(opp, 1, (s,), ()))]
                      for s in range(view.num_opp_states)])
    value = float(np.dot(np.asarray(weights, dtype=float), roots))
    return BestResponseResult(value=value, payoff_map=payoff_map, roots=roots)


def best_response_vs_p1(spec: GameSpec, plan: RealizationPlan, q, n: int,
                        lam: float) -> BestResponseResult:
    """Value player 2's best response concedes against a fixed player-1 plan."""
    if plan.side != 1:
        raise ValueError("plan must belong to player 1")
    return _solve_vs_plan(spec, plan, q, n, lam)


def best_response_vs_p2(spec: GameSpec, plan: RealizationPlan, p, n: int,
                        lam: float) -> BestResponseResult:
    """Value player 1's best response extracts against a fixed player-2 plan."""
    if plan.side != 2:
        raise ValueError("plan must belong to player 2")
    return _solve_vs_plan(spec, plan, p, n, lam)
