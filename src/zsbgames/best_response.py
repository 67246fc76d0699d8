"""Best-response value against a fixed realization plan.

With the plan fixed, the responder's weighted payoff at each of its own
histories follows a backward recursion over its history tree: for each
responder action, the plan-weighted stage payoff of the compatible plan
histories plus the transition-weighted values of the history's children;
the responder takes the minimum against a player-1 plan and the maximum
against a player-2 plan. This is the sequence-form best response (von
Stengel 1996), exact at every history, including ones the responder
reaches with zero prior weight. The result keeps these values as one
array per depth, indexed by the responder's history ids (`HistoryIndex`).
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
    values: list                    # [t - 1]: by responder id at depth t
    roots: np.ndarray               # values[0], by responder state


def _solve_vs_plan(spec: GameSpec, plan: RealizationPlan, weights, n: int,
                   lam: float) -> BestResponseResult:
    index = plan.index
    view = spec.side(plan.side)     # the plan owner's view
    opp = view.opp                  # the responder
    ns, no, num_own = view.num_states, view.num_opp_states, view.num_actions
    best = np.min if plan.side == 1 else np.max
    plan_weights = plan.last_state_weights()
    values = [None] * n
    for t in range(n, 0, -1):
        R = index.num_pairs ** (t - 1)
        # per pair sequence r: the plan weights of its compatible histories
        # (S, r) by last own state; einsum's summation order follows its
        # operands' memory layout, so `reach` is made C-contiguous
        reach = np.ascontiguousarray(
            plan_weights[t - 1].reshape(ns, R, num_own).transpose(1, 0, 2))
        stage = lam ** (t - 1) * np.einsum("rsa,soab->rob", reach, view.payoff)
        # responder history j = (S, r): [j, responder action]
        j = np.arange(index.count(opp, t))[:, None]
        last = j // R % no
        vals = stage[j[:, 0] % R, last[:, 0]]
        if t < n:
            o = np.arange(view.num_opp_actions)
            for act in range(num_own):
                a, b = view.pair(act, o)
                for nxt in range(no):
                    child = index.child_id(opp, t, j, a, b, nxt)
                    vals += view.opp_trans[a, b, last, nxt] * values[t][child]
        values[t - 1] = best(vals, axis=1)
    roots = values[0]               # depth-1 ids are the responder states
    value = float(np.dot(np.asarray(weights, dtype=float), roots))
    return BestResponseResult(value=value, values=values, roots=roots)


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
