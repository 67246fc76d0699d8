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

from . import lp_core
from .errors import SolverError
from .game_model import GameSpec
from .history_index import DEFAULT_MAX_VARS, HistoryIndex, build_index
from .lp_core import LinearProgram, LpBuilder

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

    def row_sum(self, t: int, hid: int) -> float:
        na = self.index.spec.num_a if self.side == 1 else self.index.spec.num_b
        return sum(self.values[(t, hid, act)] for act in range(na))


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
        num_states = (self.index.spec.num_k if self.side == 1
                      else self.index.spec.num_l)
        cols = [self.table[(1, self.index.id_of(self.side, 1, (s,), ()))]
                for s in range(num_states)]
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
    opp = 3 - side
    own_actions = spec.num_a if side == 1 else spec.num_b
    opp_actions = spec.num_b if side == 1 else spec.num_a
    own_trans = spec.trans_p if side == 1 else spec.trans_q
    opp_trans = spec.trans_q if side == 1 else spec.trans_p
    rel = ">=" if side == 1 else "<="

    def payoff(own_state, opp_state, own_act, opp_act):
        if side == 1:
            return spec.payoff[own_state, opp_state, own_act, opp_act]
        return spec.payoff[opp_state, own_state, opp_act, own_act]

    def pair(own_act, opp_act):
        return (own_act, opp_act) if side == 1 else (opp_act, own_act)

    plan_vars = {}
    for t in range(1, n + 1):
        for hid in range(index.count(side, t)):
            for act in range(own_actions):
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
            for opp_act in range(opp_actions):
                coeffs = {payoff_vars[(t, j)]: -1.0}
                for i in compat:
                    istates, _ = index.history(side, t, i)
                    own_state = istates[-1]
                    for act in range(own_actions):
                        var = plan_vars[(t, i, act)]
                        coeffs[var] = coeffs.get(var, 0.0) + \
                            disc * payoff(own_state, opp_state, act, opp_act)
                if t < n:
                    for act in range(own_actions):
                        ab = pair(act, opp_act)
                        for nxt in range(spec.num_l if side == 1 else spec.num_k):
                            child = index.child_id(opp, t, j, ab[0], ab[1], nxt)
                            var = payoff_vars[(t + 1, child)]
                            coeffs[var] = coeffs.get(var, 0.0) + \
                                opp_trans[ab[0], ab[1], opp_state, nxt]
                builder.add_row(coeffs, rel, 0.0)

    # flow rows; depth-1 history ids are the own states in order
    root_rows = []
    for hid in range(index.count(side, 1)):
        states, _ = index.history(side, 1, hid)
        coeffs = {plan_vars[(1, hid, act)]: 1.0 for act in range(own_actions)}
        root_rows.append(builder.add_row(coeffs, "=",
                                         float(root_dist[states[0]])))
    for t in range(2, n + 1):
        for hid, (states, acts) in enumerate(index.histories(side, t)):
            pid, (a_prev, b_prev) = index.parent(side, t, hid)
            own_prev = a_prev if side == 1 else b_prev
            coeffs = {plan_vars[(t, hid, act)]: 1.0 for act in range(own_actions)}
            trans = own_trans[a_prev, b_prev, states[-2], states[-1]]
            var = plan_vars[(t - 1, pid, own_prev)]
            coeffs[var] = coeffs.get(var, 0.0) - trans
            builder.add_row(coeffs, "=", 0.0)

    return SequenceSystem(plan_vars, payoff_vars, root_rows)


def build_primal_p1(spec: GameSpec, p, q, n: int, lam: float,
                    index: HistoryIndex | None = None,
                    max_vars: int = DEFAULT_MAX_VARS):
    """Player 1's primal LP; returns (lp, plan_vars, payoff_vars, index)."""
    if index is None:
        index = build_index(spec, n, max_vars=max_vars)
    builder = LpBuilder()
    r_vars, u_vars, _ = add_sequence_system(builder, spec, index, 1, n, lam,
                                            np.asarray(p, dtype=float))
    objective = {u_vars[(1, index.id_of(2, 1, (l,), ()))]: float(q[l])
                 for l in range(spec.num_l)}
    lp = builder.build(lp_core.MAX, objective)
    return lp, r_vars, u_vars, index


def build_primal_p2(spec: GameSpec, p, q, n: int, lam: float,
                    index: HistoryIndex | None = None,
                    max_vars: int = DEFAULT_MAX_VARS):
    """Player 2's primal LP; returns (lp, plan_vars, payoff_vars, index)."""
    if index is None:
        index = build_index(spec, n, max_vars=max_vars)
    builder = LpBuilder()
    s_vars, z_vars, _ = add_sequence_system(builder, spec, index, 2, n, lam,
                                            np.asarray(q, dtype=float))
    objective = {z_vars[(1, index.id_of(1, 1, (k,), ()))]: float(p[k])
                 for k in range(spec.num_k)}
    lp = builder.build(lp_core.MIN, objective)
    return lp, s_vars, z_vars, index


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
    own_actions = spec.num_a if side == 1 else spec.num_b
    own_trans = spec.trans_p if side == 1 else spec.trans_q
    uniform = np.full(own_actions, 1.0 / own_actions)
    table = {}
    for t in range(1, plan.depth + 1):
        for hid, (states, acts) in enumerate(index.histories(side, t)):
            if t == 1:
                denom = float(plan.root[states[0]])
            else:
                pid, (a_prev, b_prev) = index.parent(side, t, hid)
                own_prev = a_prev if side == 1 else b_prev
                denom = (own_trans[a_prev, b_prev, states[-2], states[-1]]
                         * plan.values[(t - 1, pid, own_prev)])
            if denom <= UNREACHABLE_TOL:
                table[(t, hid)] = uniform.copy()
            else:
                table[(t, hid)] = np.maximum(np.array(
                    [plan.values[(t, hid, act)] / denom
                     for act in range(own_actions)]), 0.0)
    return BehavioralStrategy(side=side, depth=plan.depth, index=index,
                              table=table)


def solve_primal(spec: GameSpec, p, q, n: int, lam: float, side: int,
                 max_vars: int = DEFAULT_MAX_VARS,
                 inspect_lp=None) -> PrimalResult:
    """Game value, security strategy and initial vector payoff for `side`.

    The weighted payoffs (and hence the initial vector payoff of the
    other side's dual game) are recomputed with a best-response LP
    against the extracted plan, so they are well defined even at
    opponent states with zero prior weight. `inspect_lp`, if given, is
    called with the LinearProgram before it is solved.
    """
    from . import best_response

    if side not in (1, 2):
        raise ValueError(f"side must be 1 or 2, got {side}")
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    build = build_primal_p1 if side == 1 else build_primal_p2
    lp, plan_vars, _, index = build(spec, p, q, n, lam, max_vars=max_vars)
    if inspect_lp is not None:
        inspect_lp(lp)
    sol = lp_core.solve(lp)
    if sol.status != "optimal":
        raise SolverError(f"primal LP (player {side}) returned {sol.status}")
    own, other = (p, q) if side == 1 else (q, p)
    plan = plan_from_solution(index, side, n, plan_vars, sol.primal, own)
    strategy = extract_strategy(plan, spec)
    if side == 1:
        br = best_response.best_response_vs_p1(spec, plan, other, n, lam)
    else:
        br = best_response.best_response_vs_p2(spec, plan, other, n, lam)
    opp_states = spec.num_l if side == 1 else spec.num_k
    vector = -np.array([br.payoff_map[(1, index.id_of(3 - side, 1, (s,), ()))]
                        for s in range(opp_states)])
    return PrimalResult(value=sol.objective_value, plan=plan,
                        strategy=strategy, weighted_payoffs=br.payoff_map,
                        initial_vector_payoff=vector)
