"""Sequence-form LPs for the primal game.

Every LP shares one constraint-system builder, `add_sequence_system`: the
acting player's variables are realization-plan weights over its own rows,
the opponent side carries one weighted-payoff variable per opponent row.
The player-1 system uses >= payoff rows (the opponent minimizes), the
player-2 system uses <= rows. A system's flow rows, one per plan row and
depth, are how `plan_from_solution` splits a solution into the plan.

A row is a full history (`full=True`, the primal LP) or a (last state,
public pairs) pair (the dual-game and update LPs); both reach the same
value, as payoffs read only the last state and transitions are Markov
(Nayyar, Mahajan & Teneketzis 2013). A `RealizationPlan` sums a plan on
either layout to the latter rows.

The two players' LPs are an LP-dual pair (Koller, Megiddo & von Stengel
1996): player 2's variables are player 1's rows and its rows player 1's
variables, in builder order, and each objective is the other's right-hand
side. So `solve_primal` solves player 1's LP warm, from the basis
complementary to the optimal basis of player 2's, which is solved cold.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate
from typing import NamedTuple

import numpy as np

from . import best_response, lp_core
from .game_model import GameSpec
from .history_index import HistoryIndex, check_capacity
from .lp_core import LpBuilder

UNREACHABLE_TOL = 1e-9


@dataclass
class RealizationPlan:
    """Reach-probability weights per (last own state, pairs, own action).

    `values[t - 1]` holds depth t's weights as a read-only (row, own
    action) array whose row for last own state s and pair sequence `acts`
    is `id_of(side, t, (s,), acts)`, the rows of `BehavioralStrategy.probs`.
    Payoffs read only the last state and transitions are Markov, so a
    plan's value depends on nothing else. Construction sums the given rows
    over earlier own states, in id order from 0.0: per-depth arrays on
    full-history rows (the primal LP's) or on those rows already (the dual
    LPs'), or a dict keyed (t, full-history id, own action). `root` is the
    distribution its depth-1 row sums must match.
    """

    side: int
    depth: int
    index: HistoryIndex
    root: np.ndarray
    values: list                    # [t - 1]: (state, pairs) x own action

    def __post_init__(self):
        view, P = self.index.spec.side(self.side), self.index.num_pairs
        ns, acts = view.num_states, view.num_actions
        if isinstance(self.values, dict):
            self.values = [np.array([self.values[(t, *k)] for k in np.ndindex(
                self.index.count(self.side, t), acts)], dtype=float)
                for t in range(1, self.depth + 1)]
        rows = [ns * P ** t for t in range(len(self.values))]   # per depth
        # the sum over blocks from 0.0; a dual LP's one block only adds 0.0
        self.values = [w + 0.0 if np.shape(w) == (r, acts) else np.add.reduce(
            np.reshape(w, (-1, r, acts)), axis=0, initial=0.0)
            for r, w in zip(rows, self.values)]
        for w in self.values:
            w.flags.writeable = False


@dataclass
class BehavioralStrategy:
    """Action distributions on (last own state, public pair sequence).

    `probs[t - 1]` has one row per depth-t information set of the
    sufficient statistic: row `id_of(side, t, (s,), acts)` for last own
    state s and pair sequence `acts`. Earlier own states do not enter.
    """

    side: int
    depth: int
    index: HistoryIndex
    probs: list                     # [t - 1]: (state, pairs) x own action

    def stage1_matrix(self) -> np.ndarray:
        """The stage-1 strategy as an (own action, own state) matrix."""
        return np.ascontiguousarray(self.probs[0].T)

    @cached_property
    def table(self) -> dict:
        """The distributions keyed by full-history (t, hid): each history
        gets the row of its last state and pairs."""
        return dict(zip(self.index.keys(self.side, self.depth), np.concatenate(
            [np.tile(p, (self.index.count(self.side, t) // len(p), 1))
             for t, p in enumerate(self.probs, start=1)])))


@dataclass
class PrimalResult:
    value: float
    plan: RealizationPlan
    strategy: BehavioralStrategy
    initial_vector_payoff: np.ndarray
    basis: object                   # HiGHS's optimal basis of the LP
    pair: PrimalResult | None = None  # side 1's: the side-2 solve it ran


class SequenceSystem(NamedTuple):
    plan_vars: range                # own (t, row, own action), in id order
    payoff_vars: range              # opponent (t, row), in id order, so
                                    # payoff_vars[s] is opponent state s's root
    flow_rows: list                 # [t - 1]: one per own row of depth t


def add_sequence_system(builder: LpBuilder, spec: GameSpec, side: int, n: int,
                        lam: float, root_dist: np.ndarray,
                        full: bool = False) -> SequenceSystem:
    """Add one player's sequence-form constraint system to `builder`.

    plan_vars are nonnegative weights z_t[S, r, a] over the side-`side`
    rows, payoff_vars free values v_t[J, r] over the opponent's, for own
    and opponent state parts S and J, pair sequence r and own action a; a
    depth-t row has id `S * P**(t - 1) + r`. The state part is the whole
    state sequence if `full` (the row is the history id) and the last
    state otherwise. A payoff row per (J, r, opponent action) bounds
    v_t[J, r] by the stage payoff of z_t[:, r] plus the v_(t+1) of its
    extensions; the terminal v_(n+1) is the constant 0 and substituted
    out. A flow row per depth-t own row sets its plan weights to the
    parent weights times the transition into its last state, at depth 1
    to root_dist[s] (`flow_rows[0]`, the only rows `root_dist` enters).
    Its variables and entries pass `check_capacity`.
    """
    view = spec.side(side)
    ns, no = view.num_states, view.num_opp_states
    num_own, num_opp = view.num_actions, view.num_opp_actions
    P = spec.num_a * spec.num_b
    seqs = [P ** (t - 1) for t in range(1, n + 1)]     # pair sequences
    own_counts = [(ns ** t if full else ns) * R
                  for t, R in enumerate(seqs, start=1)]
    opp_counts = [(no ** t if full else no) * R
                  for t, R in enumerate(seqs, start=1)]
    # entries per depth, zeros included, as the rows below add them
    check_capacity(n, (k * num_own + j for k, j in zip(own_counts, opp_counts)),
                   (j * num_opp * (1 + k // R * num_own + (t < n) * num_own * no)
                    + k * (num_own + (t > 1) * (1 if full else ns))
                    for t, (R, k, j) in enumerate(zip(seqs, own_counts, opp_counts), 1)))
    plan_vars = builder.new_vars(num_own * sum(own_counts), lower=0.0)
    payoff_vars = builder.new_vars(sum(opp_counts))
    # first variable of depth t: plan_at[t - 1], payoff_at[t - 1]
    plan_at = plan_vars.start + num_own * np.cumsum([0] + own_counts)
    payoff_at = payoff_vars.start + np.cumsum([0] + opp_counts)

    # payoff rows, one per (opponent row J * R + r, opponent action o); the
    # own rows compatible with it are (S, r) for every own state part S
    rel = ">=" if side == 1 else "<="
    for t, R in enumerate(seqs, start=1):
        j, o = np.ogrid[:opp_counts[t - 1], :num_opp]
        j, o = j[..., None], o[..., None]
        J, r = np.divmod(j, R)
        row = j * num_opp + o
        S, act = np.divmod(np.arange(own_counts[t - 1] // R * num_own),
                           num_own)
        entries = [(row, payoff_at[t - 1] + j, -1.0),
                   (row, plan_at[t - 1] + (S * R + r) * num_own + act,
                    (lam ** (t - 1) * view.payoff)[S % ns, J % no, act, o])]
        if t < n:
            act, nxt = np.divmod(np.arange(num_own * no), no)
            a, b = view.pair(act, o)
            child = (J * no if full else 0) + nxt
            entries.append((row, payoff_at[t] + (child * R + r) * P
                            + a * spec.num_b + b,
                            view.opp_trans[a, b, J % no, nxt]))
        builder.add_rows(rel, np.zeros(row.size), entries)

    # flow rows, one per own row S * R + r; with r = (parent pairs, (a, b)),
    # its parents are (S // ns, parent pairs) if `full`, else every
    # (s, parent pairs)
    act = np.arange(num_own)
    flow_rows = []
    for t, R in enumerate(seqs, start=1):
        h = np.arange(own_counts[t - 1])[:, None]
        entries = [(h, plan_at[t - 1] + h * num_own + act, 1.0)]
        if t > 1:
            S, r = np.divmod(h, R)
            r, (a, b) = r // P, np.divmod(r % P, spec.num_b)
            prev = S // ns if full else np.arange(ns)
            entries.append((h, plan_at[t - 2] + view.pair(a, b)[0]
                            + (prev * (R // P) + r) * num_own,
                            -view.trans[a, b, prev % ns, S % ns]))
        flow_rows.append(builder.add_rows(
            "=", root_dist if t == 1 else np.zeros(h.size), entries))

    return SequenceSystem(plan_vars, payoff_vars, flow_rows)


def build_primal(spec: GameSpec, p, q, n: int, lam: float, side: int):
    """Player `side`'s primal LP; returns (lp, system, index).

    The plan is rooted at the player's own belief; the objective weights
    the opponent's root payoff variables with the opponent's belief.
    """
    view = spec.side(side)
    index = HistoryIndex(spec, n)
    own, other = view.pair(p, q)
    builder = LpBuilder()
    system = add_sequence_system(builder, spec, side, n, lam,
                                 np.asarray(own, dtype=float), full=True)
    objective = {system.payoff_vars[s]: float(other[s])
                 for s in range(view.num_opp_states)}
    lp = builder.build(lp_core.MAX if side == 1 else lp_core.MIN, objective)
    return lp, system, index


def plan_from_solution(index: HistoryIndex, side: int, system: SequenceSystem,
                       primal: np.ndarray, root: np.ndarray) -> RealizationPlan:
    """The plan in the LP solution's `system.plan_vars`, which hold it in
    id order, split into one (row, own action) array per depth by the flow
    rows of `system`, whichever layout built the LP; the plan sums them to
    (last own state, pairs) rows."""
    num_actions = index.spec.side(side).num_actions
    plan_vars, sizes = system.plan_vars, [len(rows) for rows in system.flow_rows]
    weights = primal[plan_vars.start:plan_vars.stop].reshape(-1, num_actions)
    values = [weights[end - size:end] for size, end in zip(sizes, accumulate(sizes))]
    return RealizationPlan(side=side, depth=len(sizes), index=index,
                           root=np.asarray(root, dtype=float), values=values)


def extract_strategy(plan: RealizationPlan, spec: GameSpec) -> BehavioralStrategy:
    """Sufficient-statistic strategy from a realization plan: each (last
    own state, pair sequence) plays its plan row, normalized. Recomposed,
    it gives the plan and hence the plan's security value (the
    common-information argument of Nayyar, Mahajan & Teneketzis 2013).

    At information sets whose reach weight is below UNREACHABLE_TOL the
    plan pins down nothing; those sets get the uniform distribution.
    """
    uniform = 1.0 / spec.side(plan.side).num_actions
    probs = []
    for t, w in enumerate(plan.values, start=1):
        denom = (plan.root if t == 1 else w.sum(axis=1))[:, None]
        dist = np.divide(w, denom, out=np.full(w.shape, uniform),
                         where=~(denom <= UNREACHABLE_TOL))
        probs.append(np.maximum(dist, 0.0, out=dist))
    return BehavioralStrategy(side=plan.side, depth=plan.depth,
                              index=plan.index, probs=probs)


def solve_primal(spec: GameSpec, p, q, n: int, lam: float, side: int,
                 inspect_lp=None, pair: PrimalResult | None = None) -> PrimalResult:
    """Game value, security strategy and initial vector payoff for `side`.

    The initial vector payoff of the other side's dual game is recomputed
    as the best response against the extracted plan, so it is well defined
    even at opponent states with zero prior weight. That best response
    certifies the solve: its value must match the LP value within
    CERT_TOL * max(1, |value|), else NumericalError. `inspect_lp`, if
    given, is called with the compiled LP before it is solved. Side 1 starts
    from the side-2 result `pair` (solved here if None) and keeps it.
    """
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    own, other = spec.side(side).pair(p, q)
    # side 2's LP is freed before side 1's is built
    if side == 1 and pair is None:
        pair = solve_primal(spec, p, q, n, lam, 2)
    elif side == 2 and pair is not None:
        raise ValueError("only side 1's LP starts from a side-2 result")
    lp, system, index = build_primal(spec, p, q, n, lam, side)
    if pair is not None:
        lp.basis = lp_core.complementary_basis(pair.basis, lp)
    if inspect_lp is not None:
        inspect_lp(lp)
    sol = lp_core.solve(lp)
    plan = plan_from_solution(index, side, system, sol.primal, own)
    strategy = extract_strategy(plan, spec)
    vs_plan = (best_response.best_response_vs_p1 if side == 1
               else best_response.best_response_vs_p2)
    br = vs_plan(spec, plan, other, n, lam)
    lp_core.check_gap(f"side-{side}", sol.objective_value, br.value)
    return PrimalResult(value=sol.objective_value, plan=plan,
                        strategy=strategy, initial_vector_payoff=-br.roots,
                        basis=sol.basis, pair=pair)
