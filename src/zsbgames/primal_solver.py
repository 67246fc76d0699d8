"""Sequence-form LPs for the primal game.

Both players' LPs share one constraint-system builder: the acting player's
variables are realization-plan weights over its own histories, the
opponent side carries one weighted-payoff variable per opponent history.
The player-1 system uses >= payoff rows (the opponent minimizes), the
player-2 system uses <= rows.

`add_compact_system` builds the same system on (last state, public pairs)
rows, which reach the same value as payoffs read only the last state and
transitions are Markov (Nayyar, Mahajan & Teneketzis 2013). The dual-game
and update LPs use it; the primal LP keeps the full-history system.

The two players' LPs are an LP-dual pair (Koller, Megiddo & von Stengel
1996): player 2's variables are player 1's rows and its rows player 1's
variables, in builder order, and each objective is the other's right-hand
side. So `solve_primal` solves player 1's LP warm, from the basis
complementary to the optimal basis of player 2's, which is solved cold.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import accumulate
from typing import NamedTuple

import numpy as np

from . import best_response, lp_core
from .game_model import GameSpec
from .history_index import HistoryIndex, build_index, check_capacity
from .lp_core import LpBuilder

UNREACHABLE_TOL = 1e-9


@dataclass
class RealizationPlan:
    """Reach-probability weights per (history, own action).

    `values[t - 1]` holds depth t's weights as a (row, own action) array,
    with a row per history id (the primal LP's) or per (last own state,
    pairs) id `s * P**(t - 1) + r` (the compact system's); a hand-built
    plan may pass a dict keyed (t, hid, own action) instead, which is read
    into full-history arrays. `root` is the distribution its depth-1 row
    sums must match.
    """

    side: int
    depth: int
    index: HistoryIndex
    root: np.ndarray
    values: list                    # [t - 1]: row x own action
    _last_state: list | None = field(default=None, init=False, repr=False)

    def __post_init__(self):
        if isinstance(self.values, dict):
            acts = self.index.spec.side(self.side).num_actions
            shapes = [(self.index.count(self.side, t), acts)
                      for t in range(1, self.depth + 1)]
            self.values = [np.array([self.values[(t, *k)]
                                     for k in np.ndindex(shape)],
                                    dtype=float).reshape(shape)
                           for t, shape in enumerate(shapes, start=1)]

    def last_state_weights(self) -> list[np.ndarray]:
        """The plan summed over earlier own states, in id order from 0.0:
        one (last state, pair sequence) x own action array per depth t,
        whose row for last state s and pairs `acts` is `id_of(side, t,
        (s,), acts)`. Payoffs read only the last state and transitions are
        Markov, so the plan's value depends on nothing else. A plan on
        those rows already is summed over its one block. Computed on the
        first call, as read-only arrays that later calls return."""
        if self._last_state is None:
            ns, P = self.index.spec.side(self.side).num_states, self.index.num_pairs
            self._last_state = [
                np.add.reduce(w.reshape(-1, ns * P ** (t - 1), w.shape[1]),
                              axis=0, initial=0.0)
                for t, w in enumerate(self.values, start=1)]
            for w in self._last_state:
                w.flags.writeable = False
        return self._last_state


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

    def action_probs(self, states, acts) -> np.ndarray:
        """The distribution after pairs `acts`; of the own states `states`
        only the last is read."""
        return self.stage_rows(acts)[states[-1]]

    def stage_rows(self, acts=()) -> np.ndarray:
        """The strategy after pairs `acts` as an (own state, own action)
        view of `probs`."""
        stride = self.index.num_pairs ** len(acts)
        rank = self.index.id_of(self.side, len(acts) + 1, (0,), acts)
        return self.probs[len(acts)][rank::stride]

    def stage_matrix(self, acts=()) -> np.ndarray:
        """The strategy after pairs `acts` as an (own action, own state)
        matrix."""
        return np.ascontiguousarray(self.stage_rows(acts).T)

    stage1_matrix = stage_matrix

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
    root_rows: range                # [s] -> flow row whose rhs is root_dist[s]


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
    ns, no = view.num_states, view.num_opp_states
    num_own, num_opp = view.num_actions, view.num_opp_actions
    own_counts = [index.count(side, t) for t in range(1, n + 1)]
    opp_counts = [index.count(view.opp, t) for t in range(1, n + 1)]
    plan_vars = builder.new_vars(num_own * sum(own_counts), lower=0.0)
    payoff_vars = builder.new_vars(sum(opp_counts))
    # first variable of depth t: plan_at[t - 1], payoff_at[t - 1]
    plan_at = plan_vars.start + num_own * np.cumsum([0] + own_counts)
    payoff_at = payoff_vars.start + np.cumsum([0] + opp_counts)

    # payoff rows: one per (opponent history j, opponent action o); the
    # own histories compatible with j = (S, r), state sequence S and pair
    # sequence r, are (S', r) for every own state sequence S'
    rel = ">=" if side == 1 else "<="
    for t in range(1, n + 1):
        R = index.num_pairs ** (t - 1)
        j, o = np.ogrid[:opp_counts[t - 1], :num_opp]
        j, o = j[..., None], o[..., None]
        row = j * num_opp + o
        own_seq, act = np.divmod(np.arange(ns ** t * num_own), num_own)
        entries = [(row, payoff_at[t - 1] + j, -1.0),
                   (row, plan_at[t - 1] + (own_seq * R + j % R) * num_own + act,
                    (lam ** (t - 1) * view.payoff)[own_seq % ns, j // R % no,
                                                   act, o])]
        if t < n:
            act, nxt = np.divmod(np.arange(num_own * no), no)
            a, b = view.pair(act, o)
            entries.append((row, payoff_at[t] + index.child_id(
                view.opp, t, j, a, b, nxt), view.opp_trans[a, b, j // R % no, nxt]))
        builder.add_rows(rel, np.zeros(opp_counts[t - 1] * num_opp), entries)

    # flow rows, one per own history: its plan weights sum to the weight it
    # extends; depth-1 ids are the own states
    act = np.arange(num_own)
    h = np.arange(ns)[:, None]
    root_rows = builder.add_rows("=", root_dist,
                                 [(h, plan_at[0] + h * num_own + act, 1.0)])
    for t in range(2, n + 1):
        hid = np.arange(own_counts[t - 1])
        pid, (a, b) = index.parent(side, t, hid)
        states, _ = index.history(side, t, hid)
        builder.add_rows("=", np.zeros(hid.size), [
            (hid[:, None], plan_at[t - 1] + hid[:, None] * num_own + act, 1.0),
            (hid, plan_at[t - 2] + pid * num_own + view.pair(a, b)[0],
             -view.trans[a, b, states[-2], states[-1]])])

    return SequenceSystem(plan_vars, payoff_vars, root_rows)


def add_compact_system(builder: LpBuilder, spec: GameSpec, side: int, n: int,
                       lam: float, root_dist: np.ndarray) -> SequenceSystem:
    """`add_sequence_system` on (last state, public pairs) rows: plan
    weights z_t[s, r, a] and payoff variables v_t[j, r] for own and
    opponent last states s and j, pair sequence r and own action a, rows
    in id order `s * P**(t - 1) + r`. A payoff row per (j, r, opponent
    action) bounds v_t[j, r] by the stage payoff of z_t[:, r] plus the
    v_(t+1) of r's extensions; a flow row per (s', r (a, b)) sets its plan
    weights to sum_s T[a, b, s, s'] z_(t-1)[s, r, own action], at depth 1
    to root_dist[s'] (`root_rows`). Its variables pass `check_capacity`."""
    view = spec.side(side)
    ns, no = view.num_states, view.num_opp_states
    num_own, num_opp = view.num_actions, view.num_opp_actions
    P = spec.num_a * spec.num_b
    check_capacity(n, ((ns * num_own + no) * P ** (t - 1)
                       for t in range(1, n + 1)))
    seqs = [P ** (t - 1) for t in range(1, n + 1)]     # pair sequences
    plan_vars = builder.new_vars(ns * num_own * sum(seqs), lower=0.0)
    payoff_vars = builder.new_vars(no * sum(seqs))
    # first variable of depth t: plan_at[t - 1], payoff_at[t - 1]
    plan_at = plan_vars.start + ns * num_own * np.cumsum([0] + seqs)
    payoff_at = payoff_vars.start + no * np.cumsum([0] + seqs)

    rel = ">=" if side == 1 else "<="
    for t, R in enumerate(seqs, start=1):
        j, r, o = (x[..., None, None] for x in np.ogrid[:no, :R, :num_opp])
        row = (j * R + r) * num_opp + o
        s, act = np.ogrid[:ns, :num_own]
        entries = [(row, payoff_at[t - 1] + j * R + r, -1.0),
                   (row, plan_at[t - 1] + (s * R + r) * num_own + act,
                    (lam ** (t - 1) * view.payoff)[s, j, act, o])]
        if t < n:
            act, nxt = np.ogrid[:num_own, :no]
            a, b = view.pair(act, o)
            entries.append((row, payoff_at[t] + (nxt * R + r) * P
                            + a * spec.num_b + b, view.opp_trans[a, b, j, nxt]))
        builder.add_rows(rel, np.zeros(no * R * num_opp), entries)

    act = np.arange(num_own)
    h = np.arange(ns)[:, None]
    root_rows = builder.add_rows("=", root_dist,
                                 [(h, plan_at[0] + h * num_own + act, 1.0)])
    for t, R in enumerate(seqs[:-1], start=2):
        nxt, r, a, b = (x[..., None] for x in np.ogrid[
            :ns, :R, :spec.num_a, :spec.num_b])
        row = ((nxt * R + r) * spec.num_a + a) * spec.num_b + b
        s = np.arange(ns)
        builder.add_rows("=", np.zeros(row.size), [
            (row, plan_at[t - 1] + row * num_own + act, 1.0),
            (row, plan_at[t - 2] + (s * R + r) * num_own + view.pair(a, b)[0],
             -view.trans[a, b, s, nxt])])

    return SequenceSystem(plan_vars, payoff_vars, root_rows)


def build_primal(spec: GameSpec, p, q, n: int, lam: float, side: int):
    """Player `side`'s primal LP; returns (lp, plan_vars, payoff_vars, index).

    The plan is rooted at the player's own belief; the objective weights
    the opponent's root payoff variables with the opponent's belief.
    """
    view = spec.side(side)
    index = build_index(spec, n)
    own, other = view.pair(p, q)
    builder = LpBuilder()
    plan_vars, payoff_vars, _ = add_sequence_system(
        builder, spec, index, side, n, lam, np.asarray(own, dtype=float))
    objective = {payoff_vars[s]: float(other[s])
                 for s in range(view.num_opp_states)}
    lp = builder.build(lp_core.MAX if side == 1 else lp_core.MIN, objective)
    return lp, plan_vars, payoff_vars, index


def plan_from_solution(index: HistoryIndex, side: int, n: int,
                       plan_vars: range, primal: np.ndarray,
                       root: np.ndarray, rows=None) -> RealizationPlan:
    """The plan in the LP solution's `plan_vars`, which hold it in id
    order, as one (row, own action) array per depth: `rows` rows at each
    depth, by default full histories (`add_sequence_system`)."""
    num_actions = index.spec.side(side).num_actions
    weights = primal[plan_vars.start:plan_vars.stop].reshape(-1, num_actions)
    if rows is None:
        rows = [index.count(side, t) for t in range(1, n + 1)]
    values = [weights[end - size:end] for size, end in zip(rows, accumulate(rows))]
    return RealizationPlan(side=side, depth=n, index=index,
                           root=np.asarray(root, dtype=float), values=values)


def extract_strategy(plan: RealizationPlan, spec: GameSpec) -> BehavioralStrategy:
    """Sufficient-statistic strategy from a realization plan: each (last
    own state, pair sequence) plays its plan weights summed over earlier
    own states, normalized. Recomposed, it gives the plan's last-state sum
    and hence the plan's security value (the common-information argument
    of Nayyar, Mahajan & Teneketzis 2013).

    At information sets whose reach weight is below UNREACHABLE_TOL the
    plan pins down nothing; those sets get the uniform distribution.
    """
    view = spec.side(plan.side)
    probs = []
    for t, w in enumerate(plan.last_state_weights(), start=1):
        denom = plan.root if t == 1 else w.sum(axis=1)
        reached = ~(denom <= UNREACHABLE_TOL)
        dist = np.full(w.shape, 1.0 / view.num_actions)
        dist[reached] = np.maximum(w[reached] / denom[reached, None], 0.0)
        probs.append(dist)
    return BehavioralStrategy(side=plan.side, depth=plan.depth,
                              index=plan.index, probs=probs)


def solve_primal(spec: GameSpec, p, q, n: int, lam: float, side: int,
                 inspect_lp=None) -> PrimalResult:
    """Game value, security strategy and initial vector payoff for `side`.

    The initial vector payoff of the other side's dual game is recomputed
    as the best response against the extracted plan, so it is well defined
    even at opponent states with zero prior weight. That best response
    certifies the solve: its value must match the LP value within
    CERT_TOL * max(1, |value|), else NumericalError. `inspect_lp`, if
    given, is called with the compiled LP before it is solved. Side 1's
    result keeps the side-2 result it starts from as `pair`.
    """
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    own, other = spec.side(side).pair(p, q)
    # side 2's LP is freed before side 1's is built
    pair = solve_primal(spec, p, q, n, lam, 2) if side == 1 else None
    lp, plan_vars, _, index = build_primal(spec, p, q, n, lam, side)
    if pair is not None:
        lp.basis = lp_core.complementary_basis(pair.basis, lp)
    if inspect_lp is not None:
        inspect_lp(lp)
    sol = lp_core.solve(lp)
    plan = plan_from_solution(index, side, n, plan_vars, sol.primal, own)
    strategy = extract_strategy(plan, spec)
    vs_plan = (best_response.best_response_vs_p1 if side == 1
               else best_response.best_response_vs_p2)
    br = vs_plan(spec, plan, other, n, lam)
    lp_core.check_gap(f"side-{side}", sol.objective_value, br.value)
    return PrimalResult(value=sol.objective_value, plan=plan,
                        strategy=strategy, initial_vector_payoff=-br.roots,
                        basis=sol.basis, pair=pair)
