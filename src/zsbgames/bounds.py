"""Window-method performance bound and a brute-force value oracle.

The oracle enumerates each player's reduced pure strategies (an action
per own-observation sequence, with own past actions implied), evaluates
the exact expected payoff of every pure-strategy pair through sequence
weights, and solves the resulting zero-sum matrix game by LP. It is meant
for desk-scale instances only and is capped accordingly.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from . import lp_core
from .errors import CapacityError, DomainError, NumericalError
from .game_model import GameSpec
from .history_index import HistoryIndex

DEFAULT_MAX_PURE = 4096


def window_bound(lam: float, n: int, total_n: int, g_bar: float) -> float:
    """Worst-case gap between window-by-window play and the game value."""
    if not (0.0 < lam <= 1.0):
        raise DomainError(f"lambda must lie in (0, 1], got {lam}")
    if not (1 <= n <= total_n):
        raise DomainError(f"need 1 <= n <= N, got n={n}, N={total_n}")
    if not (0.0 <= g_bar < math.inf):       # NaN fails too
        raise DomainError(f"g_bar must be finite and nonnegative, got {g_bar}")
    if lam == 1.0:
        return (total_n - n) * g_bar
    return lam ** n * (1.0 - lam ** (total_n - n)) / (1.0 - lam) * g_bar


def _pure_strategy_count(num_states, num_own, num_opp, n, limit) -> int:
    """Reduced pure strategies of one side, num_own ** (observation nodes),
    or limit + 1 if there are more than `limit`; the power is taken only
    when it is at most about `limit`."""
    if num_own == 1:
        return 1
    num_nodes = 0
    for t in range(1, n + 1):
        num_nodes += num_states ** t * num_opp ** (t - 1)
        if num_nodes > limit.bit_length():      # num_own ** num_nodes > limit
            return limit + 1
    return min(num_own ** num_nodes, limit + 1)


def _pure_plans(spec: GameSpec, index, side: int, n: int) -> np.ndarray:
    """Realization-plan rows, one per reduced pure strategy.

    Columns are the sequence coordinates (t, history, own action) in
    enumeration order; entries are reach probabilities p(s_1) * prod(P).
    A pure strategy is an own action per observation node (s_1, o_1, ...,
    s_t), t = 1..n, o the opponent's actions, and nodes are numbered
    depth by depth in the mixed-radix order of history ids.
    """
    view = spec.side(side)
    ns, num_own, num_opp = view.num_states, view.num_actions, view.num_opp_actions
    num_nodes = sum(ns ** t * num_opp ** (t - 1) for t in range(1, n + 1))
    strategies = np.stack(np.unravel_index(np.arange(num_own ** num_nodes),
                                           [num_own] * num_nodes), axis=1)
    # per history: the rank of its own states, the rank of the opponent's
    # actions, its reach weight, and whether each strategy reaches it
    node_base = 0
    columns = []
    for t in range(1, n + 1):
        hid = np.arange(index.count(side, t))
        states, _ = index.history(side, t, hid)
        if t == 1:
            srank, orank = states[0], np.zeros_like(states[0])
            weight = view.prior[srank]
            reached = np.ones((len(strategies), hid.size), dtype=bool)
        else:
            pid, (a, b) = index.parent(side, t, hid)
            own, opp = view.pair(a, b)
            reached = reached[:, pid] & (strategies[:, node[pid]] == own)
            weight = weight[pid] * view.trans[a, b, states[-2], states[-1]]
            srank, orank = srank[pid] * ns + states[-1], orank[pid] * num_opp + opp
        node = node_base + srank * num_opp ** (t - 1) + orank
        node_base += ns ** t * num_opp ** (t - 1)
        chosen = strategies[:, node, None] == np.arange(num_own)
        columns.append(np.where(reached[..., None] & chosen, weight[:, None],
                                0.0).reshape(len(strategies), -1))
    return np.hstack(columns)


def _sequence_kernel(spec: GameSpec, index, n: int, lam: float) -> np.ndarray:
    """Discounted payoff coupling between the two players' sequences:
    player-1 history (S1, r) and player-2 history (S2, r') meet only where
    their pair sequences agree, r = r'."""
    blocks = []                         # diagonal blocks, one per depth
    for t in range(1, n + 1):
        last1 = np.arange(spec.num_k ** t) % spec.num_k
        last2 = np.arange(spec.num_l ** t) % spec.num_l
        payoff = (lam ** (t - 1) * spec.payoff)[last1[:, None], last2]
        same_pairs = np.eye(index.num_pairs ** (t - 1))
        block = np.einsum("ijab,rq->irajqb", payoff, same_pairs)
        blocks.append(block.reshape(index.count(1, t) * spec.num_a, -1))
    ends = np.cumsum([block.shape for block in blocks], axis=0)
    kernel = np.zeros(ends[-1])
    for (row, col), block in zip(ends, blocks):
        kernel[row - block.shape[0]:row, col - block.shape[1]:col] = block
    return kernel


def _matrix_game_value(payoff: np.ndarray) -> float:
    """Value of the zero-sum matrix game (row player maximizes)."""
    n_rows, n_cols = payoff.shape
    # variables: x (row mixture), v; maximize v
    c = np.zeros(n_rows + 1)
    c[-1] = -1.0
    a_ub = np.hstack([-payoff.T, np.ones((n_cols, 1))])
    b_ub = np.zeros(n_cols)
    a_eq = np.ones((1, n_rows + 1))
    a_eq[0, -1] = 0.0
    bounds = np.array([(0.0, np.inf)] * n_rows + [(-np.inf, np.inf)])
    a_ub, a_eq = (lp_core.CsrMatrix.from_entries(*a.nonzero(), a[a.nonzero()],
                                                 a.shape) for a in (a_ub, a_eq))
    res = lp_core.linprog(c, A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=[1.0],
                          bounds=bounds)
    if res.status != 0:
        raise NumericalError(f"matrix game LP failed: {res.message}")
    return float(-res.fun)


def oracle_value(spec: GameSpec, p, q, n: int, lam: float) -> float:
    """Exact game value by full pure-strategy enumeration (tiny games only)."""
    limit = DEFAULT_MAX_PURE
    for view in (spec.side(1), spec.side(2)):
        if _pure_strategy_count(view.num_states, view.num_actions,
                                view.num_opp_actions, n, limit) > limit:
            raise CapacityError(f"player {view.side} has more than {limit} "
                                f"pure strategies at horizon {n}")
    base = dataclasses.replace(spec, p0=p, q0=q, lam=lam, horizon_n=n)
    index = HistoryIndex(base, n)
    plans1 = _pure_plans(base, index, 1, n)
    plans2 = _pure_plans(base, index, 2, n)
    kernel = _sequence_kernel(base, index, n, lam)
    payoff = plans1 @ kernel @ plans2.T
    return _matrix_game_value(payoff)
