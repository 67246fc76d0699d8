"""Window-method performance bound and a brute-force value oracle.

The oracle enumerates each player's reduced pure strategies (an action
per own-observation sequence, with own past actions implied), evaluates
the exact expected payoff of every pure-strategy pair through sequence
weights, and solves the resulting zero-sum matrix game by LP. It is meant
for desk-scale instances only and is capped accordingly.
"""

from __future__ import annotations

from itertools import product

import numpy as np
import scipy.sparse as sp

from . import lp_core
from .errors import CapacityError, DomainError, NumericalError
from .game_model import GameSpec
from .history_index import build_index

DEFAULT_MAX_PURE = 4096


def window_bound(lam: float, n: int, total_n: int, g_bar: float) -> float:
    """Worst-case gap between window-by-window play and the game value."""
    if not (0.0 < lam <= 1.0):
        raise DomainError(f"lambda must lie in (0, 1], got {lam}")
    if not (1 <= n <= total_n):
        raise DomainError(f"need 1 <= n <= N, got n={n}, N={total_n}")
    if g_bar < 0:
        raise DomainError(f"g_bar must be nonnegative, got {g_bar}")
    if lam == 1.0:
        return (total_n - n) * g_bar
    return lam ** n * (1.0 - lam ** (total_n - n)) / (1.0 - lam) * g_bar


def _observation_nodes(num_states: int, num_opp_actions: int, n: int):
    """Own-observation sequences (s_1, o_1, s_2, ..., s_t) for t = 1..n."""
    nodes = {}
    order = []
    for t in range(1, n + 1):
        for states in product(range(num_states), repeat=t):
            for opp_acts in product(range(num_opp_actions), repeat=t - 1):
                nodes[(states, opp_acts)] = len(order)
                order.append((states, opp_acts))
    return nodes, order


def _pure_strategy_count(num_states, num_own, num_opp, n) -> int:
    num_nodes = sum(num_states ** t * num_opp ** (t - 1) for t in range(1, n + 1))
    return num_own ** num_nodes


def _pure_plans(spec: GameSpec, index, side: int, n: int) -> np.ndarray:
    """Realization-plan rows, one per reduced pure strategy.

    Columns are the sequence coordinates (t, history, own action) in
    enumeration order; entries are reach probabilities p(s_1) * prod(P).
    """
    view = spec.side(side)
    nodes, order = _observation_nodes(view.num_states, view.num_opp_actions, n)

    # per sequence coordinate: chain weight and the observation-node/action
    # consistency requirements it imposes on a pure strategy
    seqs = []
    for t in range(1, n + 1):
        for hid, (states, acts) in enumerate(index.histories(side, t)):
            weight = float(view.prior[states[0]])
            for s, (a_s, b_s) in enumerate(acts):
                weight *= view.trans[a_s, b_s, states[s], states[s + 1]]
            own_hist = tuple(view.pair(a, b)[0] for a, b in acts)
            opp_hist = tuple(view.pair(a, b)[1] for a, b in acts)
            required = [(nodes[(states[:s + 1], opp_hist[:s])], own_hist[s])
                        for s in range(t - 1)]
            for act in range(view.num_actions):
                need = required + [(nodes[(states, opp_hist)], act)]
                seqs.append((weight, need))

    strategies = list(product(range(view.num_actions), repeat=len(order)))
    plans = np.zeros((len(strategies), len(seqs)))
    for si, strat in enumerate(strategies):
        for ci, (weight, need) in enumerate(seqs):
            if all(strat[node] == act for node, act in need):
                plans[si, ci] = weight
    return plans


def _sequence_kernel(spec: GameSpec, index, n: int, lam: float) -> np.ndarray:
    """Discounted payoff coupling between the two players' sequences."""
    n1 = sum(index.count(1, t) * spec.num_a for t in range(1, n + 1))
    n2 = sum(index.count(2, t) * spec.num_b for t in range(1, n + 1))
    kernel = np.zeros((n1, n2))
    off1 = 0
    off2 = 0
    for t in range(1, n + 1):
        disc = lam ** (t - 1)
        for j, (jstates, jacts) in enumerate(index.histories(2, t)):
            for i in index.compatible(1, jacts):
                istates, _ = index.history(1, t, i)
                block = disc * spec.payoff[istates[-1], jstates[-1]]
                r0 = off1 + i * spec.num_a
                c0 = off2 + j * spec.num_b
                kernel[r0:r0 + spec.num_a, c0:c0 + spec.num_b] = block
        off1 += index.count(1, t) * spec.num_a
        off2 += index.count(2, t) * spec.num_b
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
    res = lp_core.linprog(c, A_ub=sp.csr_matrix(a_ub), b_ub=b_ub,
                          A_eq=sp.csr_matrix(a_eq), b_eq=[1.0], bounds=bounds)
    if res.status != 0:
        raise NumericalError(f"matrix game LP failed: {res.message}")
    return float(-res.fun)


def oracle_value(spec: GameSpec, p, q, n: int, lam: float,
                 max_pure: int = DEFAULT_MAX_PURE) -> float:
    """Exact game value by full pure-strategy enumeration (tiny games only)."""
    counts = tuple(_pure_strategy_count(view.num_states, view.num_actions,
                                        view.num_opp_actions, n)
                   for view in (spec.side(1), spec.side(2)))
    if max(counts) > max_pure:
        raise CapacityError(f"pure strategy counts {counts} exceed {max_pure}")
    base = GameSpec(num_k=spec.num_k, num_l=spec.num_l, num_a=spec.num_a,
                    num_b=spec.num_b, payoff=spec.payoff,
                    p0=np.asarray(p, dtype=float), q0=np.asarray(q, dtype=float),
                    trans_p=spec.trans_p, trans_q=spec.trans_q,
                    lam=lam, horizon_n=n)
    index = build_index(base, n)
    plans1 = _pure_plans(base, index, 1, n)
    plans2 = _pure_plans(base, index, 2, n)
    kernel = _sequence_kernel(base, index, n, lam)
    payoff = plans1 @ kernel @ plans2.T
    return _matrix_game_value(payoff)
