"""Stateful players for window-by-window play.

A `WindowAgent` solves the first window with the primal LP and every
later window with its dual LP at the current sufficient statistic
(belief about its own state as seen from outside, plus the vector payoff
over the opponent-visible states). The belief advances every stage, the
vector payoff every stage before the last window.
Every strategy plays on (last own state, public pairs) (see
`primal_solver.extract_strategy`), so the belief advances by the
one-stage Bayes rule with the strategy's stage matrix at the current
public prefix (`stat_updater.update_belief_p/q`). The vector payoff
advances by a read-out of the plan of the dual game at the pre-stage
statistic (`SolverCache._update`), so play solves no update LP except for
an observed pair that plan never plays.

All of an agent's state but its own state is fixed by the public pairs
seen so far, and many prefixes reach one state. `SolverCache` keeps a node
per state (stage, window strategy and pairs, belief, vector payoff) and the
(node, pair) steps between them: a known step is one lookup, a node makes
its update read-out once, and a statistic met exactly is one lookup too.

`OptimalAgent`, the one-window `WindowAgent`, plays the full-horizon
security strategy; `FixedPolicyAgent` plays a stationary per-state
distribution. All agents expose the same surface:
begin_episode(own_state), act() -> distribution, observe(a, b,
own_next_state). They never see the opponent's state or the stage payoff.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from operator import attrgetter
from pathlib import Path

import numpy as np

from . import dual_solver, lp_core, primal_solver, stat_updater
from .errors import ParseError, ValidationError
from .game_model import GameSpec, SideView, read_numbers

# states and steps a cache holds at most, each (a 1,000-episode n=2, N=8
# case-study duel makes about 1,080 and 1,770); past it one is not stored
MAX_TREE_NODES = 50_000
# entries a cache's store holds at most (the largest store of
# `reproduce-case-study --seed 0 --full-grid` holds 1,456); past it a
# result is not stored
MAX_STORE_ENTRIES = 5_000


@dataclass
class WindowConfig:
    window_n: int
    total_horizon: int

    def __post_init__(self):
        if self.window_n < 1 or self.total_horizon < self.window_n:
            raise ValidationError(
                f"need 1 <= window_n <= total_horizon, got "
                f"n={self.window_n}, N={self.total_horizon}")


def _check_input(view: SideView, own_state, a=0, b=0) -> None:
    """Reject a state or action pair outside the game: the agents index
    their strategies and policies with them."""
    own, opp = view.pair(a, b)
    if not (0 <= own_state < view.num_states and 0 <= own < view.num_actions
            and 0 <= opp < view.num_opp_actions):
        raise ValidationError(
            f"player {view.side} got state {own_state} and action pair "
            f"({a}, {b}), outside the game")


def _stat_key(x1, x2):
    """The statistic (x1, x2) rounded to 12 decimals, and its bytes as a
    memo key. Entries are solved at the rounded statistic, so each depends
    on its key alone and not on which statistic met the key first."""
    rounded = np.concatenate((x1, x2)).round(12)
    return (rounded[:len(x1)], rounded[len(x1):]), rounded.tobytes()


def _frozen(arr):
    """`arr`, made read-only where it is made: episodes and callers share it."""
    arr.setflags(write=False)
    return arr


class _Node:
    """A `WindowAgent`'s agent state, shared by episodes and prefixes, so its
    arrays are read-only. `stage`, the window strategy here a row per own
    state (rows `rank::P**depth`, `rank` the window's pairs in base P), makes
    acting one index; `strategy_key` is the strategy's bytes (None in the
    first window: the root's). The first child sets `read_out`, `_update`'s."""

    __slots__ = ("t", "window_id", "window_len", "strategy", "belief",
                 "vector_payoff", "window_acts", "rank", "stage",
                 "strategy_key", "read_out")

    def __init__(self, t, window_id, window_len, strategy, belief,
                 vector_payoff, window_acts=(), rank=0, strategy_key=None):
        self.t, self.window_id, self.window_len = t, window_id, window_len
        self.strategy, self.window_acts, self.rank = strategy, window_acts, rank
        self.belief, self.vector_payoff = belief, vector_payoff
        depth = len(window_acts)
        self.stage = strategy.probs[depth][rank::strategy.index.num_pairs ** depth]
        self.strategy_key = strategy_key if depth or window_id == 1 else b"".join(
            probs.tobytes() for probs in strategy.probs)
        self.read_out = None


class SolverCache:
    """Memoizes LP solves and read-outs keyed on the rounded statistic,
    solved at that rounded statistic (the primal at the exact one, keyed
    on its bytes).

    The statistic trajectory of a window agent depends only on the public
    action sequence, so sharing one cache across the episodes of a Monte
    Carlo run removes almost all repeated solves. Every entry goes in
    through `_memo`, and the store keeps at most MAX_STORE_ENTRIES
    (`_remember`); past it a result is computed again, the same, as each is
    solved at its key. A side-1 primal also stores the side-2 primal it ran
    (`PrimalResult.pair`), and a degenerate pair's update LP all pairs'
    vectors. Dual templates are compiled once per (kind, n, lambda). The
    window agents' states and steps live here too (module docstring), so
    agents sharing a cache play its spec.
    """

    def __init__(self, spec: GameSpec):
        self.spec = spec
        self._store = {}
        self._templates = {}
        self._exact = {}    # (name, n, lam, exact statistic) -> `_rounded`'s
        self._states = {}   # `WindowAgent._next`'s agent state -> node
        self._tree = {}     # (node, a, b) -> child; (side, window_n) -> root

    @staticmethod
    def _memo(store, key, compute, limit=float("inf")):
        """`store[key]`; a miss stores `compute()` below `limit` entries."""
        value = store.get(key)
        if value is None:
            value = compute()
            if len(store) < limit:
                store[key] = value
        return value

    def _remember(self, key, compute):
        return self._memo(self._store, key, compute, MAX_STORE_ENTRIES)

    def _rounded(self, name, x1, x2, n, lam, compute):
        """(key, r1, r2, store[key] = `compute(r1, r2)`) at (x1, x2) rounded
        to (r1, r2); an exact (x1, x2) met before is one lookup."""
        def entry():
            (r1, r2), stat = _stat_key(x1, x2)
            key = (name, n, lam, stat)
            return key, r1, r2, self._remember(key, lambda: compute(r1, r2))
        exact = (name, n, lam, np.asarray(x1, dtype=float).tobytes(),
                 np.asarray(x2, dtype=float).tobytes())
        return self._memo(self._exact, exact, entry, MAX_TREE_NODES)

    def primal(self, p, q, n, lam, side):
        stat = np.concatenate((p, q), dtype=float).tobytes()
        key, pair = ("primal", side, n, lam, stat), ("primal", 2, n, lam, stat)
        result = self._remember(key, lambda: primal_solver.solve_primal(
            self.spec, p, q, n, lam, side,
            pair=self._store.get(pair) if side == 1 else None))
        if result.pair is not None:
            self._remember(pair, lambda: result.pair)
        return result

    def _dual(self, kind, x1, x2, n, lam):
        """Dual-`kind` solve; x1, x2 are its player-1 and player-2 inputs."""
        solve = dual_solver.solve_dual1 if kind == 1 else dual_solver.solve_dual2
        return self._rounded(f"dual{kind}", x1, x2, n, lam, lambda x1, x2: solve(
            self.spec, x1, x2, n, lam, template=self._memo(
                self._templates, (kind, n, lam),
                lambda: dual_solver.dual_template(self.spec, kind, n, lam))))[3]

    def dual1(self, mu, q, n, lam):
        return self._dual(1, mu, q, n, lam)

    def dual2(self, p, nu, n, lam):
        return self._dual(2, p, nu, n, lam)

    def _update(self, kind, vec, belief, n, lam, a, b, node=None):
        """Vector payoff over player `kind`'s states after pair (a, b), read off
        the plan of the dual-`kind` game at (vec, belief), for all pairs at
        once: -BR(s) / (lam bar[m]), with BR(s) the responder's best-response
        value at its depth-2 row of last state s and pair (a, b), and bar[m]
        the plan owner's stage weight of its action in (a, b); a tree `node`
        keeps it. It is 0 at n = 1, and at bar[m] <= DEGENERATE_TOL the
        update LP's if its w is the dual's. The result is read-only."""
        read_out = getattr(node, "read_out", None)
        if read_out is None:
            view, tol = self.spec.side(kind), stat_updater.DEGENERATE_TOL
            if n == 1:
                return _frozen(np.zeros(view.num_states))
            def divide(vec, belief):    # all pairs; a degenerate one's goes unread
                star, bar, neg_br, value = self._read_out(view, vec, belief, n, lam)
                bar = bar[None, :, None] if kind == 1 else bar[:, None, None]  # bar[m]
                return star, value, np.broadcast_to(bar > tol, neg_br.shape)[..., 0], (
                    _frozen(neg_br / (lam * np.maximum(bar, tol))))
            read_out = self._rounded(f"upd{kind}", vec, belief, n, lam, divide)
            if node is not None:
                node.read_out = read_out
        key, vec, belief, (star, value, regular, vectors) = read_out
        if regular[a, b]:
            return vectors[a, b]
        update = stat_updater.update_mu if kind == 1 else stat_updater.update_nu
        def solve():
            result = update(self.spec, vec, belief, star, a, b, n, lam)
            lp_core.check_gap(f"update-{kind}", result.w, value)
            return {pair: _frozen(v) for pair, v in result.all_vectors.items()}
        return self._remember(key + ("lp",), solve)[a, b]

    def _read_out(self, view, vec, belief, n, lam):
        """(star, bar, -BR, dual value) of `_update`, with BR[a, b, s] the
        responder's depth-2 row of last state s and pair (a, b)."""
        dual = (self.dual1 if view.side == 1 else self.dual2)(
            *view.pair(vec, belief), n, lam)
        depth2 = dual.response.values[1]
        star = dual.strategy.stage1_matrix()
        return star, star @ belief, -depth2.reshape(
            view.num_states, -1, self.spec.num_b).transpose(1, 2, 0), dual.value

    def update_mu(self, mu, q, n, lam, a, b):
        return self._update(1, mu, q, n, lam, a, b)

    def update_nu(self, nu, p, n, lam, a, b):
        return self._update(2, nu, p, n, lam, a, b)


class WindowAgent:
    """Plays one side of the game window by window.

    The vector payoff is advanced with the configured window size as
    horizon. The window that ends at the horizon does not advance it: only
    a later window's dual LP reads the vector payoff, and `act()` reads
    only the strategy.
    `own_state` is the agent's current state; the rest of its state is
    read from its current node in the cache, and `act()` is that node's
    stage row for `own_state`.
    """

    def __init__(self, spec: GameSpec, config: WindowConfig, side: int,
                 cache: SolverCache | None = None):
        if config.total_horizon != spec.horizon_n:
            raise ValidationError(
                f"window config horizon N={config.total_horizon} differs "
                f"from the game's horizon {spec.horizon_n}")
        if cache is not None and cache.spec is not spec:
            raise ValidationError("the solver cache is for another game spec")
        self._view = spec.side(side)
        self.spec, self.config, self.side = spec, config, side
        self.cache = cache if cache is not None else SolverCache(spec)

    # -- episode lifecycle -------------------------------------------------

    def begin_episode(self, own_state: int) -> None:
        _check_input(self._view, own_state)
        self._node = self.cache._memo(self.cache._tree, (
            self.side, self.config.window_n), self._root, MAX_TREE_NODES)
        self.own_state = own_state

    def _root(self) -> _Node:
        spec, window_len = self.spec, self.config.window_n
        result = self.cache.primal(spec.p0, spec.q0, window_len, spec.lam,
                                   self.side)
        return _Node(1, 1, window_len, result.strategy, _frozen(self._view.prior.copy()),
                     _frozen(result.initial_vector_payoff.copy()))

    # -- acting ------------------------------------------------------------

    def act(self) -> np.ndarray:
        return self._node.stage[self.own_state]

    # -- observation -------------------------------------------------------

    def observe(self, a: int, b: int, own_next_state: int) -> None:
        node = self._node
        child = self.cache._tree.get((node, a, b))
        # a known child is of a checked pair within the horizon
        if child is None or not 0 <= own_next_state < self._view.num_states:
            _check_input(self._view, own_next_state, a, b)
            if node.t >= self.config.total_horizon:
                raise ValidationError("observe called past the horizon")
            child = self.cache._memo(self.cache._tree, (node, a, b), lambda:
                                     self._next(node, a, b), MAX_TREE_NODES)
        self._node = child
        self.own_state = own_next_state

    def _next(self, node: _Node, a: int, b: int) -> _Node:
        """The node of the agent state after `node` and the pair (a, b): the
        stored one if another prefix reached that state first."""
        spec, view, config, cache = self.spec, self._view, self.config, self.cache
        update = (stat_updater.update_belief_p if self.side == 1
                  else stat_updater.update_belief_q)
        belief = _frozen(update(spec, node.belief,
                                np.ascontiguousarray(node.stage.T), a, b))
        window_acts = node.window_acts + ((a, b),)

        # the opponent's dual game at the pre-stage statistic advances the
        # vector payoff, read only by later windows
        vector_payoff = node.vector_payoff
        if node.t - len(window_acts) + node.window_len < config.total_horizon:
            vector_payoff = cache._update(
                3 - self.side, node.vector_payoff, node.belief,
                config.window_n, spec.lam, a, b, node)

        t, strategy_key = node.t + 1, node.strategy_key
        if len(window_acts) < node.window_len:
            rank = node.rank * spec.num_a * spec.num_b + a * spec.num_b + b
            make = lambda: _Node(t, node.window_id, node.window_len, node.strategy,
                                 belief, vector_payoff, window_acts, rank, strategy_key)
        else:
            # a new window plays this side's plan of the opponent's dual game
            window_acts, strategy_key = (), None    # the statistic fixes it
            window_len = min(config.window_n, config.total_horizon - t + 1)
            dual = cache.dual2 if self.side == 1 else cache.dual1
            make = lambda: _Node(t, node.window_id + 1, window_len, dual(
                *view.pair(belief, vector_payoff), window_len, spec.lam).strategy,
                belief, vector_payoff)
        return cache._memo(cache._states, (
            self.side, config.window_n, t, window_acts, strategy_key,
            belief.tobytes(), vector_payoff.tobytes()), make, MAX_TREE_NODES)


for _name in ("t", "window_id", "window_len", "strategy", "belief",
              "vector_payoff", "window_acts"):
    setattr(WindowAgent, _name, property(attrgetter("_node." + _name)))
del _name


class OptimalAgent(WindowAgent):
    """Plays the full-horizon security strategy of one side: the window
    agent whose one window is the whole game."""

    def __init__(self, spec: GameSpec, side: int,
                 cache: SolverCache | None = None):
        super().__init__(spec, WindowConfig(spec.horizon_n, spec.horizon_n),
                         side, cache)


class FixedPolicyAgent:
    """Stationary policy: a distribution over own actions per own state."""

    def __init__(self, spec: GameSpec, side: int, policy):
        self.side = side
        self._view = view = spec.side(side)
        rows = np.asarray(policy, dtype=float)
        if rows.shape != (view.num_states, view.num_actions):
            raise ValidationError(
                f"fixed policy has shape {rows.shape}, expected "
                f"{(view.num_states, view.num_actions)}")
        # written so that NaN entries fail the test
        if not (np.all(rows >= 0)
                and np.all(np.abs(rows.sum(axis=1) - 1.0) <= 1e-6)):
            raise ValidationError("fixed policy rows must be distributions")
        self.policy = rows
        self._state = 0

    def begin_episode(self, own_state: int) -> None:
        _check_input(self._view, own_state)
        self._state = own_state

    def act(self) -> np.ndarray:
        return self.policy[self._state]

    def observe(self, a: int, b: int, own_next_state: int) -> None:
        _check_input(self._view, own_next_state, a, b)
        self._state = own_next_state


def load_fixed_policy(path) -> np.ndarray:
    try:
        doc = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ParseError(f"cannot load fixed policy {path}: {exc}") from exc
    if not isinstance(doc, dict) or "policy" not in doc:
        raise ParseError("fixed policy file must be an object with key 'policy'")
    return read_numbers(doc["policy"], "fixed policy")
