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

As the statistic is fully accessible, all of an agent's state but its own
current state is fixed by the public pairs seen so far. `SolverCache`
keeps it in a tree per (side, window size, horizon, update mode), a node
per public prefix, so only a new prefix runs the per-stage update.

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

FIXED_N = "fixed_n"
REMAINING_WINDOW = "remaining_window"
# nodes a cache's trees hold at most (the n=2, N=8 case-study duel has
# 21,845 public prefixes a side); past it a new node is not stored
MAX_TREE_NODES = 50_000
# entries a cache's store holds at most (the largest store of
# `reproduce-case-study --seed 0 --full-grid` holds 1,456); past it a
# result is not stored
MAX_STORE_ENTRIES = 5_000


@dataclass
class WindowConfig:
    window_n: int
    total_horizon: int
    update_horizon_mode: str = FIXED_N

    def __post_init__(self):
        if self.window_n < 1 or self.total_horizon < self.window_n:
            raise ValidationError(
                f"need 1 <= window_n <= total_horizon, got "
                f"n={self.window_n}, N={self.total_horizon}")
        if self.update_horizon_mode not in (FIXED_N, REMAINING_WINDOW):
            raise ValidationError(
                f"unknown update_horizon_mode {self.update_horizon_mode!r}")


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


class _Node:
    """A `WindowAgent`'s state after some public pairs, shared by episodes:
    everything but the agent's own current state. `stage` is the window
    strategy at this stage, a row per own state (`stage_rows`), so acting
    is one index."""

    __slots__ = ("t", "window_id", "window_len", "strategy", "belief",
                 "vector_payoff", "window_acts", "stage")

    def __init__(self, t, window_id, window_len, strategy, belief,
                 vector_payoff, window_acts):
        self.t, self.window_id, self.window_len = t, window_id, window_len
        self.strategy, self.window_acts = strategy, window_acts
        self.belief, self.vector_payoff = belief, vector_payoff
        belief.flags.writeable = vector_payoff.flags.writeable = False
        self.stage = strategy.stage_rows(window_acts)


class SolverCache:
    """Memoizes LP solves and read-outs keyed on the rounded statistic,
    solved at that rounded statistic (the primal at the raw one).

    The statistic trajectory of a window agent depends only on the public
    action sequence, so sharing one cache across the episodes of a Monte
    Carlo run removes almost all repeated solves. Every entry goes in
    through `_memo`, and the store keeps at most MAX_STORE_ENTRIES
    (`_remember`); past it a result is computed again, the same, as each is
    solved at its key. A side-1 primal also stores the side-2 primal it ran
    (`PrimalResult.pair`), and a degenerate pair's update LP all pairs'
    vectors. Dual templates are compiled once per (kind, n, lambda). The
    window agents' trees live here too (module docstring), so agents
    sharing a cache play its spec.
    """

    def __init__(self, spec: GameSpec):
        self.spec = spec
        self._store = {}
        self._templates = {}
        self._beliefs = {}  # (side, a, b, belief, stage bytes) -> posterior
        self._tree = {}     # (node, a, b) -> child; (side, *config) -> root

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

    def primal(self, p, q, n, lam, side):
        key = ("primal", side, n, lam, _stat_key(p, q)[1])
        result = self._remember(key, lambda: primal_solver.solve_primal(
            self.spec, p, q, n, lam, side))
        if result.pair is not None:
            self._remember(("primal", 2, *key[2:]), lambda: result.pair)
        return result

    def _dual(self, kind, x1, x2, n, lam):
        """Dual-`kind` solve; x1, x2 are its player-1 and player-2 inputs."""
        solve = dual_solver.solve_dual1 if kind == 1 else dual_solver.solve_dual2
        template = self._memo(self._templates, (kind, n, lam), lambda:
                              dual_solver.dual_template(self.spec, kind, n, lam))
        (x1, x2), stat = _stat_key(x1, x2)
        return self._remember((f"dual{kind}", n, lam, stat), lambda:
                              solve(self.spec, x1, x2, n, lam, template=template))

    def dual1(self, mu, q, n, lam):
        return self._dual(1, mu, q, n, lam)

    def dual2(self, p, nu, n, lam):
        return self._dual(2, p, nu, n, lam)

    def _update(self, kind, vec, belief, n, lam, a, b):
        """Vector payoff over player `kind`'s states after pair (a, b), read
        off the plan of the dual-`kind` game at (vec, belief): -BR(s) /
        (lam bar[m]), with BR(s) the responder's best-response value at its
        depth-2 row of last state s and pair (a, b), and bar[m] the plan
        owner's stage weight of its action in (a, b). It is 0 at n = 1, and
        at bar[m] <= DEGENERATE_TOL the update LP's if its w is the dual's."""
        view = self.spec.side(kind)
        if n == 1:
            return np.zeros(view.num_states)
        (vec, belief), stat = _stat_key(vec, belief)
        key = (f"upd{kind}", n, lam, stat)
        star, bar, br, value = self._remember(key, lambda: self._read_out(
            view, vec, belief, n, lam))
        m = view.pair(a, b)[1]
        if bar[m] > stat_updater.DEGENERATE_TOL:
            return -br[a, b] / (lam * bar[m])
        update = stat_updater.update_mu if kind == 1 else stat_updater.update_nu
        def solve():
            result = update(self.spec, vec, belief, star, a, b, n, lam)
            lp_core.check_gap(f"update-{kind}", result.w, value)
            return result.all_vectors
        return self._remember(key + ("lp",), solve)[a, b]

    def _read_out(self, view, vec, belief, n, lam):
        """(star, bar, BR, dual value) of `_update`, with BR[a, b, s] the
        responder's depth-2 row of last state s and pair (a, b)."""
        dual = (self.dual1 if view.side == 1 else self.dual2)(
            *view.pair(vec, belief), n, lam)
        depth2 = dual.response.values[1]
        star = dual.strategy.stage1_matrix()
        return star, star @ belief, depth2.reshape(
            view.num_states, -1, self.spec.num_b).transpose(1, 2, 0), dual.value

    def _belief(self, side, belief, stage, a, b):
        """Player `side`'s posterior after (a, b) under `stage`, a row per
        own state, memoized: many public prefixes meet the same inputs."""
        update = (stat_updater.update_belief_p if side == 1
                  else stat_updater.update_belief_q)
        key = (side, a, b, belief.tobytes(), stage.tobytes())
        return self._memo(self._beliefs, key, lambda: update(
            self.spec, belief, np.ascontiguousarray(stage.T), a, b), MAX_TREE_NODES)

    def update_mu(self, mu, q, n, lam, a, b):
        return self._update(1, mu, q, n, lam, a, b)

    def update_nu(self, nu, p, n, lam, a, b):
        return self._update(2, nu, p, n, lam, a, b)


class WindowAgent:
    """Plays one side of the game window by window.

    With `update_horizon_mode == FIXED_N` the vector payoff is advanced
    with the configured window size as horizon; REMAINING_WINDOW uses the
    number of stages left in the current window instead (falling back to
    the next window's length at a window's last stage). The window that
    ends at the horizon does not advance it: only a later window's dual LP
    reads the vector payoff, and `act()` reads only the strategy.
    `own_state` is the agent's current state; the rest of its state is
    read from the current node of the cache's tree, and `act()` is that
    node's stage row for `own_state`.
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
        self.spec = spec
        self.config = config
        self.side = side
        self.cache = cache if cache is not None else SolverCache(spec)

    # -- episode lifecycle -------------------------------------------------

    def begin_episode(self, own_state: int) -> None:
        _check_input(self._view, own_state)
        config = self.config
        self._node = self.cache._memo(self.cache._tree, (
            self.side, config.window_n, config.total_horizon,
            config.update_horizon_mode), self._root, MAX_TREE_NODES)
        self.own_state = own_state

    def _root(self) -> _Node:
        spec, window_len = self.spec, self.config.window_n
        result = self.cache.primal(spec.p0, spec.q0, window_len, spec.lam,
                                   self.side)
        return _Node(1, 1, window_len, result.strategy,
                     self._view.prior.copy(),
                     result.initial_vector_payoff.copy(), ())

    # -- acting ------------------------------------------------------------

    def act(self) -> np.ndarray:
        return self._node.stage[self.own_state]

    # -- observation -------------------------------------------------------

    def observe(self, a: int, b: int, own_next_state: int) -> None:
        _check_input(self._view, own_next_state, a, b)
        node = self._node
        if node.t >= self.config.total_horizon:
            raise ValidationError("observe called past the horizon")
        self._node = self.cache._memo(self.cache._tree, (node, a, b), lambda:
                                      self._next(node, a, b), MAX_TREE_NODES)
        self.own_state = own_next_state

    def _next(self, node: _Node, a: int, b: int) -> _Node:
        """The node after `node` and the pair (a, b)."""
        spec, view, config = self.spec, self._view, self.config
        belief = self.cache._belief(self.side, node.belief, node.stage, a, b)
        window_acts = node.window_acts + ((a, b),)

        # the dual game at the pre-stage statistic advances the vector
        # payoff, read only by later windows
        vector_payoff = node.vector_payoff
        if (node.t - len(window_acts) + node.window_len
                < config.total_horizon):
            horizon = config.window_n
            if config.update_horizon_mode == REMAINING_WINDOW:
                horizon = (node.window_len - len(window_acts) or min(
                    config.window_n, config.total_horizon - node.t))
            update = (self.cache.update_nu if self.side == 1
                      else self.cache.update_mu)
            vector_payoff = update(node.vector_payoff, node.belief, horizon,
                                   spec.lam, a, b)

        t = node.t + 1
        if len(window_acts) < node.window_len:
            return _Node(t, node.window_id, node.window_len, node.strategy,
                         belief, vector_payoff, window_acts)
        # the next window plays the opponent's dual game, whose plan owner
        # is this side
        window_len = min(config.window_n, config.total_horizon - t + 1)
        dual = self.cache.dual2 if self.side == 1 else self.cache.dual1
        strategy = dual(*view.pair(belief, vector_payoff), window_len,
                        spec.lam).strategy
        return _Node(t, node.window_id + 1, window_len, strategy, belief,
                     vector_payoff, ())


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
