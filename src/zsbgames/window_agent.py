"""Stateful players for window-by-window play.

A `WindowAgent` solves the first window with the primal LP and every
later window with its dual LP at the current sufficient statistic
(belief about its own state as seen from outside, plus the vector payoff
over the opponent-visible states). The statistic advances every stage.
The agent keeps the posterior of its own state sequences in the current
window given the public actions and its own strategy; the belief is that
posterior's marginal over the last state. The vector payoff advances
through the joint update LP.

`OptimalAgent` plays the full-horizon security strategy; `FixedPolicyAgent`
plays a stationary per-state distribution. All agents expose the same
surface: begin_episode(own_state), act() -> distribution, observe(a, b,
own_next_state). They never see the opponent's state or the stage payoff.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import dual_solver, primal_solver, stat_updater
from .errors import ParseError, ValidationError
from .game_model import GameSpec, SideView

FIXED_N = "fixed_n"
REMAINING_WINDOW = "remaining_window"


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


def _stat_key(*arrays):
    return tuple(np.round(arr, 12).tobytes() for arr in arrays)


class SolverCache:
    """Memoizes LP solves keyed on the rounded statistic.

    The statistic trajectory of a window agent depends only on the public
    action sequence, so sharing one cache across the episodes of a Monte
    Carlo run removes almost all repeated solves. A miss on a dual or
    update LP patches that LP's template, compiled on first use per (kind,
    n, lambda) and kept for the cache's lifetime.
    """

    def __init__(self, spec: GameSpec):
        self.spec = spec
        self._store = {}
        self._templates = {}

    def _memo(self, key, compute):
        if key not in self._store:
            self._store[key] = compute()
        return self._store[key]

    def _template(self, make, kind, n, lam):
        key = (make.__name__, kind, n, lam)
        if key not in self._templates:
            self._templates[key] = make(self.spec, kind, n, lam)
        return self._templates[key]

    def primal(self, p, q, n, lam, side):
        key = ("primal", side, n, lam, _stat_key(p, q))
        return self._memo(key, lambda: primal_solver.solve_primal(
            self.spec, p, q, n, lam, side))

    def _dual(self, kind, x1, x2, n, lam):
        """Dual-`kind` solve; x1, x2 are its player-1 and player-2 inputs."""
        solve = dual_solver.solve_dual1 if kind == 1 else dual_solver.solve_dual2
        key = (f"dual{kind}", n, lam, _stat_key(x1, x2))
        return self._memo(key, lambda: solve(
            self.spec, x1, x2, n, lam,
            template=self._template(dual_solver.dual_template, kind, n, lam)))

    def dual1(self, mu, q, n, lam):
        return self._dual(1, mu, q, n, lam)

    def dual2(self, p, nu, n, lam):
        return self._dual(2, p, nu, n, lam)

    def _update(self, kind, vec, belief, n, lam, a, b):
        """Advance the vector payoff over player `kind`'s states, solving the
        update LP at the stage strategy of the dual-`kind` game at (vec,
        belief); `pair` puts those two in the dual's player order."""
        update = stat_updater.update_mu if kind == 1 else stat_updater.update_nu
        dual = self.dual1 if kind == 1 else self.dual2
        key = (f"upd{kind}", n, lam, _stat_key(vec, belief))
        res = self._memo(key, lambda: update(
            self.spec, vec, belief,
            dual(*self.spec.side(kind).pair(vec, belief), n, lam)
            .strategy.stage1_matrix(),
            a, b, n, lam,
            template=self._template(stat_updater.update_template, kind, n, lam)))
        return res.all_vectors[(a, b)], res.w

    def update_mu(self, mu, q, n, lam, a, b):
        return self._update(1, mu, q, n, lam, a, b)

    def update_nu(self, nu, p, n, lam, a, b):
        return self._update(2, nu, p, n, lam, a, b)


class WindowAgent:
    """Plays one side of the game window by window.

    With `update_horizon_mode == FIXED_N` the vector-payoff update LP is
    always invoked with the configured window size; REMAINING_WINDOW uses
    the number of stages left in the current window instead (falling back
    to the next window's length at a window's last stage).
    """

    def __init__(self, spec: GameSpec, config: WindowConfig, side: int,
                 cache: SolverCache | None = None):
        self._view = spec.side(side)
        self.spec = spec
        self.config = config
        self.side = side
        self.cache = cache if cache is not None else SolverCache(spec)

    # -- episode lifecycle -------------------------------------------------

    def begin_episode(self, own_state: int) -> None:
        _check_input(self._view, own_state)
        spec = self.spec
        n, N = self.config.window_n, self.config.total_horizon
        self.t = 1
        self.window_id = 1
        self.window_len = min(n, N)
        result = self.cache.primal(spec.p0, spec.q0, self.window_len,
                                   spec.lam, self.side)
        self.strategy = result.strategy
        self.vector_payoff = result.initial_vector_payoff.copy()
        self.belief = self._view.prior.copy()
        self._reset_window_tracking(own_state)

    def _reset_window_tracking(self, own_state: int) -> None:
        self.own_states = (own_state,)
        self.window_acts = ()
        # posterior over the window's own-state sequences, in the id order
        # of the histories compatible with window_acts
        self._weights = self.belief.copy()

    # -- acting ------------------------------------------------------------

    def act(self) -> np.ndarray:
        return self.strategy.action_probs(self.own_states, self.window_acts)

    # -- observation -------------------------------------------------------

    def observe(self, a: int, b: int, own_next_state: int) -> None:
        spec, view = self.spec, self._view
        _check_input(view, own_next_state, a, b)
        if self.t >= self.config.total_horizon:
            raise ValidationError("observe called past the horizon")

        # advance the posterior: weight each sequence by the modeled
        # likelihood of the played own action and extend it by its last
        # state's transition; if that action has zero modeled likelihood,
        # drop the likelihood factor (the belief update's degenerate rule)
        ns = view.num_states
        probs = self.strategy.probs[len(self.window_acts)][
            self.strategy.index.compatible(self.side, self.window_acts)]
        trans = view.trans[a, b][np.arange(self._weights.size) % ns]
        for reach in (self._weights * probs[:, view.pair(a, b)[0]],
                      self._weights):
            weights = (reach[:, None] * trans).ravel()
            weights[~(weights > 0.0)] = 0.0
            total = sum(weights.tolist())
            if total > 1e-12:
                break
        self._weights = weights / total
        prior_belief = self.belief
        self.belief = self._weights.reshape(-1, ns).sum(axis=0)
        self.own_states = self.own_states + (own_next_state,)
        self.window_acts = self.window_acts + ((a, b),)

        # the vector payoff advances through the update LP solved at the
        # pre-stage statistic; the LP forms its own per-pair posteriors
        update = (self.cache.update_nu if self.side == 1
                  else self.cache.update_mu)
        self.vector_payoff, _ = update(self.vector_payoff, prior_belief,
                                       self._update_horizon(), spec.lam, a, b)

        self.t += 1
        if len(self.window_acts) == self.window_len:
            self._advance_window(own_next_state)

    def _update_horizon(self) -> int:
        """Horizon of the update LP at the stage just observed."""
        if self.config.update_horizon_mode == FIXED_N:
            return self.config.window_n
        left = self.window_len - len(self.window_acts)
        if left >= 1:
            return left
        return min(self.config.window_n, self.config.total_horizon - self.t)

    def _advance_window(self, own_state: int) -> None:
        spec = self.spec
        self.window_id += 1
        self.window_len = min(self.config.window_n,
                              self.config.total_horizon - self.t + 1)
        # the opponent's dual game, whose plan owner is this side
        dual = self.cache.dual2 if self.side == 1 else self.cache.dual1
        result = dual(*self._view.pair(self.belief, self.vector_payoff),
                      self.window_len, spec.lam)
        self.strategy = result.strategy
        self._reset_window_tracking(own_state)


class OptimalAgent:
    """Plays the full-horizon security strategy of one side."""

    def __init__(self, spec: GameSpec, side: int,
                 strategy: primal_solver.BehavioralStrategy | None = None,
                 cache: SolverCache | None = None):
        self._view = spec.side(side)
        self.spec = spec
        self.side = side
        if strategy is None:
            cache = cache if cache is not None else SolverCache(spec)
            strategy = cache.primal(spec.p0, spec.q0, spec.horizon_n,
                                    spec.lam, side).strategy
        self.strategy = strategy

    def begin_episode(self, own_state: int) -> None:
        _check_input(self._view, own_state)
        self.own_states = (own_state,)
        self.acts = ()

    def act(self) -> np.ndarray:
        return self.strategy.action_probs(self.own_states, self.acts)

    def observe(self, a: int, b: int, own_next_state: int) -> None:
        _check_input(self._view, own_next_state, a, b)
        self.own_states = self.own_states + (own_next_state,)
        self.acts = self.acts + ((a, b),)


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
    try:
        return np.asarray(doc["policy"], dtype=float)
    except (TypeError, ValueError) as exc:
        raise ParseError(f"fixed policy must be a numeric matrix: {exc}") from exc
