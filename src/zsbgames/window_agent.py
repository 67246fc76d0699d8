"""Stateful players for window-by-window play.

A `WindowAgent` solves the first window with the primal LP and every
later window with its dual LP at the current sufficient statistic
(belief about its own state as seen from outside, plus the vector payoff
over the opponent-visible states). The statistic advances every stage:
the belief through the Bayes rule, the vector payoff through the joint
update LP.

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
from .game_model import GameSpec

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


def _stat_key(*arrays_and_scalars):
    parts = []
    for item in arrays_and_scalars:
        if isinstance(item, np.ndarray):
            parts.append(np.round(item, 12).tobytes())
        else:
            parts.append(item)
    return tuple(parts)


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
        key = ("primal", side, n, lam, _stat_key(np.asarray(p), np.asarray(q)))
        return self._memo(key, lambda: primal_solver.solve_primal(
            self.spec, p, q, n, lam, side))

    def dual1(self, mu, q, n, lam):
        key = ("dual1", n, lam, _stat_key(np.asarray(mu), np.asarray(q)))
        return self._memo(key, lambda: dual_solver.solve_dual1(
            self.spec, mu, q, n, lam,
            template=self._template(dual_solver.dual_template, 1, n, lam)))

    def dual2(self, p, nu, n, lam):
        key = ("dual2", n, lam, _stat_key(np.asarray(p), np.asarray(nu)))
        return self._memo(key, lambda: dual_solver.solve_dual2(
            self.spec, p, nu, n, lam,
            template=self._template(dual_solver.dual_template, 2, n, lam)))

    def update_mu(self, mu, q, n, lam, a, b):
        key = ("upd1", n, lam, _stat_key(np.asarray(mu), np.asarray(q)))
        res = self._memo(key, lambda: stat_updater.update_mu(
            self.spec, mu, q, self.dual1(mu, q, n, lam).strategy.stage1_matrix(),
            a, b, n, lam,
            template=self._template(stat_updater.update_template, 1, n, lam)))
        return res.all_vectors[(a, b)], res.w

    def update_nu(self, nu, p, n, lam, a, b):
        key = ("upd2", n, lam, _stat_key(np.asarray(nu), np.asarray(p)))
        res = self._memo(key, lambda: stat_updater.update_nu(
            self.spec, nu, p, self.dual2(p, nu, n, lam).strategy.stage1_matrix(),
            a, b, n, lam,
            template=self._template(stat_updater.update_template, 2, n, lam)))
        return res.all_vectors[(a, b)], res.w


@dataclass
class TraceRow:
    t: int
    window: int
    belief: np.ndarray
    vector_payoff: np.ndarray


class WindowAgent:
    """Plays one side of the game window by window.

    With `update_horizon_mode == FIXED_N` the vector-payoff update LP is
    always invoked with the configured window size; REMAINING_WINDOW uses
    the number of stages left in the current window instead (falling back
    to the next window's length at a window's last stage).
    """

    def __init__(self, spec: GameSpec, config: WindowConfig, side: int,
                 cache: SolverCache | None = None, record_trace: bool = False):
        if side not in (1, 2):
            raise ValueError(f"side must be 1 or 2, got {side}")
        self.spec = spec
        self.config = config
        self.side = side
        self.cache = cache if cache is not None else SolverCache(spec)
        self.record_trace = record_trace
        self.trace: list[TraceRow] = []
        self._num_own = spec.num_k if side == 1 else spec.num_l
        self._own_actions = spec.num_a if side == 1 else spec.num_b

    # -- episode lifecycle -------------------------------------------------

    def begin_episode(self, own_state: int) -> None:
        spec = self.spec
        n, N = self.config.window_n, self.config.total_horizon
        self.t = 1
        self.window_id = 1
        self.window_len = min(n, N)
        result = self.cache.primal(spec.p0, spec.q0, self.window_len,
                                   spec.lam, self.side)
        self.strategy = result.strategy
        self.vector_payoff = result.initial_vector_payoff.copy()
        self.belief = (spec.p0 if self.side == 1 else spec.q0).copy()
        self._reset_window_tracking(own_state)
        self._record()

    def _reset_window_tracking(self, own_state: int) -> None:
        self.own_states = (own_state,)
        self.window_acts = ()
        self.window_pos = 1
        # conditional weights of own-state histories given public actions,
        # used to marginalize the acting strategy into a stage matrix
        self._weights = {(s,): float(self.belief[s])
                         for s in range(self._num_own)}

    # -- acting ------------------------------------------------------------

    def act(self) -> np.ndarray:
        return self.strategy.action_probs(self.own_states, self.window_acts)

    def _stage_matrix(self) -> np.ndarray:
        """Acting strategy marginalized to an (action, own state) matrix."""
        X = np.empty((self._own_actions, self._num_own))
        for s in range(self._num_own):
            num = np.zeros(self._own_actions)
            den = 0.0
            for (states, acts), w in self._hist_items():
                if states[-1] != s:
                    continue
                num += w * self.strategy.action_probs(states, acts)
                den += w
            X[:, s] = num / den if den > 1e-12 else 1.0 / self._own_actions
        return X

    def _hist_items(self):
        for states, w in self._weights.items():
            yield (states, self.window_acts), w

    # -- observation -------------------------------------------------------

    def observe(self, a: int, b: int, own_next_state: int) -> None:
        spec = self.spec
        N = self.config.total_horizon
        if self.t >= N:
            raise ValidationError("observe called past the horizon")
        X = self._stage_matrix()
        own_act = a if self.side == 1 else b

        # advance the conditional own-history weights, then the belief;
        # if the played own action has zero modeled likelihood, drop the
        # likelihood factor (mirrors the belief update's degenerate rule)
        own_trans = spec.trans_p if self.side == 1 else spec.trans_q
        for use_likelihood in (True, False):
            new_weights = {}
            for (states, acts), w in self._hist_items():
                reach = w
                if use_likelihood:
                    reach *= float(self.strategy.action_probs(states, acts)[own_act])
                if reach <= 0.0:
                    continue
                for nxt in range(self._num_own):
                    step = reach * own_trans[a, b, states[-1], nxt]
                    if step > 0.0:
                        key = states + (nxt,)
                        new_weights[key] = new_weights.get(key, 0.0) + step
            total = sum(new_weights.values())
            if total > 1e-12:
                break
        self._weights = {k: v / total for k, v in new_weights.items()}
        prior_belief = self.belief
        if self.side == 1:
            self.belief = stat_updater.update_belief_p(spec, prior_belief, X, a, b)
        else:
            self.belief = stat_updater.update_belief_q(spec, prior_belief, X, a, b)
        self.own_states = self.own_states + (own_next_state,)
        self.window_acts = self.window_acts + ((a, b),)

        # the vector payoff advances through the update LP solved at the
        # pre-stage statistic; the LP forms its own per-pair posteriors
        h_upd = self._update_horizon()
        if self.side == 1:
            self.vector_payoff, _ = self.cache.update_nu(
                self.vector_payoff, prior_belief, h_upd, spec.lam, a, b)
        else:
            self.vector_payoff, _ = self.cache.update_mu(
                self.vector_payoff, prior_belief, h_upd, spec.lam, a, b)

        self.t += 1
        self.window_pos += 1
        if self.window_pos > self.window_len:
            self._advance_window(own_next_state)
        self._record()

    def _update_horizon(self) -> int:
        if self.config.update_horizon_mode == FIXED_N:
            return self.config.window_n
        left = self.window_len - self.window_pos
        if left >= 1:
            return left
        return min(self.config.window_n, self.config.total_horizon - self.t)

    def _advance_window(self, own_state: int) -> None:
        spec = self.spec
        self.window_id += 1
        self.window_len = min(self.config.window_n,
                              self.config.total_horizon - self.t + 1)
        if self.side == 1:
            result = self.cache.dual2(self.belief, self.vector_payoff,
                                      self.window_len, spec.lam)
        else:
            result = self.cache.dual1(self.vector_payoff, self.belief,
                                      self.window_len, spec.lam)
        self.strategy = result.strategy
        self._reset_window_tracking(own_state)

    def _record(self) -> None:
        if self.record_trace:
            self.trace.append(TraceRow(t=self.t, window=self.window_id,
                                       belief=self.belief.copy(),
                                       vector_payoff=self.vector_payoff.copy()))


class OptimalAgent:
    """Plays the full-horizon security strategy of one side."""

    def __init__(self, spec: GameSpec, side: int,
                 strategy: primal_solver.BehavioralStrategy | None = None,
                 cache: SolverCache | None = None):
        self.spec = spec
        self.side = side
        if strategy is None:
            cache = cache if cache is not None else SolverCache(spec)
            strategy = cache.primal(spec.p0, spec.q0, spec.horizon_n,
                                    spec.lam, side).strategy
        self.strategy = strategy

    def begin_episode(self, own_state: int) -> None:
        self.own_states = (own_state,)
        self.acts = ()

    def act(self) -> np.ndarray:
        return self.strategy.action_probs(self.own_states, self.acts)

    def observe(self, a: int, b: int, own_next_state: int) -> None:
        self.own_states = self.own_states + (own_next_state,)
        self.acts = self.acts + ((a, b),)


class FixedPolicyAgent:
    """Stationary policy: a distribution over own actions per own state."""

    def __init__(self, spec: GameSpec, side: int, policy):
        self.side = side
        rows = np.asarray(policy, dtype=float)
        num_states = spec.num_k if side == 1 else spec.num_l
        num_actions = spec.num_a if side == 1 else spec.num_b
        if rows.shape != (num_states, num_actions):
            raise ValidationError(
                f"fixed policy has shape {rows.shape}, expected "
                f"{(num_states, num_actions)}")
        if np.any(rows < 0) or np.any(np.abs(rows.sum(axis=1) - 1.0) > 1e-6):
            raise ValidationError("fixed policy rows must be distributions")
        self.policy = rows
        self._state = 0

    def begin_episode(self, own_state: int) -> None:
        self._state = own_state

    def act(self) -> np.ndarray:
        return self.policy[self._state]

    def observe(self, a: int, b: int, own_next_state: int) -> None:
        self._state = own_next_state


def load_fixed_policy(path) -> np.ndarray:
    try:
        doc = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ParseError(f"cannot load fixed policy {path}: {exc}") from exc
    if not isinstance(doc, dict) or "policy" not in doc:
        raise ParseError("fixed policy file must be an object with key 'policy'")
    return np.asarray(doc["policy"], dtype=float)
