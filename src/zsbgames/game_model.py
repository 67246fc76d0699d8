"""Game definition: the nine-tuple, validation, and file I/O.

A game is given by both players' state sets, action sets, initial state
distributions, action-dependent state transition kernels, a nonnegative
stage payoff tensor, a discount factor and a finite horizon.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from importlib import resources
from pathlib import Path

import numpy as np

from .errors import ParseError, ValidationError

PROB_TOL = 1e-9


@dataclass(frozen=True)
class GameSpec:
    """Immutable description of a two-player zero-sum stochastic Bayesian game.

    payoff is indexed [k, l, a, b]; trans_p is indexed [a, b, k, k_next]
    (conditional distribution of player 1's next state) and trans_q is
    indexed [a, b, l, l_next]. All indices are 0-based internally.
    """

    num_k: int
    num_l: int
    num_a: int
    num_b: int
    payoff: np.ndarray
    p0: np.ndarray
    q0: np.ndarray
    trans_p: np.ndarray
    trans_q: np.ndarray
    lam: float
    horizon_n: int

    def __post_init__(self):
        object.__setattr__(self, "payoff", np.asarray(self.payoff, dtype=float))
        object.__setattr__(self, "p0", np.asarray(self.p0, dtype=float))
        object.__setattr__(self, "q0", np.asarray(self.q0, dtype=float))
        object.__setattr__(self, "trans_p", np.asarray(self.trans_p, dtype=float))
        object.__setattr__(self, "trans_q", np.asarray(self.trans_q, dtype=float))

    def side(self, side: int) -> SideView:
        """The game as player `side` sees it."""
        if side not in (1, 2):
            raise ValueError(f"side must be 1 or 2, got {side}")
        return self._sides[side - 1]

    @cached_property
    def _sides(self) -> tuple[SideView, SideView]:
        return (SideView(1, 2, self.num_k, self.num_l, self.num_a, self.num_b,
                         self.p0, self.trans_p, self.trans_q, self.payoff),
                SideView(2, 1, self.num_l, self.num_k, self.num_b, self.num_a,
                         self.q0, self.trans_q, self.trans_p,
                         self.payoff.transpose(1, 0, 3, 2)))


@dataclass(frozen=True)
class SideView:
    """One player's ("own") view of a game against the other ("opp").

    payoff is indexed [own state, opp state, own act, opp act]; the kernels
    keep GameSpec's public [a, b, state, next state] order, and `pair`
    converts between (own, opp) and that (a, b) order.
    """

    side: int
    opp: int
    num_states: int
    num_opp_states: int
    num_actions: int
    num_opp_actions: int
    prior: np.ndarray               # own initial state distribution
    trans: np.ndarray
    opp_trans: np.ndarray
    payoff: np.ndarray

    def pair(self, own, opp):
        """(player 1, player 2) order of an (own, opp) pair; since it swaps
        or keeps, it also maps (a, b) back to (own act, opp act)."""
        return (own, opp) if self.side == 1 else (opp, own)


def _check_distribution(vec: np.ndarray, name: str) -> None:
    if np.any(vec < -PROB_TOL):
        i = int(np.argmin(vec))
        raise ValidationError(f"{name}[{i}] = {vec[i]} is negative")
    if abs(float(vec.sum()) - 1.0) > PROB_TOL:
        raise ValidationError(f"{name} sums to {vec.sum()}, expected 1")


def validate(spec: GameSpec) -> None:
    """Raise ValidationError naming the first violated invariant, else return."""
    for field, val in (("num_k", spec.num_k), ("num_l", spec.num_l),
                       ("num_a", spec.num_a), ("num_b", spec.num_b)):
        if not isinstance(val, (int, np.integer)) or val < 1:
            raise ValidationError(f"{field} must be a positive integer, got {val!r}")
    if not isinstance(spec.horizon_n, (int, np.integer)) or spec.horizon_n < 1:
        raise ValidationError(f"horizon_n must be a positive integer, got {spec.horizon_n!r}")
    if not (0.0 < spec.lam <= 1.0):
        raise ValidationError(f"lambda must lie in (0, 1], got {spec.lam}")

    shapes = {
        "payoff": (spec.payoff, (spec.num_k, spec.num_l, spec.num_a, spec.num_b)),
        "p0": (spec.p0, (spec.num_k,)),
        "q0": (spec.q0, (spec.num_l,)),
        "trans_p": (spec.trans_p, (spec.num_a, spec.num_b, spec.num_k, spec.num_k)),
        "trans_q": (spec.trans_q, (spec.num_a, spec.num_b, spec.num_l, spec.num_l)),
    }
    for name, (arr, want) in shapes.items():
        if arr.shape != want:
            raise ValidationError(f"{name} has shape {arr.shape}, expected {want}")
        if not np.all(np.isfinite(arr)):
            raise ValidationError(f"{name} contains non-finite entries")

    if np.any(spec.payoff < 0):
        idx = np.unravel_index(int(np.argmin(spec.payoff)), spec.payoff.shape)
        raise ValidationError(
            f"payoff{list(idx)} = {spec.payoff[idx]} is negative; all payoffs must be >= 0")

    _check_distribution(spec.p0, "p0")
    _check_distribution(spec.q0, "q0")

    for name, arr, ns in (("trans_p", spec.trans_p, spec.num_k),
                          ("trans_q", spec.trans_q, spec.num_l)):
        for a in range(spec.num_a):
            for b in range(spec.num_b):
                for s in range(ns):
                    row = arr[a, b, s]
                    if np.any(row < -PROB_TOL):
                        raise ValidationError(
                            f"{name}[{a},{b},{s},:] has a negative entry")
                    if abs(float(row.sum()) - 1.0) > PROB_TOL:
                        raise ValidationError(
                            f"{name}[{a},{b},{s},:] sums to {row.sum()}, expected 1")


def g_bar(spec: GameSpec) -> float:
    """Maximum one-stage payoff entry."""
    return float(spec.payoff.max())


_FILE_KEYS = ("num_k", "num_l", "num_a", "num_b", "lambda", "horizon",
              "p0", "q0", "payoff", "trans_p", "trans_q")


def save_spec(spec: GameSpec, path) -> None:
    doc = {
        "num_k": spec.num_k,
        "num_l": spec.num_l,
        "num_a": spec.num_a,
        "num_b": spec.num_b,
        "lambda": spec.lam,
        "horizon": spec.horizon_n,
        "p0": spec.p0.tolist(),
        "q0": spec.q0.tolist(),
        "payoff": spec.payoff.tolist(),
        "trans_p": spec.trans_p.tolist(),
        "trans_q": spec.trans_q.tolist(),
    }
    Path(path).write_text(json.dumps(doc, indent=1))


def load_spec(path) -> GameSpec:
    """Load and validate a game file; see the README for the JSON schema."""
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    return loads_spec(text)


def loads_spec(text: str) -> GameSpec:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ParseError("top-level JSON value must be an object")
    missing = [k for k in _FILE_KEYS if k not in doc]
    if missing:
        raise ParseError(f"missing keys: {', '.join(missing)}")
    for key in ("num_k", "num_l", "num_a", "num_b", "horizon"):
        val = doc[key]
        if isinstance(val, bool) or (isinstance(val, float)
                                     and not val.is_integer()):
            raise ValidationError(f"{key} must be an integer, got {val!r}")
    if isinstance(doc["lambda"], bool):
        raise ValidationError(f"lambda must be a number, got {doc['lambda']!r}")
    try:
        spec = GameSpec(
            num_k=int(doc["num_k"]),
            num_l=int(doc["num_l"]),
            num_a=int(doc["num_a"]),
            num_b=int(doc["num_b"]),
            payoff=np.array(doc["payoff"], dtype=float),
            p0=np.array(doc["p0"], dtype=float),
            q0=np.array(doc["q0"], dtype=float),
            trans_p=np.array(doc["trans_p"], dtype=float),
            trans_q=np.array(doc["trans_q"], dtype=float),
            lam=float(doc["lambda"]),
            horizon_n=int(doc["horizon"]),
        )
    except (TypeError, ValueError) as exc:
        raise ParseError(f"malformed field: {exc}") from exc
    validate(spec)
    return spec


def case_study_path() -> Path:
    """Path of the bundled underwater-sensor jamming game."""
    return Path(resources.files("zsbgames").joinpath("data/case_study.json"))


def load_case_study() -> GameSpec:
    return load_spec(case_study_path())
