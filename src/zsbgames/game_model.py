"""Game definition: the nine-tuple, validation, and file I/O.

A game is given by both players' state sets, action sets, initial state
distributions, action-dependent state transition kernels, a nonnegative
stage payoff tensor, a discount factor and a finite horizon.
"""

from __future__ import annotations

import json
import numbers
from dataclasses import dataclass
from functools import cached_property
from importlib import resources
from pathlib import Path

import numpy as np

from .errors import ParseError, ValidationError

PROB_TOL = 1e-9
_ARRAY_FIELDS = ("payoff", "p0", "q0", "trans_p", "trans_q")


@dataclass(frozen=True)
class GameSpec:
    """Immutable description of a two-player zero-sum stochastic Bayesian game.

    payoff is indexed [k, l, a, b]; trans_p is indexed [a, b, k, k_next]
    (player 1's next-state distribution) and trans_q [a, b, l, l_next], all
    0-based. Every construction, `dataclasses.replace` too, runs `validate`.
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
        for name in _ARRAY_FIELDS:
            try:
                arr = np.asarray(getattr(self, name), dtype=float)
            except (TypeError, ValueError, OverflowError) as exc:
                raise ValidationError(f"{name} is not a numeric array: {exc}") from exc
            object.__setattr__(self, name, arr)
        validate(self)

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


def validate(spec: GameSpec) -> None:
    """Raise ValidationError naming the first violated invariant, else return."""
    for field in ("num_k", "num_l", "num_a", "num_b", "horizon_n"):
        val = getattr(spec, field)
        if (isinstance(val, bool) or not isinstance(val, (int, np.integer))
                or val < 1):
            raise ValidationError(f"{field} must be a positive integer, got {val!r}")
    if (isinstance(spec.lam, bool) or not isinstance(spec.lam, numbers.Real)
            or not (0.0 < spec.lam <= 1.0)):
        raise ValidationError(f"lambda must lie in (0, 1], got {spec.lam!r}")

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

    # p0, q0 and every next-state row of the kernels are distributions
    for name in ("p0", "q0", "trans_p", "trans_q"):
        arr = getattr(spec, name)
        sums = arr.sum(axis=-1)
        bad = np.any(arr < -PROB_TOL, axis=-1) | (np.abs(sums - 1.0) > PROB_TOL)
        if bad.any():
            row = np.unravel_index(int(np.argmax(bad)), bad.shape)
            where = "".join(f"{i}," for i in row)
            raise ValidationError(
                f"{name}[{where}:] is not a distribution: it has a negative "
                f"entry or sums to {sums[row]}, expected 1")


def g_bar(spec: GameSpec) -> float:
    """Maximum one-stage payoff entry."""
    return float(spec.payoff.max())


# what each scalar key of a game file holds; the other keys hold arrays
_SCALAR_KEYS = {"num_k": "an integer", "num_l": "an integer",
                "num_a": "an integer", "num_b": "an integer",
                "lambda": "a number", "horizon": "an integer"}
_FILE_KEYS = (*_SCALAR_KEYS, "p0", "q0", "payoff", "trans_p", "trans_q")
# the GameSpec field of each game-file key, where the two names differ
_FIELDS = {"lambda": "lam", "horizon": "horizon_n"}


def save_spec(spec: GameSpec, path) -> None:
    doc = {key: np.asarray(getattr(spec, _FIELDS.get(key, key))).tolist()
           for key in _FILE_KEYS}
    Path(path).write_text(json.dumps(doc, indent=1))


def load_spec(path) -> GameSpec:
    """Load and validate a game file; see the README for the JSON schema."""
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    return loads_spec(text)


def read_numbers(value, name: str):
    """A number or a numeric matrix read from a JSON document.

    A scalar key of a game file (`name` one of its keys) yields a Python
    int or float, and an integer key accepts integral floats such as 2.0;
    anything else yields a float array. A boolean anywhere is a wrong
    value (ValidationError); a string, null, object or ragged list is a
    malformed file (ParseError).
    """
    want = _SCALAR_KEYS.get(name, "a numeric matrix")
    arr = np.array(value, dtype=object)
    for item in arr.ravel().tolist():   # a ragged list's items are lists
        if isinstance(item, bool):
            raise ValidationError(f"{name} must be {want}, got {item!r}")
        if not isinstance(item, (int, float)):
            raise ParseError(f"{name} must be {want}, got {item!r}")
    if name in _SCALAR_KEYS and arr.ndim:
        raise ParseError(f"{name} must be {want}, got {value!r}")
    if want == "an integer":
        if not (isinstance(value, int) or value.is_integer()):
            raise ValidationError(f"{name} must be an integer, got {value!r}")
        return int(value)
    try:
        floats = arr.astype(float)
    except OverflowError as exc:
        raise ValidationError(f"{name} has an entry beyond the float range") from exc
    return float(floats) if want == "a number" else floats


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
    return GameSpec(**{_FIELDS.get(key, key): read_numbers(doc[key], key)
                       for key in _FILE_KEYS})


def case_study_path() -> Path:
    """Path of the bundled underwater-sensor jamming game."""
    return Path(resources.files("zsbgames").joinpath("data/case_study.json"))


def load_case_study() -> GameSpec:
    return load_spec(case_study_path())
