"""Enumeration of both players' private histories up to a depth.

A player-1 history at depth t is (k_1, (a_1, b_1), ..., k_t): t own states
interleaved with t-1 public action pairs; player 2 analogously with l
states. Histories get dense integer ids per (side, depth), ordered
lexicographically by (state sequence, action-pair sequence), so LP column
order is reproducible.
"""

from __future__ import annotations

from itertools import product

from .errors import CapacityError
from .game_model import GameSpec

DEFAULT_MAX_VARS = 5_000_000


def projected_var_count(spec: GameSpec, depth: int) -> int:
    """Rough scalar-variable count of a sequence-form LP at this depth."""
    pairs = spec.num_a * spec.num_b
    total = 0
    for t in range(1, depth + 1):
        c1 = spec.num_k ** t * pairs ** (t - 1)
        c2 = spec.num_l ** t * pairs ** (t - 1)
        total += c1 * (spec.num_a + 1) + c2 * (spec.num_b + 1)
    return total


class HistoryIndex:
    """Dense id tables for both players' histories up to `depth`."""

    def __init__(self, spec: GameSpec, depth: int,
                 max_vars: int = DEFAULT_MAX_VARS):
        if depth < 1:
            raise ValueError("depth must be >= 1")
        if projected_var_count(spec, depth) > max_vars:
            raise CapacityError(
                f"projected variable count {projected_var_count(spec, depth)} "
                f"exceeds limit {max_vars} at depth {depth}")
        self.spec = spec
        self.depth = depth
        self._pairs = [(a, b) for a in range(spec.num_a) for b in range(spec.num_b)]
        # _levels[side][t] -> list of (states, acts); _ids inverse; _public
        # groups ids at depth t by their action-pair sequence.
        self._levels = {1: {}, 2: {}}
        self._ids = {1: {}, 2: {}}
        self._public = {1: {}, 2: {}}
        for side, ns in ((1, spec.num_k), (2, spec.num_l)):
            for t in range(1, depth + 1):
                level = []
                ids = {}
                public = {}
                for states in product(range(ns), repeat=t):
                    for acts in product(self._pairs, repeat=t - 1):
                        hid = len(level)
                        level.append((states, acts))
                        ids[(states, acts)] = hid
                        public.setdefault(acts, []).append(hid)
                self._levels[side][t] = level
                self._ids[side][t] = ids
                self._public[side][t] = public

    def count(self, side: int, t: int) -> int:
        return len(self._levels[side][t])

    def histories(self, side: int, t: int):
        """All (states, acts) tuples at depth t, in id order."""
        return self._levels[side][t]

    def history(self, side: int, t: int, hid: int):
        return self._levels[side][t][hid]

    def id_of(self, side: int, t: int, states, acts) -> int:
        return self._ids[side][t][(tuple(states), tuple(acts))]

    def compatible(self, side: int, public) -> list[int]:
        """Ids at depth len(public)+1 whose action-pair projection is `public`."""
        t = len(public) + 1
        return self._public[side][t].get(tuple(public), [])

    def child_id(self, side: int, t: int, hid: int, a: int, b: int,
                 next_state: int) -> int:
        states, acts = self._levels[side][t][hid]
        return self._ids[side][t + 1][(states + (next_state,), acts + ((a, b),))]

    def parent(self, side: int, t: int, hid: int):
        """(parent id, (a, b)) of a depth-t history, t >= 2."""
        states, acts = self._levels[side][t][hid]
        pid = self._ids[side][t - 1][(states[:-1], acts[:-1])]
        return pid, acts[-1]


def build_index(spec: GameSpec, depth: int,
                max_vars: int = DEFAULT_MAX_VARS) -> HistoryIndex:
    return HistoryIndex(spec, depth, max_vars=max_vars)
