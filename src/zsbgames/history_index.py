"""Ids of both players' private histories up to a depth.

A player-1 history at depth t is (k_1, (a_1, b_1), ..., k_t): t own states
interleaved with t-1 public action pairs; player 2 analogously with l
states. Its id is the mixed-radix number

    id = rank(states) * P**(t-1) + rank(pairs),    P = num_a * num_b,

where rank(states) reads k_1 .. k_t as base-(number of own states) digits,
rank(pairs) reads the pair ranks a_s * num_b + b_s as base-P digits, and
the first digit is the most significant. Ids are dense per (side, depth)
and ordered lexicographically by (state sequence, action-pair sequence),
so LP column order is reproducible. In C order the ids of depth t reshape
to an array with axes (k_1, ..., k_t, pair_1, ..., pair_(t-1)); the
solvers work on that layout and no per-history table exists.
"""

from __future__ import annotations

import numpy as np

from .errors import CapacityError
from .game_model import GameSpec

DEFAULT_MAX_VARS = 5_000_000


class HistoryIndex:
    """Id arithmetic for both players' histories up to `depth`."""

    def __init__(self, spec: GameSpec, depth: int):
        if depth < 1:
            raise ValueError("depth must be >= 1")
        self.spec = spec
        self.num_pairs = spec.num_a * spec.num_b
        self.gathers = {}   # (side, t) -> `best_response`'s, kept with the index

    def count(self, side: int, t: int) -> int:
        return self.spec.side(side).num_states ** t * self.num_pairs ** (t - 1)

    def histories(self, side: int, t: int):
        """All (states, acts) tuples at depth t, in id order."""
        return [self.history(side, t, hid) for hid in range(self.count(side, t))]

    def history(self, side: int, t: int, hid):
        """(states, acts) of id `hid`: t own states and t-1 (a, b) pairs,
        as ints, or as int arrays for an array of ids."""
        ns = self.spec.side(side).num_states
        radices = [ns] * t + [self.spec.num_a, self.spec.num_b] * (t - 1)
        digits = np.unravel_index(hid, radices)
        if np.ndim(hid) == 0:
            digits = [int(d) for d in digits]
        return tuple(digits[:t]), tuple(zip(digits[t::2], digits[t + 1::2]))

    def id_of(self, side: int, t: int, states, acts) -> int:
        ns = self.spec.num_k if side == 1 else self.spec.num_l
        num_pairs, num_b = self.num_pairs, self.spec.num_b
        hid = 0
        for s in states:
            hid = hid * ns + s
        for a, b in acts:
            hid = hid * num_pairs + a * num_b + b
        return hid

    def child_id(self, side: int, t: int, hid, a, b, next_state):
        """Id of the depth-(t+1) extension of `hid`; takes arrays too."""
        stride = self.num_pairs ** (t - 1)
        states, pairs = divmod(hid, stride)
        ns = self.spec.side(side).num_states
        return ((states * ns + next_state) * stride * self.num_pairs
                + pairs * self.num_pairs + a * self.spec.num_b + b)

    def parent(self, side: int, t: int, hid):
        """(parent id, (a, b)) of a depth-t history, t >= 2; takes arrays too."""
        stride = self.num_pairs ** (t - 1)
        states, pairs = divmod(hid, stride)
        ns = self.spec.side(side).num_states
        pid = states // ns * (stride // self.num_pairs) + pairs // self.num_pairs
        return pid, divmod(pairs % self.num_pairs, self.spec.num_b)

    def keys(self, side: int, n: int) -> list[tuple]:
        """Keys (t, hid) of depths 1..n in id order: the order of a
        strategy's table."""
        return [(t, hid) for t in range(1, n + 1)
                for hid in range(self.count(side, t))]


def check_capacity(depth: int, sizes) -> None:
    """Raise CapacityError if the variable counts `sizes` of an LP's
    depths 1..depth sum past DEFAULT_MAX_VARS; they are summed only until
    they pass it."""
    total = 0
    for size in sizes:
        total += size
        if total > DEFAULT_MAX_VARS:
            raise CapacityError(f"sequence-form LP at depth {depth} would "
                                f"exceed the limit of {DEFAULT_MAX_VARS} "
                                "variables")


def build_index(spec: GameSpec, depth: int) -> HistoryIndex:
    """The index of the full-history sequence-form LP at `depth`, whose
    rough size, both players' systems, passes `check_capacity`."""
    index = HistoryIndex(spec, depth)
    check_capacity(depth, (index.count(1, t) * (spec.num_a + 1)
                           + index.count(2, t) * (spec.num_b + 1)
                           for t in range(1, depth + 1)))
    return index
