import numpy as np
import pytest

from zsbgames import CapacityError, build_index

from conftest import random_spec


@pytest.fixture
def index():
    spec = random_spec(np.random.default_rng(0), num_k=3, num_l=2,
                       num_a=2, num_b=2, horizon=3)
    return build_index(spec, 3)


def test_counts_follow_closed_form(index):
    pairs = 4
    for t in range(1, 4):
        assert index.count(1, t) == 3 ** t * pairs ** (t - 1)
        assert index.count(2, t) == 2 ** t * pairs ** (t - 1)


def test_ids_are_dense_and_invertible(index):
    for side in (1, 2):
        for t in range(1, 4):
            for hid, (states, acts) in enumerate(index.histories(side, t)):
                assert len(states) == t and len(acts) == t - 1
                assert index.id_of(side, t, states, acts) == hid
                assert index.history(side, t, hid) == (states, acts)


def test_parent_child_round_trip(index):
    for side in (1, 2):
        for t in (1, 2):
            for hid, (states, _) in enumerate(index.histories(side, t)):
                ns = 3 if side == 1 else 2
                for a in range(2):
                    for b in range(2):
                        for nxt in range(ns):
                            child = index.child_id(side, t, hid, a, b, nxt)
                            pid, act = index.parent(side, t + 1, child)
                            assert pid == hid and act == (a, b)


def test_compatible_partitions_level(index):
    for side in (1, 2):
        seen = []
        for acts in {acts for _, acts in index.histories(side, 3)}:
            ids = index.compatible(side, acts)
            assert all(index.history(side, 3, i)[1] == acts for i in ids)
            seen.extend(ids)
        assert sorted(seen) == list(range(index.count(side, 3)))


def test_histories_sorted_states_major(index):
    level = index.histories(1, 2)
    keys = [(states, acts) for states, acts in level]
    assert keys == sorted(keys)


def test_capacity_guard():
    spec = random_spec(np.random.default_rng(1), num_k=3, num_l=3,
                       num_a=3, num_b=3)
    with pytest.raises(CapacityError):
        build_index(spec, 8, max_vars=10_000)
