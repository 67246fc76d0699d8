import os
import subprocess
import sys
import textwrap
from itertools import product
from pathlib import Path

import numpy as np
import pytest

from zsbgames import (CapacityError, HistoryIndex, history_index,
                      primal_solver, solve_dual1, solve_dual2, solve_primal)

from conftest import random_spec


@pytest.fixture
def index():
    spec = random_spec(np.random.default_rng(0), num_k=3, num_l=2,
                       num_a=2, num_b=2, horizon=3)
    return HistoryIndex(spec, 3)


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


@pytest.mark.parametrize("side", [0, 3])
def test_id_of_rejects_a_side_other_than_1_or_2(index, side):
    with pytest.raises(ValueError, match="side must be 1 or 2"):
        index.id_of(side, 1, (0,), ())


def test_histories_sorted_states_major(index):
    level = index.histories(1, 2)
    keys = [(states, acts) for states, acts in level]
    assert keys == sorted(keys)


def test_capacity_guard(monkeypatch):
    """The variable limit counts the primal LP that is built: one variable
    below a side's size refuses it, that size admits it."""
    spec = random_spec(np.random.default_rng(1), num_k=3, num_l=3,
                       num_a=3, num_b=3)
    def build(side):
        return primal_solver.build_primal(spec, spec.p0, spec.q0, 3, spec.lam,
                                          side)[0]
    for side, size in [(side, build(side).num_vars) for side in (1, 2)]:
        monkeypatch.setattr(history_index, "DEFAULT_MAX_VARS", size - 1)
        with pytest.raises(CapacityError,
                           match=f"limit of {size - 1} variables"):
            build(side)
        monkeypatch.setattr(history_index, "DEFAULT_MAX_VARS", size)
        assert build(side).num_vars == size


def test_capacity_guard_counts_the_lp_built(monkeypatch, case_study):
    """At n=3 the case study's compact dual LPs have 148 and 169 variables
    and its full-history primal LPs 1,088 (side 1) and 763 (side 2): a
    limit of 1,000 refuses only side 1's primal, one of 700 both primals,
    one of 100 the duals too."""
    spec, n = case_study, 3
    monkeypatch.setattr(history_index, "DEFAULT_MAX_VARS", 1_000)
    mu, nu = np.full(spec.num_k, -50.0), np.full(spec.num_l, -50.0)
    assert np.isfinite(solve_dual1(spec, mu, spec.q0, n, spec.lam).value)
    assert np.isfinite(solve_dual2(spec, spec.p0, nu, n, spec.lam).value)
    assert np.isfinite(solve_primal(spec, spec.p0, spec.q0, n, spec.lam,
                                    2).value)
    with pytest.raises(CapacityError, match="limit of 1000 variables"):
        solve_primal(spec, spec.p0, spec.q0, n, spec.lam, 1)
    monkeypatch.setattr(history_index, "DEFAULT_MAX_VARS", 700)
    for side in (1, 2):
        with pytest.raises(CapacityError, match="limit of 700 variables"):
            solve_primal(spec, spec.p0, spec.q0, n, spec.lam, side)
    monkeypatch.setattr(history_index, "DEFAULT_MAX_VARS", 100)
    with pytest.raises(CapacityError, match="limit of 100 variables"):
        solve_dual2(spec, spec.p0, nu, n, spec.lam)


def test_nonzero_guard_counts_the_entries_built(monkeypatch, case_study):
    """The case study's full-history primal LP at n=3 has 16,270 nonzeros
    on either side, all of them counted: a limit of 16,270 admits it, one
    of 16,269 refuses it."""
    spec = case_study
    for side in (1, 2):
        lp = primal_solver.build_primal(spec, spec.p0, spec.q0, 3, spec.lam,
                                        side)[0]
        assert lp.a_ub.nnz + lp.a_eq.nnz == 16_270
    monkeypatch.setattr(history_index, "DEFAULT_MAX_NONZEROS", 16_269)
    for side in (1, 2):
        with pytest.raises(CapacityError, match="limit of 16269 nonzeros"):
            primal_solver.build_primal(spec, spec.p0, spec.q0, 3, spec.lam,
                                       side)


def test_nonzero_guard_refuses_before_building():
    """A 3-state, 3-action game's full-history primal LP at n=4 has about
    245,000 variables but 44 million nonzeros: it is refused before any
    array is allocated. It runs in a child process limited to 2 GB of
    address space, so that building it could not exhaust the machine."""
    code = textwrap.dedent("""
        import resource
        resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))
        import numpy as np
        from zsbgames import CapacityError, primal_solver
        from conftest import random_spec
        spec = random_spec(np.random.default_rng(0), 3, 3, 3, 3, horizon=4)
        for side in (1, 2):
            try:
                primal_solver.build_primal(spec, spec.p0, spec.q0, 4,
                                           spec.lam, side)
            except CapacityError as exc:
                print(exc)
    """)
    tests = Path(__file__).parent
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=os.pathsep.join(
        [str(tests.parent / "src"), str(tests)]))
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines() == ["sequence-form LP at depth 4 would "
                                        "exceed the limit of 10000000 "
                                        "nonzeros"] * 2


def test_layout_matches_product_enumeration(case_study):
    """Ids number the histories as itertools.product lists them: state
    sequences major, then action-pair sequences, pairs a-major."""
    spec, depth = case_study, 4
    index = HistoryIndex(spec, depth)
    pairs = list(product(range(spec.num_a), range(spec.num_b)))
    for side, ns in ((1, spec.num_k), (2, spec.num_l)):
        prev = {}
        for t in range(1, depth + 1):
            level = list(product(product(range(ns), repeat=t),
                                 product(pairs, repeat=t - 1)))
            assert index.count(side, t) == len(level)
            ids = {}
            for hid, (states, acts) in enumerate(level):
                ids[(states, acts)] = hid
                assert index.id_of(side, t, states, acts) == hid
                assert index.history(side, t, hid) == (states, acts)
                if t > 1:
                    pid = prev[(states[:-1], acts[:-1])]
                    assert index.parent(side, t, hid) == (pid, acts[-1])
            prev = ids
