import numpy as np
import pytest

from zsbgames import (solve_dual1, solve_dual2, update_belief_p,
                      update_belief_q, update_mu, update_nu)

from conftest import random_spec


def test_belief_update_hand_example(rng):
    """One Bayes step computed by hand."""
    spec = random_spec(rng, num_k=2)
    p = np.array([0.6, 0.4])
    X = np.array([[0.5, 0.25],       # X[a', k]
                  [0.5, 0.75]])
    a, b = 0, 1
    xbar = 0.6 * 0.5 + 0.4 * 0.25
    cond = np.array([0.6 * 0.5, 0.4 * 0.25]) / xbar
    want = spec.trans_p[a, b].T @ cond
    got = update_belief_p(spec, p, X, a, b)
    assert np.allclose(got, want, atol=1e-12)


def test_belief_update_degenerate_action_drops_likelihood(rng):
    spec = random_spec(rng, num_k=2)
    p = np.array([1.0, 0.0])
    X = np.array([[0.0, 1.0],        # action 0 never played in state 0
                  [1.0, 0.0]])
    got = update_belief_p(spec, p, X, 0, 0)
    want = spec.trans_p[0, 0].T @ p
    assert np.allclose(got, want / want.sum(), atol=1e-12)


def test_belief_updates_stay_normalized(rng):
    for _ in range(50):
        spec = random_spec(rng, num_k=3, num_l=2)
        p, q = spec.p0.copy(), spec.q0.copy()
        for _ in range(20):
            a, b = rng.integers(2), rng.integers(2)
            X = rng.uniform(0.01, 1.0, (2, 3))
            X /= X.sum(axis=0, keepdims=True)
            Y = rng.uniform(0.01, 1.0, (2, 2))
            Y /= Y.sum(axis=0, keepdims=True)
            p = update_belief_p(spec, p, X, a, b)
            q = update_belief_q(spec, q, Y, a, b)
            assert abs(p.sum() - 1.0) < 1e-9 and np.all(p >= -1e-12)
            assert abs(q.sum() - 1.0) < 1e-9 and np.all(q >= -1e-12)


def test_update_value_matches_dual(rng):
    """The update LP's scalar equals the dual-game value it refines."""
    for _ in range(3):
        spec = random_spec(rng, num_k=2, num_l=2, num_a=2, num_b=2, horizon=2)
        mu = -rng.uniform(0.0, 5.0, spec.num_k)
        d1 = solve_dual1(spec, mu, spec.q0, 2, spec.lam)
        up = update_mu(spec, mu, spec.q0, d1.strategy.stage1_matrix(),
                       0, 1, 2, spec.lam)
        assert up.w == pytest.approx(d1.value, abs=1e-7)
        nu = -rng.uniform(0.0, 5.0, spec.num_l)
        d2 = solve_dual2(spec, spec.p0, nu, 2, spec.lam)
        up2 = update_nu(spec, nu, spec.p0, d2.strategy.stage1_matrix(),
                        1, 0, 2, spec.lam)
        assert up2.w == pytest.approx(d2.value, abs=1e-7)


def test_update_returns_all_action_pairs(rng):
    spec = random_spec(rng, horizon=2)
    mu = -rng.uniform(0.0, 3.0, spec.num_k)
    d1 = solve_dual1(spec, mu, spec.q0, 2, spec.lam)
    up = update_mu(spec, mu, spec.q0, d1.strategy.stage1_matrix(),
                   0, 0, 2, spec.lam)
    assert set(up.all_vectors) == {(a, b) for a in range(2) for b in range(2)}
    assert np.array_equal(up.vector, up.all_vectors[(0, 0)])
    for vec in up.all_vectors.values():
        assert vec.shape == (spec.num_k,)


def test_update_handles_single_stage(rng):
    """Horizon 1: the continuation is empty, values come from stage payoffs."""
    spec = random_spec(rng, horizon=1)
    mu = -rng.uniform(0.0, 3.0, spec.num_k)
    d1 = solve_dual1(spec, mu, spec.q0, 1, spec.lam)
    up = update_mu(spec, mu, spec.q0, d1.strategy.stage1_matrix(),
                   0, 0, 1, spec.lam)
    assert up.w == pytest.approx(d1.value, abs=1e-7)
