import numpy as np
import pytest

from zsbgames import GameSpec, extract_strategy, solve_primal
from zsbgames.bounds import _matrix_game_value
from zsbgames.primal_solver import build_primal

from conftest import constant_spec, random_spec


def test_constant_payoff_value():
    spec = constant_spec(c=1.0, lam=0.5, horizon=3)
    for side in (1, 2):
        res = solve_primal(spec, spec.p0, spec.q0, 3, 0.5, side)
        assert res.value == pytest.approx(1.75, abs=1e-8)


def test_single_state_game_is_matrix_game(rng):
    spec = random_spec(rng, num_k=1, num_l=1, num_a=3, num_b=2, horizon=1)
    res = solve_primal(spec, spec.p0, spec.q0, 1, 1.0, 1)
    assert res.value == pytest.approx(_matrix_game_value(spec.payoff[0, 0]),
                                      abs=1e-8)


def test_both_sides_agree(rng):
    for _ in range(5):
        spec = random_spec(rng, num_k=2, num_l=3, num_a=2, num_b=2, horizon=2)
        v1 = solve_primal(spec, spec.p0, spec.q0, 2, spec.lam, 1).value
        v2 = solve_primal(spec, spec.p0, spec.q0, 2, spec.lam, 2).value
        assert v1 == pytest.approx(v2, abs=1e-7)


def test_optimal_plan_is_feasible(rng):
    spec = random_spec(rng, num_k=2, num_l=2, num_a=2, num_b=2, horizon=3)
    lp, plan_vars, _, index = build_primal(spec, spec.p0, spec.q0, 3,
                                           spec.lam, 1)
    res = solve_primal(spec, spec.p0, spec.q0, 3, spec.lam, 1)
    point = np.zeros(lp.num_vars)
    for key, var in plan_vars.items():
        point[var] = res.plan.values[key]
    # the = rows are the flow rows, one per own history; they involve only
    # plan variables, so the payoff variables can stay at 0
    assert lp.b_eq.size == sum(index.count(1, t) for t in range(1, 4))
    assert np.all(np.abs(lp.a_eq @ point - lp.b_eq) <= 1e-6)


def test_strategy_rows_are_distributions(rng):
    spec = random_spec(rng, num_k=3, num_l=2, num_a=2, num_b=2, horizon=2)
    res = solve_primal(spec, spec.p0, spec.q0, 2, spec.lam, 1)
    for probs in res.strategy.table.values():
        assert np.all(probs >= 0.0)
        assert probs.sum() == pytest.approx(1.0, abs=1e-7)


def test_strategy_recomposes_plan(case_study):
    """Reach probability times behavioral weights reproduces the plan."""
    spec = case_study
    res = solve_primal(spec, spec.p0, spec.q0, 2, spec.lam, 1)
    plan, strat, index = res.plan, res.strategy, res.plan.index
    for t in range(1, 3):
        for hid, (states, acts) in enumerate(index.histories(1, t)):
            reach = float(spec.p0[states[0]])
            for s, (a, b) in enumerate(acts):
                reach *= (strat.table[(s + 1, index.id_of(1, s + 1,
                                                          states[:s + 1],
                                                          acts[:s]))][a]
                          * spec.trans_p[a, b, states[s], states[s + 1]])
            for act in range(spec.num_a):
                recomposed = reach * strat.table[(t, hid)][act]
                assert recomposed == pytest.approx(plan.values[(t, hid, act)],
                                                   abs=1e-7)


def test_value_concave_in_p_convex_in_q(rng):
    spec = random_spec(rng, num_k=2, num_l=2, num_a=2, num_b=2, horizon=2)

    def v(p, q):
        return solve_primal(spec, p, q, 2, spec.lam, 1).value

    p1, p2 = np.array([0.9, 0.1]), np.array([0.2, 0.8])
    q1, q2 = np.array([0.6, 0.4]), np.array([0.1, 0.9])
    for alpha in (0.25, 0.5, 0.75):
        mix_p = alpha * p1 + (1 - alpha) * p2
        assert v(mix_p, q1) >= (alpha * v(p1, q1)
                                + (1 - alpha) * v(p2, q1)) - 1e-7
        mix_q = alpha * q1 + (1 - alpha) * q2
        assert v(p1, mix_q) <= (alpha * v(p1, q1)
                                + (1 - alpha) * v(p1, q2)) + 1e-7


def test_value_monotone_in_horizon(rng):
    spec = random_spec(rng, num_k=2, num_l=2, num_a=2, num_b=2, horizon=3)
    values = [solve_primal(spec, spec.p0, spec.q0, n, spec.lam, 1).value
              for n in (1, 2, 3)]
    assert values[0] <= values[1] + 1e-8 <= values[2] + 2e-8


def test_initial_vector_payoff_sign_and_size(case_study):
    spec = case_study
    r1 = solve_primal(spec, spec.p0, spec.q0, 2, spec.lam, 1)
    r2 = solve_primal(spec, spec.p0, spec.q0, 2, spec.lam, 2)
    assert r1.initial_vector_payoff.shape == (spec.num_l,)
    assert r2.initial_vector_payoff.shape == (spec.num_k,)
    # payoffs are nonnegative, so both vector payoffs are nonpositive
    assert np.all(r1.initial_vector_payoff <= 1e-9)
    assert np.all(r2.initial_vector_payoff <= 1e-9)


def test_vertex_prior_matches_known_state(rng):
    """With p = e_k the game value is the complete-information-k value."""
    spec = random_spec(rng, num_k=2, num_l=1, num_a=2, num_b=2, horizon=1)
    for k in range(2):
        p = np.eye(2)[k]
        got = solve_primal(spec, p, spec.q0, 1, 1.0, 1).value
        want = _matrix_game_value(spec.payoff[k, 0])
        assert got == pytest.approx(want, abs=1e-8)


def test_side_validation():
    spec = constant_spec()
    with pytest.raises(ValueError):
        solve_primal(spec, spec.p0, spec.q0, 2, 0.5, 3)
