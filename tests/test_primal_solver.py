from itertools import product

import numpy as np
import pytest

from zsbgames import (RealizationPlan, best_response_vs_p1,
                      best_response_vs_p2, solve_primal)
from zsbgames.bounds import _matrix_game_value
from zsbgames.primal_solver import build_primal

from conftest import constant_spec, random_spec, scipy_csr


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
    for key, var in zip(index.keys(1, 3, spec.num_a), plan_vars):
        point[var] = res.plan.values[key]
    # the = rows are the flow rows, one per own history; they involve only
    # plan variables, so the payoff variables can stay at 0
    assert lp.b_eq.size == sum(index.count(1, t) for t in range(1, 4))
    assert np.all(np.abs(scipy_csr(lp.a_eq) @ point - lp.b_eq) <= 1e-6)


def test_strategy_rows_are_distributions(rng):
    spec = random_spec(rng, num_k=3, num_l=2, num_a=2, num_b=2, horizon=2)
    res = solve_primal(spec, spec.p0, spec.q0, 2, spec.lam, 1)
    for probs in res.strategy.table.values():
        assert np.all(probs >= 0.0)
        assert probs.sum() == pytest.approx(1.0, abs=1e-7)


def test_strategy_recomposes_plan(case_study):
    """Reach probability times behavioral weights, on (last own state,
    pair sequence), reproduces the plan summed over earlier own states."""
    spec = case_study
    res = solve_primal(spec, spec.p0, spec.q0, 3, spec.lam, 1)
    strat, index = res.strategy, res.plan.index
    reach = {(s, ()): float(spec.p0[s]) for s in range(spec.num_k)}
    for t, want in enumerate(res.plan.last_state_weights(), start=1):
        assert want.shape == (len(reach), spec.num_a)
        nxt = {}
        for (s, acts), weight in reach.items():
            probs = strat.action_probs((s,), acts)
            row = want[index.id_of(1, t, (s,), acts)]
            assert weight * probs == pytest.approx(row, abs=1e-7)
            for a, b, s_next in product(range(spec.num_a), range(spec.num_b),
                                        range(spec.num_k)):
                key = (s_next, acts + ((a, b),))
                nxt[key] = nxt.get(key, 0.0) + (
                    weight * probs[a] * spec.trans_p[a, b, s, s_next])
        reach = nxt


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("side", [1, 2])
def test_strategy_reads_only_the_last_state(case_study, side, n):
    """Histories that share their last own state and pairs get one table
    row, and the table, expanded to a plan over full histories, concedes
    exactly the LP value to a best response."""
    spec = case_study
    view = spec.side(side)
    own, other = view.pair(spec.p0, spec.q0)
    res = solve_primal(spec, spec.p0, spec.q0, n, spec.lam, side)
    index, table = res.plan.index, res.strategy.table
    reach, values = {}, {}
    for t in range(1, n + 1):
        rows = {}
        for hid, (states, acts) in enumerate(index.histories(side, t)):
            probs = table[(t, hid)]
            assert np.array_equal(rows.setdefault((states[-1], acts), probs),
                                  probs)
            if t == 1:
                weight = float(own[states[0]])
            else:
                pid, (a, b) = index.parent(side, t, hid)
                weight = (reach[(t - 1, pid)]
                          * table[(t - 1, pid)][view.pair(a, b)[0]]
                          * view.trans[a, b, states[-2], states[-1]])
            reach[(t, hid)] = weight
            for act in range(view.num_actions):
                values[(t, hid, act)] = weight * probs[act]
    plan = RealizationPlan(side=side, depth=n, index=index, root=own,
                           values=values)
    vs_plan = best_response_vs_p1 if side == 1 else best_response_vs_p2
    assert vs_plan(spec, plan, other, n, spec.lam).value == pytest.approx(
        res.value, abs=1e-9)


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
