import dataclasses
from itertools import product

import numpy as np
import pytest

from zsbgames import (HistoryIndex, NumericalError, RealizationPlan,
                      best_response, best_response_vs_p1, best_response_vs_p2,
                      lp_core, solve_primal)
from zsbgames.bounds import _matrix_game_value
from zsbgames.lp_core import LpBuilder
from zsbgames.primal_solver import (add_sequence_system, build_primal,
                                    extract_strategy, plan_from_solution)

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


def test_optimal_plan_is_feasible(rng, primal_layout):
    """The solved plan meets the flow rows of a sequence system on (last
    own state, pairs) rows."""
    spec = random_spec(rng, num_k=2, num_l=2, num_a=2, num_b=2, horizon=3)
    res = solve_primal(spec, spec.p0, spec.q0, 3, spec.lam, 1)
    builder = LpBuilder()
    system = add_sequence_system(builder, spec, 1, 3, spec.lam, spec.p0)
    lp = builder.build(lp_core.MAX, {})
    point = np.zeros(lp.num_vars)
    point[system.plan_vars] = np.concatenate([w.ravel() for w in res.plan.values])
    # the = rows are the flow rows, one per own (last state, pairs) row;
    # they involve only plan variables, so the payoff variables can stay at 0
    P = spec.num_a * spec.num_b
    assert lp.b_eq.size == sum(spec.num_k * P ** (t - 1) for t in range(1, 4))
    assert np.all(np.abs(scipy_csr(lp.a_eq) @ point - lp.b_eq) <= 1e-6)


def test_strategy_rows_are_distributions(rng):
    spec = random_spec(rng, num_k=3, num_l=2, num_a=2, num_b=2, horizon=2)
    res = solve_primal(spec, spec.p0, spec.q0, 2, spec.lam, 1)
    for probs in res.strategy.table.values():
        assert np.all(probs >= 0.0)
        assert probs.sum() == pytest.approx(1.0, abs=1e-7)


def test_strategy_recomposes_plan(case_study, primal_layout):
    """Reach probability times behavioral weights, on (last own state,
    pair sequence), reproduces the plan's rows."""
    spec = case_study
    res = solve_primal(spec, spec.p0, spec.q0, 3, spec.lam, 1)
    strat, index = res.strategy, res.plan.index
    reach = {(s, ()): float(spec.p0[s]) for s in range(spec.num_k)}
    for t, want in enumerate(res.plan.values, start=1):
        assert want.shape == (len(reach), spec.num_a)
        nxt = {}
        for (s, acts), weight in reach.items():
            row_id = index.id_of(1, t, (s,), acts)
            probs, row = strat.probs[t - 1][row_id], want[row_id]
            assert weight * probs == pytest.approx(row, abs=1e-7)
            for a, b, s_next in product(range(spec.num_a), range(spec.num_b),
                                        range(spec.num_k)):
                key = (s_next, acts + ((a, b),))
                nxt[key] = nxt.get(key, 0.0) + (
                    weight * probs[a] * spec.trans_p[a, b, s, s_next])
        reach = nxt


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("side", [1, 2])
def test_strategy_reads_only_the_last_state(case_study, primal_layout, side, n):
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


def _compact_primal(spec, n, side):
    """`build_primal`'s LP on (last own state, public pairs) rows: its
    value and its plan, read by the rows of the system that built it."""
    view = spec.side(side)
    own, other = view.pair(spec.p0, spec.q0)
    builder = LpBuilder()
    system = add_sequence_system(builder, spec, side, n, spec.lam,
                                 np.asarray(own, dtype=float))
    objective = {system.payoff_vars[s]: float(other[s])
                 for s in range(view.num_opp_states)}
    lp = builder.build(lp_core.MAX if side == 1 else lp_core.MIN, objective)
    sol = lp_core.solve(lp)
    plan = plan_from_solution(HistoryIndex(spec, n), side, system, sol.primal,
                              own)
    return sol.objective_value, plan


def test_compact_layout_reaches_the_primal_value(case_study):
    """The primal LP on (last own state, pairs) rows reaches the full
    form's value: payoffs read only the last state and transitions are
    Markov. Its plan, split by the system's own rows, concedes that value
    to a best response, and its strategy plays distributions. Random specs
    are drawn as for criterion 4."""
    cases = [(case_study, 2), (case_study, 3)]
    rng = np.random.default_rng(41)
    for _ in range(40):
        spec = random_spec(rng,
                           num_k=int(rng.integers(1, 4)),
                           num_l=int(rng.integers(1, 4)),
                           num_a=int(rng.integers(1, 3)),
                           num_b=int(rng.integers(1, 3)),
                           horizon=int(rng.integers(1, 4)),
                           lam=float(rng.uniform(0.2, 1.0)))
        cases.append((spec, spec.horizon_n))
    for spec, n in cases:
        for side in (1, 2):
            want = solve_primal(spec, spec.p0, spec.q0, n, spec.lam, side)
            value, plan = _compact_primal(spec, n, side)
            assert abs(value - want.value) <= 1e-9
            vs_plan = best_response_vs_p1 if side == 1 else best_response_vs_p2
            other = spec.side(side).pair(spec.p0, spec.q0)[1]
            assert abs(vs_plan(spec, plan, other, n, spec.lam).value
                       - value) <= 1e-9
            for probs in extract_strategy(plan, spec).probs:
                assert np.all(probs >= 0.0)
                assert np.abs(probs.sum(axis=1) - 1.0).max() <= 1e-9


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


def _builder_form(lp):
    """The constraint matrix and right-hand sides of `lp` row by row as
    the builder added them, >= rows not negated."""
    ub, eq = scipy_csr(lp.a_ub).toarray(), scipy_csr(lp.a_eq).toarray()
    a, b = [], []
    for rel, slot in zip(lp.rels, lp.slots):
        mat, rhs = (eq, lp.b_eq) if rel == "=" else (ub, lp.b_ub)
        sign = -1.0 if rel == ">=" else 1.0
        a.append(sign * mat[slot])
        b.append(sign * rhs[slot])
    return np.array(a), np.array(b)


@pytest.mark.parametrize("shape", [(2, 2, 2, 2), (3, 2, 2, 3), (1, 3, 3, 1)])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_side_two_lp_is_the_lp_dual_of_side_one(rng, shape, n):
    """Side 2's variables are side 1's rows and its rows side 1's
    variables, in builder order: each side's objective is the other's
    right-hand side and side 2's matrix is side 1's transposed, with one
    sign per block of (plan or payoff variables) x (payoff or flow rows)."""
    num_k, num_l, num_a, num_b = shape
    spec = random_spec(rng, num_k=num_k, num_l=num_l, num_a=num_a,
                       num_b=num_b, horizon=n)
    lp1, (plan1, payoff1, _), _ = build_primal(spec, spec.p0, spec.q0, n, spec.lam, 1)
    lp2, (plan2, payoff2, _), _ = build_primal(spec, spec.p0, spec.q0, n, spec.lam, 2)
    a1, b1 = _builder_form(lp1)
    a2, b2 = _builder_form(lp2)
    assert (lp1.sense, lp2.sense) == (lp_core.MAX, lp_core.MIN)
    assert np.array_equal(-lp1.c, b2) and np.array_equal(lp2.c, b1)
    assert a2.shape == a1.T.shape
    # side 1's payoff rows pair with side 2's plan variables, its flow
    # rows with side 2's payoff variables, and the other way round
    for rows in (plan1, payoff1):
        for cols in (plan2, payoff2):
            block = a2[np.ix_(rows, cols)]
            mirror = a1[np.ix_(cols, rows)].T
            sign = 1.0 if np.array_equal(block, mirror) else -1.0
            assert np.array_equal(block, sign * mirror)
            assert np.array_equal(np.sign(block), sign * np.sign(mirror))


def _warm_side1(spec, p, q, n, lam, monkeypatch):
    """Side 1's solve, the HiGHS iterations of its warm-started LP, and
    side 1's LP solved cold with its plan."""
    warm_nits = []
    real = lp_core.linprog

    def record(c, **kwargs):
        res = real(c, **kwargs)
        if kwargs["basis"] is not None:
            warm_nits.append(res.nit)
        return res

    with monkeypatch.context() as patch:
        patch.setattr(lp_core, "linprog", record)
        res = solve_primal(spec, p, q, n, lam, 1)
    lp, system, index = build_primal(spec, p, q, n, lam, 1)
    cold = lp_core.solve(lp)
    plan = plan_from_solution(index, 1, system, cold.primal, p)
    return res, warm_nits, cold.objective_value, plan


@pytest.mark.parametrize("n", [2, 3])
def test_case_study_side1_starts_at_its_optimum(case_study, primal_layout,
                                                monkeypatch, n):
    """From the basis complementary to side 2's optimal basis, side 1's LP
    takes no simplex iteration and gives the cold solve's value and
    plan."""
    spec = case_study
    res, warm_nits, cold_value, cold_plan = _warm_side1(
        spec, spec.p0, spec.q0, n, spec.lam, monkeypatch)
    assert warm_nits == [0]
    assert abs(res.value - cold_value) <= 1e-12
    for got, want in zip(res.plan.values, cold_plan.values, strict=True):
        assert np.abs(got - want).max() <= 1e-9


@pytest.mark.parametrize("seed", range(36))
def test_random_side1_starts_at_its_optimum(monkeypatch, seed):
    """The warm start takes no iteration on random specs of 1-3 states
    and actions, with zero-prior states and lambda up to 1. Where side 1's
    LP has several optimal plans the warm and cold ones may differ, so
    the warm plan is checked to guarantee the value instead."""
    rng = np.random.default_rng(seed)
    num_k, num_l, num_a, num_b = rng.integers(1, 4, 4)
    n, lam = 1 + seed % 3, (0.3, 0.8, 1.0)[seed // 3 % 3]
    spec = random_spec(rng, num_k=num_k, num_l=num_l, num_a=num_a,
                       num_b=num_b, horizon=n, lam=lam)
    p, q = spec.p0.copy(), spec.q0.copy()
    if seed % 4 == 1 and num_k > 1:
        p[0] = 0.0
    if seed % 4 == 2 and num_l > 1:
        q[-1] = 0.0
    p, q = p / p.sum(), q / q.sum()
    res, warm_nits, cold_value, _ = _warm_side1(spec, p, q, n, lam,
                                                monkeypatch)
    assert warm_nits == [0]
    assert abs(res.value - cold_value) <= 1e-12
    assert best_response_vs_p1(spec, res.plan, q, n, lam).value == \
        pytest.approx(res.value, abs=1e-9)


def test_side_validation():
    spec = constant_spec()
    with pytest.raises(ValueError):
        solve_primal(spec, spec.p0, spec.q0, 2, 0.5, 3)


@pytest.mark.parametrize("side", [1, 2])
def test_plan_from_a_dict_reads_like_the_solver_plan(rng, primal_layout, side):
    """A plan built from a dict keyed (t, full-history id, own action),
    holding the solver plan's rows at the histories whose earlier own
    states are all 0 (each has its row's id) and zeros elsewhere, holds
    the solver plan's per-depth (last state, pairs) arrays, so they and
    best responses agree byte for byte."""
    n = 3
    spec = random_spec(rng, num_k=2, num_l=3, num_a=3, num_b=2, horizon=n)
    res = solve_primal(spec, spec.p0, spec.q0, n, spec.lam, side)
    solved = res.plan
    view = spec.side(side)
    values = {(t, hid, act): float(w[hid, act]) if hid < len(w) else 0.0
              for t, w in enumerate(solved.values, start=1)
              for hid, act in np.ndindex(solved.index.count(side, t),
                                         view.num_actions)}
    hand = RealizationPlan(side=side, depth=n, index=solved.index,
                           root=solved.root, values=values)
    assert [w.shape for w in hand.values] == [
        (view.num_states * solved.index.num_pairs ** (t - 1), view.num_actions)
        for t in (1, 2, 3)]
    for got, want in zip(hand.values, solved.values, strict=True):
        assert got.tobytes() == want.tobytes()
    vs_plan = best_response_vs_p1 if side == 1 else best_response_vs_p2
    other = view.pair(spec.p0, spec.q0)[1]
    got, want = (vs_plan(spec, plan, other, n, spec.lam)
                 for plan in (hand, solved))
    assert got.value == want.value
    for a, b in zip([got.roots, *got.values], [want.roots, *want.values],
                    strict=True):
        assert a.tobytes() == b.tobytes()
    assert (-want.roots).tobytes() == res.initial_vector_payoff.tobytes()


@pytest.mark.parametrize("side", [1, 2])
def test_objective_gap_is_certified(rng, monkeypatch, side):
    """The best response against the solved plan must reach the LP value
    within CERT_TOL * max(1, |value|); a shifted one is a NumericalError."""
    spec = random_spec(rng, horizon=2)
    name = f"best_response_vs_p{side}"
    real = getattr(best_response, name)
    value = solve_primal(spec, spec.p0, spec.q0, 2, spec.lam, side).value

    def shifted(*args):
        br = real(*args)
        return dataclasses.replace(br, value=br.value + shift)
    monkeypatch.setattr(best_response, name, shifted)
    for factor, raises in [(0.5, False), (2.0, True)]:
        shift = factor * lp_core.CERT_TOL * max(1.0, abs(value))
        if raises:
            with pytest.raises(NumericalError, match="best-response value"):
                solve_primal(spec, spec.p0, spec.q0, 2, spec.lam, side)
        else:
            assert solve_primal(spec, spec.p0, spec.q0, 2, spec.lam,
                                side).value == value
