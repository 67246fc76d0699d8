import dataclasses

import numpy as np
import pytest

from zsbgames import (HistoryIndex, best_response_vs_p1, best_response_vs_p2,
                      solve_primal)
from zsbgames.bounds import _pure_plans, _sequence_kernel
from zsbgames.dual_solver import _solve, dual_template
from zsbgames.primal_solver import RealizationPlan
from zsbgames.history_index import build_index

from conftest import random_spec


def _uniform_plan(spec, side, n):
    """Realization plan of the uniform behavioral strategy."""
    index = build_index(spec, n)
    root = spec.p0 if side == 1 else spec.q0
    num_acts = spec.num_a if side == 1 else spec.num_b
    trans = spec.trans_p if side == 1 else spec.trans_q
    values = {}
    for t in range(1, n + 1):
        for hid, (states, acts) in enumerate(index.histories(side, t)):
            reach = float(root[states[0]])
            for s, (a, b) in enumerate(acts):
                reach *= trans[a, b, states[s], states[s + 1]] / num_acts
            for act in range(num_acts):
                values[(t, hid, act)] = reach / num_acts
    return RealizationPlan(side=side, depth=n, index=index,
                           root=np.asarray(root, dtype=float), values=values)


def test_security_level_of_optimal_plans(rng):
    for _ in range(5):
        spec = random_spec(rng, num_k=2, num_l=2, num_a=2, num_b=2, horizon=2)
        r1 = solve_primal(spec, spec.p0, spec.q0, 2, spec.lam, 1)
        br = best_response_vs_p1(spec, r1.plan, spec.q0, 2, spec.lam)
        assert br.value == pytest.approx(r1.value, abs=1e-7)
        r2 = solve_primal(spec, spec.p0, spec.q0, 2, spec.lam, 2)
        br2 = best_response_vs_p2(spec, r2.plan, spec.p0, 2, spec.lam)
        assert br2.value == pytest.approx(r2.value, abs=1e-7)


def test_uniform_plan_is_exploitable(rng):
    """The value against a best response brackets the game value."""
    spec = random_spec(rng, num_k=2, num_l=2, num_a=2, num_b=2, horizon=2)
    value = solve_primal(spec, spec.p0, spec.q0, 2, spec.lam, 1).value
    vs_p1 = best_response_vs_p1(spec, _uniform_plan(spec, 1, 2),
                                spec.q0, 2, spec.lam)
    vs_p2 = best_response_vs_p2(spec, _uniform_plan(spec, 2, 2),
                                spec.p0, 2, spec.lam)
    assert vs_p1.value <= value + 1e-7      # opponent minimizes against p1
    assert vs_p2.value >= value - 1e-7      # opponent maximizes against p2


def test_payoff_map_consistent_with_value(rng):
    spec = random_spec(rng, num_k=2, num_l=3, num_a=2, num_b=2, horizon=2)
    r1 = solve_primal(spec, spec.p0, spec.q0, 2, spec.lam, 1)
    br = best_response_vs_p1(spec, r1.plan, spec.q0, 2, spec.lam)
    index = r1.plan.index
    assert [v.shape for v in br.values] == [
        (spec.num_l * index.num_pairs ** (t - 1),) for t in (1, 2)]
    roots = np.array([br.values[0][index.id_of(2, 1, (l,), ())]
                      for l in range(spec.num_l)])
    assert np.array_equal(roots, br.roots)
    assert float(spec.q0 @ roots) == pytest.approx(br.value, abs=1e-7)


def _full_history_values(spec, plan, n):
    """(t, responder history id) -> best-response value, by the plain
    recursion over the responder's full histories."""
    view = spec.side(plan.side)
    index, opp = plan.index, view.opp
    best = min if plan.side == 1 else max
    values = {}
    for t in range(n, 0, -1):
        own = {}                    # pairs -> [(own id, last own state)]
        for hid, (states, acts) in enumerate(index.histories(plan.side, t)):
            own.setdefault(acts, []).append((hid, states[-1]))
        for hid, (states, acts) in enumerate(index.histories(opp, t)):
            j, options = states[-1], []
            for o in range(view.num_opp_actions):
                v = sum(plan.values[t - 1][oid, act] * spec.lam ** (t - 1)
                        * view.payoff[s, j, act, o]
                        for oid, s in own[acts]
                        for act in range(view.num_actions))
                for act in range(view.num_actions if t < n else 0):
                    a, b = view.pair(act, o)
                    for nxt in range(view.num_opp_states):
                        child = index.id_of(opp, t + 1, states + (nxt,),
                                            acts + ((a, b),))
                        v += (view.opp_trans[a, b, j, nxt]
                              * values[(t + 1, child)])
                options.append(v)
            values[(t, hid)] = best(options)
    return values


@pytest.mark.parametrize("side", [1, 2])
@pytest.mark.parametrize("sizes", [(2, 3, 2, 3), (3, 2, 3, 2)])
def test_rows_hold_every_full_history_value(rng, side, sizes):
    """Each full responder history's value, by a recursion over full
    histories, is the value of its (last state, pairs) row; one responder
    state has zero prior weight."""
    n = 3
    num_k, num_l, num_a, num_b = sizes
    spec = random_spec(rng, num_k=num_k, num_l=num_l, num_a=num_a,
                       num_b=num_b, horizon=n)
    zero_first = lambda d: np.r_[0.0, d[1:] / d[1:].sum()]
    spec = (dataclasses.replace(spec, q0=zero_first(spec.q0)) if side == 1
            else dataclasses.replace(spec, p0=zero_first(spec.p0)))
    vs_plan = best_response_vs_p1 if side == 1 else best_response_vs_p2
    opp = 3 - side
    optimal = solve_primal(spec, spec.p0, spec.q0, n, spec.lam, side).plan
    for plan in (optimal, _uniform_plan(spec, side, n)):
        index = plan.index
        br = vs_plan(spec, plan, spec.q0 if side == 1 else spec.p0, n,
                     spec.lam)
        full = _full_history_values(spec, plan, n)
        for t in range(1, n + 1):
            for hid, (states, acts) in enumerate(index.histories(opp, t)):
                row = index.id_of(opp, t, states[-1:], acts)
                assert abs(br.values[t - 1][row] - full[(t, hid)]) <= 1e-12


def test_wrong_plan_side_rejected(rng):
    spec = random_spec(rng, horizon=2)
    r1 = solve_primal(spec, spec.p0, spec.q0, 2, spec.lam, 1)
    with pytest.raises(ValueError):
        best_response_vs_p2(spec, r1.plan, spec.p0, 2, spec.lam)


@pytest.mark.parametrize("side", [1, 2])
@pytest.mark.parametrize("sizes", [(2, 2, 2, 2), (2, 2, 1, 3), (2, 2, 3, 1)])
def test_best_response_matches_pure_strategy_enumeration(rng, side, sizes):
    """At each responder initial state, including a zero-prior one, the
    best-response value is the best payoff over the responder's reduced
    pure strategies started there, against optimal and uniform plans."""
    n = 2
    num_k, num_l, num_a, num_b = sizes
    spec = dataclasses.replace(
        random_spec(rng, num_k=num_k, num_l=num_l, num_a=num_a, num_b=num_b,
                    horizon=n),
        p0=np.array([0.0, 1.0]), q0=np.array([1.0, 0.0]))
    view = spec.side(side)
    vs_plan = best_response_vs_p1 if side == 1 else best_response_vs_p2
    optimal = solve_primal(spec, spec.p0, spec.q0, n, spec.lam, side).plan
    for plan in (optimal, _uniform_plan(spec, side, n)):
        index = plan.index
        weights = np.concatenate([w.ravel() for w in plan.values])
        kernel = _sequence_kernel(spec, index, n, spec.lam)
        br = vs_plan(spec, plan, spec.q0 if side == 1 else spec.p0, n,
                     spec.lam)
        for s in range(view.num_opp_states):
            start = np.eye(view.num_opp_states)[s]
            started = (dataclasses.replace(spec, q0=start) if side == 1
                       else dataclasses.replace(spec, p0=start))
            pure = _pure_plans(started, index, view.opp, n)
            if side == 1:
                best = float((weights @ kernel @ pure.T).min())
            else:
                best = float((pure @ kernel @ weights).max())
            assert abs(br.roots[s] - best) <= 1e-9


@pytest.mark.parametrize("side", [1, 2])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_kept_gathers_give_a_fresh_index_bytes(side, n):
    """A dual template's index keeps the best response's gathers from one
    solve to the next; against the template's plans they give, byte for
    byte, what a fresh index's gathers give on 20 random specs. A plan's
    last-state weights are computed once, as read-only arrays."""
    rng = np.random.default_rng(40 + 3 * side + n)
    vs_plan = best_response_vs_p1 if side == 1 else best_response_vs_p2
    for _ in range(20):
        sizes = [int(x) for x in rng.integers(1, 4, 4)]
        spec = random_spec(rng, *sizes, horizon=n, lam=0.8)
        view = spec.side(side)
        template = dual_template(spec, 3 - side, n, spec.lam)
        for _ in range(2):
            root = rng.dirichlet(np.ones(view.num_states))
            vector = rng.uniform(-20.0, 0.0, view.num_opp_states)
            plan = _solve(spec, 3 - side, root, vector, n, spec.lam,
                          template).plan
            weights = rng.dirichlet(np.ones(view.num_opp_states))
            kept = vs_plan(spec, plan, weights, n, spec.lam)
            fresh = vs_plan(spec, dataclasses.replace(
                plan, index=HistoryIndex(spec, n)), weights, n, spec.lam)
            assert kept.value == fresh.value
            for got, want in zip(kept.values, fresh.values, strict=True):
                assert got.tobytes() == want.tobytes()
            last = plan.last_state_weights()
            assert plan.last_state_weights() is last
            assert all(w is v and not w.flags.writeable for w, v in
                       zip(plan.last_state_weights(), last, strict=True))
        assert len(template.index.gathers) == n - 1
