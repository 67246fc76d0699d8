"""Dual and update LPs: a dual template patched for a statistic, and the
update LP's one-shot build, must give HiGHS the same LP, and hence the
same answers, as a row-by-row build with that statistic in place. A dual
solve starts from its template's reference basis, so it must give a cold
solve's value, and the same bytes whatever was solved before it."""

import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest

import zsbgames
from zsbgames import (FixedPolicyAgent, SolverCache, WindowAgent,
                      WindowConfig, lp_core, run_episode, solve_dual1,
                      solve_dual2, update_mu, update_nu)
from zsbgames.dual_solver import dual_template
from zsbgames.history_index import build_index
from zsbgames.lp_core import LpBuilder
from zsbgames.primal_solver import add_sequence_system
from zsbgames.stat_updater import update_belief_p, update_belief_q

from conftest import random_spec


def _assert_same_lp(got, want):
    np.testing.assert_array_equal(got.c, want.c)
    np.testing.assert_array_equal(got.bounds, want.bounds)
    for name in ("a_ub", "a_eq"):
        g, w = getattr(got, name), getattr(want, name)
        assert g.nnz == w.nnz == np.count_nonzero(w.data)
        for part in ("data", "indices", "indptr"):
            assert getattr(g, part).tobytes() == getattr(w, part).tobytes()
    for name in ("b_ub", "b_eq"):
        assert getattr(got, name).tobytes() == getattr(want, name).tobytes()


def _direct_update_lp(spec, kind, vec, belief, star, n, lam):
    """The update LP built row by row with the statistic in place."""
    side, num_vec = 3 - kind, (spec.num_k if kind == 1 else spec.num_l)
    own_trans = spec.trans_p if kind == 1 else spec.trans_q
    posterior = update_belief_q if kind == 1 else update_belief_p
    rel, final_rel = ("<=", ">=") if kind == 1 else (">=", "<=")
    builder = LpBuilder()
    scalar = builder.new_var()
    index = build_index(spec, n - 1) if n >= 2 else None
    tail, vecs = {}, {}
    for aa in range(spec.num_a):
        for bb in range(spec.num_b):
            tail[(aa, bb)] = builder.new_var()
            vecs[(aa, bb)] = builder.new_vars(num_vec)
            if n >= 2:
                _, pay, _ = add_sequence_system(
                    builder, spec, index, side, n - 1, lam,
                    posterior(spec, belief, star, aa, bb))
            for s in range(num_vec):
                row = {vecs[(aa, bb)][s]: 1.0, tail[(aa, bb)]: -1.0}
                if n >= 2:
                    row[pay[index.id_of(kind, 1, (s,), ())]] = 1.0
                builder.add_rows(rel, [0.0],
                                 [(0, list(row), list(row.values()))])
    bar = star @ belief
    for o in range(spec.num_a if kind == 1 else spec.num_b):
        for s in range(num_vec):
            row, rhs = {scalar: 1.0}, float(vec[s])
            for m in range(spec.num_b if kind == 1 else spec.num_a):
                aa, bb = (o, m) if kind == 1 else (m, o)
                pay_row = (spec.payoff[s, :, aa, bb] if kind == 1
                           else spec.payoff[:, s, aa, bb])
                rhs += float(np.dot(pay_row * belief, star[m]))
                row[tail[(aa, bb)]] = -lam * float(bar[m])
                for s2, var in enumerate(vecs[(aa, bb)]):
                    row[var] = lam * float(bar[m]) * own_trans[aa, bb, s, s2]
            builder.add_rows(final_rel, [rhs],
                             [(0, list(row), list(row.values()))])
    return builder.build(lp_core.MIN if kind == 1 else lp_core.MAX,
                         {scalar: 1.0})


def _direct_dual_lp(spec, kind, root, vector, n, lam):
    side = 3 - kind
    index = build_index(spec, n)
    builder = LpBuilder()
    _, pay, _ = add_sequence_system(builder, spec, index, side, n, lam, root)
    v0 = builder.new_var()
    for s, val in enumerate(vector):
        builder.add_rows("<=" if kind == 1 else ">=", [-float(val)], [
            (0, [pay[index.id_of(kind, 1, (s,), ())], v0], [1.0, -1.0])])
    return builder.build(lp_core.MIN if kind == 1 else lp_core.MAX, {v0: 1.0})


def _same_dual(got, want):
    assert got.value == want.value
    assert got.strategy.table.keys() == want.strategy.table.keys()
    for key, probs in want.strategy.table.items():
        assert got.strategy.table[key].tobytes() == probs.tobytes()


def _update_lp(monkeypatch, update, *args):
    """The LP `update(*args)` hands to `lp_core.solve`."""
    seen, solve = [], lp_core.solve

    def record(lp):
        seen.append(lp)
        return solve(lp)
    with monkeypatch.context() as patch:
        patch.setattr(lp_core, "solve", record)
        update(*args)
    (lp,) = seen
    return lp


@pytest.mark.parametrize("n", [1, 2, 3])
def test_reused_templates_match_one_shot_builds(n, monkeypatch):
    rng = np.random.default_rng(100 + n)
    spec = random_spec(rng, num_k=3, num_l=2, num_a=2, num_b=3, lam=0.8)
    lam = spec.lam
    d1_tpl, d2_tpl = dual_template(spec, 1, n, lam), dual_template(spec, 2, n, lam)
    first = []                      # trial 0's (patched, direct) LP pairs
    for trial in range(5):
        p, q = rng.dirichlet(np.ones(spec.num_k)), rng.dirichlet(np.ones(spec.num_l))
        mu = rng.uniform(-20.0, 0.0, spec.num_k)
        nu = rng.uniform(-20.0, 0.0, spec.num_l)

        pairs = [(d1_tpl.lp_at(q, mu), _direct_dual_lp(spec, 1, q, mu, n, lam)),
                 (d2_tpl.lp_at(p, nu), _direct_dual_lp(spec, 2, p, nu, n, lam))]
        d1 = solve_dual1(spec, mu, q, n, lam, template=d1_tpl)
        d2 = solve_dual2(spec, p, nu, n, lam, template=d2_tpl)
        _same_dual(d1, solve_dual1(spec, mu, q, n, lam))
        _same_dual(d2, solve_dual2(spec, p, nu, n, lam))

        y_star, x_star = d1.strategy.stage1_matrix(), d2.strategy.stage1_matrix()
        if trial == 0:
            # player 2 never plays action 1, player 1 never plays action 0:
            # those ybar/xbar entries are exactly 0
            y_star = np.zeros_like(y_star)
            y_star[0] = 1.0
            x_star = np.zeros_like(x_star)
            x_star[1] = 1.0
        pairs += [(_update_lp(monkeypatch, update_mu,
                              spec, mu, q, y_star, 0, 2, n, lam),
                   _direct_update_lp(spec, 1, mu, q, y_star, n, lam)),
                  (_update_lp(monkeypatch, update_nu,
                              spec, nu, p, x_star, 1, 1, n, lam),
                   _direct_update_lp(spec, 2, nu, p, x_star, n, lam))]
        for got, want in pairs:
            _assert_same_lp(got, want)
        if trial == 0:
            first = pairs
    # later patches must not write into arrays the first LPs share
    for got, want in first:
        _assert_same_lp(got, want)


def test_zero_stage_weight_drops_coupling_coefficients(monkeypatch):
    spec = random_spec(np.random.default_rng(3), num_a=2, num_b=2)
    mu, q = np.array([-3.0, -4.0]), spec.q0
    mixed = np.full((2, 2), 0.5)
    pure = np.array([[1.0, 1.0], [0.0, 0.0]])
    full, sparse = (_update_lp(monkeypatch, update_mu, spec, mu, q, star,
                               0, 0, 2, spec.lam) for star in (mixed, pure))
    assert np.count_nonzero(sparse.a_ub.data) == sparse.a_ub.nnz
    # per (a, s) row, the b=1 tail and both b=1 vector entries vanish
    assert full.a_ub.nnz - sparse.a_ub.nnz == spec.num_a * spec.num_k * 3


def test_template_must_match_the_requested_lp():
    spec = random_spec(np.random.default_rng(4))
    with pytest.raises(ValueError, match="template"):
        solve_dual1(spec, [0.0, 0.0], spec.q0, 2, spec.lam,
                    template=dual_template(spec, 1, 1, spec.lam))


def test_shared_cache_is_order_independent(case_study):
    spec = dataclasses.replace(case_study, horizon_n=5, lam=0.6)
    config = WindowConfig(window_n=2, total_horizon=5)
    seeds = list(range(40, 52))

    def totals(order, cache=None):
        out = {}
        for seed in order:
            shared = cache if cache is not None else SolverCache(spec)
            out[seed] = run_episode(
                spec, WindowAgent(spec, config, 1, cache=shared),
                WindowAgent(spec, config, 2, cache=shared), seed).total
        return out

    in_order = totals(seeds, SolverCache(spec))
    assert totals(seeds[::-1], SolverCache(spec)) == in_order
    assert totals(seeds[::-1]) == in_order


def test_jammer_episodes_are_order_independent(case_study):
    spec = dataclasses.replace(case_study, lam=0.9, horizon_n=9)
    policy = json.loads((Path(zsbgames.__file__).parent / "data" /
                         "fixed_policy_jammer.json").read_text())["policy"]
    config = WindowConfig(window_n=3, total_horizon=9)
    seeds = list(range(6))

    def totals(order):
        cache = SolverCache(spec)
        return {seed: run_episode(
            spec, WindowAgent(spec, config, 1, cache=cache),
            FixedPolicyAgent(spec, 2, policy), seed).total for seed in order}

    assert totals(seeds[::-1]) == totals(seeds)


def _solve_dual(spec, kind, root, vector, n, template):
    if kind == 1:
        return solve_dual1(spec, vector, root, n, spec.lam, template=template)
    return solve_dual2(spec, root, vector, n, spec.lam, template=template)


def _random_statistic(rng, spec, kind):
    owner = spec.side(3 - kind)
    return (rng.dirichlet(np.ones(owner.num_states)),
            rng.uniform(-20.0, 0.0, owner.num_opp_states))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_warm_dual_solves_match_cold_ones(n):
    rng = np.random.default_rng(300 + n)
    for _ in range(2):
        spec = random_spec(rng, num_k=int(rng.integers(2, 4)),
                           num_l=int(rng.integers(2, 4)), lam=0.8)
        for kind in (1, 2):
            template = dual_template(spec, kind, n, spec.lam)
            for _ in range(3):
                root, vector = _random_statistic(rng, spec, kind)
                _solve_dual(spec, kind, root, vector, n, template)
                lp = template.lp_at(root, vector)
                assert lp.basis is not None
                kwargs = dict(A_ub=lp.a_ub, b_ub=lp.b_ub, A_eq=lp.a_eq,
                              b_eq=lp.b_eq, bounds=lp.bounds)
                warm = lp_core.linprog(lp.c, basis=lp.basis, **kwargs)
                cold = lp_core.linprog(lp.c, **kwargs)
                assert warm.status == cold.status == 0
                assert abs(warm.fun - cold.fun) <= 1e-9


@pytest.mark.parametrize("kind", [1, 2])
def test_dual_result_is_independent_of_solve_order(kind):
    rng = np.random.default_rng(7 + kind)
    spec = random_spec(rng, num_k=3, num_l=2, lam=0.8)
    stats = [_random_statistic(rng, spec, kind) for _ in range(6)]
    first = _solve_dual(spec, kind, *stats[-1], 3,
                        dual_template(spec, kind, 3, spec.lam))
    template = dual_template(spec, kind, 3, spec.lam)
    for stat in stats[:-1]:
        _solve_dual(spec, kind, *stat, 3, template)
    later = _solve_dual(spec, kind, *stats[-1], 3, template)
    _same_dual(later, first)
    assert later.plan.values.keys() == first.plan.values.keys()
    assert (np.array(list(later.plan.values.values())).tobytes()
            == np.array(list(first.plan.values.values())).tobytes())
