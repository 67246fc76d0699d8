"""Byte-level pins of the case-study LPs and of what is read off them.

Each LP test stops `lp_core.linprog` at its first call (for a dual LP,
its first call warm-started from the template's reference basis; the
reference LP solved cold before it is pinned on its own; for a side-1
primal, its first warm call, after the cold side-2 LP) and hashes every
array it was given, so a change anywhere between the history ids and
HiGHS (sequence system, row blocks, sign handling, sparse assembly) shows
up even where all values agree to the last digit but one, or only in the
sign of a zero. The solve tests hash the best-response roots and payoff
map and the strategy table, the dual tests every array of a dual result
and of a window node's read-out, and the play tests hash the results CSV
of seeded window-play batches and count their HiGHS runs; these depend on
HiGHS's output and hence on its build (they were computed with the HiGHS bundled with scipy 1.17.1
on x86-64).
"""

import dataclasses
import hashlib
import io
import json
from pathlib import Path

import numpy as np
import pytest

import zsbgames
from zsbgames import (FixedPolicyAgent, SolverCache, WindowAgent,
                      WindowConfig, best_response_vs_p1, best_response_vs_p2,
                      lp_core, run_monte_carlo, solve_dual1, solve_dual2,
                      solve_primal, update_mu, update_nu)
from zsbgames.simulator import write_results_csv

from conftest import random_spec

MU = np.array([-120.0, -60.0, -10.0])        # over player 1's states
NU = np.array([-100.0, -50.0])               # over player 2's states
Y_STAR = np.array([[0.25, 0.5], [0.75, 0.5]])
X_STAR = np.array([[0.5, 0.2, 1.0], [0.5, 0.8, 0.0]])

LP_DIGESTS = {
    "primal-n3-side1":
        "a6e838c453711c0a2732b4235da7c16c473ca7045aaaa2e5d408ecc22a5711e0",
    "primal-n3-side2":
        "8bb3129d26af22b000d99827a21cebf541c71f42d58a482814001152ae00dbc2",
    "primal-n4-side1":
        "0c51542a283d83c5c7a46af4197821b5b9000a0dd9f86422d645df6b75ace34c",
    "primal-n4-side2":
        "ac91e604df0875f1c90e7b172dcb9c8970d9ee575391b23556688e2e09873b77",
    "dual1-n2":
        "5a7d62ce9f469fd398bc771ff9da0dc95bb5ce96fefeead625fc021721283a57",
    "dual2-n2":
        "554d33e5f3c965b6fa4296e254dc3df990018527aa741a595a17c68eefa5b708",
    "dual1-n2-reference":
        "c35edc0682cd63bd043a72abee2495bc6127dc324bdbde701599e1814b66e7c8",
    "dual2-n2-reference":
        "a1debbdefeb49d97309f844717e975d8a6d170c9831c09338f1622be9cd4a1b5",
    "update1-n2":
        "b336ae290b3ccfbb11307e9317ba626260928080708fdf4407025c23893cbdbc",
    "update2-n2":
        "c9307533159c93791dc8277a8b361d9aa70a1c3e4416b667ed6efa60d8df504c",
    "dual1-n3":
        "23ff4dd4ac63ceebb51fea1876eabf4c58f9084a98d50df73ef7dbf6659ea0c6",
    "dual2-n3":
        "e50d5ff4449f3d3931ad014ba0d13f5ebf6bd43d4268d0f43cfb8cbfd0d54b8c",
    "update1-n3":
        "f3ff5a88a492a67e30e9740e6cbd1bb9bdda26ff0db8f4287f6b2261e151629f",
    "update2-n3":
        "79a6481db9796955956295b552422cf9f220538189e93d247242eacc3651cbbb",
}

SOLVE_DIGESTS = {
    # side 1's plan as read off its LP warm-started from side 2's basis
    "n3-side1":
        "30554eed7fa295e084587ccb03308088ba814c838999f2231273f86730c2a236",
    "n3-side2":
        "4c6726bf9205670f8d03344eab3042b848ffd9a7d5ace3283d79a655ac226a40",
}

# value, plan, picker's response and strategy of a dual solve at MU / NU;
# the read-out hashes `SolverCache._read_out` of both kinds at n=2
DUAL_DIGESTS = {
    "dual1-n2":
        "83e246c5a27b4f451c1c35605aa80c49a5d49e726848b1f9fc9b25197387e09b",
    "dual1-n3":
        "9e0281ba9b35c46e4490e373ad0750653689dd05f5c0dda35fd487fa5e33239e",
    "dual2-n2":
        "706e732bb1f77fa282e489efaf72215204b48c8fd0bcd22caff5ce9d7c00542f",
    "dual2-n3":
        "381ee3413040e8e1780a2d078e125b66d238016170ae65a1f2428c1ec45ef0d8",
    "read-out-n2":
        "c9832a5671e55a882609ce62f1063eeac48458710f4c024dae4c8154df6fd2a5",
}

PLAY_DIGESTS = {
    "duel-200":
        "6b8908a2a18227f9d8bb37c3fc834cb770d0e14bcdf501864fc426daef7f881a",
    "jammer-3":
        "8c2e999cbf4e7a135f0a3415ec0e1994a5d560a9611ea27b828fa4c71cd3ec45",
    "degenerate-duel-20":
        "dd144954a3da6bd8f7314cf2b3f64c704008fff786ef1aabada4c8147083bc06",
}


class _Stop(Exception):
    pass


def _digest(*arrays) -> str:
    h = hashlib.sha256()
    for arr in arrays:
        arr = np.ascontiguousarray(arr)
        h.update(f"{arr.dtype.str}{arr.shape}".encode())
        h.update(arr.tobytes())
    return h.hexdigest()


def _first_lp_digest(monkeypatch, call, warm=False) -> str:
    seen = []
    real = lp_core.linprog

    def stop(c, *, bounds, A_ub=None, b_ub=None, A_eq=None, b_eq=None,
             basis=None):
        if warm and basis is None:
            return real(c, bounds=bounds, A_ub=A_ub, b_ub=b_ub, A_eq=A_eq,
                        b_eq=b_eq)
        seen.append(_digest(
            c, A_ub.data, A_ub.indices, A_ub.indptr, b_ub,
            A_eq.data, A_eq.indices, A_eq.indptr, b_eq, bounds))
        raise _Stop

    monkeypatch.setattr(lp_core, "linprog", stop)
    with pytest.raises(_Stop):
        call()
    return seen[0]


def _lp_calls(spec):
    lam = spec.lam
    calls = {}
    for n in (3, 4):
        for side in (1, 2):
            calls[f"primal-n{n}-side{side}"] = (
                lambda n=n, side=side:
                solve_primal(spec, spec.p0, spec.q0, n, lam, side))
    for n in (2, 3):
        calls[f"dual1-n{n}"] = (
            lambda n=n: solve_dual1(spec, MU, spec.q0, n, lam))
        calls[f"dual2-n{n}"] = (
            lambda n=n: solve_dual2(spec, spec.p0, NU, n, lam))
        calls[f"update1-n{n}"] = (
            lambda n=n: update_mu(spec, MU, spec.q0, Y_STAR, 1, 0, n, lam))
        calls[f"update2-n{n}"] = (
            lambda n=n: update_nu(spec, NU, spec.p0, X_STAR, 0, 1, n, lam))
    for kind in (1, 2):
        calls[f"dual{kind}-n2-reference"] = calls[f"dual{kind}-n2"]
    return calls


@pytest.mark.parametrize("name", sorted(LP_DIGESTS))
def test_highs_input_digest(case_study, monkeypatch, name):
    call = _lp_calls(case_study)[name]
    # side 1's primal solves side 2's LP cold first and then its own warm
    warm = name in ("dual1-n2", "dual2-n2", "dual1-n3", "dual2-n3",
                    "primal-n3-side1", "primal-n4-side1")
    assert _first_lp_digest(monkeypatch, call, warm) == LP_DIGESTS[name]


@pytest.mark.parametrize("side", [1, 2])
def test_best_response_and_strategy_digest(case_study, side):
    spec, n = case_study, 3
    res = solve_primal(spec, spec.p0, spec.q0, n, spec.lam, side)
    vs_plan = best_response_vs_p1 if side == 1 else best_response_vs_p2
    br = vs_plan(spec, res.plan, spec.q0 if side == 1 else spec.p0, n,
                 spec.lam)
    keys = sorted(res.strategy.table)
    # the (last state, pairs) rows tiled to full-history id order
    no = spec.side(side).num_opp_states
    digest = _digest(
        br.roots, np.array(res.plan.index.keys(3 - side, n)),
        np.concatenate([np.tile(v, no ** (t - 1))
                        for t, v in enumerate(br.values, start=1)]),
        np.array(keys), np.stack([res.strategy.table[k] for k in keys]))
    assert digest == SOLVE_DIGESTS[f"n{n}-side{side}"]


def _dual_calls(spec):
    return {f"dual{kind}-n{n}": lambda kind=kind, n=n: (
        solve_dual1(spec, MU, spec.q0, n, spec.lam) if kind == 1
        else solve_dual2(spec, spec.p0, NU, n, spec.lam))
        for kind in (1, 2) for n in (2, 3)}


@pytest.mark.parametrize("name", sorted(DUAL_DIGESTS))
def test_dual_digest(case_study, name):
    spec = case_study
    if name == "read-out-n2":
        cache = SolverCache(spec)
        digest = _digest(*(arr for kind, vec, belief in ((1, MU, spec.q0),
                                                         (2, NU, spec.p0))
                           for arr in cache._read_out(spec.side(kind), vec,
                                                      belief, 2, spec.lam)))
    else:
        res = _dual_calls(spec)[name]()
        digest = _digest(np.float64(res.value), *res.plan.values,
                         *res.response.values, *res.strategy.probs)
    assert digest == DUAL_DIGESTS[name]


# name -> (game, lambda, N, n, player 2, episodes, update LPs solved,
# `lp_core.linprog` calls); the game is the case study or, by its seed, a
# `random_spec` with one player-1 state, whose play meets degenerate pairs
PLAY_BATCHES = {
    "duel-200": ("case", 0.6, 8, 2, "window", 200, 0, 172),
    "jammer-3": ("case", 0.9, 12, 3, "jammer", 3, 0, 23),
    "degenerate-duel-20": (28, 0.9, 5, 2, "window", 20, 4, 46),
}


@pytest.mark.parametrize("name", sorted(PLAY_DIGESTS))
def test_play_digest(case_study, monkeypatch, name):
    """Window play on one shared cache, seeds 0.., hashed as written."""
    (game, lam, horizon, window_n, player2, runs, update_lps,
     highs_runs) = PLAY_BATCHES[name]
    calls = []
    real = lp_core.linprog
    monkeypatch.setattr(lp_core, "linprog", lambda *args, **kwargs: (
        calls.append(1), real(*args, **kwargs))[1])
    game = (dataclasses.replace(case_study, lam=lam, horizon_n=horizon)
            if game == "case" else
            random_spec(np.random.default_rng(game), num_k=1, num_l=2,
                        horizon=horizon, lam=lam))
    config = WindowConfig(window_n, horizon)
    cache = SolverCache(game)
    if player2 == "jammer":
        policy = json.loads((Path(zsbgames.__file__).parent / "data" /
                             "fixed_policy_jammer.json").read_text())["policy"]
        agent2 = lambda: FixedPolicyAgent(game, 2, policy)
    else:
        agent2 = lambda: WindowAgent(game, config, 2, cache=cache)
    result = run_monte_carlo(
        game, lambda: WindowAgent(game, config, 1, cache=cache), agent2,
        runs, 0)
    buf = io.StringIO()
    write_results_csv(result, buf)
    assert sum(key[-1] == "lp" for key in cache._store) == update_lps
    assert len(calls) == highs_runs
    assert (hashlib.sha256(buf.getvalue().encode()).hexdigest()
            == PLAY_DIGESTS[name])
