"""Byte-level pins of the case-study LPs and of what is read off them.

Each LP test stops `lp_core.linprog` at its first call (for a dual LP,
its first call warm-started from the template's reference basis; the
reference LP solved cold before it is pinned on its own) and hashes every
array it was given, so a change anywhere between the history ids and
HiGHS (sequence system, row blocks, sign handling, sparse assembly) shows
up even where all values agree to the last digit but one, or only in the
sign of a zero. The solve tests hash the best-response roots and payoff
map and the strategy table, and the play tests hash the results CSV of
seeded window-play batches; these depend on HiGHS's output and hence on
its build (they were computed with the HiGHS bundled with scipy 1.17.1
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
from zsbgames.window_agent import FIXED_N, REMAINING_WINDOW

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
        "d0c25916fec5f3a718760f3281c6333624c461eb647d615a64079136e1990c5f",
    "dual2-n2":
        "085512a90b7604c9c438078efe690a1c04f973aad41418fdebc2fd24ac09ff48",
    "dual1-n2-reference":
        "957abb39a82a5f829b45cce3c24d3692695c18fd3d77504ee66e206412ea297c",
    "dual2-n2-reference":
        "5327e5f050ede50421a8b6961c11c331bfd2da3e810e72235a6226730c4209c0",
    "update1-n2":
        "b336ae290b3ccfbb11307e9317ba626260928080708fdf4407025c23893cbdbc",
    "update2-n2":
        "c9307533159c93791dc8277a8b361d9aa70a1c3e4416b667ed6efa60d8df504c",
}

SOLVE_DIGESTS = {
    "n3-side1":
        "d8fcdb489d5800f991732ee65df43037ff5fdf6ebb4f4c0d5616678da8644c19",
    "n3-side2":
        "4c6726bf9205670f8d03344eab3042b848ffd9a7d5ace3283d79a655ac226a40",
}

PLAY_DIGESTS = {
    "duel-200":
        "71843677ac63fd288f927020077c0def16d5266039cfd81148dee9260e5623bc",
    "jammer-3":
        "8c2e999cbf4e7a135f0a3415ec0e1994a5d560a9611ea27b828fa4c71cd3ec45",
    "remaining-window-50":
        "c72a0027c55229756c95e1e4088d2bf9f963084e7b5e49673ebf8a7de73b0a66",
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
    calls["dual1-n2"] = lambda: solve_dual1(spec, MU, spec.q0, 2, lam)
    calls["dual2-n2"] = lambda: solve_dual2(spec, spec.p0, NU, 2, lam)
    for kind in (1, 2):
        calls[f"dual{kind}-n2-reference"] = calls[f"dual{kind}-n2"]
    calls["update1-n2"] = lambda: update_mu(spec, MU, spec.q0, Y_STAR, 1, 0,
                                            2, lam)
    calls["update2-n2"] = lambda: update_nu(spec, NU, spec.p0, X_STAR, 0, 1,
                                            2, lam)
    return calls


@pytest.mark.parametrize("name", sorted(LP_DIGESTS))
def test_highs_input_digest(case_study, monkeypatch, name):
    call = _lp_calls(case_study)[name]
    warm = name in ("dual1-n2", "dual2-n2")
    assert _first_lp_digest(monkeypatch, call, warm) == LP_DIGESTS[name]


@pytest.mark.parametrize("side", [1, 2])
def test_best_response_and_strategy_digest(case_study, side):
    spec, n = case_study, 3
    res = solve_primal(spec, spec.p0, spec.q0, n, spec.lam, side)
    vs_plan = best_response_vs_p1 if side == 1 else best_response_vs_p2
    br = vs_plan(spec, res.plan, spec.q0 if side == 1 else spec.p0, n,
                 spec.lam)
    keys = sorted(res.strategy.table)
    digest = _digest(
        br.roots, np.array(res.plan.index.keys(3 - side, n)),
        np.concatenate(br.values),
        np.array(keys), np.stack([res.strategy.table[k] for k in keys]))
    assert digest == SOLVE_DIGESTS[f"n{n}-side{side}"]


# name -> (lambda, N, n, update horizon mode, player 2, episodes)
PLAY_BATCHES = {
    "duel-200": (0.6, 8, 2, FIXED_N, "window", 200),
    "jammer-3": (0.9, 12, 3, FIXED_N, "jammer", 3),
    "remaining-window-50": (0.6, 7, 3, REMAINING_WINDOW, "window", 50),
}


@pytest.mark.parametrize("name", sorted(PLAY_DIGESTS))
def test_play_digest(case_study, name):
    """Window play on one shared cache, seeds 0.., hashed as written."""
    lam, horizon, window_n, mode, player2, runs = PLAY_BATCHES[name]
    game = dataclasses.replace(case_study, lam=lam, horizon_n=horizon)
    config = WindowConfig(window_n, horizon, mode)
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
    assert (hashlib.sha256(buf.getvalue().encode()).hexdigest()
            == PLAY_DIGESTS[name])
