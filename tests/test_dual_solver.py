import dataclasses

import numpy as np
import pytest

from zsbgames import (NumericalError, best_response, load_case_study,
                      lp_core, solve_dual1, solve_dual2, solve_primal)
from zsbgames.dual_solver import dual_template
from zsbgames.history_index import HistoryIndex
from zsbgames.lp_core import LpBuilder
from zsbgames.primal_solver import add_sequence_system

from conftest import random_spec


def test_zero_value_at_optimal_vector_payoffs(rng):
    for _ in range(5):
        spec = random_spec(rng, num_k=2, num_l=3, num_a=2, num_b=2, horizon=2)
        mu = solve_primal(spec, spec.p0, spec.q0, 2, spec.lam,
                          2).initial_vector_payoff
        nu = solve_primal(spec, spec.p0, spec.q0, 2, spec.lam,
                          1).initial_vector_payoff
        assert solve_dual1(spec, mu, spec.q0, 2,
                           spec.lam).value == pytest.approx(0.0, abs=1e-7)
        assert solve_dual2(spec, spec.p0, nu, 2,
                           spec.lam).value == pytest.approx(0.0, abs=1e-7)


def test_dual1_majorizes_shifted_primal(rng):
    """w1(mu, q) >= mu . p + v(p, q) for every prior p."""
    spec = random_spec(rng, num_k=2, num_l=2, num_a=2, num_b=2, horizon=2)
    mu = -rng.uniform(0.0, 5.0, spec.num_k)
    w1 = solve_dual1(spec, mu, spec.q0, 2, spec.lam).value
    for p in ([1.0, 0.0], [0.0, 1.0], [0.5, 0.5], [0.3, 0.7]):
        p = np.asarray(p)
        shifted = float(mu @ p) + solve_primal(spec, p, spec.q0, 2,
                                               spec.lam, 1).value
        assert w1 >= shifted - 1e-7


def test_dual2_minorizes_shifted_primal(rng):
    """w2(p, nu) <= nu . q + v(p, q) for every prior q."""
    spec = random_spec(rng, num_k=2, num_l=2, num_a=2, num_b=2, horizon=2)
    nu = -rng.uniform(0.0, 5.0, spec.num_l)
    w2 = solve_dual2(spec, spec.p0, nu, 2, spec.lam).value
    for q in ([1.0, 0.0], [0.0, 1.0], [0.4, 0.6]):
        q = np.asarray(q)
        shifted = float(nu @ q) + solve_primal(spec, spec.p0, q, 2,
                                               spec.lam, 1).value
        assert w2 <= shifted + 1e-7


def test_dual_strategies_are_distributions(rng):
    spec = random_spec(rng, num_k=2, num_l=2, num_a=2, num_b=2, horizon=2)
    mu = -rng.uniform(0.0, 5.0, spec.num_k)
    d1 = solve_dual1(spec, mu, spec.q0, 2, spec.lam)
    assert d1.strategy.side == 2
    for probs in d1.strategy.table.values():
        assert np.all(probs >= -1e-9)
        assert probs.sum() == pytest.approx(1.0, abs=1e-7)
    nu = -rng.uniform(0.0, 5.0, spec.num_l)
    d2 = solve_dual2(spec, spec.p0, nu, 2, spec.lam)
    assert d2.strategy.side == 1


def _full_dual_value(spec, kind, root, vector, n):
    """The dual LP on the full-history sequence form, built row by row."""
    index = HistoryIndex(spec, n)
    builder = LpBuilder()
    _, pay, _ = add_sequence_system(builder, spec, 3 - kind, n, spec.lam,
                                    root, full=True)
    v0 = builder.new_var()
    for s, val in enumerate(vector):
        builder.add_rows("<=" if kind == 1 else ">=", [-float(val)], [
            (0, [pay[index.id_of(kind, 1, (s,), ())], v0], [1.0, -1.0])])
    lp = builder.build(lp_core.MIN if kind == 1 else lp_core.MAX, {v0: 1.0})
    return lp_core.solve(lp).objective_value


def test_compact_dual_matches_full_sequence_form():
    """The dual LPs on (last state, pairs) rows reach the full form's value."""
    rng = np.random.default_rng(41)
    for _ in range(40):
        k, l, a, b = (int(x) for x in rng.integers(1, 4, 4))
        spec = random_spec(rng, num_k=k, num_l=l, num_a=a, num_b=b,
                           lam=float(rng.choice([0.3, 0.8, 1.0])))
        n = int(rng.integers(1, 4))
        for kind in (1, 2):
            owner = spec.side(3 - kind)
            root = rng.dirichlet(np.ones(owner.num_states))
            vector = rng.uniform(-20.0, 0.0, owner.num_opp_states)
            got = (solve_dual1(spec, vector, root, n, spec.lam) if kind == 1
                   else solve_dual2(spec, root, vector, n, spec.lam))
            want = _full_dual_value(spec, kind, root, vector, n)
            assert abs(got.value - want) <= 1e-9


@pytest.mark.parametrize("kind, n, size", [
    (1, 2, (36, 43, 228)), (1, 3, (148, 171, 980)),
    (2, 2, (41, 37, 226)), (2, 3, (169, 149, 978))])
def test_case_study_dual_lp_sizes(kind, n, size):
    """Variables, rows and nonzeros of the case study's dual LPs (the full
    form's are 76/99/772 and 764/1,091/16,276 for dual 1, 97/77/770 and
    1,089/765/16,274 for dual 2)."""
    spec = load_case_study()
    lp = dual_template(spec, kind, n, spec.lam).lp
    assert (lp.num_vars, lp.b_ub.size + lp.b_eq.size,
            lp.a_ub.nnz + lp.a_eq.nnz) == size


@pytest.mark.parametrize("kind", [1, 2])
def test_dual_objective_gap_is_certified(rng, monkeypatch, kind):
    """The picker's best response to the solved plan, shifted by the vector
    payoff, must reach the LP value within CERT_TOL * max(1, |value|)."""
    spec = random_spec(rng, horizon=2)
    vector = -rng.uniform(0.0, 5.0, 2)
    root = spec.side(3 - kind).prior

    def solve():
        return (solve_dual1(spec, vector, root, 2, spec.lam) if kind == 1
                else solve_dual2(spec, root, vector, 2, spec.lam))
    value = solve().value
    name = f"best_response_vs_p{3 - kind}"
    real = getattr(best_response, name)

    def shifted(*args):
        br = real(*args)
        return dataclasses.replace(br, roots=br.roots + shift)
    monkeypatch.setattr(best_response, name, shifted)
    for factor, raises in [(0.5, False), (2.0, True)]:
        shift = factor * lp_core.CERT_TOL * max(1.0, abs(value))
        if raises:
            with pytest.raises(NumericalError, match="best-response value"):
                solve()
        else:
            assert solve().value == value


@pytest.mark.parametrize("num_mu, num_q", [(2, 2), (5, 2), (2, 3)])
def test_wrong_length_statistic_is_refused(num_mu, num_q):
    """The case study's dual-1 vector payoff has one entry per player-1
    state (3) and its belief one per player-2 state (2); patching the
    template with other counts is a ValueError, also where the two
    lengths add up to the template's 5 rows."""
    spec = load_case_study()
    with pytest.raises(ValueError):
        solve_dual1(spec, np.zeros(num_mu), np.full(num_q, 1.0 / num_q), 2,
                    spec.lam)
