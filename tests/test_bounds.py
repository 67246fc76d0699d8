import numpy as np
import pytest

from zsbgames import (CapacityError, DomainError, ValidationError,
                      oracle_value, solve_primal, window_bound)
from zsbgames.bounds import _matrix_game_value, _pure_strategy_count

from conftest import random_spec


def test_case_study_bound_value():
    assert window_bound(0.3, 2, 4, 154.4) == pytest.approx(18.0648, abs=1e-9)


def test_bound_closed_form():
    lam, n, N, g = 0.5, 2, 5, 10.0
    want = lam ** n * (1 - lam ** (N - n)) / (1 - lam) * g
    assert window_bound(lam, n, N, g) == pytest.approx(want, abs=1e-12)


def test_bound_undiscounted_limit():
    assert window_bound(1.0, 2, 6, 3.0) == pytest.approx(12.0, abs=1e-12)
    # the limit is continuous in lambda
    assert window_bound(1.0 - 1e-9, 2, 6, 3.0) == pytest.approx(12.0, abs=1e-4)


def test_bound_zero_when_window_covers_horizon():
    assert window_bound(0.7, 4, 4, 100.0) == pytest.approx(0.0, abs=1e-12)


def test_bound_domain_errors():
    with pytest.raises(DomainError):
        window_bound(0.0, 2, 4, 1.0)
    with pytest.raises(DomainError):
        window_bound(1.5, 2, 4, 1.0)
    with pytest.raises(DomainError):
        window_bound(0.5, 5, 4, 1.0)
    with pytest.raises(DomainError):
        window_bound(0.5, 2, 4, -1.0)


@pytest.mark.parametrize("g_bar", [float("nan"), float("inf")])
def test_bound_rejects_non_finite_g_bar(g_bar):
    with pytest.raises(DomainError, match="g_bar"):
        window_bound(0.5, 2, 4, g_bar)


def test_matrix_game_known_values():
    assert _matrix_game_value(np.array([[3.0]])) == pytest.approx(3.0)
    # matching pennies shifted to payoffs {0, 2}: value 1
    pennies = np.array([[2.0, 0.0], [0.0, 2.0]])
    assert _matrix_game_value(pennies) == pytest.approx(1.0, abs=1e-9)
    # saddle point at (row 0, col 0)
    saddle = np.array([[2.0, 3.0], [1.0, 4.0]])
    assert _matrix_game_value(saddle) == pytest.approx(2.0, abs=1e-9)


def test_pure_strategy_count():
    # sizes 2, n=2: 2 + 2*2*2 = 10 observation nodes, 2 actions each
    assert _pure_strategy_count(2, 2, 2, 2, 4096) == 2 ** 10
    # past the limit the count reads limit + 1, without taking the power
    assert _pure_strategy_count(2, 2, 2, 2, 2 ** 10 - 1) == 2 ** 10
    assert _pure_strategy_count(3, 2, 2, 10 ** 6, 4096) == 4097
    assert _pure_strategy_count(3, 1, 2, 10 ** 6, 4096) == 1


def test_oracle_matches_primal(rng):
    for _ in range(5):
        spec = random_spec(rng, num_k=2, num_l=2, num_a=2, num_b=2, horizon=2)
        want = solve_primal(spec, spec.p0, spec.q0, 2, spec.lam, 1).value
        got = oracle_value(spec, spec.p0, spec.q0, 2, spec.lam)
        assert got == pytest.approx(want, abs=1e-7)


def test_oracle_single_stage_matches_weighted_matrix_game(rng):
    spec = random_spec(rng, num_k=2, num_l=2, num_a=2, num_b=2, horizon=1)
    got = oracle_value(spec, spec.p0, spec.q0, 1, 1.0)
    want = solve_primal(spec, spec.p0, spec.q0, 1, 1.0, 1).value
    assert got == pytest.approx(want, abs=1e-9)


def test_oracle_capacity_cap(rng):
    spec = random_spec(rng, num_k=2, num_l=2, num_a=2, num_b=2, horizon=3)
    with pytest.raises(CapacityError):
        oracle_value(spec, spec.p0, spec.q0, 3, spec.lam)


@pytest.mark.parametrize("p,lam", [([0.9, 0.9], 0.5), ([0.5, 0.5], 3.0)],
                         ids=["belief", "lambda"])
def test_oracle_rejects_invalid_game(p, lam):
    spec = random_spec(np.random.default_rng(0), horizon=2)
    with pytest.raises(ValidationError):
        oracle_value(spec, p, spec.q0, 2, lam)
