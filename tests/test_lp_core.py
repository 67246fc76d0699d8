import math

import numpy as np
import pytest

from zsbgames import NumericalError, SolverError, lp_core
from zsbgames.lp_core import LpBuilder


def _knapsack_lp():
    # max 3x + 2y  s.t.  x + y <= 4, x <= 3, x, y >= 0  -> (3, 1), value 11
    b = LpBuilder()
    x = b.new_var(lower=0.0)
    y = b.new_var(lower=0.0)
    b.add_row({x: 1.0, y: 1.0}, "<=", 4.0)
    b.add_row({x: 1.0}, "<=", 3.0)
    return b.build(lp_core.MAX, {x: 3.0, y: 2.0}), x, y


def test_solve_max_sense():
    lp, x, y = _knapsack_lp()
    sol = lp_core.solve(lp)
    assert sol.objective_value == pytest.approx(11.0, abs=1e-9)
    assert sol.primal[x] == pytest.approx(3.0, abs=1e-9)
    assert sol.primal[y] == pytest.approx(1.0, abs=1e-9)


def test_solve_min_with_equality():
    b = LpBuilder()
    x = b.new_var(lower=0.0)
    y = b.new_var(lower=0.0)
    b.add_row({x: 1.0, y: 1.0}, "=", 1.0)
    b.add_row({x: 1.0, y: -1.0}, ">=", 0.0)
    sol = lp_core.solve(b.build(lp_core.MIN, {x: 2.0, y: 1.0}))
    assert sol.objective_value == pytest.approx(1.5, abs=1e-9)


def test_infeasible_status():
    b = LpBuilder()
    x = b.new_var(lower=0.0)
    b.add_row({x: 1.0}, "<=", -1.0)
    with pytest.raises(SolverError, match="LP is infeasible"):
        lp_core.solve(b.build(lp_core.MIN, {x: 1.0}))


def test_unbounded_status():
    b = LpBuilder()
    x = b.new_var()
    with pytest.raises(SolverError, match="LP is unbounded"):
        lp_core.solve(b.build(lp_core.MAX, {x: 1.0}))


def test_duplicate_coefficients_merge():
    b = LpBuilder()
    x = b.new_var(lower=0.0)
    coeffs = {x: 1.0}
    coeffs[x] = coeffs[x] + 1.0          # accumulate before add_row
    b.add_row(coeffs, "<=", 4.0)
    sol = lp_core.solve(b.build(lp_core.MAX, {x: 1.0}))
    assert sol.objective_value == pytest.approx(2.0, abs=1e-9)


def test_write_lp_text(tmp_path):
    lp, _, _ = _knapsack_lp()
    path = tmp_path / "model.lp"
    lp_core.write_lp_text(lp, path)
    assert path.read_text() == """\
Maximize
 obj: + 3 x0 + 2 x1
Subject To
 r0: + 1 x0 + 1 x1 <= 4
 r1: + 1 x0 <= 3
Bounds
 0 <= x0 <= +inf
 0 <= x1 <= +inf
End
"""


def test_build_compiles_rows_into_arrays(tmp_path):
    b = LpBuilder()
    x = b.new_var(lower=0.0)
    y = b.new_var(lower=-1.0, upper=2.5)
    z = b.new_var()
    b.add_row({x: 1.0, y: 2.0}, "<=", 4.0)
    b.add_row({x: 1.0, y: 0.0, z: -1.0}, ">=", -2.0)
    b.add_row({y: 1.0, z: 1.0}, "=", 1.0)
    lp = b.build(lp_core.MAX, {x: 1.0, y: 0.0, z: 0.5})
    # max LP: c negated; >= row: coefficients and rhs negated; 0.0 dropped
    assert lp.c.tolist() == [-1.0, 0.0, -0.5]
    assert lp.a_ub.toarray().tolist() == [[1.0, 2.0, 0.0], [-1.0, 0.0, 1.0]]
    assert lp.a_ub.nnz == 4
    assert lp.b_ub.tolist() == [4.0, 2.0]
    assert lp.a_eq.toarray().tolist() == [[0.0, 1.0, 1.0]]
    assert lp.b_eq.tolist() == [1.0]
    assert lp.bounds.tolist() == [[0.0, math.inf], [-1.0, 2.5],
                                  [-math.inf, math.inf]]
    assert lp.rels == ["<=", ">=", "="]
    assert lp.slots.tolist() == [0, 1, 0]

    patched = lp.with_rhs([1, 2], [3.0, 0.5])
    assert patched.b_ub.tolist() == [4.0, -3.0]
    assert patched.b_eq.tolist() == [0.5]
    assert patched.a_ub is lp.a_ub and patched.a_eq is lp.a_eq
    assert lp.b_ub.tolist() == [4.0, 2.0]

    # the dump shows each row as it was added
    path = tmp_path / "model.lp"
    lp_core.write_lp_text(lp, path)
    assert path.read_text() == """\
Maximize
 obj: + 1 x0 + 0.5 x2
Subject To
 r0: + 1 x0 + 2 x1 <= 4
 r1: + 1 x0 - 1 x2 >= -2
 r2: + 1 x1 + 1 x2 = 1
Bounds
 0 <= x0 <= +inf
 -1 <= x1 <= 2.5
 -inf <= x2 <= +inf
End
"""


def test_empty_blocks_are_zero_row_csr():
    """A block without rows compiles as a 0-row CSR matrix, to which
    `with_rhs` appends rows as to any other."""
    lp, x, y = _knapsack_lp()
    assert lp.a_eq.format == "csr" and lp.a_eq.shape == (0, 2)
    assert lp.b_eq.shape == (0,)
    b = LpBuilder()
    x, y = b.new_var(lower=0.0), b.new_var(lower=0.0)
    b.add_row({x: 1.0, y: 1.0}, "=", 1.0)
    lp = b.build(lp_core.MAX, {x: 1.0})
    assert lp.a_ub.format == "csr" and lp.a_ub.shape == (0, 2)
    # x >= 0.25 + 0.5 y and x <= 0.5 (0.0 dropped): optimum x = 0.5
    patched = lp.with_rhs([], [], extra=(">=", np.array([[x, y], [x, y]]),
                                         np.array([[1.0, -0.5], [-1.0, 0.0]]),
                                         np.array([0.25, -0.5])))
    assert patched.a_ub.toarray().tolist() == [[-1.0, 0.5], [1.0, 0.0]]
    assert patched.b_ub.tolist() == [-0.25, 0.5]
    sol = lp_core.solve(patched)
    assert sol.objective_value == pytest.approx(0.5, abs=1e-9)


def test_solution_deterministic():
    lp, _, _ = _knapsack_lp()
    a = lp_core.solve(lp)
    b = lp_core.solve(lp)
    assert np.array_equal(a.primal, b.primal)


def _equality_lp():
    # min 2x + y  s.t.  x + y = 1, x - y >= 0, x, y >= 0  -> (0.5, 0.5)
    b = LpBuilder()
    x = b.new_var(lower=0.0)
    y = b.new_var(lower=0.0)
    b.add_row({x: 1.0, y: 1.0}, "=", 1.0)
    b.add_row({x: 1.0, y: -1.0}, ">=", 0.0)
    return b.build(lp_core.MIN, {x: 2.0, y: 1.0})


def _shifted_reader(monkeypatch, col_shift, row_shift):
    """Make lp_core read HiGHS's solution moved by the given offsets."""
    real = lp_core._solution

    def shifted(model):
        x, rows = real(model)
        return x + col_shift, rows + row_shift
    monkeypatch.setattr(lp_core, "_solution", shifted)


@pytest.mark.parametrize("make_lp, col_shift, row_shift", [
    (lambda: _knapsack_lp()[0], [0.0, 0.0], [1e-3, 0.0]),  # x + y <= 4
    (_equality_lp, [0.0, 0.0], [0.0, 1e-3]),                # x + y = 1
    (_equality_lp, [-0.501, 0.0], [0.0, 0.0]),              # x >= 0
    (_equality_lp, [np.nan, 0.0], [0.0, 0.0]),
])
def test_uncertified_point_raises(monkeypatch, make_lp, col_shift, row_shift):
    _shifted_reader(monkeypatch, np.array(col_shift), np.array(row_shift))
    with pytest.raises(NumericalError, match="status=4"):
        lp_core.solve(make_lp())


def test_point_within_tolerance_is_accepted(monkeypatch):
    _shifted_reader(monkeypatch, 0.0, np.array([0.5 * lp_core.CERT_TOL, 0.0]))
    lp_core.solve(_equality_lp())


@pytest.mark.parametrize("changes, status", [
    (dict(time_limit=0.0), "Time limit reached"),
    (dict(presolve="off", simplex_iteration_limit=0), "Iteration limit reached"),
])
def test_limit_raises_with_model_status(monkeypatch, changes, status):
    for name, value in changes.items():
        monkeypatch.setattr(lp_core._OPTIONS, name, value)
    with pytest.raises(NumericalError, match=f"status=1 .*{status}"):
        lp_core.solve(_knapsack_lp()[0])
