import dataclasses
import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp

from zsbgames import (NumericalError, SolverError, load_case_study, lp_core,
                      solve_dual1, solve_dual2, solve_primal)
from zsbgames.dual_solver import dual_template
from zsbgames.lp_core import LpBuilder


def _knapsack_lp():
    # max 3x + 2y  s.t.  x + y <= 4, x <= 3, x, y >= 0  -> (3, 1), value 11
    b = LpBuilder()
    x = b.new_var(lower=0.0)
    y = b.new_var(lower=0.0)
    b.add_rows("<=", [4.0, 3.0], [([0, 0, 1], [x, y, x], 1.0)])
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
    b.add_rows("=", [1.0], [(0, [x, y], 1.0)])
    b.add_rows(">=", [0.0], [(0, [x, y], [1.0, -1.0])])
    sol = lp_core.solve(b.build(lp_core.MIN, {x: 2.0, y: 1.0}))
    assert sol.objective_value == pytest.approx(1.5, abs=1e-9)


def test_infeasible_status():
    b = LpBuilder()
    x = b.new_var(lower=0.0)
    b.add_rows("<=", [-1.0], [(0, x, 1.0)])
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
    coeffs[x] = coeffs[x] + 1.0          # accumulate before add_rows
    b.add_rows("<=", [4.0], [(0, list(coeffs), list(coeffs.values()))])
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
    b.add_rows("<=", [4.0], [(0, [x, y], [1.0, 2.0])])
    b.add_rows(">=", [-2.0], [(0, [x, y, z], [1.0, 0.0, -1.0])])
    b.add_rows("=", [1.0], [(0, [y, z], 1.0)])
    lp = b.build(lp_core.MAX, {x: 1.0, y: 0.0, z: 0.5})
    # max LP: c negated; >= row: coefficients and rhs negated; 0.0 dropped
    assert lp.c.tolist() == [-1.0, 0.0, -0.5]
    # a_ub is [[1, 2, 0], [-1, 0, 1]] and a_eq [[0, 1, 1]], in CSR form
    assert lp.a_ub.shape == (2, 3) and lp.a_eq.shape == (1, 3)
    assert lp.a_ub.indptr.tolist() == [0, 2, 4]
    assert lp.a_ub.indices.tolist() == [0, 1, 0, 2]
    assert lp.a_ub.data.tolist() == [1.0, 2.0, -1.0, 1.0]
    assert lp.a_ub.nnz == 4
    assert lp.b_ub.tolist() == [4.0, 2.0]
    assert lp.a_eq.indptr.tolist() == [0, 2]
    assert lp.a_eq.indices.tolist() == [1, 2]
    assert lp.a_eq.data.tolist() == [1.0, 1.0]
    # int32 indices, as scipy chooses for matrices of this size
    for mat in (lp.a_ub, lp.a_eq):
        assert mat.indptr.dtype == mat.indices.dtype == np.int32
    assert lp.b_eq.tolist() == [1.0]
    assert lp.bounds.tolist() == [[0.0, math.inf], [-1.0, 2.5],
                                  [-math.inf, math.inf]]
    assert lp.rels == ["<=", ">=", "="]
    assert lp.slots.tolist() == [0, 1, 0]

    patched = lp_core.RhsRows(lp, [1, 2]).copy_of(lp, [3.0, 0.5])
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


@pytest.mark.parametrize("indptr, indices, data, shape", [
    pytest.param([0, 2], [0], [1.0], (1, 2), id="indptr past nnz"),
    pytest.param([1, 1], [0], [1.0], (1, 2), id="indptr not from 0"),
    pytest.param([0, 1, 1], [0], [1.0], (1, 2), id="indptr too long"),
    pytest.param([0, 2, 1, 2], [0, 1], [1.0, 1.0], (3, 2),
                 id="indptr decreasing"),
    pytest.param(np.array([0, 2, 1, 2], np.uint32), [0, 1], [1.0, 1.0], (3, 2),
                 id="unsigned indptr decreasing"),
    pytest.param([0.0, 1.0], [0], [1.0], (1, 2), id="float indptr"),
    pytest.param([0, 1], [0.0], [1.0], (1, 2), id="float indices"),
    pytest.param([0, 2], [1, 0], [1.0, 1.0], (1, 2), id="unsorted"),
    pytest.param([0, 2], [1, 1], [1.0, 1.0], (1, 2), id="duplicate"),
    pytest.param([0, 1], [2], [1.0], (1, 2), id="index past end"),
    pytest.param([0, 1], [-1], [1.0], (1, 2), id="negative index"),
    pytest.param([0, 1], [0], [np.nan], (1, 2), id="nan"),
    pytest.param([0, 1], [0], [np.inf], (1, 2), id="inf"),
    pytest.param([0, 1], [0], [1.0, 2.0], (1, 2), id="data past nnz"),
    pytest.param([0, 1], [0], ["1.0"], (1, 2), id="string data"),
])
def test_malformed_record_raises_at_construction(indptr, indices, data, shape):
    with pytest.raises(ValueError):
        lp_core.CsrMatrix(np.array(indptr), np.array(indices), np.array(data),
                          shape)


def test_records_are_read_only():
    """A record's arrays cannot be written: `LpBuilder.build`'s matrices
    are frozen in place, and a record built from views or lists holds
    copies, so writing the source cannot reach it."""
    lp, x, y = _knapsack_lp()
    with pytest.raises(ValueError):
        lp.a_ub.data[0] = math.nan
    with pytest.raises(dataclasses.FrozenInstanceError):
        lp.a_ub.data = np.array([math.nan, 1.0, 1.0])
    data = np.array([1.0, 2.0, 3.0, 4.0])
    # dense rows [2, 3], [0, 0] and [0, 4]: an empty row, and a column
    # that comes again in a later row
    mat = lp_core.CsrMatrix([0, 2, 2, 3], np.array([0, 1, 1], dtype=np.int32),
                            data[1:], (3, 2))
    assert mat.data is not data and mat.data.base is None
    assert not np.shares_memory(mat.data, data)
    data[1] = math.nan
    assert mat.data.tolist() == [2.0, 3.0, 4.0]
    for arr in (mat.indptr, mat.indices, mat.data):
        assert not arr.flags.writeable
    indices = np.array([0, 1, 1], dtype=np.int32)
    assert lp_core.CsrMatrix(np.array([0, 2, 3]), indices, np.ones(3),
                             (2, 2)).indices is indices
    assert not indices.flags.writeable


_THREE_COLS = lp_core.CsrMatrix(np.zeros(1, np.int32), np.zeros(0, np.int32),
                                np.zeros(0), (0, 3))        # no rows


@pytest.mark.parametrize("name, value", [
    pytest.param("A_ub", np.array([[1.0, 1.0], [1.0, 0.0]]), id="dense"),
    pytest.param("A_ub", sp.csr_matrix(np.array([[1.0, 1.0], [1.0, 0.0]])),
                 id="scipy CSR"),
    pytest.param("A_eq", _THREE_COLS, id="wrong width"),
    pytest.param("A_eq", None, id="None"),
])
def test_linprog_takes_only_records_of_its_width(name, value):
    lp, x, y = _knapsack_lp()
    kwargs = dict(bounds=lp.bounds, A_ub=lp.a_ub, b_ub=lp.b_ub, A_eq=lp.a_eq,
                  b_eq=lp.b_eq)
    assert lp_core.linprog(lp.c, **kwargs).status == 0
    with pytest.raises(ValueError, match="CsrMatrix records"):
        lp_core.linprog(lp.c, **{**kwargs, name: value})


def test_empty_blocks_are_zero_row_csr():
    """A block without rows compiles as a 0-row CSR matrix."""
    lp, x, y = _knapsack_lp()
    assert lp.a_eq.indptr.tolist() == [0] and lp.a_eq.shape == (0, 2)
    assert lp.b_eq.shape == (0,)
    b = LpBuilder()
    x, y = b.new_var(lower=0.0), b.new_var(lower=0.0)
    b.add_rows("=", [1.0], [(0, [x, y], 1.0)])
    lp = b.build(lp_core.MAX, {x: 1.0})
    assert lp.a_ub.indptr.tolist() == [0] and lp.a_ub.shape == (0, 2)
    assert lp_core.solve(lp).objective_value == pytest.approx(1.0, abs=1e-9)


def test_solution_deterministic():
    lp, _, _ = _knapsack_lp()
    a = lp_core.solve(lp)
    b = lp_core.solve(lp)
    assert np.array_equal(a.primal, b.primal)


def _warm_dual_fingerprint():
    """x, objective, iterations and basis statuses of a case-study dual-2
    LP at n=3, warm-started from its template's reference basis."""
    spec = load_case_study()
    template = dual_template(spec, 2, 3, spec.lam)
    ref = lp_core.solve(template.lp_at(spec.p0, np.zeros(spec.num_l)))
    lp = template.lp_at(np.array([0.1, 0.1, 0.8]), np.array([-100.0, -50.0]))
    res = lp_core.linprog(lp.c, bounds=lp.bounds, A_ub=lp.a_ub, b_ub=lp.b_ub,
                          A_eq=lp.a_eq, b_eq=lp.b_eq, basis=ref.basis)
    return [hashlib.sha256(res.x.tobytes()).hexdigest(), res.fun.hex(),
            res.nit, [int(s) for s in res.basis.col_status],
            [int(s) for s in res.basis.row_status]]


def _python(code, *args):
    """stdout of `code` run by a fresh interpreter that imports the
    package from the tree under test."""
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join([str(Path(lp_core.__file__).parents[1]),
                                          os.environ.get("PYTHONPATH", "")])}
    return subprocess.run([sys.executable, "-c", code, *args], env=env,
                          capture_output=True, text=True, check=True).stdout


def test_warm_solve_repeats_after_other_solves(case_study):
    """The same warm-started dual LP, solved alone in a fresh process and
    here after other cold and warm LPs, gives the same bytes of x, the same
    objective and iteration count and the same basis."""
    alone = json.loads(_python(
        "import json, sys; sys.path.insert(0, sys.argv[1]); "
        "from test_lp_core import _warm_dual_fingerprint; "
        "print(json.dumps(_warm_dual_fingerprint()))", str(Path(__file__).parent)))
    spec = case_study
    solve_primal(spec, spec.p0, spec.q0, 2, spec.lam, 1)
    template = dual_template(spec, 1, 3, spec.lam)
    for mu in ([-120.0, -60.0, -10.0], [-90.0, -90.0, -30.0]):
        solve_dual1(spec, np.array(mu), spec.q0, 3, spec.lam, template)
    solve_dual2(spec, spec.p0, np.array([-80.0, -40.0]), 3, spec.lam)
    again = _warm_dual_fingerprint()
    assert again == alone
    assert again[2] > 0                 # the warm start still pivots


def test_family_copies_still_check_their_right_hand_sides():
    """An LP family's c and bounds are checked on the solve that makes its
    kept model and not again for its copies; a copy's b_ub and b_eq are
    checked on every solve, and a c or bounds that is not the family's own
    array is checked in full."""
    lp, x, y = _knapsack_lp()
    copy = lp_core.RhsRows(lp, [0]).copy_of(lp, [5.0])
    assert lp_core.solve(copy).objective_value == pytest.approx(13.0, abs=1e-9)
    parts = dict(bounds=copy.bounds, A_ub=copy.a_ub, A_eq=copy.a_eq,
                 b_eq=copy.b_eq)
    for b_ub in ([math.nan, 3.0], [5.0]):
        with pytest.raises(ValueError, match="b_ub"):
            lp_core.linprog(copy.c, b_ub=np.array(b_ub), **parts)
    flipped = copy.bounds.copy()
    flipped[0] = [1.0, 0.0]
    with pytest.raises(ValueError, match="lower bound"):
        lp_core.linprog(copy.c, b_ub=copy.b_ub, **{**parts, "bounds": flipped})
    with pytest.raises(ValueError, match="finite"):
        lp_core.linprog(np.array([math.nan, 1.0]), b_ub=copy.b_ub, **parts)
    assert lp_core.solve(copy).objective_value == pytest.approx(13.0, abs=1e-9)


def test_columns_past_int32_raise_before_arrays_are_read():
    """2**31 columns are refused from the shapes alone: c and the bounds
    are broadcast views, which a read would expand to gigabytes."""
    num_vars = 2**31
    wide = lp_core.CsrMatrix(np.zeros(1, np.int32), np.zeros(0, np.int32),
                             np.zeros(0), (0, num_vars))
    with pytest.raises(ValueError, match="int32"):
        lp_core.linprog(np.broadcast_to(0.0, num_vars),
                        bounds=np.broadcast_to([0.0, 1.0], (num_vars, 2)),
                        A_ub=wide, b_ub=[], A_eq=wide, b_eq=[])


@pytest.mark.parametrize("count", ["rows", "nonzeros"])
def test_rows_and_nonzeros_of_both_blocks_count_against_int32(monkeypatch,
                                                              count):
    """With the limit lowered to 3, an LP whose rows (or nonzeros) over both
    blocks number 3, and only they exceed 2, solves at 3 and raises at 2."""
    b = LpBuilder()
    x, y = b.new_var(lower=0.0), b.new_var(lower=0.0)
    if count == "rows":                 # 2 + 1 rows without entries
        b.add_rows("<=", [1.0, 1.0], [])
        b.add_rows("=", [0.0], [])
    else:                               # 2 + 1 entries in 2 rows
        b.add_rows("<=", [4.0], [(0, [x, y], 1.0)])
        b.add_rows("=", [1.0], [(0, x, 1.0)])
    lp = b.build(lp_core.MIN, {x: 1.0, y: 1.0})
    kwargs = dict(bounds=lp.bounds, A_ub=lp.a_ub, b_ub=lp.b_ub, A_eq=lp.a_eq,
                  b_eq=lp.b_eq)
    monkeypatch.setattr(lp_core, "_INT32_MAX", 3)
    assert lp_core.linprog(lp.c, **kwargs).status == 0
    monkeypatch.setattr(lp_core, "_INT32_MAX", 2)
    with pytest.raises(ValueError, match="int32"):
        lp_core.linprog(lp.c, **kwargs)


def _equality_lp():
    # min 2x + y  s.t.  x + y = 1, x - y >= 0, x, y >= 0  -> (0.5, 0.5)
    b = LpBuilder()
    x = b.new_var(lower=0.0)
    y = b.new_var(lower=0.0)
    b.add_rows("=", [1.0], [(0, [x, y], 1.0)])
    b.add_rows(">=", [0.0], [(0, [x, y], [1.0, -1.0])])
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


IMPORT_FOOTPRINT = """
import importlib, sys
import zsbgames, zsbgames.cli
from zsbgames import lp_core
name = "scipy.optimize._highspy._core"
print(sys.modules[name] is lp_core.highs, sorted(
    m for m in sys.modules
    if m.split(".")[0] == "scipy" and not m.startswith(name)))
import scipy.optimize
print(importlib.import_module("scipy.optimize._highspy._core") is lp_core.highs,
      scipy.optimize._highspy._highs_wrapper._h is lp_core.highs)
res = scipy.optimize.linprog([1.0, 2.0], A_ub=[[-1.0, -1.0]], b_ub=[-1.0],
                             method="highs")
print(res.status, res.fun)
"""


def test_import_loads_highs_alone():
    """In a fresh process, the package and its CLI load scipy's HiGHS
    extension module and no other scipy module. A later `import
    scipy.optimize` finds that module under its name in `sys.modules` (the
    import system sets the package attribute only on a fresh load, so the
    check imports the name) and its linprog still solves."""
    out = _python(IMPORT_FOOTPRINT)
    assert out.splitlines() == ["True []", "True True", "0 1.0"]
