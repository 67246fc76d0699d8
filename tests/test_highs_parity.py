"""lp_core.linprog drives scipy's bundled HiGHS directly. A cold solve
keeps scipy's options and must return exactly what
scipy.optimize.linprog(method="highs") returns for the same LP: the same x
and objective bit for bit, the same status and the same simplex iteration
count. scipy's own linprog stays the reference, so a scipy upgrade that
changes the private HiGHS API or its options shows up here. A solve
warm-started from a basis, which scipy cannot do, prices with Devex and
must give scipy's status and objective."""

import numpy as np
import pytest
import scipy.optimize
import scipy.sparse as sp

from zsbgames import (lp_core, oracle_value, solve_dual1, solve_dual2,
                      solve_primal, update_mu, update_nu)
from zsbgames.lp_core import LpBuilder

from conftest import random_spec, scipy_csr


def _assert_parity(c, kwargs):
    got = lp_core.linprog(c, **kwargs)
    cold = {k: v for k, v in kwargs.items() if k != "basis"}
    for key in ("A_ub", "A_eq"):
        cold[key] = scipy_csr(cold[key])
    want = scipy.optimize.linprog(c, method="highs", **cold)
    assert got.status == want.status
    if kwargs.get("basis") is not None:
        assert abs(got.fun - want.fun) <= 1e-9
        return
    assert got.nit == want.nit
    if want.x is None:
        assert got.x is None and got.fun is None
    else:
        assert got.x.tobytes() == np.asarray(want.x, dtype=float).tobytes()
        assert got.fun == want.fun


@pytest.fixture
def captured(monkeypatch):
    """Every (c, kwargs) that reaches lp_core.linprog while the test runs."""
    lps = []
    real = lp_core.linprog

    def record(c, **kwargs):
        lps.append((c, kwargs))
        return real(c, **kwargs)

    monkeypatch.setattr(lp_core, "linprog", record)
    return lps


@pytest.mark.parametrize("n", [1, 2, 3])
def test_solver_lps_match_scipy(n, captured, monkeypatch):
    rng = np.random.default_rng(200 + n)
    spec = random_spec(rng, num_k=3, num_l=2, num_a=2, num_b=3, lam=0.8)
    for side in (1, 2):
        solve_primal(spec, spec.p0, spec.q0, n, spec.lam, side)
    mu = rng.uniform(-20.0, 0.0, spec.num_k)
    nu = rng.uniform(-20.0, 0.0, spec.num_l)
    y_star = solve_dual1(spec, mu, spec.q0, n, spec.lam).strategy.stage1_matrix()
    x_star = solve_dual2(spec, spec.p0, nu, n, spec.lam).strategy.stage1_matrix()
    # as played, and with one action of each player at exactly zero weight
    y_pure = np.zeros_like(y_star)
    y_pure[0] = 1.0
    x_pure = np.zeros_like(x_star)
    x_pure[1] = 1.0
    for y, x in ((y_star, x_star), (y_pure, x_pure)):
        update_mu(spec, mu, spec.q0, y, 0, 2, n, spec.lam)
        update_nu(spec, nu, spec.p0, x, 1, 1, n, spec.lam)
    # side 1's primal adds side 2's, cold, before its own warm solve, and
    # each dual adds the cold solve that gives its template the basis
    assert len(captured) == 11
    assert sum(kw.get("basis") is not None for _, kw in captured) == 3
    monkeypatch.undo()
    for c, kwargs in captured:
        _assert_parity(c, kwargs)


def test_case_study_primal_matches_scipy(case_study, captured, monkeypatch):
    solve_primal(case_study, case_study.p0, case_study.q0, 3, case_study.lam, 1)
    monkeypatch.undo()
    # side 2's LP cold, then side 1's warm from the complementary basis
    assert [(c.size, kw["basis"] is None) for c, kw in captured] == [
        (763, True), (1088, False)]
    for c, kwargs in captured:
        _assert_parity(c, kwargs)


def test_highs_column_copy_is_the_stacked_rows(case_study, captured,
                                               monkeypatch):
    """HiGHS gets A_ub and A_eq as rows and builds its own column copy,
    which must be the column form of A_ub stacked on A_eq, byte for byte:
    for the n=3 primal pair that side 1 solves and for an update LP."""
    copies = []
    real = lp_core._solution

    def read(model):
        mat = model.getLp().a_matrix_
        copies.append((mat.start_, mat.index_, mat.value_))
        return real(model)
    monkeypatch.setattr(lp_core, "_solution", read)
    spec = case_study
    solve_primal(spec, spec.p0, spec.q0, 3, spec.lam, 1)
    update_mu(spec, np.array([-120.0, -60.0, -10.0]), spec.q0,
              np.array([[0.25, 0.5], [0.75, 0.5]]), 1, 0, 2, spec.lam)
    assert len(copies) == len(captured) == 3
    for (start, index, value), (_, kwargs) in zip(copies, captured):
        want = sp.vstack([scipy_csr(kwargs["A_ub"]),
                          scipy_csr(kwargs["A_eq"])]).tocsc()
        assert np.array_equal(start, want.indptr)
        assert np.array_equal(index, want.indices)
        assert np.asarray(value).tobytes() == want.data.tobytes()


def test_matrix_game_lp_matches_scipy(rng, captured, monkeypatch):
    spec = random_spec(rng, horizon=1)
    oracle_value(spec, spec.p0, spec.q0, 1, spec.lam)
    monkeypatch.undo()
    (c, kwargs), = captured
    _assert_parity(c, kwargs)


def _compiled(rows, objective, sense=lp_core.MIN, bounds=None):
    b = LpBuilder()
    for lower, upper in bounds or [(0.0, np.inf)] * 2:
        b.new_var(lower, upper)
    for coeffs, rel, rhs in rows:
        b.add_rows(rel, [rhs], [(0, list(coeffs), list(coeffs.values()))])
    lp = b.build(sense, objective)
    return lp.c, dict(A_ub=lp.a_ub, b_ub=lp.b_ub, A_eq=lp.a_eq, b_eq=lp.b_eq,
                      bounds=lp.bounds)


@pytest.mark.parametrize("rows, objective, sense, bounds, status", [
    ([({0: 1.0}, "<=", -1.0)], {0: 1.0}, lp_core.MIN, None, 2),
    ([({0: 1.0, 1: 1.0}, "=", 1.0), ({0: 1.0}, ">=", 2.0)], {0: 1.0},
     lp_core.MIN, None, 2),
    ([], {0: 1.0}, lp_core.MAX, [(-np.inf, np.inf)] * 2, 3),
    ([({0: 1.0, 1: -1.0}, "<=", 1.0)], {0: 1.0}, lp_core.MAX, None, 3),
    ([], {0: 1.0, 1: -2.0}, lp_core.MIN, [(0.0, 3.0), (-1.0, 4.0)], 0),
])
def test_edge_case_lps_match_scipy(rows, objective, sense, bounds, status):
    c, kwargs = _compiled(rows, objective, sense, bounds)
    assert lp_core.linprog(c, **kwargs).status == status
    _assert_parity(c, kwargs)


A_UB = np.array([[1, 2, 0, -1], [0, 3, 1, 0], [-2, 0, 1, 1]])
A_EQ = np.array([[1, 1, 1, 1]])


def _dense_record(dense, index_dtype, data_dtype):
    rows, cols = np.nonzero(dense)
    indptr = np.searchsorted(rows, np.arange(dense.shape[0] + 1))
    return lp_core.CsrMatrix(indptr.astype(index_dtype), cols.astype(index_dtype),
                             dense[rows, cols].astype(data_dtype), dense.shape)


@pytest.mark.parametrize("index_dtype", [np.int32, np.int64, np.uint32])
@pytest.mark.parametrize("data_dtype", [np.int64, np.float64])
@pytest.mark.parametrize("a_ub, a_eq", [
    pytest.param(A_UB, A_EQ, id="both"),
    pytest.param(A_UB[:0], A_EQ, id="no ub rows"),
    pytest.param(A_UB, A_EQ[:0], id="no eq rows"),
    pytest.param(A_UB[:0], A_EQ[:0], id="no rows"),
    pytest.param(0 * A_UB, A_EQ[:0], id="ub rows without entries"),
    pytest.param(A_UB, 0 * A_EQ, id="eq rows without entries"),
])
def test_record_dtypes_and_empty_blocks_match_scipy(index_dtype, data_dtype,
                                                     a_ub, a_eq):
    """linprog hands HiGHS int32 index and float value arrays whatever
    integer and real dtypes the records hold, and blocks without rows or
    entries, so every such record gives scipy's result bit for bit."""
    c = np.array([-1.0, -2.0, 1.0, 0.5])
    kwargs = dict(bounds=np.tile([0.0, 3.0], (4, 1)),
                  A_ub=_dense_record(a_ub, index_dtype, data_dtype),
                  b_ub=np.abs(a_ub).sum(axis=1) + 1.0,
                  A_eq=_dense_record(a_eq, index_dtype, data_dtype),
                  b_eq=a_eq.sum(axis=1) / 2.0)
    assert lp_core.linprog(c, **kwargs).status == 0
    _assert_parity(c, kwargs)


def _record(indptr, indices, data, shape=(1, 2)):
    """A record to build later: a malformed one raises when it is built."""
    return lambda: lp_core.CsrMatrix(np.array(indptr, dtype=np.int32),
                                     np.array(indices, dtype=np.int32),
                                     np.array(data, dtype=float), shape)


@pytest.mark.parametrize("name, value", [
    ("c", np.array([np.nan, 1.0])),
    ("b_ub", np.array([np.inf])),
    ("b_eq", np.array([np.nan])),
    ("b_ub", np.array([1.0, 2.0])),
    ("bounds", np.array([[1.0, 0.0], [0.0, 1.0]])),
    pytest.param("A_ub", np.array([[1.0, 0.0]]), id="A_ub dense"),
    pytest.param("A_ub", _record([0, 2], [0], [1.0]), id="A_ub indptr past nnz"),
    pytest.param("A_ub", _record([1, 1], [0], [1.0]), id="A_ub indptr not from 0"),
    pytest.param("A_ub", _record([0, 1, 1], [0], [1.0]), id="A_ub indptr too long"),
    pytest.param("A_eq", _record([0, 2], [1, 0], [1.0, 1.0]), id="A_eq unsorted"),
    pytest.param("A_eq", _record([0, 2], [1, 1], [1.0, 1.0]), id="A_eq duplicate"),
    pytest.param("A_ub", _record([0, 1], [2], [1.0]), id="A_ub index past end"),
    pytest.param("A_ub", _record([0, 1], [-1], [1.0]), id="A_ub negative index"),
    pytest.param("A_eq", _record([0, 1], [1], [np.nan]), id="A_eq nan"),
    pytest.param("A_ub", _record([0, 1], [0], [np.inf]), id="A_ub inf"),
    pytest.param("A_ub", _record([0, 1], [0], [1.0, 2.0]), id="A_ub data past nnz"),
    pytest.param("A_ub", _record([0, 1], [0], [1.0], (1, 3)), id="A_ub wrong width"),
])
def test_invalid_input_raises(name, value):
    c, kwargs = _compiled([({0: 1.0}, "<=", 1.0), ({1: 1.0}, "=", 0.5)],
                          {0: 1.0})
    with pytest.raises(ValueError):
        kwargs = {**kwargs, "c": c, name: value() if callable(value) else value}
        lp_core.linprog(**kwargs)


def test_csc_matrix_raises():
    """A square CSC matrix has CSR-shaped arrays, but they hold columns."""
    c, kwargs = _compiled([({0: 1.0}, "<=", 1.0), ({1: 1.0}, "<=", 0.5)],
                          {0: 1.0})
    kwargs["A_ub"] = scipy_csr(kwargs["A_ub"]).tocsc()
    with pytest.raises(ValueError):
        lp_core.linprog(c, **kwargs)

