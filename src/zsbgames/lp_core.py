"""Sparse LP data model and solve contract.

The primal, dual and vector-payoff update solvers add variables and rows
to an `LpBuilder`, whose `build` compiles them into a `CompiledLP`, the
array form HiGHS takes, and call `solve`; the best response needs no LP.
An LP solved many times with different right-hand sides is built once and
patched with `CompiledLP.with_rhs`.

`linprog` is the one place that runs HiGHS. It drives the copy of HiGHS
bundled with scipy (`scipy.optimize._highspy._core`) directly, with the
options `scipy.optimize.linprog(method="highs")` sets, and repeats that
function's input checks, status codes and solution certificate without its
per-call overhead. Every solve gets a fresh HiGHS model and no warm start,
so identical input gives bit-identical output, which the rest of the
package relies on for reproducible strategy extraction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
import scipy.sparse as sp
from scipy.optimize._highspy import _core as highs

from .errors import NumericalError

MIN = "min"
MAX = "max"


@dataclass
class LpSolution:
    status: str                      # "optimal" | "infeasible" | "unbounded"
    objective_value: float
    primal: np.ndarray


class LpBuilder:
    """Incremental construction of an LP, compiled by `build`.

    Coefficients are accumulated per row, so duplicate variable mentions
    within one `add_row` call are merged.
    """

    def __init__(self):
        self._bounds = []
        self._rows = []

    def new_var(self, lower=-math.inf, upper=math.inf) -> int:
        self._bounds.append((lower, upper))
        return len(self._bounds) - 1

    def new_vars(self, count: int, lower=-math.inf, upper=math.inf) -> list[int]:
        return [self.new_var(lower, upper) for _ in range(count)]

    def add_row(self, coeffs: dict, rel: str, rhs: float) -> int:
        """Append a row; returns its index in the built LP's `rels`."""
        self._rows.append(_row(coeffs, rel, rhs))
        return len(self._rows) - 1

    def build(self, sense: str, objective: dict) -> CompiledLP:
        """The LP that minimizes (MIN) or maximizes (MAX) `objective`, a
        {var: coeff} dict, subject to the rows and bounds added so far."""
        num_vars = len(self._bounds)
        c = np.zeros(num_vars)
        for var, coef in objective.items():
            if coef != 0.0:
                c[var] = coef
        if sense == MAX:
            c = -c
        rels = [rel for _, rel, _ in self._rows]
        is_eq = np.array([rel == "=" for rel in rels], dtype=bool)
        slots = np.where(is_eq, np.cumsum(is_eq), np.cumsum(~is_eq)) - 1
        a_ub, b_ub = _stack([r for r in self._rows if r[1] != "="], num_vars)
        a_eq, b_eq = _stack([r for r in self._rows if r[1] == "="], num_vars)
        bounds = np.array(self._bounds, dtype=float).reshape(num_vars, 2)
        return CompiledLP(sense, c, a_ub, b_ub, a_eq, b_eq, bounds, rels,
                          slots)


def _row(coeffs: dict, rel: str, rhs: float):
    items = [(v, c) for v, c in coeffs.items() if c != 0.0]
    items.sort()
    return items, rel, float(rhs)


_SIGN = {"<=": 1.0, ">=": -1.0}


def _stack(rows, num_vars: int):
    """CSR matrix and rhs of `rows`; >= rows are negated into <= form."""
    data, row_i, col_j, rhs_out = [], [], [], []
    for coeffs, rel, rhs in rows:
        sign = _SIGN.get(rel, 1.0)
        row = len(rhs_out)
        rhs_out.append(sign * rhs)
        for var, coef in coeffs:
            row_i.append(row)
            col_j.append(var)
            data.append(sign * coef)
    mat = sp.csr_matrix((data, (row_i, col_j)),
                        shape=(len(rhs_out), num_vars)) if rhs_out else None
    return mat, np.array(rhs_out)


@dataclass
class CompiledLP:
    """An LP in the array form HiGHS takes: minimize c @ x subject to
    a_ub @ x <= b_ub, a_eq @ x = b_eq and bounds[:, 0] <= x <= bounds[:, 1].
    A max LP is stored with c negated and a >= row with its coefficients
    and right-hand side negated.

    `rels[row]` is the relation row `row` was added with and `slots[row]`
    where it sits in b_ub or b_eq, so `with_rhs` can patch right-hand sides
    without reassembling the matrices.
    """

    sense: str
    c: np.ndarray
    a_ub: sp.csr_matrix | None
    b_ub: np.ndarray
    a_eq: sp.csr_matrix | None
    b_eq: np.ndarray
    bounds: np.ndarray               # (num_vars, 2)
    rels: list
    slots: np.ndarray

    @property
    def num_vars(self) -> int:
        return self.c.size

    def with_rhs(self, rows, values, extra_rows=()) -> CompiledLP:
        """Copy whose rows `rows` have right-hand sides `values` and whose
        <= block ends with `extra_rows`, given as (coeffs dict, "<=" or ">=",
        rhs) like `LpBuilder.add_row` takes them. Matrices are shared."""
        b_ub, b_eq = self.b_ub.copy(), self.b_eq.copy()
        for row, value in zip(rows, values):
            rel = self.rels[row]
            if rel == "=":
                b_eq[self.slots[row]] = float(value)
            else:
                b_ub[self.slots[row]] = _SIGN[rel] * float(value)
        a_ub = self.a_ub
        if extra_rows:
            block, b_block = _stack([_row(*r) for r in extra_rows],
                                    self.num_vars)
            a_ub = (block if a_ub is None
                    else sp.vstack([a_ub, block], format="csr"))
            b_ub = np.concatenate([b_ub, b_block])
        return replace(self, a_ub=a_ub, b_ub=b_ub, b_eq=b_eq)


# the options scipy.optimize.linprog(method="highs") sets; the others keep
# HiGHS's defaults, as they do there
_OPTIONS = highs.HighsOptions()
_OPTIONS.presolve = "on"
_OPTIONS.simplex_strategy = highs.simplex_constants.SimplexStrategy.kSimplexStrategyDual
_OPTIONS.highs_debug_level = highs.HighsDebugLevel.kHighsDebugLevelNone
_OPTIONS.output_flag = False
_OPTIONS.log_to_console = False

_MODEL = highs.HighsModelStatus
# HiGHS model status -> scipy.optimize.linprog status; anything else is 4
_STATUS = {_MODEL.kOptimal: 0, _MODEL.kTimeLimit: 1,
           _MODEL.kIterationLimit: 1, _MODEL.kInfeasible: 2,
           _MODEL.kModelError: 2, _MODEL.kUnbounded: 3}

# scipy.optimize.linprog's certificate tolerance: sqrt(1e-9) * 10
CERT_TOL = math.sqrt(1e-9) * 10


@dataclass
class HighsResult:
    x: np.ndarray | None             # None unless HiGHS reports optimal
    fun: float | None
    status: int                      # scipy.optimize.linprog's codes 0-4
    nit: int                         # simplex (or IPM) iterations
    message: str


def _csr(mat, num_vars: int) -> sp.csr_matrix:
    """`mat` (any sparse or dense 2-D matrix, or None for no rows) as CSR
    with sorted column indices and no duplicate entries."""
    if mat is None:
        return sp.csr_matrix((0, num_vars))
    if not (sp.issparse(mat) and mat.format == "csr"):
        mat = sp.csr_matrix(mat, dtype=float)
    if not mat.has_canonical_format:
        mat = mat.copy()
        mat.sum_duplicates()
    if mat.shape[1] != num_vars or not np.isfinite(mat.data).all():
        raise ValueError("A_ub and A_eq must be finite with one column per variable")
    return mat


def _colwise(upper: sp.csr_matrix, lower: sp.csr_matrix):
    """Column-wise (start, index, value) arrays of `upper` stacked on
    `lower`, row indices ascending within each column."""
    counts = np.concatenate([np.diff(upper.indptr), np.diff(lower.indptr)])
    rows = np.repeat(np.arange(counts.size), counts)
    cols = np.concatenate([upper.indices, lower.indices])
    order = np.argsort(cols, kind="stable")
    start = np.zeros(upper.shape[1] + 1, dtype=np.int64)
    np.cumsum(np.bincount(cols, minlength=upper.shape[1]), out=start[1:])
    return start, rows[order], np.concatenate([upper.data, lower.data])[order]


def _rhs(b, mat, name: str) -> np.ndarray:
    b = np.zeros(0) if b is None else np.asarray(b, dtype=float)
    if b.shape != (mat.shape[0],):
        raise ValueError(f"{name} has shape {b.shape}, expected ({mat.shape[0]},)")
    if not np.isfinite(b).all():
        raise ValueError(f"{name} must be finite")
    return b


def _solution(model):
    """Column and row values of a solved model."""
    sol = model.getSolution()
    return np.array(sol.col_value), np.array(sol.row_value)


def linprog(c, *, bounds, A_ub=None, b_ub=None, A_eq=None, b_eq=None):
    """Minimize c @ x subject to A_ub @ x <= b_ub, A_eq @ x = b_eq and
    bounds[:, 0] <= x <= bounds[:, 1] with HiGHS, as
    `scipy.optimize.linprog(..., method="highs")` does for sparse A_ub and
    A_eq and an (n, 2) bounds array.

    Raises ValueError for non-finite c, b_ub, b_eq or matrix entries,
    mismatched shapes or a lower bound above its upper bound. An optimal
    point that breaks a row or bound by more than CERT_TOL is reported with
    status 4.
    """
    c = np.asarray(c, dtype=float)
    num_vars = c.size
    if c.ndim != 1 or not np.isfinite(c).all():
        raise ValueError("c must be a finite 1-D array")
    A_ub, A_eq = _csr(A_ub, num_vars), _csr(A_eq, num_vars)
    b_ub = _rhs(b_ub, A_ub, "b_ub")
    b_eq = _rhs(b_eq, A_eq, "b_eq")
    lb, ub = np.asarray(bounds, dtype=float).reshape(num_vars, 2).T.copy()
    if not (lb <= ub).all():
        raise ValueError("every lower bound must be at most its upper bound")
    num_ub = b_ub.size

    lp = highs.HighsLp()
    lp.num_col_ = lp.a_matrix_.num_col_ = num_vars
    lp.num_row_ = lp.a_matrix_.num_row_ = num_ub + b_eq.size
    lp.a_matrix_.format_ = highs.MatrixFormat.kColwise
    (lp.a_matrix_.start_, lp.a_matrix_.index_,
     lp.a_matrix_.value_) = _colwise(A_ub, A_eq)
    lp.col_cost_ = c
    lp.col_lower_ = lb
    lp.col_upper_ = ub
    lp.row_lower_ = np.concatenate([np.full(num_ub, -math.inf), b_eq])
    lp.row_upper_ = np.concatenate([b_ub, b_eq])

    model = highs._Highs()
    model.passOptions(_OPTIONS)
    # as in scipy: a model HiGHS rejects is a model error, and a run that
    # errors reports no iterations and, like any non-optimal run, no point
    loaded = model.passModel(lp) != highs.HighsStatus.kError
    ran = loaded and model.run() != highs.HighsStatus.kError
    status = model.getModelStatus() if loaded else _MODEL.kModelError
    message = f"HiGHS model status {model.modelStatusToString(status)}"
    info = model.getInfo()
    nit = (info.simplex_iteration_count or info.ipm_iteration_count) if ran else 0
    if status != _MODEL.kOptimal or not ran:
        code = 4 if status == _MODEL.kOptimal else _STATUS.get(status, 4)
        return HighsResult(None, None, code, nit, message)

    x, row_value = _solution(model)
    fun = info.objective_function_value
    # every comparison with a NaN is False, so NaNs fail the certificate
    certified = (not math.isnan(fun)
                 and (x >= lb - CERT_TOL).all() and (x <= ub + CERT_TOL).all()
                 and (b_ub - row_value[:num_ub] >= -CERT_TOL).all()
                 and (np.abs(b_eq - row_value[num_ub:]) <= CERT_TOL).all())
    if not certified:
        return HighsResult(x, fun, 4, nit, message + ", but the point breaks "
                           f"a row or bound by more than {CERT_TOL:.2e}")
    return HighsResult(x, fun, 0, nit, message)


def solve(lp: CompiledLP) -> LpSolution:
    """Solve with HiGHS through `linprog`. Raises NumericalError on a time
    or iteration limit, a point that fails the certificate, or a status
    that is none of optimal, infeasible and unbounded."""
    res = linprog(lp.c, A_ub=lp.a_ub, b_ub=lp.b_ub, A_eq=lp.a_eq,
                  b_eq=lp.b_eq, bounds=lp.bounds)
    if res.status == 0:
        value = float(res.fun)
        if lp.sense == MAX:
            value = -value
        return LpSolution(status="optimal", objective_value=value,
                          primal=np.asarray(res.x, dtype=float))
    if res.status == 2:
        return LpSolution(status="infeasible", objective_value=math.nan,
                          primal=np.full(lp.num_vars, math.nan))
    if res.status == 3:
        return LpSolution(status="unbounded", objective_value=math.nan,
                          primal=np.full(lp.num_vars, math.nan))
    raise NumericalError(f"LP backend failed: status={res.status} ({res.message})")


def write_lp_text(lp: CompiledLP, path) -> None:
    """Dump in CPLEX LP text format, for debugging with external tools.

    Rows are written in the order `LpBuilder.add_row` added them, with
    their relations and signs as given; `with_rhs`'s extra rows are not."""
    def terms(cols, coefs):
        return "".join(f" {'+' if coef >= 0 else '-'} {abs(coef):.17g} x{var}"
                       for var, coef in zip(cols, coefs))

    obj = -lp.c if lp.sense == MAX else lp.c
    nonzero = np.flatnonzero(obj)
    lines = ["Maximize" if lp.sense == MAX else "Minimize"]
    lines.append(" obj:" + terms(nonzero, obj[nonzero]))
    lines.append("Subject To")
    for i, (rel, slot) in enumerate(zip(lp.rels, lp.slots)):
        mat, b = (lp.a_eq, lp.b_eq) if rel == "=" else (lp.a_ub, lp.b_ub)
        sign = _SIGN.get(rel, 1.0)
        start, stop = mat.indptr[slot], mat.indptr[slot + 1]
        body = terms(mat.indices[start:stop],
                     sign * mat.data[start:stop]) or " 0 x0"
        lines.append(f" r{i}:{body} {rel} {sign * b[slot]:.17g}")
    lines.append("Bounds")
    for var, (lo, hi) in enumerate(lp.bounds):
        lo_s = "-inf" if lo == -math.inf else f"{lo:.17g}"
        hi_s = "+inf" if hi == math.inf else f"{hi:.17g}"
        lines.append(f" {lo_s} <= x{var} <= {hi_s}")
    lines.append("End")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
