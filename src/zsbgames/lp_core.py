"""Sparse LP data model and solve contract.

The primal, dual and vector-payoff update solvers build `LinearProgram`
instances (usually through `LpBuilder`) and call `solve`; the best
response needs no LP. An LP solved many times with different right-hand
sides is compiled once into a `CompiledLP` and patched with
`CompiledLP.with_rhs`.

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

FEAS_TOL = 1e-6


@dataclass
class LinearProgram:
    sense: str                       # "min" or "max"
    num_vars: int
    objective: list                  # [(var, coeff)]
    rows: list                       # [(coeffs list, relation, rhs)]
    bounds: list                     # [(lower, upper)] per variable


@dataclass
class LpSolution:
    status: str                      # "optimal" | "infeasible" | "unbounded"
    objective_value: float
    primal: np.ndarray


class LpBuilder:
    """Incremental construction of a LinearProgram.

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
        """Append a row; returns its index in the built LP's `rows`."""
        self._rows.append(_row(coeffs, rel, rhs))
        return len(self._rows) - 1

    def build(self, sense: str, objective: dict) -> LinearProgram:
        obj = sorted((v, c) for v, c in objective.items() if c != 0.0)
        return LinearProgram(sense=sense, num_vars=len(self._bounds),
                             objective=obj, rows=list(self._rows),
                             bounds=list(self._bounds))


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
    """A LinearProgram in the array form HiGHS takes: minimize c @ x
    subject to a_ub @ x <= b_ub, a_eq @ x = b_eq and bounds[:, 0] <= x <=
    bounds[:, 1].

    `slots[row]` is where row `row` of the source LP sits in b_ub or b_eq
    (which one `rels[row]` tells), so `with_rhs` can patch right-hand sides
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


def compile_lp(lp: LinearProgram) -> CompiledLP:
    c = np.zeros(lp.num_vars)
    for var, coef in lp.objective:
        c[var] = coef
    if lp.sense == MAX:
        c = -c
    rels = [rel for _, rel, _ in lp.rows]
    is_eq = np.array([rel == "=" for rel in rels], dtype=bool)
    slots = np.where(is_eq, np.cumsum(is_eq), np.cumsum(~is_eq)) - 1
    a_ub, b_ub = _stack([r for r in lp.rows if r[1] != "="], lp.num_vars)
    a_eq, b_eq = _stack([r for r in lp.rows if r[1] == "="], lp.num_vars)
    bounds = np.array(lp.bounds, dtype=float).reshape(lp.num_vars, 2)
    return CompiledLP(lp.sense, c, a_ub, b_ub, a_eq, b_eq, bounds, rels,
                      slots)


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


def solve(lp: LinearProgram | CompiledLP) -> LpSolution:
    """Solve with HiGHS through `linprog`. Raises NumericalError on a time
    or iteration limit, a point that fails the certificate, or a status
    that is none of optimal, infeasible and unbounded."""
    if isinstance(lp, LinearProgram):
        lp = compile_lp(lp)
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


def check_feasibility(lp: LinearProgram, point, tol: float = FEAS_TOL) -> list[dict]:
    """List of constraint/bound violations of `point` beyond `tol`."""
    x = np.asarray(point, dtype=float)
    if x.shape != (lp.num_vars,):
        raise ValueError(f"point has length {x.size}, expected {lp.num_vars}")
    report = []
    for idx, (coeffs, rel, rhs) in enumerate(lp.rows):
        lhs = sum(coef * x[var] for var, coef in coeffs)
        gap = lhs - rhs
        bad = ((rel == "<=" and gap > tol) or
               (rel == ">=" and gap < -tol) or
               (rel == "=" and abs(gap) > tol))
        if bad:
            report.append({"kind": "row", "index": idx, "relation": rel,
                           "violation": float(abs(gap))})
    for var, (lo, hi) in enumerate(lp.bounds):
        if x[var] < lo - tol or x[var] > hi + tol:
            report.append({"kind": "bound", "index": var,
                           "violation": float(max(lo - x[var], x[var] - hi))})
    return report


def write_lp_text(lp: LinearProgram, path) -> None:
    """Dump in CPLEX LP text format, for debugging with external tools."""
    def term(var, coef):
        sign = "+" if coef >= 0 else "-"
        return f" {sign} {abs(coef):.17g} x{var}"

    lines = ["Maximize" if lp.sense == MAX else "Minimize"]
    lines.append(" obj:" + "".join(term(v, c) for v, c in lp.objective))
    lines.append("Subject To")
    relmap = {"<=": "<=", ">=": ">=", "=": "="}
    for i, (coeffs, rel, rhs) in enumerate(lp.rows):
        body = "".join(term(v, c) for v, c in coeffs) or " 0 x0"
        lines.append(f" r{i}:{body} {relmap[rel]} {rhs:.17g}")
    lines.append("Bounds")
    for var, (lo, hi) in enumerate(lp.bounds):
        lo_s = "-inf" if lo == -math.inf else f"{lo:.17g}"
        hi_s = "+inf" if hi == math.inf else f"{hi:.17g}"
        lines.append(f" {lo_s} <= x{var} <= {hi_s}")
    lines.append("End")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
