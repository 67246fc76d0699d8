"""Sparse LP data model and solve contract.

The primal, dual and vector-payoff update solvers add variables and rows
to an `LpBuilder`, whose `build` compiles them into a `CompiledLP`, the
array form HiGHS takes, and call `solve`; the best response needs no LP.
The dual LP, solved many times at different statistics, is built once and
patched with `CompiledLP.with_rhs`, which sets right-hand sides. `solve`
returns only optimal solutions and raises for everything else, so its
callers hold no status check.

`linprog` is the one place that runs HiGHS, on matrices given as
`CsrMatrix` records, which check their form when they are built. It hands
them as arrays to scipy's bundled HiGHS extension module (loaded from its
file, so `scipy.optimize` and `scipy.sparse` are never imported) and
repeats `scipy.optimize.linprog(method="highs")`'s checks, status codes
and certificate. A cold solve uses its options and returns its point bit
for bit; a warm start prices with Devex, which needs no BTRAN per row to
start from a basis as dual steepest edge does, and reaches its status and
objective. Every solve gets a fresh model, warm-started only from a basis
in its input (`CompiledLP.basis`), so identical input gives bit-identical
output whatever ran before, as reproducible strategy extraction needs.

`complementary_basis` maps an optimal basis of an LP's dual to an optimal
basis of the LP; the two players' primal LPs are such a pair.
"""

from __future__ import annotations

import importlib.util
import math
import sys
from dataclasses import dataclass, replace
from importlib.machinery import EXTENSION_SUFFIXES, ExtensionFileLoader
from pathlib import Path

import numpy as np

from .errors import NumericalError, SolverError


def _load_highs():
    """scipy's HiGHS extension module, loaded from its file without running
    the `scipy.optimize` package and registered in `sys.modules` under its
    own name, so scipy, if imported later, uses the same module."""
    name = "scipy.optimize._highspy._core"
    if name not in sys.modules:
        scipy_dir = Path(importlib.util.find_spec("scipy").origin).parent
        folder = scipy_dir / "optimize" / "_highspy"
        path = next(path for suffix in EXTENSION_SUFFIXES
                    if (path := folder / f"_core{suffix}").is_file())
        loader = ExtensionFileLoader(name, str(path))
        sys.modules[name] = importlib.util.module_from_spec(
            importlib.util.spec_from_loader(name, loader))
        loader.exec_module(sys.modules[name])
    return sys.modules[name]


highs = _load_highs()

MIN = "min"
MAX = "max"


@dataclass
class LpSolution:
    objective_value: float
    primal: np.ndarray
    basis: object                   # HiGHS's optimal basis


@dataclass(eq=False, frozen=True)
class CsrMatrix:
    """A matrix in compressed sparse row form: row i has the values
    data[indptr[i]:indptr[i + 1]] in the sorted, distinct columns
    indices[indptr[i]:indptr[i + 1]]. Construction checks that form, integer
    index arrays and finite values (ValueError otherwise) and makes the
    arrays read-only: an array that owns its memory is frozen in place, a
    view or a list is copied first, so a record cannot change."""

    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray
    shape: tuple

    def __post_init__(self):
        indptr, indices, data = arrays = [
            arr.copy() if arr.base is not None else arr
            for arr in map(np.asarray, (self.indptr, self.indices, self.data))]
        num_rows, num_cols = self.shape
        if not (indptr.dtype.kind in "iu" and indices.dtype.kind in "iu"
                and num_rows >= 0 and indptr.shape == (num_rows + 1,)
                and indptr[0] == 0 and (indptr[:-1] <= indptr[1:]).all()
                and indices.shape == data.shape == (indptr[-1],)
                and (indices >= 0).all() and (indices < num_cols).all()
                and _columns_rise(indptr, indices)
                and data.dtype.kind in "iuf" and np.isfinite(data).all()):
            raise ValueError("not a canonical CSR matrix with finite data")
        for name, arr in zip(("indptr", "indices", "data"), arrays):
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    @property
    def nnz(self) -> int:
        return self.data.size

    @classmethod
    def from_entries(cls, row, col, val, shape) -> CsrMatrix:
        """The matrix with entries (row, col, val), sorted by row, then col."""
        indptr = np.searchsorted(row, np.arange(shape[0] + 1)).astype(np.int32)
        return cls(indptr, col.astype(np.int32), val, shape)


def _columns_rise(indptr, indices) -> bool:
    """Whether the columns rise strictly in each row of a CSR matrix: an
    entry whose column is not above the one before must start a row."""
    starts = np.flatnonzero(indices[1:] <= indices[:-1]) + 1
    return bool((indptr[np.searchsorted(indptr, starts)] == starts).all())


class LpBuilder:
    """Incremental construction of an LP, compiled by `build`; rows are
    added in blocks of arrays (`add_rows`)."""

    def __init__(self):
        self._bounds = []               # (lower, upper) per variable
        # (row, col, value) entry arrays and rhs array per add_rows call
        self._entries = [(np.zeros(0, dtype=np.int64),) * 2 + (np.zeros(0),)]
        self._rhs = [np.zeros(0)]
        self._rels = []                 # relation of each row

    def new_vars(self, count: int, lower=-math.inf, upper=math.inf) -> range:
        self._bounds += [(lower, upper)] * count
        return range(len(self._bounds) - count, len(self._bounds))

    def new_var(self, lower=-math.inf, upper=math.inf) -> int:
        return self.new_vars(1, lower, upper)[0]

    def add_rows(self, rel: str, rhs, entries) -> range:
        """Append len(rhs) rows with relation `rel`; returns their indices
        in the built LP's `rels`. `entries` is a list of (row, col, value)
        triples of broadcastable arrays, `row` counted from the block's
        first row; a (row, col) pair may occur only once in a block."""
        start = len(self._rels)
        for row, col, val in entries:
            row, col, val = np.broadcast_arrays(row, col, val)
            self._entries.append((row.ravel() + start, col.ravel(), val.ravel()))
        self._rhs.append(np.array(rhs, dtype=float))
        self._rels += [rel] * self._rhs[-1].size
        return range(start, len(self._rels))

    def build(self, sense: str, objective: dict) -> CompiledLP:
        """The LP that minimizes (MIN) or maximizes (MAX) `objective`, a
        {var: coeff} dict, subject to the rows and bounds added so far.
        Zero entries are dropped, columns sorted within each row and >=
        rows negated into <= form."""
        num_vars = len(self._bounds)
        c = np.zeros(num_vars)
        for var, coef in objective.items():
            if coef != 0.0:
                c[var] = coef
        if sense == MAX:
            c = -c
        is_eq = np.array([rel == "=" for rel in self._rels], dtype=bool)
        slots = np.where(is_eq, np.cumsum(is_eq), np.cumsum(~is_eq)) - 1
        sign = np.array([_SIGN.get(rel, 1.0) for rel in self._rels])
        rhs = sign * np.concatenate(self._rhs)
        row, col, val = (np.concatenate(part) for part in zip(*self._entries))
        keep = val != 0.0
        order = np.lexsort((col[keep], row[keep]))
        row, col = row[keep][order], col[keep][order]
        val = sign[row] * val[keep][order]
        mats = []                       # entries are in CSR order already
        for eq in (False, True):
            take = is_eq[row] == eq
            mats.append(CsrMatrix.from_entries(
                slots[row[take]], col[take], val[take],
                (np.count_nonzero(is_eq == eq), num_vars)))
        bounds = np.array(self._bounds, dtype=float).reshape(num_vars, 2)
        return CompiledLP(sense, c, mats[0], rhs[~is_eq], mats[1], rhs[is_eq],
                          bounds, list(self._rels), slots)


_SIGN = {"<=": 1.0, ">=": -1.0}


@dataclass
class CompiledLP:
    """An LP in the array form HiGHS takes: minimize c @ x subject to
    a_ub @ x <= b_ub, a_eq @ x = b_eq and bounds[:, 0] <= x <= bounds[:, 1].
    A max LP is stored with c negated and a >= row with its coefficients
    and right-hand side negated.

    `rels[row]` is the relation row `row` was added with and `slots[row]`
    where it sits in b_ub or b_eq, so `with_rhs` can patch right-hand sides
    without reassembling the matrices. `basis`, if set, is the HiGHS basis
    every solve of the LP and its patched copies starts from.
    """

    sense: str
    c: np.ndarray
    a_ub: CsrMatrix
    b_ub: np.ndarray
    a_eq: CsrMatrix
    b_eq: np.ndarray
    bounds: np.ndarray               # (num_vars, 2)
    rels: list
    slots: np.ndarray
    basis: object = None

    @property
    def num_vars(self) -> int:
        return self.c.size

    def with_rhs(self, rows, values) -> CompiledLP:
        """Copy whose rows `rows` have right-hand sides `values`; the
        matrices and the basis are shared."""
        b_ub, b_eq = self.b_ub.copy(), self.b_eq.copy()
        for row, value in zip(rows, values):
            rel = self.rels[row]
            if rel == "=":
                b_eq[self.slots[row]] = float(value)
            else:
                b_ub[self.slots[row]] = _SIGN[rel] * float(value)
        return replace(self, b_ub=b_ub, b_eq=b_eq)


# the options scipy.optimize.linprog(method="highs") sets; the others keep
# HiGHS's defaults, as they do there. A warm start also prices with Devex.
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
_INT32_MAX = np.iinfo(np.int32).max     # HiGHS's index type


@dataclass
class HighsResult:
    x: np.ndarray | None             # None unless HiGHS reports optimal
    fun: float | None
    status: int                      # scipy.optimize.linprog's codes 0-4
    nit: int                         # simplex (or IPM) iterations
    message: str
    basis: object = None             # HiGHS's basis, if status is 0


def _rhs(b, mat, name: str) -> np.ndarray:
    b = np.asarray(b, dtype=float)
    if b.shape != (mat.shape[0],):
        raise ValueError(f"{name} has shape {b.shape}, expected ({mat.shape[0]},)")
    if not np.isfinite(b).all():
        raise ValueError(f"{name} must be finite")
    return b


def _solution(model):
    """Column and row values of a solved model."""
    sol = model.getSolution()
    return np.array(sol.col_value), np.array(sol.row_value)


def linprog(c, *, bounds, A_ub, b_ub, A_eq, b_eq, basis=None):
    """Minimize c @ x subject to A_ub @ x <= b_ub, A_eq @ x = b_eq and
    bounds[:, 0] <= x <= bounds[:, 1] with HiGHS, as
    `scipy.optimize.linprog(..., method="highs")` does for the same
    matrices in CSR form and an (n, 2) bounds array. A_ub and A_eq must be
    `CsrMatrix` records with one column per variable. With `basis`, a HiGHS
    basis of an LP of the same shape, the simplex starts from it.

    Raises ValueError for non-finite c, b_ub or b_eq, a matrix that is not
    such a record, mismatched shapes, more variables, rows or nonzeros than
    int32 holds (checked before any array is read) or a lower bound above
    its upper bound. An optimal point that breaks a row or bound by more
    than CERT_TOL is reported with status 4.
    """
    c = np.asarray(c, dtype=float)
    num_vars = c.size
    if not all(isinstance(mat, CsrMatrix) and mat.shape[1] == num_vars
               for mat in (A_ub, A_eq)):
        raise ValueError("A_ub and A_eq must be CsrMatrix records with one "
                         "column per variable")
    num_ub, num_nz = A_ub.shape[0], A_ub.nnz + A_eq.nnz
    if max(num_vars, num_ub + A_eq.shape[0], num_nz) > _INT32_MAX:
        raise ValueError("more variables, rows or nonzeros than int32 holds")
    if c.ndim != 1 or not np.isfinite(c).all():
        raise ValueError("c must be a finite 1-D array")
    b_ub = _rhs(b_ub, A_ub, "b_ub")
    b_eq = _rhs(b_eq, A_eq, "b_eq")
    lb, ub = np.asarray(bounds, dtype=float).reshape(num_vars, 2).T.copy()
    if not (lb <= ub).all():
        raise ValueError("every lower bound must be at most its upper bound")

    model = highs._Highs()
    model.passOptions(_OPTIONS)
    # as in scipy, a rejected model is a model error. HiGHS copies the rows
    # into its column form in row order and reads num_vars integrality flags
    loaded = model.passModel(
        num_vars, num_ub + b_eq.size, num_nz, highs.MatrixFormat.kRowwise,
        highs.ObjSense.kMinimize, 0.0, c, lb, ub,
        np.concatenate([np.full(num_ub, -math.inf), b_eq]),
        np.concatenate([b_ub, b_eq]),
        np.concatenate([A_ub.indptr[:-1], A_eq.indptr[:-1] + A_ub.nnz],
                       dtype=np.int32),
        np.concatenate([A_ub.indices, A_eq.indices], dtype=np.int32),
        np.concatenate([A_ub.data, A_eq.data], dtype=float),
        np.zeros(num_vars, dtype=np.int32)) != highs.HighsStatus.kError
    if loaded and basis is not None:
        model.setOptionValue("simplex_dual_edge_weight_strategy", 1)  # Devex
        loaded = model.setBasis(basis) != highs.HighsStatus.kError
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
    return HighsResult(x, fun, 0, nit, message, model.getBasis())


def solve(lp: CompiledLP) -> LpSolution:
    """Solve with HiGHS through `linprog`. Raises SolverError if the LP is
    infeasible or unbounded, and NumericalError on a time or iteration
    limit, a point that fails the certificate, or any other status."""
    res = linprog(lp.c, A_ub=lp.a_ub, b_ub=lp.b_ub, A_eq=lp.a_eq,
                  b_eq=lp.b_eq, bounds=lp.bounds, basis=lp.basis)
    if res.status in (2, 3):
        raise SolverError(f"LP is {'infeasible' if res.status == 2 else 'unbounded'}"
                          f" ({res.message})")
    if res.status != 0:
        raise NumericalError(f"LP backend failed: status={res.status} ({res.message})")
    return LpSolution(objective_value=-res.fun if lp.sense == MAX else res.fun,
                      primal=res.x, basis=res.basis)


def complementary_basis(basis, lp: CompiledLP):
    """The basis of `lp` complementary to `basis`, an optimal basis of its
    LP dual (a variable per row of `lp`, a row per variable, in builder
    order; a free variable's row an equality): a variable of `lp` is basic
    where its dual row is not, a row where its dual variable is not, so it
    is optimal for `lp` too; nonbasic, each sits at 0 or its bound."""
    # HiGHS's codes 0-3: kLower, kBasic, kUpper, kZero
    codes = list(map(highs.HighsBasisStatus, range(4)))
    dual_cols, dual_rows = (np.fromiter(map(int, statuses), int) == 1
                            for statuses in (basis.col_status, basis.row_status))
    free = lp.bounds[:, 0] == -math.inf
    cols = np.where(free, 3, 0)
    # the dual's rows are in HiGHS's order, inequalities first
    cols[np.argsort(free, kind="stable")[~dual_rows]] = 1
    is_eq = np.array([rel == "=" for rel in lp.rels], dtype=bool)
    rows = np.empty(is_eq.size, dtype=int)
    rows[lp.slots + is_eq * lp.b_ub.size] = np.where(
        dual_cols, np.where(is_eq, 0, 2), 1)
    out = highs.HighsBasis()
    out.col_status, out.row_status = ([codes[i] for i in arr]
                                      for arr in (cols, rows))
    out.valid, out.alien = True, False
    return out


def write_lp_text(lp: CompiledLP, path) -> None:
    """Dump in CPLEX LP text format, for debugging with external tools.

    Rows are written in the order `LpBuilder` added them, with
    their relations and signs as given."""
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
