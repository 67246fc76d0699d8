"""Sparse LP data model and solve contract.

All solver modules build `LinearProgram` instances (usually through
`LpBuilder`) and call `solve`, which is backed by scipy's HiGHS. An LP
solved many times with different right-hand sides is compiled once into
a `CompiledLP` and patched with `CompiledLP.with_rhs`. HiGHS is
deterministic for identical input, which the rest of the package relies
on for reproducible strategy extraction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
import scipy.sparse as sp
from scipy.optimize import linprog

from .errors import NumericalError

MIN = "min"
MAX = "max"

FEAS_TOL = 1e-6

_REL = ("<=", "=", ">=")


@dataclass
class LinearProgram:
    sense: str                       # "min" or "max"
    num_vars: int
    objective: list                  # [(var, coeff)]
    rows: list                       # [(coeffs list, relation, rhs)]
    bounds: list                     # [(lower, upper)] per variable

    def check(self) -> None:
        assert self.sense in (MIN, MAX)
        for var, _ in self.objective:
            assert 0 <= var < self.num_vars
        for coeffs, rel, rhs in self.rows:
            assert rel in _REL and math.isfinite(rhs)
            seen = set()
            for var, _ in coeffs:
                assert 0 <= var < self.num_vars and var not in seen
                seen.add(var)


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


def solve(lp: LinearProgram | CompiledLP) -> LpSolution:
    """Solve with HiGHS. Raises NumericalError if the backend cannot classify."""
    if isinstance(lp, LinearProgram):
        lp = compile_lp(lp)
    res = linprog(lp.c,
                  A_ub=lp.a_ub, b_ub=lp.b_ub if lp.a_ub is not None else None,
                  A_eq=lp.a_eq, b_eq=lp.b_eq if lp.a_eq is not None else None,
                  bounds=lp.bounds, method="highs")
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
