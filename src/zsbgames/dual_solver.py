"""Dual-game LPs.

Each dual LP is the other player's primal constraint system plus one
scalar variable linking the root weighted payoffs to the opponent's
initial vector payoff. Sharing the system builder with the primal module
keeps the two formulations structurally identical.

The statistic enters a dual LP only through right-hand sides: the plan
owner's belief in the depth-1 flow rows and the vector payoff in the
coupling rows. A `DualTemplate` is therefore compiled once per (kind, n,
lambda) and patched for each solve.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import lp_core
from .errors import SolverError
from .game_model import GameSpec
from .history_index import DEFAULT_MAX_VARS, HistoryIndex, build_index
from .lp_core import CompiledLP, LpBuilder
from .primal_solver import (BehavioralStrategy, RealizationPlan,
                            add_sequence_system, extract_strategy,
                            plan_from_solution)


@dataclass
class DualResult:
    value: float
    strategy: BehavioralStrategy
    plan: RealizationPlan
    weighted_payoffs: dict          # (t, hid) on the plan owner's opponent side


@dataclass
class DualTemplate:
    """Dual LP of one kind, compiled with placeholder right-hand sides.

    Kind 1: player 1 picks its initial state against a vector payoff over
    its states, the plan is player 2's; kind 2 mirrors it.
    """

    kind: int
    n: int
    lam: float
    index: HistoryIndex
    lp: CompiledLP
    plan_vars: dict
    payoff_vars: dict
    root_rows: list                 # rhs = plan owner's belief
    coupling_rows: list             # rhs = -(vector payoff)

    def lp_at(self, root, vector) -> CompiledLP:
        return self.lp.with_rhs(self.root_rows + self.coupling_rows,
                                [*root, *(-vector)])


def dual_template(spec: GameSpec, kind: int, n: int, lam: float,
                  max_vars: int = DEFAULT_MAX_VARS) -> DualTemplate:
    side = 3 - kind                 # plan owner
    num_owner = spec.num_k if side == 1 else spec.num_l
    num_picker = spec.num_k if kind == 1 else spec.num_l
    index = build_index(spec, n, max_vars=max_vars)
    builder = LpBuilder()
    plan_vars, payoff_vars, root_rows = add_sequence_system(
        builder, spec, index, side, n, lam, np.zeros(num_owner))
    v0 = builder.new_var()
    rel = "<=" if kind == 1 else ">="
    coupling_rows = [
        builder.add_row({payoff_vars[(1, index.id_of(kind, 1, (s,), ()))]: 1.0,
                         v0: -1.0}, rel, 0.0)
        for s in range(num_picker)]
    lp = builder.build(lp_core.MIN if kind == 1 else lp_core.MAX, {v0: 1.0})
    return DualTemplate(kind=kind, n=n, lam=lam, index=index,
                        lp=lp_core.compile_lp(lp), plan_vars=plan_vars,
                        payoff_vars=payoff_vars, root_rows=root_rows,
                        coupling_rows=coupling_rows)


def _solve(spec, kind, root, vector, n, lam, max_vars, template) -> DualResult:
    if template is None:
        template = dual_template(spec, kind, n, lam, max_vars=max_vars)
    elif (template.kind, template.n, template.lam) != (kind, n, lam):
        raise ValueError(f"template is for dual-{template.kind} at n="
                         f"{template.n}, lambda={template.lam}")
    root = np.asarray(root, dtype=float)
    sol = lp_core.solve(template.lp_at(root, np.asarray(vector, dtype=float)))
    if sol.status != "optimal":
        raise SolverError(f"dual-{kind} LP returned {sol.status}")
    plan = plan_from_solution(template.index, 3 - kind, n, template.plan_vars,
                              sol.primal, root)
    strategy = extract_strategy(plan, spec)
    payoffs = {key: float(sol.primal[var])
               for key, var in template.payoff_vars.items()}
    return DualResult(value=sol.objective_value, strategy=strategy,
                      plan=plan, weighted_payoffs=payoffs)


def solve_dual1(spec: GameSpec, mu, q, n: int, lam: float,
                max_vars: int = DEFAULT_MAX_VARS,
                template: DualTemplate | None = None) -> DualResult:
    """Value of the dual game where player 1 picks its own initial state
    against the vector payoff `mu`, plus player 2's security strategy."""
    return _solve(spec, 1, q, mu, n, lam, max_vars, template)


def solve_dual2(spec: GameSpec, p, nu, n: int, lam: float,
                max_vars: int = DEFAULT_MAX_VARS,
                template: DualTemplate | None = None) -> DualResult:
    """Value of the dual game where player 2 picks its own initial state
    against the vector payoff `nu`, plus player 1's security strategy."""
    return _solve(spec, 2, p, nu, n, lam, max_vars, template)
