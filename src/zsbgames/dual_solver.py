"""Dual-game LPs.

Each dual LP is the plan owner's sequence-form constraint system on
(last state, public pairs) rows (`primal_solver.add_sequence_system`) plus
one scalar variable linking the root weighted payoffs to the opponent's
initial vector payoff. Every solve is certified: the picker's best
response to the solved plan, shifted by the vector payoff, must reach the
LP value (`lp_core.check_gap`).

The statistic enters a dual LP only through right-hand sides: the plan
owner's belief in the depth-1 flow rows and the vector payoff in the
coupling rows. A `DualTemplate` is therefore compiled once per (kind, n,
lambda), with where those rows sit (`lp_core.RhsRows`). For the same
reason an optimal basis at one statistic stays dual feasible at every
other: each solve starts from the template's reference basis, that of
one cold solve at the plan owner's prior and a zero vector payoff, so a
result depends on its statistic alone and never on what was solved
before. The template's patched LPs are one LP family, so `lp_core`
solves them all on one kept HiGHS model, cleared before each solve.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import best_response, lp_core
from .best_response import BestResponseResult
from .game_model import GameSpec
from .history_index import HistoryIndex
from .lp_core import CompiledLP, LpBuilder, RhsRows
from .primal_solver import (BehavioralStrategy, RealizationPlan,
                            SequenceSystem, add_sequence_system,
                            extract_strategy, plan_from_solution)


@dataclass
class DualResult:
    value: float
    strategy: BehavioralStrategy
    plan: RealizationPlan
    response: BestResponseResult    # the picker's to `plan`, by state


@dataclass
class DualTemplate:
    """Dual LP of one kind, compiled with placeholder right-hand sides.

    Kind 1: player 1 picks its initial state against a vector payoff over
    its states, the plan is player 2's; kind 2 mirrors it. The reference
    basis is taken into `lp` by the template's first solve.
    """

    kind: int
    n: int
    lam: float
    index: HistoryIndex
    lp: CompiledLP
    system: SequenceSystem          # flow_rows[0]: rhs = plan owner's belief
    coupling_rows: range            # rhs = -(vector payoff)
    rhs: RhsRows                    # those rows, as `lp_at` sets them

    def lp_at(self, root, vector) -> CompiledLP:
        rows = self.system.flow_rows[0], self.coupling_rows
        if (len(root), len(vector)) != tuple(map(len, rows)):
            raise ValueError(f"dual-{self.kind} takes {tuple(map(len, rows))} entries")
        return self.rhs.copy_of(self.lp, np.concatenate((root, -vector)))


def dual_template(spec: GameSpec, kind: int, n: int,
                  lam: float) -> DualTemplate:
    owner = spec.side(3 - kind)     # the plan owner; the picker is its opp
    index = HistoryIndex(spec, n)
    builder = LpBuilder()
    system = add_sequence_system(builder, spec, owner.side, n, lam,
                                 np.zeros(owner.num_states))
    v0 = builder.new_var()
    rel = "<=" if kind == 1 else ">="
    s = np.arange(owner.num_opp_states)
    coupling_rows = builder.add_rows(rel, np.zeros(s.size), [
        (s, system.payoff_vars.start + s, 1.0), (s, v0, -1.0)])
    lp = builder.build(lp_core.MIN if kind == 1 else lp_core.MAX, {v0: 1.0})
    return DualTemplate(kind, n, lam, index, lp, system, coupling_rows,
                        RhsRows(lp, [*system.flow_rows[0], *coupling_rows]))


def _solve(spec, kind, root, vector, n, lam, template) -> DualResult:
    if template is None:
        template = dual_template(spec, kind, n, lam)
    elif (template.kind, template.n, template.lam) != (kind, n, lam):
        raise ValueError(f"template is for dual-{template.kind} at n="
                         f"{template.n}, lambda={template.lam}")
    elif template.index.spec is not spec:
        raise ValueError("template is for another game spec")
    if template.lp.basis is None:
        owner = spec.side(3 - kind)
        ref = lp_core.solve(template.lp_at(owner.prior,
                                           np.zeros(owner.num_opp_states)))
        template.lp = replace(template.lp, basis=ref.basis)
    root = np.asarray(root, dtype=float)
    vector = np.asarray(vector, dtype=float)
    sol = lp_core.solve(template.lp_at(root, vector))
    plan = plan_from_solution(template.index, 3 - kind, template.system, sol.primal, root)
    vs_plan = (best_response.best_response_vs_p2 if kind == 1
               else best_response.best_response_vs_p1)
    response = vs_plan(spec, plan, np.zeros(vector.size), n, lam)
    best = np.maximum.reduce if kind == 1 else np.minimum.reduce
    lp_core.check_gap(f"dual-{kind}", sol.objective_value,
                      float(best(response.roots + vector)))
    return DualResult(value=sol.objective_value,
                      strategy=extract_strategy(plan, spec), plan=plan,
                      response=response)


def solve_dual1(spec: GameSpec, mu, q, n: int, lam: float,
                template: DualTemplate | None = None) -> DualResult:
    """Value of the dual game where player 1 picks its own initial state
    against the vector payoff `mu`, plus player 2's security strategy."""
    return _solve(spec, 1, q, mu, n, lam, template)


def solve_dual2(spec: GameSpec, p, nu, n: int, lam: float,
                template: DualTemplate | None = None) -> DualResult:
    """Value of the dual game where player 2 picks its own initial state
    against the vector payoff `nu`, plus player 1's security strategy."""
    return _solve(spec, 2, p, nu, n, lam, template)
