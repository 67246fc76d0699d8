"""The copies `lp_core.RhsRows` makes of one LP, an LP family, solve
on one kept HiGHS model. A solve on it must give the bytes a fresh model
gives, whatever ran before, and the model must go with its family."""

import dataclasses
import gc
import weakref

import numpy as np

from zsbgames import (SolverCache, WindowAgent, WindowConfig, lp_core,
                      run_monte_carlo, solve_dual1, solve_dual2,
                      solve_primal, update_nu)
from zsbgames.dual_solver import dual_template


def _copy(mat):
    return lp_core.CsrMatrix(mat.indptr.copy(), mat.indices.copy(),
                             mat.data.copy(), mat.shape)


def _fingerprint(lp, basis, fresh=False):
    """x, objective, iterations and basis statuses of `lp` solved from
    `basis`; with `fresh`, on copies of its arrays, which no kept model
    holds."""
    arrays = dict(c=lp.c, bounds=lp.bounds, A_ub=lp.a_ub, A_eq=lp.a_eq)
    if fresh:
        arrays = dict(c=lp.c.copy(), bounds=lp.bounds.copy(),
                      A_ub=_copy(lp.a_ub), A_eq=_copy(lp.a_eq))
        assert arrays["A_ub"] not in lp_core._FAMILIES
    res = lp_core.linprog(arrays.pop("c"), b_ub=lp.b_ub, b_eq=lp.b_eq,
                          basis=basis, **arrays)
    assert res.status == 0
    return (res.x.tobytes(), res.fun.hex(), res.nit,
            [int(s) for s in res.basis.col_status],
            [int(s) for s in res.basis.row_status])


def test_kept_model_solves_as_a_fresh_model(case_study):
    """50 statistics of one dual template, solved warm forward and then
    reversed, between solves of another template and cold solves of the
    same family, give a fresh model's bytes every time."""
    spec = case_study
    rng = np.random.default_rng(23)
    template = dual_template(spec, 2, 3, spec.lam)
    other = dual_template(spec, 1, 2, spec.lam)
    solve_dual2(spec, spec.p0, np.zeros(spec.num_l), 3, spec.lam, template)
    lps = [template.lp_at(rng.dirichlet(np.ones(spec.num_k)),
                          rng.uniform(-150.0, 0.0, spec.num_l))
           for _ in range(50)]
    want = [_fingerprint(lp, lp.basis, fresh=True) for lp in lps]
    assert sum(fp[2] > 0 for fp in want) >= 10     # warm solves that pivot
    for order in (range(50), reversed(range(50))):
        for i in order:
            assert _fingerprint(lps[i], lps[i].basis) == want[i]
            if i % 5 == 0:
                solve_dual1(spec, rng.uniform(-150.0, 0.0, spec.num_k),
                            spec.q0, 2, spec.lam, other)
                assert (_fingerprint(lps[i], None)
                        == _fingerprint(lps[i], None, fresh=True))
    assert lp_core._FAMILIES[template.lp.a_ub].model is not None


def test_kept_models_live_only_as_long_as_their_family(case_study):
    """Primal and update LPs keep no model; a dual template's or solver
    cache's models go when it is dropped and collected."""
    spec = case_study
    gc.collect()
    before = len(lp_core._FAMILIES)
    primal = solve_primal(spec, spec.p0, spec.q0, 2, spec.lam, 1)
    update_nu(spec, primal.initial_vector_payoff, spec.p0,
              primal.strategy.stage1_matrix(), 0, 1, 2, spec.lam)
    assert len(lp_core._FAMILIES) == before

    template = dual_template(spec, 2, 2, spec.lam)
    solve_dual2(spec, spec.p0, np.zeros(spec.num_l), 2, spec.lam, template)
    family = lp_core._FAMILIES[template.lp.a_ub]
    assert family.model is not None
    family = weakref.ref(family)
    del template
    gc.collect()
    assert family() is None and len(lp_core._FAMILIES) == before

    cell = dataclasses.replace(spec, lam=0.6, horizon_n=4)
    config = WindowConfig(window_n=2, total_horizon=4)
    cache = SolverCache(cell)
    run_monte_carlo(cell, lambda: WindowAgent(cell, config, 1, cache),
                    lambda: WindowAgent(cell, config, 2, cache), 20, 0)
    families = [weakref.ref(f) for f in lp_core._FAMILIES.values()]
    assert len(families) > before
    del cache
    gc.collect()
    assert len(lp_core._FAMILIES) == before
    assert sum(ref() is not None for ref in families) == before
