"""The benchmark's layer tracer (perfbench/tracer.py) against the package:
every entry point it names exists and gets wrapped, and uninstalling
puts every binding back."""

import types
from pathlib import Path

import zsbgames

from conftest import random_spec

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _load_tracer():
    """The tracer module, compiled from source so nothing is written beside it."""
    module = types.ModuleType("tracer")
    exec(compile(TRACER.read_text(), str(TRACER), "exec"), module.__dict__)
    return module


def _bindings(tracer):
    """Every module global and traced method of the package, by identity."""
    out = {}
    for mod in tracer._package_modules():
        for key, val in vars(mod).items():
            out[(mod.__name__, key)] = val
    for mod_name, cls_name, meth, _ in tracer.METHODS:
        cls = getattr(getattr(zsbgames, mod_name), cls_name)
        out[(cls, meth)] = cls.__dict__[meth]
    return out


def test_tracer_wraps_entry_points_and_restores_them(rng):
    tracer_mod = _load_tracer()
    spec = random_spec(rng, horizon=2)
    before = _bindings(tracer_mod)
    tracer = tracer_mod.Tracer()
    tracer.install()
    try:
        for mod_name, attr, _, _ in tracer_mod.FUNCTIONS:
            wrapped = getattr(getattr(zsbgames, mod_name), attr)
            assert wrapped.__wrapped__ is before[(f"zsbgames.{mod_name}", attr)]
        for mod_name, cls_name, meth, _ in tracer_mod.METHODS:
            cls = getattr(getattr(zsbgames, mod_name), cls_name)
            assert cls.__dict__[meth].__wrapped__ is before[(cls, meth)]
        for side in (1, 2):
            zsbgames.solve_primal(spec, spec.p0, spec.q0, 2, spec.lam, side)
        summary = tracer.summary()
    finally:
        tracer.uninstall()
    after = _bindings(tracer_mod)
    assert after.keys() == before.keys()
    assert all(after[key] is val for key, val in before.items())
    # side 1 solves side 2 first, through the traced name, so the pair is
    # three primal solves; the best response runs once per primal solve
    # and solves no LP
    assert summary["best_response.solves"] == 3
    assert summary["lp_core.solves"] == 3
    assert summary["lp_core.solves.primal1"] == 1
    assert summary["lp_core.solves.primal2"] == 2
    assert summary["lp_core.solves.br1"] == summary["lp_core.solves.br2"] == 0


def test_tracer_sees_every_highs_run(rng):
    """lp_core.linprog is the one HiGHS entry point: the traced sizes of a
    primal pair are those of the compiled LPs, with iterations; side 1's
    solve runs side 2's LP too, so that one counts twice."""
    tracer_mod = _load_tracer()
    spec = random_spec(rng, horizon=2)
    want = {"vars": 0, "rows": 0, "nnz": 0}
    for side in (1, 2, 2):
        lp = zsbgames.primal_solver.build_primal(
            spec, spec.p0, spec.q0, 2, spec.lam, side)[0]
        mats = (lp.a_ub, lp.a_eq)
        want["vars"] += lp.num_vars
        want["rows"] += sum(m.shape[0] for m in mats)
        want["nnz"] += sum(m.nnz for m in mats)
    tracer = tracer_mod.Tracer()
    tracer.install()
    try:
        for side in (1, 2):
            zsbgames.solve_primal(spec, spec.p0, spec.q0, 2, spec.lam, side)
        summary = tracer.summary()
    finally:
        tracer.uninstall()
    assert summary["lp_core.highs_iterations"] > 0
    assert summary["lp_core.not_optimal"] == 0
    for key, value in want.items():
        assert summary[f"lp_core.{key}"] == value


def test_traced_window_play_records_belief_updates(rng):
    """Window play advances its belief through the public Bayes rules, so
    the tracer sees one belief span per agent and new public prefix."""
    tracer_mod = _load_tracer()
    spec = random_spec(rng, horizon=3)
    config = zsbgames.WindowConfig(window_n=2, total_horizon=3)
    cache = zsbgames.SolverCache(spec)
    tracer = tracer_mod.Tracer()
    tracer.install()
    try:
        zsbgames.run_episode(spec, zsbgames.WindowAgent(spec, config, 1, cache),
                             zsbgames.WindowAgent(spec, config, 2, cache), 0)
        summary = tracer.summary()
    finally:
        tracer.uninstall()
    assert summary["stat_updater.belief_updates"] == 2 * (spec.horizon_n - 1)
    assert summary["stat_updater.belief_s"] > 0.0
