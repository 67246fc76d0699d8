"""Layer spans for the zsbgames package, recorded from outside it.

`Tracer.install()` rebinds the public names through which each layer is
reached to wrappers that record one span per call, in every zsbgames
module that holds a binding (functions) or on the class itself (methods);
`Tracer.uninstall()` puts the originals back. A span has a name, a parent
span, a start, an end and, for LP entry points and HiGHS runs, a few
attributes. A span's self time is its duration minus that of its direct
children, so the self times of all spans under a root add up to the
root's duration.
"""

from __future__ import annotations

import inspect
import sys
import time
from collections import defaultdict

LP_KINDS = ("primal1", "primal2", "dual1", "dual2",
            "update1", "update2", "br1", "br2")

# (module, attribute, span name, LP kind of the calls it makes)
FUNCTIONS = (
    ("lp_core", "solve", "lp_core.solve", None),
    ("lp_core", "linprog", "lp_core.highs", None),
    ("primal_solver", "add_sequence_system", "primal_solver.seq_system", None),
    ("primal_solver", "extract_strategy", "primal_solver.extract", None),
    ("primal_solver", "solve_primal", "primal_solver.solve", "primal"),
    ("best_response", "best_response_vs_p1", "best_response.vs_p1", "br1"),
    ("best_response", "best_response_vs_p2", "best_response.vs_p2", "br2"),
    ("dual_solver", "solve_dual1", "dual_solver.dual1", "dual1"),
    ("dual_solver", "solve_dual2", "dual_solver.dual2", "dual2"),
    ("stat_updater", "update_mu", "stat_updater.update_mu", "update1"),
    ("stat_updater", "update_nu", "stat_updater.update_nu", "update2"),
    ("stat_updater", "update_belief_p", "stat_updater.belief_p", None),
    ("stat_updater", "update_belief_q", "stat_updater.belief_q", None),
    ("simulator", "run_episode", "simulator.episode", None),
)

# (module, class, method, span name)
METHODS = (
    ("lp_core", "LpBuilder", "build", "lp_core.build"),
    ("history_index", "HistoryIndex", "__init__", "history_index.build"),
    *(("window_agent", "SolverCache", m, "window_agent.cache")
      for m in ("primal", "dual1", "dual2", "update_mu", "update_nu")),
    *(("window_agent", "WindowAgent", m, "window_agent.agent")
      for m in ("begin_episode", "act", "observe")),
)

# span name -> per-layer metric that collects its self time
SELF_TIME = {
    "root": "other_s",
    "lp_core.solve": "lp_core.assemble_s",
    "lp_core.highs": "lp_core.highs_s",
    "lp_core.build": "lp_core.build_s",
    "primal_solver.seq_system": "primal_solver.seq_system_s",
    "primal_solver.extract": "primal_solver.extract_s",
    "primal_solver.solve": "primal_solver.self_s",
    "best_response.vs_p1": "best_response.self_s",
    "best_response.vs_p2": "best_response.self_s",
    "history_index.build": "history_index.build_s",
    "dual_solver.dual1": "dual_solver.self_s",
    "dual_solver.dual2": "dual_solver.self_s",
    "stat_updater.update_mu": "stat_updater.update_self_s",
    "stat_updater.update_nu": "stat_updater.update_self_s",
    "stat_updater.belief_p": "stat_updater.belief_s",
    "stat_updater.belief_q": "stat_updater.belief_s",
    "window_agent.cache": "window_agent.cache_self_s",
    "window_agent.agent": "window_agent.agent_self_s",
    "simulator.episode": "simulator.self_s",
}

# solver entry points; one called from a cache span is a cache miss
ENTRY_SPANS = ("primal_solver.solve", "dual_solver.dual1", "dual_solver.dual2",
               "stat_updater.update_mu", "stat_updater.update_nu")


def _package_modules():
    return [mod for name, mod in list(sys.modules.items())
            if mod is not None and (name == "zsbgames" or name.startswith("zsbgames."))]


class Tracer:
    """Span recorder; spans live in parallel lists until `summary()`."""

    def __init__(self):
        self.names, self.parents, self.starts, self.ends = [], [], [], []
        self.attrs = []                       # LP kind, or HiGHS record dict
        self._stack = []
        self._undo = []

    # -- recording ---------------------------------------------------------

    def open(self, name, attr=None) -> int:
        sid = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.attrs.append(attr)
        self.ends.append(0.0)
        self._stack.append(sid)
        self.starts.append(time.perf_counter())
        return sid

    def close(self, sid) -> None:
        self.ends[sid] = time.perf_counter()
        self._stack.pop()

    def _current_kind(self):
        for sid in reversed(self._stack):
            if isinstance(self.attrs[sid], str):
                return self.attrs[sid]
        return "unknown"

    # -- wrappers ----------------------------------------------------------

    def _span_wrapper(self, fn, name, kind):
        tracer = self
        side_of = None
        if kind == "primal":
            sig = inspect.signature(fn)
            side_of = lambda a, k: f"primal{sig.bind(*a, **k).arguments['side']}"

        def traced(*args, **kwargs):
            sid = tracer.open(name, side_of(args, kwargs) if side_of else kind)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.close(sid)
        traced.__wrapped__ = fn
        return traced

    def _highs_wrapper(self, fn):
        tracer = self

        def traced(c, *args, **kwargs):
            record = {"kind": tracer._current_kind(), "vars": len(c),
                      "iterations": 0, "status": -1}   # kept if HiGHS raises
            rows = nnz = 0
            for key in ("A_ub", "A_eq"):
                mat = kwargs.get(key)
                if mat is not None:
                    rows += mat.shape[0]
                    nnz += mat.nnz
            record.update(rows=rows, nnz=nnz)
            sid = tracer.open("lp_core.highs", record)
            try:
                res = fn(c, *args, **kwargs)
            finally:
                tracer.close(sid)
            record.update(iterations=int(res.nit), status=int(res.status))
            return res
        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        import zsbgames  # noqa: F401  (loads every module named below)
        modules = _package_modules()
        by_name = {mod.__name__.rpartition(".")[2]: mod for mod in modules}
        for mod_name, attr, span, kind in FUNCTIONS:
            orig = getattr(by_name[mod_name], attr)
            wrapper = (self._highs_wrapper(orig) if span == "lp_core.highs"
                       else self._span_wrapper(orig, span, kind))
            for mod in modules:
                for key, val in list(vars(mod).items()):
                    if val is orig:
                        setattr(mod, key, wrapper)
                        self._undo.append((mod, key, orig))
        for mod_name, cls_name, meth, span in METHODS:
            cls = getattr(by_name[mod_name], cls_name)
            orig = cls.__dict__[meth]
            setattr(cls, meth, self._span_wrapper(orig, span, None))
            self._undo.append((cls, meth, orig))

    def uninstall(self) -> None:
        while self._undo:
            owner, key, orig = self._undo.pop()
            setattr(owner, key, orig)

    # -- summary -----------------------------------------------------------

    def summary(self) -> dict:
        """Per-layer counts and times of everything recorded."""
        n = len(self.names)
        dur = [self.ends[i] - self.starts[i] for i in range(n)]
        child = [0.0] * n
        for i, parent in enumerate(self.parents):
            if parent >= 0:
                child[parent] += dur[i]
        out = defaultdict(float)
        for metric in set(SELF_TIME.values()):
            out[metric] = 0.0
        for kind in LP_KINDS:
            out[f"lp_core.solves.{kind}"] = 0
            out[f"lp_core.highs_iterations.{kind}"] = 0
            out[f"lp_core.highs_s.{kind}"] = 0.0
        counts = defaultdict(int)
        for i, name in enumerate(self.names):
            out[SELF_TIME[name]] += dur[i] - child[i]
            counts[name] += 1
            if name in ENTRY_SPANS and self.parents[i] >= 0 and \
                    self.names[self.parents[i]] == "window_agent.cache":
                counts["miss"] += 1
            if name == "lp_core.highs":
                rec = self.attrs[i]
                kind = rec["kind"]
                out[f"lp_core.solves.{kind}"] += 1
                out[f"lp_core.highs_iterations.{kind}"] += rec["iterations"]
                out[f"lp_core.highs_s.{kind}"] += dur[i]
                for key in ("vars", "rows", "nnz"):
                    out[f"lp_core.{key}"] += rec[key]
                out["lp_core.highs_iterations"] += rec["iterations"]
                out["lp_core.not_optimal"] += rec["status"] != 0
        out["lp_core.solves"] = counts["lp_core.solve"]
        out["primal_solver.seq_system_calls"] = counts["primal_solver.seq_system"]
        out["best_response.solves"] = (counts["best_response.vs_p1"]
                                       + counts["best_response.vs_p2"])
        out["history_index.builds"] = counts["history_index.build"]
        out["dual_solver.solves"] = (counts["dual_solver.dual1"]
                                     + counts["dual_solver.dual2"])
        out["stat_updater.update_solves"] = (counts["stat_updater.update_mu"]
                                             + counts["stat_updater.update_nu"])
        out["stat_updater.belief_updates"] = (counts["stat_updater.belief_p"]
                                              + counts["stat_updater.belief_q"])
        out["window_agent.cache_lookups"] = counts["window_agent.cache"]
        out["window_agent.cache_misses"] = counts["miss"]
        out["simulator.episodes"] = counts["simulator.episode"]
        out["root_s"] = sum(dur[i] for i in range(n) if self.parents[i] < 0)
        return dict(out)

    def first_lp_size(self, kind):
        """(vars, rows, nnz) of the first recorded HiGHS run of `kind`."""
        for name, rec in zip(self.names, self.attrs):
            if name == "lp_core.highs" and rec["kind"] == kind:
                return rec["vars"], rec["rows"], rec["nnz"]
        return None
