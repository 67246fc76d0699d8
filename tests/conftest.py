import numpy as np
import pytest
import scipy.sparse as sp

from zsbgames import GameSpec, load_case_study, primal_solver

# one line per acceptance criterion, echoed after the run so pass/fail
# verdicts survive pytest's output capture
ACCEPTANCE_LINES = []


@pytest.hookimpl(wrapper=True)
def pytest_pycollect_makeitem(collector):
    """`primal_layout` cases on `full`, the layout `build_primal` builds,
    carry the test's plain id (`test_x[2]`, not `test_x[full-2]`); only
    `compact` cases name their layout. Renamed as they are made, so a
    plain id selects its case from the command line."""
    items = yield
    for item in items if isinstance(items, list) else ():
        callspec = getattr(item, "callspec", None)
        if callspec is None or callspec.params.get("primal_layout") != "full":
            continue
        parts = [part for part in callspec.id.split("-") if part != "full"]
        item.name = item.originalname + (f"[{'-'.join(parts)}]" if parts else "")
        item._nodeid = f"{collector.nodeid}::{item.name}"
    return items


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


def scipy_csr(mat):
    """An lp_core.CsrMatrix as a scipy CSR matrix over the same arrays, for
    scipy's own routines."""
    return sp.csr_matrix((mat.data, mat.indices, mat.indptr), shape=mat.shape)


def random_spec(rng, num_k=2, num_l=2, num_a=2, num_b=2, horizon=2,
                lam=0.7, payoff_scale=5.0):
    """Random valid game: positive payoffs, strictly positive distributions."""
    def dist(shape):
        v = rng.uniform(0.1, 1.0, shape)
        return v / v.sum(axis=-1, keepdims=True)

    return GameSpec(
        num_k=num_k, num_l=num_l, num_a=num_a, num_b=num_b,
        payoff=rng.uniform(0.0, payoff_scale, (num_k, num_l, num_a, num_b)),
        p0=dist(num_k), q0=dist(num_l),
        trans_p=dist((num_a, num_b, num_k, num_k)),
        trans_q=dist((num_a, num_b, num_l, num_l)),
        lam=lam, horizon_n=horizon)


def constant_spec(c=1.0, lam=0.5, horizon=3, num_k=2, num_l=2,
                  num_a=2, num_b=2):
    """Every payoff entry equals c; the value is c * sum of discounts."""
    def uniform_trans(na, nb, ns):
        return np.full((na, nb, ns, ns), 1.0 / ns)

    return GameSpec(
        num_k=num_k, num_l=num_l, num_a=num_a, num_b=num_b,
        payoff=np.full((num_k, num_l, num_a, num_b), float(c)),
        p0=np.full(num_k, 1.0 / num_k), q0=np.full(num_l, 1.0 / num_l),
        trans_p=uniform_trans(num_a, num_b, num_k),
        trans_q=uniform_trans(num_a, num_b, num_l),
        lam=lam, horizon_n=horizon)


@pytest.fixture(scope="session")
def case_study():
    return load_case_study()


@pytest.fixture(params=["full", "compact"])
def primal_layout(request, monkeypatch):
    """The primal LP's row layout: `full` histories, as `build_primal`
    builds it, or `compact` (last own state, public pairs) rows, by a
    `primal_solver.add_sequence_system` that drops `full`. Plan consumers
    must read both alike."""
    if request.param == "compact":
        real = primal_solver.add_sequence_system

        def compact(*args, full=False, **kwargs):
            return real(*args, **kwargs)
        monkeypatch.setattr(primal_solver, "add_sequence_system", compact)
    return request.param


@pytest.fixture
def rng():
    return np.random.default_rng(20260823)
