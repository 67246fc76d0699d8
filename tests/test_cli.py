import json

import pytest
from click.testing import CliRunner

from zsbgames import lp_core, primal_solver, save_spec
from zsbgames.cli import main
from zsbgames.game_model import case_study_path

from conftest import constant_spec, random_spec


def _write(tmp_path, spec, name="game.json"):
    path = tmp_path / name
    save_spec(spec, path)
    return str(path)


def test_validate_ok():
    result = CliRunner().invoke(main, ["validate", str(case_study_path())])
    assert result.exit_code == 0
    assert "valid" in result.output


def test_validate_bad_file(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"num_k": 1}))
    result = CliRunner().invoke(main, ["validate", str(path)])
    assert result.exit_code == 5
    result = CliRunner().invoke(main, ["validate", str(tmp_path / "no.json")])
    assert result.exit_code == 5


def test_validate_invalid_model(tmp_path):
    spec = constant_spec()
    path = tmp_path / "game.json"
    save_spec(spec, path)
    doc = json.loads(path.read_text())
    doc["p0"] = [0.9, 0.9]
    path.write_text(json.dumps(doc))
    result = CliRunner().invoke(main, ["validate", str(path)])
    assert result.exit_code == 2


@pytest.mark.parametrize("key,value,code", [
    ("lambda", "0.5", 5), ("horizon", "2", 5), ("p0", ["0.5", 0.5], 5),
    ("p0", [None, 0.5], 5), ("p0", [True, False, False], 2),
    ("p0", [True, 0.5], 2),
])
def test_validate_rejects_non_numbers(tmp_path, key, value, code):
    path = tmp_path / "game.json"
    save_spec(constant_spec(), path)
    doc = json.loads(path.read_text())
    doc[key] = value
    path.write_text(json.dumps(doc))
    result = CliRunner().invoke(main, ["validate", str(path)])
    assert result.exit_code == code, result.output
    assert result.output.startswith(f"error: {key} must be")


def test_solve_constant_payoff(tmp_path):
    path = _write(tmp_path, constant_spec(c=1.0, lam=0.5, horizon=3))
    result = CliRunner().invoke(main, ["solve", "--spec", path])
    assert result.exit_code == 0, result.output
    assert result.output.splitlines()[0] == "value=1.750000"
    assert any(line.startswith("nu[0]=") for line in result.output.splitlines())


def test_solve_side2_prints_mu(tmp_path):
    path = _write(tmp_path, constant_spec())
    result = CliRunner().invoke(main, ["solve", "--spec", path, "--side", "2"])
    assert result.exit_code == 0
    assert "mu[0]=" in result.output and "nu[" not in result.output


def test_solve_with_overrides_and_dump(tmp_path, rng):
    path = _write(tmp_path, random_spec(rng, horizon=3))
    dump = tmp_path / "model.lp"
    result = CliRunner().invoke(main, [
        "solve", "--spec", path, "--horizon", "2", "--lambda", "0.9",
        "--p", "0.25,0.75", "--q", "1,0", "--strategy",
        "--dump-lp", str(dump)])
    assert result.exit_code == 0, result.output
    assert dump.read_text().startswith("Maximize")
    assert "stage1[state=0]=" in result.output


def test_solve_dump_lp_builds_the_solved_lp_once(tmp_path, rng, monkeypatch):
    path = _write(tmp_path, random_spec(rng, horizon=3))
    dump = tmp_path / "model.lp"
    built, solved = [], []
    build = primal_solver.build_primal
    solve = lp_core.solve

    def counting_build(*args, **kwargs):
        out = build(*args, **kwargs)
        built.append(out[0])
        return out

    def recording_solve(lp):
        solved.append(lp)
        return solve(lp)

    monkeypatch.setattr(primal_solver, "build_primal", counting_build)
    monkeypatch.setattr(lp_core, "solve", recording_solve)
    result = CliRunner().invoke(main, ["solve", "--spec", path, "--side", "2",
                                       "--dump-lp", str(dump)])
    assert result.exit_code == 0, result.output
    assert len(built) == 1
    assert solved[0] is built[0]
    expected = tmp_path / "expected.lp"
    lp_core.write_lp_text(built[0], expected)
    assert dump.read_text() == expected.read_text()


def test_solve_side1_dumps_only_its_own_lp(tmp_path, rng, monkeypatch):
    """Side 1 solves side 2's LP first; only side 1's LP is dumped."""
    spec = random_spec(rng, num_k=3, horizon=2)
    path = _write(tmp_path, spec)
    dump = tmp_path / "model.lp"
    written = []
    write = lp_core.write_lp_text

    def counting_write(lp, out):
        written.append(lp.num_vars)
        write(lp, out)

    monkeypatch.setattr(lp_core, "write_lp_text", counting_write)
    result = CliRunner().invoke(main, ["solve", "--spec", path, "--side", "1",
                                       "--dump-lp", str(dump)])
    assert result.exit_code == 0, result.output
    lp = primal_solver.build_primal(spec, spec.p0, spec.q0, 2, spec.lam, 1)[0]
    assert lp.num_vars != primal_solver.build_primal(
        spec, spec.p0, spec.q0, 2, spec.lam, 2)[0].num_vars
    assert written == [lp.num_vars]
    expected = tmp_path / "expected.lp"
    write(lp, expected)
    assert dump.read_text() == expected.read_text()


@pytest.mark.parametrize("key,value", [("num_a", 2.7), ("horizon", True)])
def test_validate_non_integer_size_exits_2(tmp_path, key, value):
    path = tmp_path / "game.json"
    save_spec(constant_spec(), path)
    doc = json.loads(path.read_text())
    doc[key] = value
    path.write_text(json.dumps(doc))
    result = CliRunner().invoke(main, ["validate", str(path)])
    assert result.exit_code == 2
    assert f"{key} must be an integer" in result.output


def test_solve_rejects_bad_distribution_flag(tmp_path, rng):
    path = _write(tmp_path, random_spec(rng))
    result = CliRunner().invoke(main, ["solve", "--spec", path,
                                       "--p", "0.9,0.9"])
    assert result.exit_code == 2


def test_solve_matches_oracle(tmp_path, rng):
    path = _write(tmp_path, random_spec(rng, horizon=2))
    runner = CliRunner()
    solved = runner.invoke(main, ["solve", "--spec", path])
    oracled = runner.invoke(main, ["oracle", "--spec", path])
    assert solved.exit_code == 0 and oracled.exit_code == 0
    v_solve = float(solved.output.splitlines()[0].split("=")[1])
    v_oracle = float(oracled.output.splitlines()[0].split("=")[1])
    assert abs(v_solve - v_oracle) < 1e-5


def test_oracle_capacity_exit_code(tmp_path, rng):
    path = _write(tmp_path, random_spec(rng, horizon=3))
    result = CliRunner().invoke(main, ["oracle", "--spec", path])
    assert result.exit_code == 3


@pytest.mark.parametrize("command,horizon", [("solve", 4000), ("oracle", 6)])
def test_case_study_capacity_exit_code(command, horizon):
    """A horizon far past the size limits exits 3 with a one-line message,
    without forming the size it refuses."""
    result = CliRunner().invoke(main, [command, "--spec", str(case_study_path()),
                                       "--horizon", str(horizon)])
    assert result.exit_code == 3, result.output
    assert result.output.startswith("error: ") and len(result.output) < 120


def test_oracle_uncertified_lp_exit_code(tmp_path, rng, monkeypatch):
    """A matrix-game LP whose point fails the certificate is a solver
    failure (exit 4), not a crash."""
    path = _write(tmp_path, random_spec(rng, horizon=1))
    real = lp_core._solution

    def shifted(model):
        x, rows = real(model)
        return x, rows + 1e-3
    monkeypatch.setattr(lp_core, "_solution", shifted)
    result = CliRunner().invoke(main, ["oracle", "--spec", path])
    assert result.exit_code == 4
    assert "matrix game LP failed" in result.output


def test_solve_infeasible_lp_exit_code(tmp_path, rng, monkeypatch):
    """An LP that HiGHS reports infeasible is a solver failure (exit 4)."""
    path = _write(tmp_path, random_spec(rng))
    monkeypatch.setattr(lp_core, "linprog", lambda *args, **kwargs: lp_core.HighsResult(
        None, None, 2, 0, "HiGHS model status Infeasible"))
    result = CliRunner().invoke(main, ["solve", "--spec", path])
    assert result.exit_code == 4, result.output
    assert result.output.startswith("error: LP is infeasible")


def test_bound_command():
    result = CliRunner().invoke(main, [
        "bound", "--lambda", "0.3", "--window", "2", "--horizon", "4",
        "--gbar", "154.4"])
    assert result.exit_code == 0
    assert result.output.strip() == "bound=18.064800"


def test_bound_domain_error_exit_code():
    result = CliRunner().invoke(main, [
        "bound", "--lambda", "2.0", "--window", "2", "--horizon", "4",
        "--gbar", "1.0"])
    assert result.exit_code == 2


@pytest.mark.parametrize("gbar", ["nan", "inf"])
def test_bound_rejects_non_finite_gbar(gbar):
    result = CliRunner().invoke(main, [
        "bound", "--lambda", "0.5", "--window", "2", "--horizon", "4",
        "--gbar", gbar])
    assert result.exit_code == 2, result.output
    assert "g_bar must be finite" in result.output


def test_play_window_vs_optimal(tmp_path, rng):
    path = _write(tmp_path, random_spec(rng, horizon=3))
    result = CliRunner().invoke(main, [
        "play", "--spec", path, "--window", "2", "--runs", "10",
        "--seed", "3", "--p1", "optimal", "--p2", "window"])
    assert result.exit_code == 0, result.output
    lines = result.output.strip().splitlines()
    assert lines[0] == "seed,total"
    assert lines[-1].startswith("bound=")
    assert "satisfied=" in lines[-1]


def test_play_fixed_policy_and_out_file(tmp_path, rng):
    spec = random_spec(rng, horizon=2)
    path = _write(tmp_path, spec)
    pol = tmp_path / "pol.json"
    pol.write_text('{"policy": [[0.5, 0.5], [1.0, 0.0]]}')
    out = tmp_path / "results.csv"
    result = CliRunner().invoke(main, [
        "play", "--spec", path, "--runs", "5", "--seed", "0",
        "--p1", "optimal", "--p2", f"fixed:{pol}", "--out", str(out)])
    assert result.exit_code == 0, result.output
    assert out.read_text().startswith("seed,total")
    assert result.output.strip().startswith("bound=")


def test_play_unknown_agent_exit_code(tmp_path, rng):
    path = _write(tmp_path, random_spec(rng))
    result = CliRunner().invoke(main, [
        "play", "--spec", path, "--runs", "2", "--p1", "mystery"])
    assert result.exit_code == 2


def test_play_window_requires_window_flag(tmp_path, rng):
    path = _write(tmp_path, random_spec(rng))
    result = CliRunner().invoke(main, [
        "play", "--spec", path, "--runs", "2", "--p1", "window",
        "--p2", "optimal"])
    assert result.exit_code == 2


def test_play_deterministic_output(tmp_path, rng):
    path = _write(tmp_path, random_spec(rng, horizon=2))
    args = ["play", "--spec", path, "--window", "2", "--runs", "5",
            "--seed", "11", "--p1", "window", "--p2", "window"]
    runner = CliRunner()
    assert runner.invoke(main, args).output == runner.invoke(main, args).output


def test_reproduce_case_study_tiny(tmp_path):
    outdir = tmp_path / "results"
    result = CliRunner().invoke(main, [
        "reproduce-case-study", "--outdir", str(outdir), "--runs", "10",
        "--grid-runs", "0", "--seed", "1"])
    assert result.exit_code == 0, result.output
    assert (outdir / "summary.txt").exists()
    assert (outdir / "mc_p1_optimal_vs_p2_window.csv").exists()
    assert (outdir / "mc_p1_window_vs_p2_optimal.csv").exists()
    summary = (outdir / "summary.txt").read_text()
    assert summary.startswith("value=112.905")
    assert "bound=18.064800" in summary


def test_reproduce_case_study_solves_full_primal_once(tmp_path, monkeypatch):
    """The printed value and both matchups share the n=4 side-1 primal."""
    calls = []
    real = primal_solver.solve_primal

    def counting(spec, p, q, n, lam, side, **kwargs):
        calls.append((n, side))
        return real(spec, p, q, n, lam, side, **kwargs)
    monkeypatch.setattr(primal_solver, "solve_primal", counting)
    result = CliRunner().invoke(main, [
        "reproduce-case-study", "--outdir", str(tmp_path / "out"),
        "--runs", "2", "--grid-runs", "0"])
    assert result.exit_code == 0, result.output
    assert calls.count((4, 1)) == 1


@pytest.mark.parametrize("flag,value", [("--horizon", "0"), ("--lambda", "7")])
def test_oracle_rejects_bad_horizon_and_lambda(tmp_path, rng, flag, value):
    path = _write(tmp_path, random_spec(rng, horizon=2))
    result = CliRunner().invoke(main, ["oracle", "--spec", path, flag, value])
    assert result.exit_code == 2
    assert f"{flag} must" in result.output


def test_solve_rejects_nan_distribution(tmp_path, rng):
    path = _write(tmp_path, random_spec(rng, num_k=3))
    result = CliRunner().invoke(main, ["solve", "--spec", path,
                                       "--p", "nan,0.5,0.5"])
    assert result.exit_code == 2
    assert "--p must be a probability distribution" in result.output


def test_play_rejects_nan_fixed_policy(tmp_path, rng):
    path = _write(tmp_path, random_spec(rng, horizon=2))
    pol = tmp_path / "pol.json"
    pol.write_text('{"policy": [[NaN, 0.5], [1.0, 0.0]]}')
    result = CliRunner().invoke(main, [
        "play", "--spec", path, "--runs", "2", "--p1", "optimal",
        "--p2", f"fixed:{pol}"])
    assert result.exit_code == 2
    assert "fixed policy rows must be distributions" in result.output


@pytest.mark.parametrize("policy", ["[[1, 0], [0.5]]", '"abc"'],
                         ids=["ragged", "string"])
def test_play_malformed_fixed_policy_exit_5(tmp_path, rng, policy):
    path = _write(tmp_path, random_spec(rng, horizon=2))
    pol = tmp_path / "pol.json"
    pol.write_text(f'{{"policy": {policy}}}')
    result = CliRunner().invoke(main, [
        "play", "--spec", path, "--runs", "2", "--p1", "optimal",
        "--p2", f"fixed:{pol}"])
    assert result.exit_code == 5, result.output
    assert result.output.startswith("error: fixed policy must be")


def test_play_boolean_fixed_policy_exit_2(tmp_path, rng):
    path = _write(tmp_path, random_spec(rng, horizon=2))
    pol = tmp_path / "pol.json"
    pol.write_text('{"policy": [[true, false], [false, true]]}')
    result = CliRunner().invoke(main, [
        "play", "--spec", path, "--runs", "2", "--p1", "optimal",
        "--p2", f"fixed:{pol}"])
    assert result.exit_code == 2, result.output
    assert result.output.startswith("error: fixed policy must be")


@pytest.mark.parametrize("args", [
    ["play", "--runs", "0"],
    ["reproduce-case-study", "--runs", "0"],
    ["reproduce-case-study", "--grid-runs", "-1"],
    ["play", "--seed", "-1"],
    ["reproduce-case-study", "--seed", "-1"],
])
def test_run_counts_out_of_range_exit_2(tmp_path, rng, args):
    if args[0] == "play":
        args = args + ["--spec", _write(tmp_path, random_spec(rng))]
    else:
        args = args + ["--outdir", str(tmp_path / "out")]
    result = CliRunner().invoke(main, args)
    assert result.exit_code == 2
    assert "Invalid value" in result.output
    assert not (tmp_path / "out").exists()
