import dataclasses
import json

import numpy as np
import pytest

from zsbgames import (GameSpec, ParseError, ValidationError, g_bar,
                      load_spec, save_spec, validate)
from zsbgames.game_model import loads_spec

from conftest import constant_spec, random_spec


def test_validate_accepts_random_specs():
    rng = np.random.default_rng(1)
    for _ in range(10):
        validate(random_spec(rng, num_k=3, num_l=2, num_a=2, num_b=3))


def test_validate_rejects_negative_payoff():
    spec = constant_spec()
    bad = spec.payoff.copy()
    bad[0, 0, 0, 0] = -0.5
    with pytest.raises(ValidationError, match="payoff"):
        validate(dataclasses.replace(spec, payoff=bad))


def test_validate_rejects_non_distribution_prior():
    spec = constant_spec()
    with pytest.raises(ValidationError, match="p0"):
        validate(dataclasses.replace(spec, p0=np.array([0.7, 0.7])))


def test_validate_rejects_non_stochastic_transition():
    spec = constant_spec()
    bad = spec.trans_q.copy()
    bad[0, 0, 0] = [0.9, 0.3]
    with pytest.raises(ValidationError, match="trans_q"):
        validate(dataclasses.replace(spec, trans_q=bad))


def test_validate_rejects_bad_lambda_and_horizon():
    spec = constant_spec()
    with pytest.raises(ValidationError, match="lambda"):
        validate(dataclasses.replace(spec, lam=0.0))
    with pytest.raises(ValidationError, match="lambda"):
        validate(dataclasses.replace(spec, lam=1.2))
    with pytest.raises(ValidationError, match="horizon"):
        validate(dataclasses.replace(spec, horizon_n=0))


def test_validate_rejects_shape_mismatch():
    spec = constant_spec()
    with pytest.raises(ValidationError, match="shape"):
        validate(dataclasses.replace(spec, num_k=3))


def test_g_bar_is_max_entry():
    spec = constant_spec(c=2.5)
    assert g_bar(spec) == 2.5


def test_round_trip_is_bit_exact(tmp_path):
    rng = np.random.default_rng(2)
    spec = random_spec(rng, num_k=3, num_l=2, num_a=2, num_b=2, horizon=4)
    path = tmp_path / "game.json"
    save_spec(spec, path)
    again = load_spec(path)
    for name in ("payoff", "p0", "q0", "trans_p", "trans_q"):
        assert np.array_equal(getattr(spec, name), getattr(again, name))
    assert again.lam == spec.lam and again.horizon_n == spec.horizon_n


def test_load_rejects_missing_keys(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"num_k": 2}))
    with pytest.raises(ParseError, match="missing keys"):
        load_spec(path)


def test_load_rejects_invalid_json():
    with pytest.raises(ParseError, match="invalid JSON"):
        loads_spec("{not json")


def test_load_missing_file():
    with pytest.raises(ParseError, match="cannot read"):
        load_spec("/nonexistent/game.json")


def test_load_runs_validation(tmp_path):
    spec = constant_spec()
    path = tmp_path / "game.json"
    save_spec(spec, path)
    doc = json.loads(path.read_text())
    doc["p0"] = [0.9, 0.9]
    path.write_text(json.dumps(doc))
    with pytest.raises(ValidationError):
        load_spec(path)


def _spec_doc(**changes):
    spec = constant_spec()
    doc = {"num_k": spec.num_k, "num_l": spec.num_l, "num_a": spec.num_a,
           "num_b": spec.num_b, "lambda": spec.lam, "horizon": spec.horizon_n,
           "p0": spec.p0.tolist(), "q0": spec.q0.tolist(),
           "payoff": spec.payoff.tolist(), "trans_p": spec.trans_p.tolist(),
           "trans_q": spec.trans_q.tolist()}
    doc.update(changes)
    return json.dumps(doc)


@pytest.mark.parametrize("key,value", [("num_k", 2.7), ("horizon", 2.5),
                                       ("num_b", 1.0000001)])
def test_load_rejects_fractional_sizes_and_horizon(key, value):
    with pytest.raises(ValidationError, match=f"{key} must be an integer"):
        loads_spec(_spec_doc(**{key: value}))


@pytest.mark.parametrize("key", ["num_l", "num_a", "horizon"])
def test_load_rejects_boolean_sizes_and_horizon(key):
    with pytest.raises(ValidationError, match=f"{key} must be an integer"):
        loads_spec(_spec_doc(**{key: True}))


def test_load_rejects_boolean_lambda():
    with pytest.raises(ValidationError, match="lambda must be a number"):
        loads_spec(_spec_doc(**{"lambda": True}))


def test_load_accepts_integral_floats():
    spec = constant_spec()
    loaded = loads_spec(_spec_doc(num_k=float(spec.num_k),
                                  horizon=float(spec.horizon_n)))
    assert (loaded.num_k, loaded.horizon_n) == (spec.num_k, spec.horizon_n)


def test_case_study_matches_published_tables(case_study):
    spec = case_study
    assert (spec.num_k, spec.num_l, spec.num_a, spec.num_b) == (3, 2, 2, 2)
    assert spec.lam == 0.3 and spec.horizon_n == 4
    assert np.array_equal(spec.p0, [0.5, 0.3, 0.2])
    assert np.array_equal(spec.q0, [0.5, 0.5])
    assert spec.payoff[1, 1, 0, 0] == 24.89
    assert spec.trans_p[0, 0, 1, 1] == 0.4
    assert spec.trans_q[0, 0, 1, 1] == 0.5
    assert g_bar(spec) == 154.4
    validate(spec)


def test_side_views_mirror_each_other():
    spec = random_spec(np.random.default_rng(4), num_k=3, num_l=2, num_a=2,
                       num_b=3)
    one, two = spec.side(1), spec.side(2)
    assert (one.side, one.opp, two.side, two.opp) == (1, 2, 2, 1)
    assert (one.num_states, one.num_opp_states, one.num_actions,
            one.num_opp_actions) == (3, 2, 2, 3)
    assert (two.num_states, two.num_opp_states, two.num_actions,
            two.num_opp_actions) == (2, 3, 3, 2)
    assert one.prior is spec.p0 and two.prior is spec.q0
    assert one.trans is spec.trans_p and one.opp_trans is spec.trans_q
    assert two.trans is spec.trans_q and two.opp_trans is spec.trans_p
    for k, l, a, b in np.ndindex(spec.payoff.shape):
        assert one.payoff[k, l, a, b] == spec.payoff[k, l, a, b]
        assert two.payoff[l, k, b, a] == spec.payoff[k, l, a, b]
    assert one.pair("own", "opp") == ("own", "opp")
    assert two.pair("own", "opp") == ("opp", "own")
    with pytest.raises(ValueError):
        spec.side(3)
