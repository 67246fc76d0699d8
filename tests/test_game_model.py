import dataclasses
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

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


@pytest.mark.parametrize("field", ["num_k", "num_l", "num_a", "num_b",
                                   "horizon_n", "lam"])
@pytest.mark.parametrize("flag", [True, np.True_])
def test_validate_rejects_booleans(field, flag):
    """A boolean is no size and no discount factor, even where it equals
    the 1 a one-state, one-action game or lambda = 1 would hold; game
    files reject booleans too."""
    spec = constant_spec(lam=1.0, horizon=1, num_k=1, num_l=1, num_a=1,
                         num_b=1)
    with pytest.raises(ValidationError, match="lambda" if field == "lam"
                       else field):
        dataclasses.replace(spec, **{field: flag})


def test_validate_rejects_shape_mismatch():
    spec = constant_spec()
    with pytest.raises(ValidationError, match="shape"):
        validate(dataclasses.replace(spec, num_k=3))


def test_construction_and_replace_validate():
    spec = constant_spec()
    bad = spec.trans_p.copy()
    bad[1, 0, 1] = [0.6, 0.6]
    fields = {**dataclasses.asdict(spec), "trans_p": bad}
    with pytest.raises(ValidationError,
                       match=r"trans_p\[1,0,1,:\] .* sums to 1.2"):
        GameSpec(**fields)
    with pytest.raises(ValidationError, match=r"p0\[:\] .* sums to 1.8"):
        dataclasses.replace(spec, p0=[0.9, 0.9])
    with pytest.raises(ValidationError, match="q0"):
        dataclasses.replace(spec, q0=[1.5, -0.5])
    # a non-number is a ValidationError naming its field, not a TypeError
    for lam in ("0.5", None, 0.5j):
        with pytest.raises(ValidationError) as info:
            dataclasses.replace(spec, lam=lam)
        assert str(info.value) == f"lambda must lie in (0, 1], got {lam!r}"
    for p0 in (["a", "b", "c"], [10 ** 400, 0, 0]):
        with pytest.raises(ValidationError, match="p0 is not a numeric array"):
            dataclasses.replace(spec, p0=p0)


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


def test_numpy_scalars_round_trip(tmp_path):
    """`validate` accepts numpy integer counts, so `save_spec` writes them."""
    spec = random_spec(np.random.default_rng(3), num_k=3, num_l=2, horizon=3)
    numpy_spec = dataclasses.replace(
        spec, num_k=np.int64(3), num_l=np.int32(2), horizon_n=np.int64(3),
        lam=np.float64(spec.lam))
    for name, saved in (("a.json", spec), ("b.json", numpy_spec)):
        save_spec(saved, tmp_path / name)
    assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()
    again = load_spec(tmp_path / "b.json")
    assert again.num_k == 3 and again.horizon_n == 3 and again.lam == spec.lam


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


@pytest.mark.parametrize("changes", [
    {"lambda": "0.5"}, {"horizon": "2"}, {"p0": ["0.5", 0.5]},
    {"p0": [None, 0.5]}, {"lambda": [0.5]}, {"payoff": [[1.0], 2.0]},
], ids=["lambda-string", "horizon-string", "p0-string", "p0-null",
        "lambda-list", "payoff-ragged"])
def test_load_rejects_non_numbers(changes):
    with pytest.raises(ParseError, match=f"{next(iter(changes))} must be"):
        loads_spec(_spec_doc(**changes))


@pytest.mark.parametrize("p0", [[True, False, False], [True, 0.5]])
def test_load_rejects_booleans_in_arrays(p0):
    with pytest.raises(ValidationError, match="p0 must be"):
        loads_spec(_spec_doc(p0=p0))


def test_load_rejects_numbers_beyond_float_range():
    with pytest.raises(ValidationError, match="float range"):
        loads_spec(_spec_doc(**{"lambda": 10 ** 400}))


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


_KEYS = ("num_k", "num_l", "num_a", "num_b", "lambda", "horizon", "p0", "q0",
         "payoff", "trans_p", "trans_q")


@settings(derandomize=True, database=None, deadline=None, max_examples=150)
@given(st.lists(st.integers(1, 3), min_size=4, max_size=4),
       st.floats(1e-3, 1.0), st.integers(1, 5), st.integers(0, 2 ** 32 - 1),
       st.sampled_from(_KEYS), st.integers(0, 10 ** 6),
       st.sampled_from([True, False, "string", None]))
def test_spec_parsing_property(sizes, lam, horizon, seed, key, pos, plant):
    """save_spec then loads_spec gives the spec back; a boolean, numeric
    string or null planted at any key or array position is rejected."""
    spec = random_spec(np.random.default_rng(seed), *sizes, horizon=horizon,
                       lam=lam)
    with tempfile.TemporaryDirectory() as tmp:
        save_spec(spec, Path(tmp) / "game.json")
        text = (Path(tmp) / "game.json").read_text()
    again = loads_spec(text)
    for name in ("payoff", "p0", "q0", "trans_p", "trans_q"):
        assert np.array_equal(getattr(spec, name), getattr(again, name))
    assert ((again.num_k, again.num_l, again.num_a, again.num_b, again.lam,
             again.horizon_n) == (*sizes, lam, horizon))

    doc = json.loads(text)
    holder, slot = doc, key
    if isinstance(doc[key], list):
        shape = np.shape(doc[key])
        *path, slot = np.unravel_index(pos % int(np.prod(shape)), shape)
        holder = doc[key]
        for i in path:
            holder = holder[i]
        slot = int(slot)
    if plant == "string":
        plant = str(holder[slot])
    holder[slot] = plant
    error = ValidationError if isinstance(plant, bool) else ParseError
    with pytest.raises(error, match=f"{key} must be"):
        loads_spec(json.dumps(doc))
