"""Model construction, crispification, validation, and coefficient evaluation."""

import json
import math

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from chemlevy import (
    CrispModel,
    ImpreciseModel,
    IntervalNumber,
    JumpMark,
    JumpSpec,
    State,
    check_H3,
    crispify,
    drift,
    load_model,
    model_from_dict,
    validate,
)
from chemlevy.model import _PARAM_FIELDS

I = IntervalNumber


def make_imprecise(**overrides) -> ImpreciseModel:
    base = dict(
        S0=1.0,
        D=I(0.2, 0.4), m1=I(0.3, 0.5), delta1=I(0.4, 0.6), sigma1=I(0.05, 0.15),
        m2=I(0.2, 0.4), delta2=I(0.4, 0.6), sigma2=I(0.05, 0.15),
        sigma3=I(0.05, 0.15), jumps=JumpSpec(),
    )
    base.update(overrides)
    return ImpreciseModel(**base)


def test_crispify_endpoints():
    model = make_imprecise(D=I(0.2, 0.4))
    assert crispify(model, 0.0).D == pytest.approx(0.2, rel=1e-15)
    assert crispify(model, 1.0).D == pytest.approx(0.4, rel=1e-15)
    wide = make_imprecise(D=I(0.2, 0.8))
    assert crispify(wide, 0.5).D == pytest.approx(0.4, rel=1e-14)


def test_crispify_records_provenance_and_copies_jumps():
    jumps = JumpSpec((JumpMark(1.0, 0.1, 0.2, 0.3),))
    model = make_imprecise(jumps=jumps)
    crisp = crispify(model, 0.25)
    assert crisp.p == 0.25
    assert crisp.S0 == model.S0
    assert crisp.jumps is jumps


def test_crispify_monotone_and_continuous_in_p():
    model = make_imprecise()
    grid = np.linspace(0.0, 1.0, 101)
    for name in ("D", "m1", "delta1", "sigma1", "m2", "delta2", "sigma2", "sigma3"):
        values = [getattr(crispify(model, p), name) for p in grid]
        diffs = np.diff(values)
        assert np.all(diffs >= -1e-14)
        assert np.max(np.abs(diffs)) < 0.05  # no discontinuity on a fine grid


def test_validate_no_jumps_all_pass():
    report = validate(make_imprecise())
    assert report.ok
    assert report.jump_moment_bound == 0.0
    assert report.log_jump_bounds == (0.0, 0.0, 0.0)
    assert report.jump_lipschitz == (0.0, 0.0, 0.0)


def test_validate_jump_moment_constant():
    jumps = JumpSpec((JumpMark(weight=1.0, gamma1=0.0, gamma2=0.5, gamma3=0.0),))
    report = validate(make_imprecise(jumps=jumps))
    assert report.ok
    assert report.jump_moment_bound == pytest.approx(math.log(1.5) ** 2, rel=1e-12)
    assert report.jump_moment_bound == pytest.approx(0.16440, abs=5e-6)
    assert report.log_jump_bounds[1] == pytest.approx(math.log(1.5), rel=1e-12)
    assert report.jump_lipschitz[1] == pytest.approx(0.25, rel=1e-12)


def test_validate_rejects_gamma_at_minus_one():
    jumps = JumpSpec((JumpMark(weight=1.0, gamma1=0.0, gamma2=0.0, gamma3=-1.0),))
    report = validate(make_imprecise(jumps=jumps))
    assert not report.ok
    failed = {c.name for c in report.failures()}
    assert failed == {"gamma_gt_neg1"}
    assert math.isnan(report.jump_moment_bound)


def test_validate_reports_bad_endpoints_and_weights():
    report = validate(make_imprecise(S0=-1.0, sigma2=I(0.0, 0.1),
                                     jumps=JumpSpec((JumpMark(0.0, 0.1, 0.1, 0.1),))))
    failed = {c.name for c in report.failures()}
    assert failed == {"s0_positive", "interval_endpoints_positive", "weights_positive"}
    assert "sigma2" in next(c for c in report.checks
                            if c.name == "interval_endpoints_positive").detail


def test_validate_rejects_overflowing_total_rate():
    huge = JumpMark(1e308, 0.1, 0.1, 0.1)
    assert validate(make_imprecise(jumps=JumpSpec((huge,)))).ok
    report = validate(make_imprecise(jumps=JumpSpec((huge, huge))))
    assert [(c.name, c.detail) for c in report.failures()] \
        == [("weights_positive", "total rate inf is not finite")]


@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
def test_validate_rejects_non_finite_parameters(value):
    # JSON admits Infinity and NaN; each must fail the check that owns the field
    cases = [
        ("s0_positive", make_imprecise(S0=value)),
        ("weights_positive", make_imprecise(jumps=JumpSpec((JumpMark(value, 0.1, 0.1, 0.1),)))),
        ("gamma_gt_neg1", make_imprecise(jumps=JumpSpec((JumpMark(1.0, 0.1, value, 0.1),)))),
    ]
    if not math.isnan(value):  # IntervalNumber itself refuses NaN endpoints
        cases += [
            ("interval_endpoints_positive", make_imprecise(sigma1=I(abs(value), abs(value)))),
            ("interval_endpoints_positive", make_imprecise(m2=I(0.2, abs(value)))),
        ]
    for check, model in cases:
        assert {c.name for c in validate(model).failures()} == {check}


def test_validate_never_raises_is_total():
    # even a thoroughly broken model yields a report
    jumps = JumpSpec((JumpMark(-1.0, -2.0, -1.0, 0.0),))
    report = validate(make_imprecise(S0=0.0, jumps=jumps))
    assert not report.ok
    assert len(report.checks) == 4


def _crisp(D=0.5, sigmas=(0.0, 0.0, 0.0), jumps=JumpSpec(), **kw) -> CrispModel:
    base = dict(S0=1.0, D=D, m1=0.4, delta1=0.5, m2=0.3, delta2=0.5)
    base.update(kw)
    return CrispModel(sigma1=sigmas[0], sigma2=sigmas[1], sigma3=sigmas[2],
                      jumps=jumps, **base)


def test_check_h3_noise_free():
    report = check_H3(_crisp(D=0.5), theta=3.0)
    assert report.zeta == 0.0
    assert report.sigma_sq == 0.0
    assert report.lhs == pytest.approx(0.5, rel=1e-15)
    assert report.holds


def test_check_h3_with_diffusion():
    report = check_H3(_crisp(D=0.5, sigmas=(0.1, 0.1, 0.1)), theta=3.0)
    assert report.sigma_sq == pytest.approx(0.01, rel=1e-12)
    assert report.lhs == pytest.approx(0.49, rel=1e-12)
    assert report.holds


def test_check_h3_jump_dominated():
    jumps = JumpSpec((JumpMark(1.0, 0.5, 0.5, 0.5),))
    report = check_H3(_crisp(D=0.1, jumps=jumps), theta=3.0)
    assert report.zeta == pytest.approx(1.5 ** 3 - 1.0 - 0.5, rel=1e-12)
    assert report.lhs == pytest.approx(0.1 - 1.875 / 3.0, rel=1e-12)
    assert not report.holds


def test_check_h3_requires_theta_above_two():
    for theta in (2.0, 1.0, math.nan, math.inf):
        with pytest.raises(ValueError):
            check_H3(_crisp(), theta=theta)


def test_drift_washout_equilibrium():
    model = _crisp()
    assert drift(model, model.S0, 0.0, 0.0) == (0.0, 0.0, 0.0)


def test_drift_direct_value():
    model = CrispModel(S0=1.0, D=0.5, m1=1.0, delta1=1.0, sigma1=0.0,
                       m2=0.3, delta2=0.5, sigma2=0.0, sigma3=0.0)
    dS, dx, dy = drift(model, 0.5, 1.0, 0.0)
    assert dS == pytest.approx(-0.25, rel=1e-15)
    assert dx == 0.0
    assert dy == 0.0


def test_drift_axis_invariance():
    model = _crisp()
    rng = np.random.default_rng(7)
    for _ in range(50):
        s = float(rng.uniform(0.0, 3.0))
        dS, dx, dy = drift(model, s, 0.0, 0.0)
        assert dS == model.D * (model.S0 - s)
        assert dx == 0.0 and dy == 0.0


def test_nutrient_budget_identity_random():
    # dS + dx/d1 + dy/(d1 d2) == D*(S0 - S - x/d1 - y/(d1 d2)) for any state
    rng = np.random.default_rng(13)
    for _ in range(300):
        model = CrispModel(
            S0=float(rng.uniform(0.1, 5.0)), D=float(rng.uniform(0.05, 2.0)),
            m1=float(rng.uniform(0.05, 2.0)), delta1=float(rng.uniform(0.1, 2.0)),
            sigma1=0.1, m2=float(rng.uniform(0.05, 2.0)),
            delta2=float(rng.uniform(0.1, 2.0)), sigma2=0.1, sigma3=0.1)
        s = State(*rng.uniform(0.0, 5.0, size=3))
        dS, dx, dy = drift(model, s.S, s.x, s.y)
        lhs = dS + dx / model.delta1 + dy / (model.delta1 * model.delta2)
        rhs = model.D * (model.S0 - s.S - s.x / model.delta1
                         - s.y / (model.delta1 * model.delta2))
        assert lhs == pytest.approx(rhs, abs=1e-10)


# ---------------------------------------------------------------------------
# Model files
# ---------------------------------------------------------------------------

MODEL_DICT = {
    "S0": 1.0,
    "D": [0.2, 0.4], "m1": 0.4, "delta1": 0.5, "sigma1": 0.1,
    "m2": [0.25, 0.35], "delta2": 0.5, "sigma2": 0.1, "sigma3": 0.1,
    "jumps": [{"weight": 0.5, "gamma1": -0.3, "gamma2": -0.3, "gamma3": -0.3}],
}


def test_model_from_dict_scalar_shorthand():
    model = model_from_dict(MODEL_DICT)
    assert model.D == I(0.2, 0.4)
    assert model.m1 == I(0.4, 0.4)  # bare number means a degenerate interval
    assert len(model.jumps) == 1
    assert model.jumps.marks[0].gamma2 == -0.3
    # a JSON int is a number too
    ints = {"S0": 4, "m1": [1, 2], "jumps": [{"weight": 1, "gamma1": 0, "gamma2": 0,
                                              "gamma3": 0}]}
    model = model_from_dict({**MODEL_DICT, **ints})
    assert (model.S0, model.m1, model.jumps.marks[0].weight) == (4.0, I(1.0, 2.0), 1.0)


def test_model_from_dict_missing_and_unknown_fields():
    bad = dict(MODEL_DICT)
    del bad["m2"]
    with pytest.raises(ValueError, match="m2"):
        model_from_dict(bad)
    bad = dict(MODEL_DICT)
    bad["mu3"] = 1.0
    with pytest.raises(ValueError, match="mu3"):
        model_from_dict(bad)


def test_model_from_dict_bad_jump_record():
    """A jump record needs its four fields and no other, and jumps must be
    a list: a falsy value is not taken for no jumps."""
    record = {"weight": 0.5, "gamma1": 0.1, "gamma2": 0.1, "gamma3": 0.1}
    cases = [([{**record, "gamma4": 0.1}], "jumps\\[0\\]: unknown field\\(s\\): gamma4"),
             ([record, {"weight": 0.5, "gamma1": 0.1, "gamma2": 0.1}],
              "jumps\\[1\\]: missing field 'gamma3'")]
    cases += [(falsy, "jumps: expected a list") for falsy in (0, False, "", {}, None)]
    for jumps, message in cases:
        with pytest.raises(ValueError, match=message):
            model_from_dict({**MODEL_DICT, "jumps": jumps})


@pytest.mark.parametrize("field, value, message", [
    ("S0", True, "field S0: expected a number"),
    ("S0", "4", "field S0: expected a number"),
    ("m1", True, "field m1: cannot interpret"),
    ("m1", "1.0", "field m1: cannot interpret"),
    ("D", [0.2, False], "field D: cannot interpret"),
    ("D", ["0.2", 0.4], "field D: cannot interpret"),
    ("jumps", [{"weight": True, "gamma1": 0.1, "gamma2": 0.1, "gamma3": 0.1}],
     "jumps\\[0\\]: fields must be numbers"),
    ("jumps", [{"weight": "0.5", "gamma1": 0.1, "gamma2": 0.1, "gamma3": 0.1}],
     "jumps\\[0\\]: fields must be numbers"),
])
def test_model_numbers_are_json_numbers_only(field, value, message):
    """S0, interval endpoints and jump fields take an int or a float: never a
    bool, never a numeric string."""
    with pytest.raises(ValueError, match=message):
        model_from_dict({**MODEL_DICT, field: value})


def test_load_model_roundtrip(tmp_path):
    path = tmp_path / "model.json"
    path.write_text(json.dumps(MODEL_DICT))
    model = load_model(path)
    assert model.S0 == 1.0
    assert validate(model).ok


def test_load_model_malformed_json_names_location(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"S0": 1.0,\n  "D": [0.2, ]}')
    with pytest.raises(ValueError, match="line"):
        load_model(path)


def test_jumpspec_penalty_guards_domain():
    spec = JumpSpec((JumpMark(1.0, -1.0, 0.0, 0.0),))
    with pytest.raises(ValueError):
        spec.penalty(1)


# JSON-like values: what json.load can return, including non-finite floats
# and integers too large for a float
_number = st.integers() | st.integers(min_value=2 ** 1023) | st.floats()
_json = st.recursive(
    st.none() | st.booleans() | _number | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=8)
_mark = st.fixed_dictionaries(
    {k: _number for k in ("weight", "gamma1", "gamma2", "gamma3")}, optional={"x": _json})
_value = _json | st.lists(_json, min_size=2, max_size=2) | st.lists(_mark, min_size=1, max_size=3)
# a valid record with a few fields replaced, so every check gets reached
_model_dict = st.builds(
    lambda over: {**MODEL_DICT, **over},
    st.dictionaries(st.sampled_from(("S0", "jumps", "extra") + _PARAM_FIELDS), _value, max_size=3))


@given(st.one_of(_model_dict, _json), st.floats(0.0, 1.0),
       st.floats(2.0, 10.0, exclude_min=True))
# finite parameters whose square or theta-th power passes the float range
@example({**MODEL_DICT, "jumps": [{"weight": 1.0, "gamma1": 1e200, "gamma2": 0.0,
                                   "gamma3": 0.0}]}, 0.0, 3.0)
@example({**MODEL_DICT, "sigma1": 1e200}, 0.0, 3.0)
# finite weights whose total rate overflows
@example({**MODEL_DICT, "jumps": [{"weight": 1e308, "gamma1": 0.1, "gamma2": 0.1,
                                   "gamma3": 0.1}] * 2}, 0.0, 3.0)
# a key that is no string, as a caller other than json.load may pass
@example({**MODEL_DICT, 1: 2.0}, 0.0, 3.0)
@example({**MODEL_DICT, "jumps": [{"weight": 1.0, "gamma1": 0.1, "gamma2": 0.1,
                                   "gamma3": 0.1, 5: 1.0}]}, 0.0, 3.0)
def test_model_from_dict_raises_only_value_error_and_validate_never_raises(data, p, theta):
    """model_from_dict raises only ValueError; validate, and check_H3 on a
    model that passes it, never raise; a model that passes has a finite
    total jump rate."""
    try:
        model = model_from_dict(data)
    except ValueError:
        return
    report = validate(model)
    assert report.ok == all(c.passed for c in report.checks)
    if report.ok:
        assert model.jumps.total_rate < math.inf
        h3 = check_H3(crispify(model, p), theta)
        assert h3.holds == (h3.lhs > 0.0)
