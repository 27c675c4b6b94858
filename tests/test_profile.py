"""Profile model: curves, validation, sampling statistics, JSON round-trip."""

import json
from dataclasses import replace

import numpy as np
import pytest

import rrsim
from rrsim.profile import CalibrationProfile, WearCurve, _lognormal
from conftest import rng_for, traced_peak


def test_default_profile_anchors(profile):
    assert profile.mean_time("set", 15_000) == pytest.approx(250e-6)
    assert profile.pair_time == pytest.approx(10e-3)
    assert profile.buffered_command_time == pytest.approx(5e-3)
    assert profile.endurance_rated == 500_000
    assert profile.endurance_max == 1_000_000
    assert profile.reset_sigma > profile.set_sigma


def test_curve_mean_scalar_and_array(profile):
    m = profile.mean_time("set", 0)
    assert isinstance(m, float) and m > 0
    arr = profile.mean_time("reset", np.array([0, 1000, 2000]))
    assert arr.shape == (3,)
    assert np.all(np.diff(arr) > 0)


def test_unknown_op_rejected(profile):
    with pytest.raises(rrsim.ConfigurationError):
        profile.mean_time("erase", 0)


@pytest.mark.parametrize("op", ["bogus", "Set", ""])
def test_unknown_op_sigma_rejected(profile, op):
    with pytest.raises(rrsim.ConfigurationError, match="unknown operation"):
        profile.sigma(op)


def test_invalid_curves_rejected():
    with pytest.raises(rrsim.ConfigurationError):
        WearCurve(t0=-1e-6, a=1e-9, p=1.2)
    with pytest.raises(rrsim.ConfigurationError):
        WearCurve(t0=1e-6, a=1e-9, p=0.5)


def test_sigma_ordering_enforced(profile):
    with pytest.raises(rrsim.ConfigurationError):
        CalibrationProfile(
            set_curve=profile.set_curve, reset_curve=profile.reset_curve,
            set_sigma=0.5, reset_sigma=0.2,
            buffered_command_time=5e-3, pair_time=1e-2, noop_time=2e-5,
            temp_coeff=3e-4, jitter_max=5e-4,
            endurance_rated=500_000, endurance_max=1_000_000,
            chip_variation=0.05)


def test_endurance_ordering_enforced(profile):
    with pytest.raises(rrsim.ConfigurationError):
        CalibrationProfile(
            set_curve=profile.set_curve, reset_curve=profile.reset_curve,
            set_sigma=0.5, reset_sigma=1.0,
            buffered_command_time=5e-3, pair_time=1e-2, noop_time=2e-5,
            temp_coeff=3e-4, jitter_max=5e-4,
            endurance_rated=500_000, endurance_max=400_000,
            chip_variation=0.05)


@pytest.mark.parametrize("path, value", [
    (("set_curve", "t0"), float("nan")),
    (("endurance_max",), 1_000_000.5),
    (("endurance_rated",), True),
    (("pair_time",), float("inf")),
    # 1 - 0.02 * (85 - 25) < 0: negative set times at the rated maximum.
    (("temp_coeff",), -0.02),
    # JSON booleans are not numbers, though Python counts True as 1.
    (("set_sigma",), True),
    (("noop_time",), True),
    (("temp_rated_min",), True),
    (("set_curve", "t0"), True),
    (("set_curve", "p"), True),
    (("version",), 2),
    (("speed",), 2.0),  # a field the profile does not have
    # JSON integers past float range once escaped as OverflowError.
    (("pair_time",), 10**400),
    (("temp_coeff",), 10**400),
    (("set_curve", "a"), 10**400),
    (("endurance_max",), 10**400),
    (("version",), True),
    (("version",), 1.0),
    # Each number is one number.
    (("pair_time",), [0.01]),
    (("retention_drift",), []),
    (("set_curve", "p"), [1, [2]]),
    # Past sigma ~37.6 every lognormal factor is 0.0.
    (("reset_sigma",), 900),
    (("chip_variation",), 1000),
    # Squaring 1e200 once raised OverflowError in the sigma check.
    (("reset_sigma",), 1e200),
    (("chip_variation",), 1e200),
], ids=["nan-curve", "fractional-endurance", "boolean-endurance",
        "infinite-time", "negative-temp-factor", "boolean-sigma",
        "boolean-time", "boolean-temperature", "boolean-curve-t0",
        "boolean-curve-p", "version-2", "unknown-field", "huge-time",
        "huge-temp-coeff", "huge-curve-a", "huge-endurance", "boolean-version",
        "float-version", "list-time", "empty-list-drift", "ragged-curve-p",
        "underflowing-reset-sigma", "underflowing-chip-variation",
        "overflowing-reset-sigma", "overflowing-chip-variation"])
def test_values_that_break_the_model_rejected(profile, path, value):
    d = json.loads(profile.to_json())
    *parents, name = path
    target = d
    for part in parents:
        target = target[part]
    target[name] = value
    with pytest.raises(rrsim.ConfigurationError):
        CalibrationProfile.from_json(json.dumps(d))


@pytest.mark.parametrize("names", [("set_sigma", "reset_sigma"), ("reset_sigma",),
                                   ("chip_variation",)],
                         ids=["set-sigma", "reset-sigma", "chip-variation"])
def test_wide_int64_sigma_rejected(profile, names):
    # Squared in int64, 2**32 wraps to 0 and once passed the sigma check.
    with pytest.raises(rrsim.ConfigurationError, match=f"{names[0]} .* too wide"):
        replace(profile, **dict.fromkeys(names, np.int64(2**32)))


def test_json_int_past_str_limit_rejected(profile):
    # json.loads raises a bare ValueError for an int of over 4,300 digits.
    text = profile.to_json().replace('"version": 1', '"version": 1' + "0" * 5000)
    with pytest.raises(rrsim.ConfigurationError, match="not valid JSON"):
        CalibrationProfile.from_json(text)


def test_sample_times_are_mean_one_noise(profile):
    rng = rng_for(5)
    draws = profile.sample_times("set", np.zeros(200_000), rng)
    assert draws.mean() == pytest.approx(profile.mean_time("set", 0), rel=0.02)
    assert np.all(draws > 0)


def test_replica_means_tighten_with_size(profile):
    rng = rng_for(6)
    small = profile.sample_replica_means("set", 0, 4, 4000, rng)
    large = profile.sample_replica_means("set", 0, 256, 4000, rng)
    assert large.std() < small.std()


def test_chip_factor_mean_one(profile):
    rng = rng_for(7)
    factors = np.array([profile.draw_chip_factor(rng) for _ in range(20_000)])
    assert factors.mean() == pytest.approx(1.0, abs=0.01)


@pytest.mark.parametrize("size", [None, (), (7,), (3, 5), (2000, 256)])
@pytest.mark.parametrize("sig", [0.0, 0.64, 1.05])
def test_lognormal_matches_out_of_place_oracle(size, sig):
    # The draw transforms its normals in place; the oracle allocates anew.
    z = rng_for(13).standard_normal(size)
    oracle = np.exp(sig * z - 0.5 * sig * sig)
    got = _lognormal(sig, rng_for(13), size)
    assert np.array_equal(got, oracle)
    assert type(got) is type(oracle)


def test_draw_return_types(profile):
    assert type(profile.draw_chip_factor(rng_for(14))) is float
    assert type(profile.sample_times("set", 15_000, rng_for(15))) is np.float64


def test_replica_means_allocation_budget(profile):
    # One 2000 x 256 float64 draw is the whole working set: no temporaries.
    rng = rng_for(16)
    means, peak = traced_peak(
        lambda: profile.sample_replica_means("set", 12_000, 256, 2000, rng))
    assert means.shape == (2000,)
    assert peak <= 2000 * 256 * 8 + 64 * 1024


@pytest.mark.parametrize("args,match", [
    (("set", 0, 0, 100), "replica_size"),
    (("set", 0, -3, 100), "replica_size"),
    (("set", 0, 256, 0), "count"),
    (("set", 0, 256, -1), "count"),
    (("set", -5, 256, 100), "stress"),
    (("reset", float("nan"), 256, 100), "stress"),
    (("reset", float("inf"), 256, 100), "stress"),
    (("set", 0, 2.5, 100), "replica_size"),
    (("set", 0, True, 100), "replica_size"),
    (("set", 0, 256, 10.0), "count"),
    (("set", 0, 256, float("nan")), "count"),
    (("set", "5", 256, 100), "stress"),
])
def test_replica_means_bad_arguments_refused_before_drawing(profile, args, match):
    rng = rng_for(17)
    before = rng.bit_generator.state
    with pytest.raises(rrsim.ConfigurationError, match=match):
        profile.sample_replica_means(*args, rng)
    assert rng.bit_generator.state == before


def test_json_round_trip(profile, tmp_path):
    path = tmp_path / "p.json"
    rrsim.save_profile(profile, path)
    back = rrsim.load_profile(path)
    assert back == profile


def test_bad_json_rejected(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{\"format\": \"something-else\"}")
    with pytest.raises(rrsim.ConfigurationError):
        rrsim.load_profile(path)
    path.write_text("not json at all")
    with pytest.raises(rrsim.ConfigurationError):
        rrsim.load_profile(path)


def test_missing_file_is_configuration_error(tmp_path):
    with pytest.raises(rrsim.ConfigurationError, match="cannot read profile"):
        rrsim.load_profile(tmp_path / "nope.json")


@pytest.mark.parametrize("text", ["[1]", "\"x\"", "7"])
def test_non_object_json_rejected(tmp_path, text):
    path = tmp_path / "bad.json"
    path.write_text(text)
    with pytest.raises(rrsim.ConfigurationError):
        rrsim.load_profile(path)


def test_temp_factor_is_linear(profile):
    assert profile.temp_factor(25.0) == 1.0
    up = profile.temp_factor(80.0)
    assert up == pytest.approx(1.0 + 55 * profile.temp_coeff)
