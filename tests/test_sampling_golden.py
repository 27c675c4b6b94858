"""Golden draws of the profile and calibration layers.

The digests pin the seeded output of every lognormal draw the profile
makes (per-sample noise, chip factors, replica means), the records built
from them (`synthesize_records`, `characterize`), a profile fitted to
such records and the stress `min_stress_for_separation` picks.  A refactor
of those layers must leave every byte below unchanged.
"""

import dataclasses
import hashlib
import warnings

import numpy as np
import pytest

import rrsim
from rrsim.calibration import synthesize_records
from conftest import fresh_chip, rng_for

LEVELS = [0, 5_000, 15_000, 40_000, 100_000]

GOLDEN = {
    "synth.256x8.s0": "3c671fc3cd5afc7c2cc9faed1e1c0be6d6241420a421a2ccddb9bada95351587",
    "synth.1x2.s3": "18aed5d2b3b66814a6c86fcae280b09d21cc37741e2c6ab6e9fadf58f39f5448",
    "synth.37x5.s11": "e90a814adc256db35c4beed69e16142ab1accd65cf88f5a4d272d5a5e43eed20",
    "replica.set.12000": "108c8333ef68ea5037ed8a1f0c370819a991fe6c2f60527f4e62569a4c6f64ff",
    "replica.reset.0": "75cc0d29faf51d479c277176779c8828d299e4d00ee3bf2a602f6c15963c1e11",
    "replica.novar.set.20000": "0019c7ca2d5f7b55af4a4ca7b78663ebaed6c3ec4c66a740bb7357e4fec3ea0d",
    "times.array": "4b0f4cc0091b873b79c4dd7bfdd55ec978dfaf5aacac2052e54ae09b8edaddc3",
    "times.scalar": "0.00011820094162945285",
    "chip_factors": "65d716bc77f64880ecfb31e4f9094ae47459f1b6c18634b05c5da18bbac21e57",
    "fitted.profile": "aa9d3173badc11302e4eb670cbbfaf3ebee98bfeb86d0b3a2c94b9802d69b269",
    "min_stress.256": "9000",
    "min_stress.16": "17000",
    "characterize.1000": "2170651035b41632f78355eb589148c1ca714b193f7114fe8c4aca52ed88950f",
    "characterize.300": "d450aafdb3af6377ccbe97e99121efc8793c278bb753e8ab129b4ac703550e26",
    "characterize.3": "e6e3ac220747277734a3a8048ac0acfc8222ec5616604ff1fca78a20ad254c00",
}


def sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def records_digest(records) -> str:
    # repr pins the field types as well as the values.
    return sha(repr([dataclasses.astuple(r) for r in records]))


def array_digest(values) -> str:
    return hashlib.sha256(np.ascontiguousarray(values).tobytes()).hexdigest()


def no_variation(profile):
    return dataclasses.replace(profile, chip_variation=0.0)


@pytest.mark.parametrize("name,replica,groups,seed", [
    ("synth.256x8.s0", 256, 8, 0),
    ("synth.1x2.s3", 1, 2, 3),
    ("synth.37x5.s11", 37, 5, 11),
])
def test_synthesize_records(profile, name, replica, groups, seed):
    records = synthesize_records(profile, LEVELS, replica_size=replica,
                                 group_count=groups, seed=seed)
    assert records_digest(records) == GOLDEN[name]


def test_replica_means(profile):
    got = {
        "replica.set.12000": profile.sample_replica_means(
            "set", 12_000, 256, 500, rng_for(5)),
        "replica.reset.0": profile.sample_replica_means(
            "reset", 0, 7, 300, rng_for(6)),
        "replica.novar.set.20000": no_variation(profile).sample_replica_means(
            "set", 20_000, 64, 400, rng_for(7)),
    }
    assert {k: array_digest(v) for k, v in got.items()} == {
        k: GOLDEN[k] for k in got}


def test_sample_times(profile):
    stress = np.arange(0, 300_000, 997, dtype=float)
    times = profile.sample_times("reset", stress, rng_for(8), scale=1.03)
    scalar = profile.sample_times("set", 15_000, rng_for(9), scale=0.97)
    assert array_digest(times) == GOLDEN["times.array"]
    assert repr(float(scalar)) == GOLDEN["times.scalar"]


def test_chip_factors(profile):
    factors = [fresh_chip(profile, seed=s, addresses=1024).chip_factor
               for s in range(6)]
    assert sha(repr(factors)) == GOLDEN["chip_factors"]
    flat = no_variation(profile)
    assert all(fresh_chip(flat, seed=s, addresses=1024).chip_factor == 1.0
               for s in range(6))


def test_fitted_profile(profile):
    records = synthesize_records(profile, LEVELS, seed=4)
    fitted = rrsim.fit_profile(records, template=profile)
    assert sha(fitted.to_json()) == GOLDEN["fitted.profile"]


def test_min_stress(profile):
    got = {
        "min_stress.256": rrsim.min_stress_for_separation(
            profile, 256, confidence_samples=200, seed=1),
        "min_stress.16": rrsim.min_stress_for_separation(
            profile, 16, confidence_samples=150, seed=2),
    }
    assert {k: repr(v) for k, v in got.items()} == {
        k: GOLDEN[k] for k in got}


@pytest.mark.parametrize("seed,stress", [(0, 10_000), (2, 11_000), (5, 10_000)])
def test_min_stress_calibrate_shape(profile, seed, stress):
    # The call `calibrate` makes per fitted part: 2000 x 256 replica draws.
    assert rrsim.min_stress_for_separation(
        profile, 256, confidence_samples=2000, seed=seed) == stress


@pytest.mark.parametrize("count", [1000, 300, 3])
def test_characterize(profile, count):
    # None of these counts is a multiple of the 256-cell write buffer.
    chip = fresh_chip(profile, seed=21, addresses=4096)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        records = rrsim.characterize(chip, np.arange(count), 20_000, 5_000)
    assert records_digest(records) == GOLDEN[f"characterize.{count}"]
