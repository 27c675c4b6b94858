"""Characterization, curve fitting and the separation-threshold search."""

import dataclasses
import math

import numpy as np
import pytest

import rrsim
from rrsim.chip import BUFFER_SIZE, UNITS_PER_PAIR
from rrsim.calibration import _EXPECTED_MAX, _expected_range, synthesize_records
from conftest import fresh_chip, rng_for


class TestCharacterize:
    def test_full_run_is_monotone(self, profile):
        chip = fresh_chip(profile, seed=2, addresses=2048)
        records = rrsim.characterize(chip, np.arange(2048),
                                     max_pairs=1_000_000, sample_interval=50_000)
        assert len(records) == 21
        set_means = [r.set_mean for r in records]
        reset_means = [r.reset_mean for r in records]
        assert all(a < b for a, b in zip(set_means, set_means[1:]))
        assert all(a < b for a, b in zip(reset_means, reset_means[1:]))

    def test_zero_pairs_single_record(self, profile):
        chip = fresh_chip(profile, seed=2, addresses=512)
        records = rrsim.characterize(chip, np.arange(512), 0, 1000)
        assert len(records) == 1
        assert records[0].stress_level == 0

    def test_mean_column_matches_profile(self, profile):
        chip = fresh_chip(profile, seed=4, addresses=2048)
        records = rrsim.characterize(chip, np.arange(2048),
                                     max_pairs=100_000, sample_interval=50_000)
        rel_sd = np.sqrt(np.expm1(profile.set_sigma ** 2))
        for rec in records:
            expected = profile.mean_time("set", rec.stress_level) * chip.chip_factor
            band = 3 * rel_sd * expected / np.sqrt(2048)
            assert abs(rec.set_mean - expected) < band

    def test_truncates_with_warning_past_endurance(self, profile):
        chip = fresh_chip(profile, seed=5, addresses=256)
        chip.apply_stress_pairs(np.arange(256), profile.endurance_max - 1000)
        with pytest.warns(rrsim.TruncatedRunWarning):
            records = rrsim.characterize(chip, np.arange(256),
                                         max_pairs=900_000, sample_interval=500)
        assert len(records) < 4

    def test_measurement_wear_counts_toward_levels(self, profile):
        chip = fresh_chip(profile, seed=6, addresses=256)
        rrsim.characterize(chip, np.arange(256), max_pairs=2000,
                           sample_interval=1000)
        # Levels sampled at 0, 1000, 2000; final sample adds its own pair.
        assert chip.wear_units([0])[0] // UNITS_PER_PAIR == 2001


class TestFitProfile:
    def test_round_trip_recovers_parameters(self, profile):
        levels = [0, 50_000, 100_000, 200_000, 300_000, 400_000, 500_000,
                  700_000, 1_000_000]
        records = synthesize_records(profile, levels, replica_size=256,
                                     group_count=64, seed=8)
        fitted = rrsim.fit_profile(records, template=profile)
        for op in ("set", "reset"):
            got, want = fitted.curve(op), profile.curve(op)
            assert got.t0 == pytest.approx(want.t0, rel=0.05)
            assert got.p == pytest.approx(want.p, rel=0.05)
            # Compare the curves where they matter rather than raw (a, p).
            for s in (15_000, 100_000, 500_000):
                assert fitted.mean_time(op, s) == pytest.approx(
                    profile.mean_time(op, s), rel=0.05)

    def test_sigma_recovered_from_envelopes(self, profile):
        levels = list(range(0, 1_000_001, 50_000))
        records = synthesize_records(profile, levels, replica_size=256,
                                     group_count=64, seed=9)
        fitted = rrsim.fit_profile(records, template=profile)
        assert fitted.set_sigma == pytest.approx(profile.set_sigma, rel=0.35)
        assert fitted.reset_sigma > fitted.set_sigma

    def test_refit_is_a_contraction(self, profile):
        # Large synthetic samples so oracle noise sits well under the 1% bar.
        levels = list(range(0, 1_000_001, 100_000))
        first = rrsim.fit_profile(
            synthesize_records(profile, levels, replica_size=1024,
                               group_count=256, seed=10),
            template=profile)
        second = rrsim.fit_profile(
            synthesize_records(first, levels, replica_size=1024,
                               group_count=256, seed=11),
            template=first)
        for op in ("set", "reset"):
            assert second.curve(op).t0 == pytest.approx(first.curve(op).t0,
                                                        rel=0.01)
            assert second.curve(op).p == pytest.approx(first.curve(op).p,
                                                       rel=0.01)
            # a is checked through the curve inside the fitted range.
            for s in (100_000, 500_000, 1_000_000):
                assert second.mean_time(op, s) == pytest.approx(
                    first.mean_time(op, s), rel=0.01)

    def test_two_levels_rejected(self, profile):
        records = synthesize_records(profile, [0, 100_000], seed=1)
        with pytest.raises(rrsim.FitError):
            rrsim.fit_profile(records)

    def test_single_group_records_rejected(self, profile):
        # 300 cells make one replica group per level, whose min/max envelope
        # is empty: the fitted sigmas came out 0.0.
        chip = fresh_chip(profile, seed=3, addresses=4096)
        records = rrsim.characterize(chip, np.arange(300), 200_000, 50_000)
        assert {r.group_count for r in records} == {1}
        with pytest.raises(rrsim.FitError, match="replica groups"):
            rrsim.fit_profile(records)

    @pytest.mark.parametrize("shape", [
        {"group_count": 0}, {"group_count": -1}, {"replica_size": 0},
        {"group_count": 2.5}, {"replica_size": True},
        {"group_count": float("nan")}, {"replica_size": 256.0}])
    def test_synthesize_refuses_empty_shapes(self, profile, shape):
        with pytest.raises(rrsim.ConfigurationError, match="must be >= 1"):
            synthesize_records(profile, [0, 100_000], **shape)

    def test_constant_records_rejected(self, profile):
        rec = synthesize_records(profile, [0], seed=1)[0]
        flat = [rec,
                type(rec)(**{**rec.__dict__, "stress_level": 1000}),
                type(rec)(**{**rec.__dict__, "stress_level": 2000})]
        with pytest.raises(rrsim.FitError):
            rrsim.fit_profile(flat)


def log_between(n, lo, hi):
    """How far n lies from key lo to key hi, in ln n."""
    return math.log(n / lo) / math.log(hi / lo)


@pytest.mark.parametrize("n, expected", [
    (8, 2 * 1.4236),                            # a key of the table
    (9, 2 * (1.4236 + log_between(9, 8, 10) * (1.5388 - 1.4236))),
    (18, 2 * (1.7660 + log_between(18, 16, 24) * (1.9477 - 1.7660))),
    (1, 2 * 0.5642),                            # held at the lowest key
    (100, 2 * (2.3437 + log_between(100, 64, 128) * (2.5946 - 2.3437))),
    (100_000, 2 * 4.2911),                      # held at the highest key
])
def test_expected_range_interpolates_and_clamps(n, expected):
    assert _expected_range(n) == pytest.approx(expected, rel=1e-12)


def expected_max_oracle(n):
    """E[max of n standard normals]: the integral of n x phi(x) Phi(x)**(n-1)."""
    x, dx = np.linspace(-10.0, 10.0, 200_001, retstep=True)
    phi = np.exp(-x * x / 2) / np.sqrt(2 * np.pi)
    cdf = np.concatenate([[0.0], np.cumsum(phi[1:] + phi[:-1]) * dx / 2])
    return float(np.trapezoid(n * x * phi * cdf ** (n - 1), x))


@pytest.mark.parametrize("n", [96, 768, 3000])
def test_expected_range_between_keys_tracks_integral(n):
    # Between power-of-two keys E[max] is near linear in ln n, not in n.
    assert _expected_range(n) == pytest.approx(2 * expected_max_oracle(n), rel=2e-3)


def test_expected_max_table_matches_integral():
    # Keys run to 65,536 groups, the most a 2**24-address chip holds.
    assert max(_EXPECTED_MAX) == 2**24 // BUFFER_SIZE
    for n, value in _EXPECTED_MAX.items():
        assert value == pytest.approx(expected_max_oracle(n), abs=5e-5), n


def test_fitted_sigma_does_not_grow_with_group_count(profile):
    levels = range(0, 1_000_001, 100_000)
    sigma = {g: rrsim.fit_profile(synthesize_records(profile, levels, 256, g, seed=3)).set_sigma
             for g in (64, 1024)}
    assert sigma[1024] == pytest.approx(sigma[64], rel=0.10)


class TestSeparationThreshold:
    def test_default_anchor_near_12k(self, profile):
        s = rrsim.min_stress_for_separation(profile, 256, 10_000, seed=1)
        assert 11_000 <= s <= 13_000
        assert s % 1000 == 0  # the grid walks 1,000-pair steps

    def test_single_cell_needs_more_stress_than_replica(self, profile):
        # Monte-Carlo oracle: averaging shrinks the noise of the mean.
        lone = rrsim.min_stress_for_separation(profile, 1, 100, seed=2)
        grouped = rrsim.min_stress_for_separation(profile, 256, 100, seed=2)
        assert lone > grouped

    def test_non_increasing_in_replica_size(self, profile):
        vals = [rrsim.min_stress_for_separation(profile, r, 500, seed=3)
                for r in (1, 16, 256)]
        assert vals[0] >= vals[1] >= vals[2]

    def test_zero_noise_returns_first_grid_point(self, profile):
        quiet = rrsim.CalibrationProfile(
            set_curve=profile.set_curve, reset_curve=profile.reset_curve,
            set_sigma=0.0, reset_sigma=0.0,
            buffered_command_time=5e-3, pair_time=1e-2, noop_time=2e-5,
            temp_coeff=3e-4, jitter_max=5e-4,
            endurance_rated=500_000, endurance_max=1_000_000,
            chip_variation=0.0)
        assert rrsim.min_stress_for_separation(quiet, 256, 100, seed=4) == 1000

    def test_never_separable_raises(self, profile):
        # A profile whose chip spread dwarfs the whole wear range.
        noisy = rrsim.CalibrationProfile(
            set_curve=rrsim.WearCurve(t0=1e-4, a=1e-12, p=1.0),
            reset_curve=rrsim.WearCurve(t0=1.5e-4, a=1e-12, p=1.0),
            set_sigma=0.2, reset_sigma=0.4,
            buffered_command_time=5e-3, pair_time=1e-2, noop_time=2e-5,
            temp_coeff=3e-4, jitter_max=5e-4,
            endurance_rated=5_000, endurance_max=10_000,
            chip_variation=1.0)
        with pytest.raises(rrsim.NotSeparableError):
            rrsim.min_stress_for_separation(noisy, 256, 200, seed=5)

    def test_empty_grid_raises_after_the_fresh_draw(self, profile, monkeypatch):
        calls, _ = serve_blocks(monkeypatch, 100, seed=6)
        short = dataclasses.replace(profile, endurance_rated=500, endurance_max=999)
        with pytest.raises(rrsim.NotSeparableError):
            rrsim.min_stress_for_separation(short, 256, 100, seed=6)
        assert calls == [(0, 100)]

    @pytest.mark.parametrize("replica,samples", [
        (0, 100), (256, 0), (-1, -1), (2.5, 100), (True, 100), (256, 2000.0),
        (256, float("nan"))])
    def test_empty_draws_refused(self, profile, replica, samples):
        with pytest.raises(rrsim.ConfigurationError, match=">= 1"):
            rrsim.min_stress_for_separation(profile, replica, samples)


def whole_block_walk(profile, replica_size, samples):
    """The separation walk with one full block of stressed means per level;
    run under `serve_blocks`, which supplies the means (no generator)."""
    fresh_max = profile.sample_replica_means("set", 0, replica_size, samples, None).max()
    for s in range(1000, profile.endurance_max + 1, 1000):
        if profile.sample_replica_means("set", s, replica_size, samples, None).min() > fresh_max:
            return s
    return None


DRAW = rrsim.CalibrationProfile.sample_replica_means


def serve_blocks(monkeypatch, samples, seed):
    """Make `sample_replica_means` serve each stress level's means, in order, from
    one block of `samples` drawn on first use; returns the (stress, count) calls
    and the blocks.

    Chunked and whole-block walks then see the same means at every level."""
    rng, blocks, calls = rng_for(seed), {}, []

    def served(self, op, stress, replica_size, count, _rng):
        if stress not in blocks:
            blocks[stress] = DRAW(self, op, stress, replica_size, samples, rng)
        start = sum(k for s, k in calls if s == stress)
        calls.append((stress, int(count)))
        return blocks[stress][start:start + count]

    monkeypatch.setattr(rrsim.CalibrationProfile, "sample_replica_means", served)
    return calls, blocks


class TestSeparationWalk:
    @pytest.mark.parametrize("replica", [1, 16, 256])
    def test_decides_as_whole_blocks(self, profile, monkeypatch, replica):
        for seed in range(20):
            serve_blocks(monkeypatch, 100, seed)
            got = rrsim.min_stress_for_separation(profile, replica, 100, seed=seed)
            serve_blocks(monkeypatch, 100, seed)
            assert got == whole_block_walk(profile, replica, 100), seed

    @pytest.mark.parametrize("replica,samples,seed", [(256, 100, 0), (16, 100, 2), (1, 37, 3)])
    def test_levels_stop_at_their_first_failing_chunk(self, profile, monkeypatch,
                                                      replica, samples, seed):
        calls, blocks = serve_blocks(monkeypatch, samples, seed)
        got = rrsim.min_stress_for_separation(profile, replica, samples, seed=seed)
        fresh_max = blocks[0].max()
        assert calls[0] == (0, samples)
        doubling = [min(2**i, samples) - min(2**i // 2, samples) for i in range(12)]
        for s in range(1000, got + 1, 1000):
            sizes = [k for level, k in calls if level == s]
            assert sizes == doubling[:len(sizes)]
            drawn = blocks[s][:sum(sizes)]
            if s == got:
                assert len(drawn) == samples and drawn.min() > fresh_max
            else:
                assert drawn[-sizes[-1]:].min() <= fresh_max < drawn[:-sizes[-1]].min(initial=np.inf)
        assert all(level <= got for level, _ in calls)
