"""Device-model behaviour: wear accounting, timing draws, persistence."""

import numpy as np
import pytest

import rrsim
from rrsim.chip import UNITS_PER_PAIR
from conftest import fresh_chip, rng_for


class TestConstruction:
    def test_fresh_chip_state(self, profile):
        chip = fresh_chip(profile, seed=42, addresses=1024)
        assert chip.geometry.address_count == 1024
        assert np.all(chip.values == 0xFF)
        assert np.all(chip.stress_pairs == 0)
        assert chip.simulated_clock == 0.0
        assert chip.temperature == 25.0

    def test_default_geometry_is_8mb(self):
        geom = rrsim.ChipGeometry()
        assert geom.address_count == 1_048_576
        assert geom.word_length == 8
        assert geom.buffer_size == 256

    def test_zero_addresses_rejected(self, profile):
        with pytest.raises(rrsim.ConfigurationError):
            rrsim.new_chip(rrsim.ChipGeometry(address_count=0), profile, seed=1)

    def test_full_size_chip_constructs_fresh(self, profile):
        chip = rrsim.new_chip(rrsim.ChipGeometry(), profile, seed=42)
        assert len(chip.values) == 1_048_576
        assert chip.stress_pairs.sum() == 0

    def test_same_seed_same_first_sample(self, profile, small_geometry):
        a = rrsim.new_chip(small_geometry, profile, seed=7)
        b = rrsim.new_chip(small_geometry, profile, seed=7)
        ra = a.timed_write(100, 0x00)
        rb = b.timed_write(100, 0x00)
        assert ra.kind == rb.kind == "set"
        assert ra.seconds == rb.seconds

    def test_different_seed_different_sample(self, profile, small_geometry):
        a = rrsim.new_chip(small_geometry, profile, seed=7)
        b = rrsim.new_chip(small_geometry, profile, seed=8)
        assert a.timed_write(0, 0x00).seconds != b.timed_write(0, 0x00).seconds


class TestTimedWrite:
    def test_fresh_set_time_matches_profile_oracle(self, profile):
        # Sample statistics over 10^4 fresh cells against the profile mean.
        chip = fresh_chip(profile, seed=3, addresses=10_000)
        times = np.array([chip.timed_write(a, 0x00).seconds
                          for a in range(10_000)])
        expected = profile.mean_time("set", 0) * chip.chip_factor
        rel_sd = np.sqrt(np.expm1(profile.set_sigma ** 2))
        assert abs(times.mean() - expected) < 4 * rel_sd * expected / 100.0

    def test_noop_write_costs_noop_time_no_wear(self, chip, profile):
        r = chip.timed_write(5, 0xFF)
        assert r.kind == "noop"
        assert r.seconds == profile.noop_time
        assert chip.stress_count(5) == 0

    def test_full_toggle_wear_is_half_pair_each_way(self, chip):
        chip.timed_write(9, 0x00)
        assert chip.stress_pairs[9] == 0.5
        chip.timed_write(9, 0xFF)
        assert chip.stress_pairs[9] == 1.0
        assert chip.stress_count(9) == 1

    def test_partial_toggle_stresses_only_toggled_bits(self, chip):
        # 0xFF -> 0xF0 toggles four bits: a quarter pair of byte wear.
        chip.timed_write(3, 0xF0)
        assert chip.stress_pairs[3] == 4 / UNITS_PER_PAIR

    def test_mean_at_15k_stress_is_about_250us(self, profile):
        chip = fresh_chip(profile, seed=42, addresses=512)
        addrs = np.arange(256)
        chip.apply_stress_pairs(addrs, 15_000)
        trace = chip.measure_trace(addrs)
        assert abs(trace.set_times.mean() - 250e-6) < 25e-6

    def test_wear_out_past_endurance(self, profile):
        chip = fresh_chip(profile, seed=1, addresses=512)
        chip.apply_stress_pairs(np.arange(4), profile.endurance_max)
        chip.timed_write(0, 0x00)  # at the limit: still allowed
        with pytest.raises(rrsim.WearOutError) as err:
            chip.timed_write(0, 0xFF)
        assert 0 in err.value.addresses

    def test_out_of_range_address(self, chip):
        with pytest.raises(rrsim.BoundsError):
            chip.timed_write(chip.geometry.address_count, 0x00)


class TestBufferedWrite:
    def test_set_reset_pair_costs_10ms(self, chip, profile):
        zeros = np.zeros(256, dtype=np.uint8)
        ones = np.full(256, 0xFF, dtype=np.uint8)
        t = chip.buffered_write(0, zeros) + chip.buffered_write(0, ones)
        assert t == pytest.approx(10e-3)
        assert t == pytest.approx(2 * profile.buffered_command_time)
        assert np.all(chip.stress_pairs[:256] == 1.0)

    def test_rewriting_current_contents_adds_no_stress(self, chip):
        ones = np.full(256, 0xFF, dtype=np.uint8)
        chip.buffered_write(512, ones)
        assert np.all(chip.stress_pairs[512:768] == 0)

    def test_bulk_pairs_accounting(self, chip):
        addrs = np.arange(256)
        chip.apply_stress_pairs(addrs, 15_000)
        assert np.all(chip.stress_pairs[:256] == 15_000)
        assert np.all(chip.stress_pairs[256:] == 0)

    def test_bulk_pair_cost_matches_buffered_pair(self, chip, profile):
        elapsed = chip.apply_stress_pairs(np.arange(256), 100)
        assert elapsed == pytest.approx(100 * profile.pair_time)

    def test_range_overflow(self, chip):
        with pytest.raises(rrsim.BoundsError):
            chip.buffered_write(chip.geometry.address_count - 10,
                                np.zeros(256, dtype=np.uint8))

    def test_wrong_buffer_length(self, chip):
        with pytest.raises(rrsim.ConfigurationError):
            chip.buffered_write(0, np.zeros(100, dtype=np.uint8))


class TestMeasureTrace:
    def test_trace_layout(self, chip):
        addrs = np.arange(8192)
        trace = chip.measure_trace(addrs)
        assert len(trace) == 8192
        assert np.all(trace.set_times > 0)
        assert np.all(trace.reset_times > 0)
        assert trace.addresses[0] == 0

    def test_empty_trace(self, chip):
        assert len(chip.measure_trace([])) == 0

    def test_measurement_adds_one_pair(self, chip):
        chip.measure_trace(np.arange(10))
        assert np.all(chip.stress_pairs[:10] == 1.0)
        chip.measure_trace(np.arange(10))
        assert np.all(chip.stress_pairs[:10] == 2.0)

    def test_repeat_address_measured_at_incremented_wear(self, chip):
        trace = chip.measure_trace(np.array([4, 4]))
        assert chip.stress_count(4) == 2
        # Two entries exist and came from different wear levels.
        assert trace.set_times[0] != trace.set_times[1]

    def test_clock_additivity(self, profile):
        chip = fresh_chip(profile, seed=11, addresses=1024)
        before = chip.simulated_clock
        t1 = chip.timed_write(0, 0x00).seconds
        trace = chip.measure_trace(np.arange(1, 101))
        t2 = float(trace.set_times.sum() + trace.reset_times.sum())
        t3 = chip.buffered_write(200, np.zeros(256, dtype=np.uint8))
        assert chip.simulated_clock - before == pytest.approx(t1 + t2 + t3)

    def test_wear_monotonicity_over_random_ops(self, profile):
        # Wear never decreases, whatever the operation mix.
        rng = rng_for(123)
        chip = fresh_chip(profile, seed=9, addresses=2048)
        last = chip.stress_pairs.copy()
        for _ in range(60):
            op = rng.integers(0, 3)
            if op == 0:
                chip.timed_write(int(rng.integers(0, 2048)),
                                 int(rng.integers(0, 256)))
            elif op == 1:
                base = int(rng.integers(0, 2048 - 256))
                chip.buffered_write(base, rng.integers(0, 256, 256,
                                                       dtype=np.uint8))
            else:
                chip.measure_trace(rng.integers(0, 2048, 16))
            pairs = chip.stress_pairs
            assert np.all(pairs >= last)
            last = pairs.copy()


class TestRandomDelay:
    def test_jitter_inflates_reported_times_not_wear(self, profile,
                                                     small_geometry):
        plain = rrsim.new_chip(small_geometry, profile, seed=55)
        noisy = rrsim.new_chip(small_geometry, profile, seed=55,
                               random_delay_enabled=True)
        tp = plain.measure_trace(np.arange(128))
        tn = noisy.measure_trace(np.arange(128))
        extra = tn.set_times - tp.set_times
        assert np.all(extra >= 0)
        assert np.all(extra <= profile.jitter_max)
        assert np.any(extra > 0)
        assert np.array_equal(plain.stress_pairs, noisy.stress_pairs)


class TestTemperature:
    def test_identity_at_25(self, profile, small_geometry):
        a = rrsim.new_chip(small_geometry, profile, seed=5)
        b = rrsim.new_chip(small_geometry, profile, seed=5)
        b.set_temperature(25.0)
        ta = a.measure_trace(np.arange(64))
        tb = b.measure_trace(np.arange(64))
        assert np.array_equal(ta.set_times, tb.set_times)

    def test_hot_shift_small_versus_separation_gap(self, profile):
        # 25 -> 80 C moves the mean by far less than the fresh/stressed gap.
        shift = profile.temp_factor(80.0) - 1.0
        gap = profile.mean_time("set", 15_000) - profile.mean_time("set", 0)
        assert shift * profile.mean_time("set", 0) <= 0.02 * gap

    def test_out_of_range_rejected(self, chip):
        with pytest.raises(rrsim.ConfigurationError):
            chip.set_temperature(100.0)
        with pytest.raises(rrsim.ConfigurationError):
            chip.set_temperature(-60.0)


class TestPersistence:
    def test_round_trip_equality(self, profile):
        chip = fresh_chip(profile, seed=21, addresses=4096)
        chip.apply_stress_pairs(np.arange(100), 500)
        chip.timed_write(7, 0x0F)
        chip.set_temperature(40.0)
        twin = rrsim.load_state(chip.save_state(), profile)
        assert twin == chip

    def test_truncated_blob_rejected(self, profile):
        chip = fresh_chip(profile, seed=21, addresses=512)
        blob = chip.save_state()
        with pytest.raises(rrsim.FormatError):
            rrsim.load_state(blob[:-7], profile)

    def test_bad_magic_rejected(self, profile):
        with pytest.raises(rrsim.FormatError):
            rrsim.load_state(b"NOTRRSIM" + b"\x00" * 64, profile)

    def test_replay_after_reload_matches_original(self, profile):
        # The same operation sequence produces identical traces whether or
        # not the chip took a save/load detour in the middle.
        a = fresh_chip(profile, seed=33, addresses=2048)
        b = fresh_chip(profile, seed=33, addresses=2048)
        for c in (a, b):
            c.apply_stress_pairs(np.arange(64), 1000)
            c.timed_write(3, 0x00)
        b = rrsim.load_state(b.save_state(), profile)
        ta = a.measure_trace(np.arange(128))
        tb = b.measure_trace(np.arange(128))
        assert np.array_equal(ta.set_times, tb.set_times)
        assert np.array_equal(ta.reset_times, tb.reset_times)

    def test_chip_factor_survives_reload(self, profile):
        chip = fresh_chip(profile, seed=77, addresses=256)
        twin = rrsim.load_state(chip.save_state(), profile)
        assert twin.chip_factor == chip.chip_factor


class TestSeparabilityInvariant:
    def test_stressed_12k_clears_fresh_envelope(self, profile):
        # Replica-256 means: min over 10^4 draws at 12K pairs beats the
        # max over 10^4 fresh draws.
        rng = rng_for(0)
        fresh = profile.sample_replica_means("set", 0, 256, 10_000, rng)
        stressed = profile.sample_replica_means("set", 12_000, 256, 10_000, rng)
        assert stressed.min() > fresh.max()

    def test_mean_curve_strictly_increasing(self, profile):
        grid = np.arange(0, 500_001, 1000)
        for op in ("set", "reset"):
            means = profile.mean_time(op, grid)
            assert np.all(np.diff(means) > 0)
