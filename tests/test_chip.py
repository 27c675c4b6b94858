"""Device-model behaviour: wear accounting, timing draws, persistence."""

import dataclasses
import hashlib
from fractions import Fraction

import numpy as np
import pytest

import rrsim
from rrsim.chip import BUFFER_SIZE, MAX_ADDRESS_COUNT, UNITS_PER_PAIR
from conftest import fresh_chip, rng_for, wear_pairs


class TestConstruction:
    def test_fresh_chip_state(self, profile):
        chip = fresh_chip(profile, seed=42, addresses=1024)
        assert chip.geometry.address_count == 1024
        assert np.all(chip.values == 0xFF)
        assert np.all(wear_pairs(chip) == 0)
        assert chip.simulated_clock == 0.0
        assert chip.temperature == 25.0

    def test_default_geometry_is_8mb(self):
        geom = rrsim.ChipGeometry()
        assert geom.address_count == 1_048_576
        assert BUFFER_SIZE == 256

    def test_zero_addresses_rejected(self, profile):
        with pytest.raises(rrsim.ConfigurationError):
            rrsim.new_chip(rrsim.ChipGeometry(address_count=0), profile, seed=1)

    @pytest.mark.parametrize("fields", [
        {"address_count": 0}, {"address_count": MAX_ADDRESS_COUNT + 1},
        {"address_count": 128},  # the 256-byte write buffer is larger
        {"address_count": 4096.5}, {"address_count": 2**62},
        {"address_count": True}])
    def test_bad_geometry_refused_when_built(self, fields):
        with pytest.raises(rrsim.ConfigurationError):
            rrsim.ChipGeometry(**fields)

    def test_values_are_read_only(self, chip):
        # A write through the view would change data with no wear or clock.
        state = chip.save_state()
        with pytest.raises(ValueError):
            chip.values[0] = 0
        assert chip.save_state() == state

    def test_full_size_chip_constructs_fresh(self, profile):
        chip = rrsim.new_chip(rrsim.ChipGeometry(), profile, seed=42)
        assert len(chip.values) == 1_048_576
        assert wear_pairs(chip).sum() == 0

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
        assert wear_pairs(chip, [5])[0] == 0

    def test_full_toggle_wear_is_half_pair_each_way(self, chip):
        chip.timed_write(9, 0x00)
        assert wear_pairs(chip)[9] == 0.5
        chip.timed_write(9, 0xFF)
        assert wear_pairs(chip)[9] == 1.0
        assert wear_pairs(chip, [9])[0] == 1

    def test_partial_toggle_stresses_only_toggled_bits(self, chip):
        # 0xFF -> 0xF0 toggles four bits: a quarter pair of byte wear.
        chip.timed_write(3, 0xF0)
        assert wear_pairs(chip)[3] == 4 / UNITS_PER_PAIR

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

    def test_noop_write_past_endurance_is_allowed(self, profile):
        # A write that toggles nothing switches no cell: no endurance check,
        # no wear, only the no-op command time.
        chip = fresh_chip(profile, seed=1, addresses=512)
        chip.apply_stress_pairs([0], profile.endurance_max)
        chip.timed_write(0, 0x00)  # at the limit: allowed, and now past it
        assert wear_pairs(chip)[0] > profile.endurance_max
        units, clock = chip.wear_units([0]), chip.simulated_clock
        result = chip.timed_write(0, 0x00)
        assert (result.kind, result.seconds) == ("noop", profile.noop_time)
        assert chip.wear_units([0]) == units
        assert chip.simulated_clock == clock + profile.noop_time
        with pytest.raises(rrsim.WearOutError):
            chip.timed_write(0, 0xFF)


class TestBufferedWrite:
    def test_set_reset_pair_costs_10ms(self, chip, profile):
        zeros = np.zeros(256, dtype=np.uint8)
        ones = np.full(256, 0xFF, dtype=np.uint8)
        t = chip.buffered_write(0, zeros) + chip.buffered_write(0, ones)
        assert t == pytest.approx(10e-3)
        assert t == pytest.approx(2 * profile.buffered_command_time)
        assert np.all(wear_pairs(chip)[:256] == 1.0)

    def test_rewriting_current_contents_adds_no_stress(self, chip):
        ones = np.full(256, 0xFF, dtype=np.uint8)
        chip.buffered_write(512, ones)
        assert np.all(wear_pairs(chip)[512:768] == 0)

    def test_bulk_pairs_accounting(self, chip):
        addrs = np.arange(256)
        chip.apply_stress_pairs(addrs, 15_000)
        assert np.all(wear_pairs(chip)[:256] == 15_000)
        assert np.all(wear_pairs(chip)[256:] == 0)

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


# Counts that would overflow an int64 (or uint32) wear sum if added as given.
HUGE_WEAR = {
    "transitions-int64-max": lambda chip: chip.apply_transitions([5], [2**63 - 1], 0.0),
    "transitions-past-uint32": lambda chip: chip.apply_transitions([5], 2**32 + 16, 0.0),
    "pairs-1e18": lambda chip: chip.apply_stress_pairs([5], 10**18),
    "pairs-int64-max": lambda chip: chip.apply_stress_pairs([5], np.int64(2**63 - 1)),
}


@pytest.mark.parametrize("call", HUGE_WEAR.values(), ids=HUGE_WEAR)
def test_huge_wear_counts_wear_out_and_change_nothing(profile, call):
    chip = fresh_chip(profile, seed=3, addresses=512)
    chip.apply_transitions([5], [16], 0.0)
    state = chip.save_state()
    with pytest.raises(rrsim.WearOutError) as err:
        call(chip)
    assert err.value.addresses == [5]
    assert chip.save_state() == state
    assert chip.wear_units([5]).tolist() == [16]


# Steps that would take the clock past the largest float, on a chip whose
# clock and command times are all 1e308 s.
CLOCK_OVERFLOW = {
    "retention": lambda chip: chip.age_retention(1e308),
    "bake": lambda chip: chip.bake(30.0, 1e308),
    "stress": lambda chip: chip.apply_stress_pairs(np.arange(256), 1),
    "buffered-write": lambda chip: chip.buffered_write(0, np.zeros(256, dtype=np.uint8)),
    "noop-write": lambda chip: chip.timed_write(5, 0xFF),
    "transitions": lambda chip: chip.apply_transitions([5], [16], 1e308),
}


@pytest.mark.parametrize("call", CLOCK_OVERFLOW.values(), ids=CLOCK_OVERFLOW)
def test_clock_overflow_refused_and_changes_nothing(profile, call):
    slow = dataclasses.replace(profile, pair_time=1e308, noop_time=1e308,
                               buffered_command_time=1e308)
    chip = rrsim.new_chip(rrsim.ChipGeometry(512), slow, seed=3)
    chip.bake(30.0, 1e308)
    state, log = chip.save_state(), list(chip.bake_log)
    with pytest.raises(rrsim.ConfigurationError, match="clock"):
        call(chip)
    assert chip.save_state() == state
    assert chip.bake_log == log
    assert rrsim.load_state(state, slow) == chip


def test_wear_reads_widen_the_stored_uint32(chip):
    chip.apply_stress_pairs(np.arange(4), 3)
    assert chip.wear_units(np.arange(4)).dtype == np.int64
    assert chip.wear_units(np.arange(4)).tolist() == [3 * UNITS_PER_PAIR] * 4


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
        assert np.all(wear_pairs(chip)[:10] == 1.0)
        chip.measure_trace(np.arange(10))
        assert np.all(wear_pairs(chip)[:10] == 2.0)

    def test_repeat_address_measured_at_incremented_wear(self, chip):
        first = chip.measure_trace([4])
        second = chip.measure_trace([4])
        assert wear_pairs(chip, [4])[0] == 2
        # The second call draws at the wear the first one left.
        assert first.set_times[0] != second.set_times[0]
        # The bytes and clock `measure_trace([4, 4])` gave while repeated
        # lists were still accepted.
        times = np.r_[first.set_times, second.set_times,
                      first.reset_times, second.reset_times]
        assert hashlib.sha256(times.tobytes()).hexdigest() == (
            "613ca9c900e71162284993b8dd6f915d2105423371d535c91f7bfc2193629dec")
        assert chip.simulated_clock == 0.0004317073388199027

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
        last = wear_pairs(chip).copy()
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
                chip.measure_trace(np.unique(rng.integers(0, 2048, 16)))
            pairs = wear_pairs(chip)
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
        assert np.array_equal(wear_pairs(plain), wear_pairs(noisy))

    def test_delay_flag_is_part_of_equality(self, profile, small_geometry):
        # The two chips measure differently, so they must not compare equal.
        plain = rrsim.new_chip(small_geometry, profile, seed=1)
        noisy = rrsim.new_chip(small_geometry, profile, seed=1,
                               random_delay_enabled=True)
        assert plain != noisy
        assert rrsim.load_state(noisy.save_state(), profile) == noisy


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


# Calls that break the argument rules: a count, size, address or seed that
# is not a whole number in range, or a stress or duration that is not a
# finite number >= 0.
REFUSED_CALLS = {
    "key-float-size": lambda chip, rng: rrsim.HidingKey(0, 2.5, 1, (0,), 4, 10),
    "key-bool-count": lambda chip, rng: rrsim.HidingKey(0, 4, True, (0,), 4, 10),
    "key-float-length": lambda chip, rng: rrsim.HidingKey(0, 4, 1, (0,), 4.0, 10),
    "key-float-base": lambda chip, rng: rrsim.HidingKey(0.5, 4, 1, (0,), 4, 10),
    "key-float-stress": lambda chip, rng: rrsim.HidingKey(0, 4, 1, (0,), 4, 10.5),
    "key-bool-rotation": lambda chip, rng: rrsim.HidingKey(0, 4, 1, (True,), 4, 10),
    "key-negative-seed": lambda chip, rng: rrsim.generate_key(8, 0, 4, 1, 10, -1),
    "key-negative-replicas": lambda chip, rng: rrsim.generate_key(8, 0, 4, -1, 10, 0),
    "pairs-float": lambda chip, rng: chip.apply_stress_pairs(np.arange(8), 2.5),
    "pairs-bool": lambda chip, rng: chip.apply_stress_pairs(np.arange(8), True),
    "usage-float-cycles": lambda chip, rng: rrsim.simulate_usage(
        chip, rrsim.WORST_CASE, 2.5, (0, 256)),
    "usage-bool-cycles": lambda chip, rng: rrsim.simulate_usage(
        chip, rrsim.REALISTIC, True, (0, 256)),
    "usage-float-start": lambda chip, rng: rrsim.simulate_usage(
        chip, rrsim.WORST_CASE, 10, (0.5, 256)),
    "usage-float-count": lambda chip, rng: rrsim.simulate_usage(
        chip, rrsim.REALISTIC, 10, (0, 256.0)),
    "usage-negative-count": lambda chip, rng: rrsim.simulate_usage(
        chip, rrsim.WORST_CASE, 10, (0, -5)),
    "characterize-float-pairs": lambda chip, rng: rrsim.characterize(
        chip, np.arange(256), 2.5, 1),
    "characterize-bool-pairs": lambda chip, rng: rrsim.characterize(
        chip, np.arange(256), True, 1),
    "characterize-float-interval": lambda chip, rng: rrsim.characterize(
        chip, np.arange(256), 100, 10.5),
    "characterize-float-addresses": lambda chip, rng: rrsim.characterize(
        chip, np.arange(256) + 0.5, 100, 50),
    "mean-negative": lambda chip, rng: chip.profile.mean_time("reset", [-1.0, 2.0]),
    "mean-nan": lambda chip, rng: chip.profile.mean_time("set", float("nan")),
    "mean-bool": lambda chip, rng: chip.profile.mean_time("set", True),
    "sample-negative": lambda chip, rng: chip.profile.sample_times("set", -5, rng),
    "sample-negative-array": lambda chip, rng: chip.profile.sample_times(
        "reset", np.array([3.0, -1.0]), rng),
    "write-float-address": lambda chip, rng: chip.timed_write(2.5, 0),
    "write-float-value": lambda chip, rng: chip.timed_write(3, 2.5),
    "buffer-float-base": lambda chip, rng: chip.buffered_write(
        256.0, np.zeros(256, dtype=np.uint8)),
    "wear-float-address": lambda chip, rng: chip.wear_units(np.array([1.5])),
    "chip-float-seed": lambda chip, rng: rrsim.new_chip(chip.geometry, chip.profile, 2.5),
    "chip-seed-past-int64": lambda chip, rng: rrsim.new_chip(
        chip.geometry, chip.profile, 2**63),
    "synthesize-negative-seed": lambda chip, rng: rrsim.synthesize_records(
        chip.profile, [0], seed=-1),
    "synthesize-float-level": lambda chip, rng: rrsim.synthesize_records(
        chip.profile, [0, 2.5]),
    "separation-negative-seed": lambda chip, rng: rrsim.min_stress_for_separation(
        chip.profile, 256, 100, seed=-1),
    "sweep-negative-seed": lambda chip, rng: rrsim.sweep_replica_size(
        chip.clone, [32], rng_seed=-1),
    "buffer-float-values": lambda chip, rng: chip.buffered_write(0, np.full(256, 2.7)),
    "buffer-values-past-byte": lambda chip, rng: chip.buffered_write(0, np.full(256, 300)),
    "buffer-list-past-byte": lambda chip, rng: chip.buffered_write(0, [300] * 256),
    "buffer-negative-values": lambda chip, rng: chip.buffered_write(0, np.full(256, -1)),
    "buffer-bool-values": lambda chip, rng: chip.buffered_write(0, np.zeros(256, bool)),
    "buffer-scalar": lambda chip, rng: chip.buffered_write(0, 0),
    "buffer-2d": lambda chip, rng: chip.buffered_write(0, np.zeros((256, 2), np.uint8)),
    "payload-float-length": lambda chip, rng: rrsim.Payload.from_hex("0x5", length=2.5),
    "payload-random-negative": lambda chip, rng: rrsim.Payload.random(-1, rng),
    "payload-random-float": lambda chip, rng: rrsim.Payload.random(2.5, rng),
    "payload-float-bits": lambda chip, rng: rrsim.Payload((1.0, 0)),
    "payload-bool-bits": lambda chip, rng: rrsim.Payload((True, False)),
    "payload-numpy-bits": lambda chip, rng: rrsim.Payload((0, np.int64(1))),
    "payload-random-bool": lambda chip, rng: rrsim.Payload.random(True, rng),
    "sweep-post-float-point": lambda chip, rng: rrsim.sweep_post_hiding(
        chip.clone, [15_000], [2.5]),
    "sweep-initial-float-point": lambda chip, rng: rrsim.sweep_initial_stress(
        chip.clone, [2.5], 15_000),
    "sweep-float-size": lambda chip, rng: rrsim.sweep_replica_size(chip.clone, [32.7]),
    "sample-bool": lambda chip, rng: chip.profile.sample_times("set", True, rng),
    "temperature-bool": lambda chip, rng: chip.set_temperature(True),
    "temperature-huge-int": lambda chip, rng: chip.set_temperature(10**400),
    "temperature-fraction": lambda chip, rng: chip.set_temperature(Fraction(30)),
    "temperature-list": lambda chip, rng: chip.set_temperature([30.0]),
    "bake-bool-temperature": lambda chip, rng: chip.bake(True, 10.0),
    # The clock is one number; an array duration once became the clock.
    "age-array-duration": lambda chip, rng: chip.age_retention(np.array([1.0, 2.0])),
    "bake-array-duration": lambda chip, rng: chip.bake(30.0, np.array([5.0])),
    "transitions-array-seconds": lambda chip, rng: chip.apply_transitions(
        [1, 2], [3, 4], np.array([1.0, 2.0])),
    "chip-string-delay-flag": lambda chip, rng: rrsim.new_chip(
        rrsim.ChipGeometry(1024), None, 1, "no"),
    # An address list is one flat list; a scalar or a nested one is refused.
    "wear-scalar-addresses": lambda chip, rng: chip.wear_units(7),
    "wear-2d-addresses": lambda chip, rng: chip.wear_units([[1, 2]]),
    "trace-scalar-addresses": lambda chip, rng: chip.measure_trace(7),
    "trace-2d-addresses": lambda chip, rng: chip.measure_trace([[1, 2]]),
    "pairs-scalar-addresses": lambda chip, rng: chip.apply_stress_pairs(7, 1),
    "pairs-2d-addresses": lambda chip, rng: chip.apply_stress_pairs([[1, 2]], 1),
    "values-scalar-addresses": lambda chip, rng: chip.set_values(7, 0),
    "values-2d-addresses": lambda chip, rng: chip.set_values([[1, 2]], 0),
    "decode-scalar-references": lambda chip, rng: rrsim.decode(
        chip, rrsim.HidingKey(0, 4, 1, (0,), 8, 10), reference_addresses=9000),
    "decode-2d-references": lambda chip, rng: rrsim.decode(
        chip, rrsim.HidingKey(0, 4, 1, (0,), 8, 10), reference_addresses=[[9000, 9001]]),
    "characterize-scalar-addresses": lambda chip, rng: rrsim.characterize(chip, 5, 100, 50),
    "characterize-2d-addresses": lambda chip, rng: rrsim.characterize(
        chip, [[1, 2]], 100, 50),
    # Bits and rotations are tuples: a list neither hashes nor equals one.
    "payload-list-bits": lambda chip, rng: rrsim.Payload([0, 1]),
    "payload-int-bits": lambda chip, rng: rrsim.Payload(5),
    "key-list-rotations": lambda chip, rng: rrsim.HidingKey(0, 4, 1, [0], 4, 10),
    "key-int-rotations": lambda chip, rng: rrsim.HidingKey(0, 4, 1, 0, 4, 10),
}


@pytest.mark.parametrize("call", REFUSED_CALLS.values(), ids=REFUSED_CALLS)
def test_argument_rules_refuse_before_any_change(chip, call):
    rng = rng_for(18)
    before, state = chip.clone(), rng.bit_generator.state
    with pytest.raises(rrsim.ConfigurationError):
        call(chip, rng)
    assert chip == before
    assert rng.bit_generator.state == state
