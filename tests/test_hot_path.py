"""The chip's strictly increasing fast path against the general one.

Each oracle below is the straightforward version of a hot-path routine:
np.unique run splitting, np.add.at wear, per-buffer erase commands, nested
plan loops and a loop over every threshold cut.  The library must agree
with it exactly on sorted, unsorted, repeated and multi-run input.
"""

import numpy as np
import pytest

import rrsim
from rrsim import harness
from rrsim.chip import UNITS_PER_PAIR
from conftest import fresh_chip, rng_for

SHUFFLED = rng_for(5).permutation(np.r_[0:300, 301, 700:1300, 2000, 2500:3100])

ADDRESS_SETS = {
    "contiguous": np.arange(100, 900),
    "one-buffer": np.arange(512, 768),
    "buffer-plus-one": np.arange(511, 768),
    "single": np.array([4095]),
    "runs": np.r_[0:300, 301, 700:1300, 2000, 2500:3100],
    "unsorted": SHUFFLED,
    "repeated": np.array([5, 5, 6, 7, 7, 7, 300, 301]),
    "repeated-unsorted": np.r_[SHUFFLED[:400], SHUFFLED[100:200], 5, 5],
}


def span_count_oracle(addrs, size):
    uniq = np.unique(addrs)
    runs = np.split(uniq, np.nonzero(np.diff(uniq) != 1)[0] + 1)
    return int(sum(-(-len(run) // size) for run in runs))


def stress_oracle(chip, addrs, pairs):
    np.add.at(chip._units, addrs, pairs * UNITS_PER_PAIR)
    elapsed = (pairs * span_count_oracle(addrs, chip.geometry.buffer_size)
               * chip.profile.pair_time)
    chip.simulated_clock += elapsed
    return elapsed


def trace_oracle(chip, addrs):
    """One vectorized draw for distinct addresses; repeats one at a time."""
    if len(np.unique(addrs)) != len(addrs):
        parts = [trace_oracle(chip, np.array([a])) for a in addrs]
        return (np.concatenate([p[0] for p in parts]),
                np.concatenate([p[1] for p in parts]))
    units = chip._units[addrs]
    rng = chip._rng(b"trace", addrs, units)
    stress = units / UNITS_PER_PAIR
    scale = chip._scale()
    prof = chip.profile
    set_times = prof.sample_times("set", stress, rng, scale=scale)
    reset_times = prof.sample_times("reset", stress, rng, scale=scale)
    if chip.random_delay_enabled:
        set_times = set_times + rng.uniform(0.0, prof.jitter_max, len(addrs))
        reset_times = reset_times + rng.uniform(0.0, prof.jitter_max, len(addrs))
    chip._units[addrs] = units + UNITS_PER_PAIR
    chip._values[addrs] = 0xFF
    chip.simulated_clock += float(set_times.sum() + reset_times.sum())
    return set_times, reset_times


def erase_oracle(chip, base, n_buffers):
    """Per-buffer commands; returns (elapsed, error addresses or None)."""
    size = chip.geometry.buffer_size
    ones = np.full(size, 0xFF, dtype=np.uint8)
    elapsed = 0.0
    for i in range(n_buffers):
        try:
            elapsed += chip.buffered_write(base + i * size, ones)
        except rrsim.WearOutError as exc:
            return elapsed, exc.addresses
    return elapsed, None


def worn_chip(profile, seed=31, random_delay=False):
    """4 K chip with uneven prior wear and random stored bytes."""
    chip = rrsim.new_chip(rrsim.ChipGeometry(address_count=4096), profile,
                          seed=seed, random_delay_enabled=random_delay)
    rng = rng_for(seed)
    chip.apply_transitions(np.arange(4096), rng.integers(0, 5000, 4096), 0.0)
    chip.set_values(np.arange(4096), rng.integers(0, 256, 4096, dtype=np.uint8))
    return chip


@pytest.mark.parametrize("kind", ADDRESS_SETS)
def test_buffer_span_count_matches_oracle(profile, kind):
    addrs = ADDRESS_SETS[kind]
    for size in (1, 7, 256, 4096):
        chip = rrsim.new_chip(rrsim.ChipGeometry(4096, 8, size), profile, seed=1)
        assert chip._buffer_span_count(addrs) == span_count_oracle(addrs, size)


@pytest.mark.parametrize("kind", ADDRESS_SETS)
def test_stress_pairs_match_oracle(profile, kind):
    chip = worn_chip(profile)
    twin = chip.clone()
    addrs = ADDRESS_SETS[kind]
    elapsed = chip.apply_stress_pairs(addrs, 1234)
    assert elapsed == stress_oracle(twin, addrs, 1234)
    assert chip == twin


@pytest.mark.parametrize("random_delay", [False, True])
@pytest.mark.parametrize("kind", ADDRESS_SETS)
def test_trace_matches_oracle(profile, kind, random_delay):
    chip = worn_chip(profile, random_delay=random_delay)
    twin = chip.clone()
    addrs = ADDRESS_SETS[kind]
    trace = chip.measure_trace(addrs)
    set_times, reset_times = trace_oracle(twin, addrs)
    assert np.array_equal(trace.addresses, addrs)
    assert np.array_equal(trace.set_times, set_times)
    assert np.array_equal(trace.reset_times, reset_times)
    assert chip == twin


def test_repeated_addresses_cannot_pass_endurance(profile):
    chip = fresh_chip(profile, seed=8, addresses=1024)
    chip.apply_stress_pairs([9], 10)
    before = chip.clone()
    # 3 x 400 K pairs on one cell is 1.2 M against a 1 M limit.
    with pytest.raises(rrsim.WearOutError) as err:
        chip.apply_stress_pairs([5, 9, 5, 5], 400_000)
    assert err.value.addresses == [5, 5, 5]
    assert chip == before
    chip.apply_stress_pairs([5, 5], 400_000)
    assert chip.stress_count(5) == 800_000


def test_multi_buffer_write_matches_single_buffer_commands(profile):
    chip = worn_chip(profile)
    chip.simulated_clock = 1234.5
    twin = chip.clone()
    elapsed = chip.buffered_write(256, np.full(3 * 256, 0xFF, dtype=np.uint8))
    assert (elapsed, None) == erase_oracle(twin, 256, 3)
    assert chip == twin


def test_partial_erase_stops_at_first_worn_buffer(profile):
    chip = worn_chip(profile)
    chip.simulated_clock = 1234.5
    size = chip.geometry.buffer_size
    limit = profile.endurance_max * UNITS_PER_PAIR
    base = 256
    # A worn cell already holding 0xFF is not rewritten, so it blocks
    # nothing; the first worn cell that would toggle sits in buffer 2.
    chip.set_values([base + 100], [0xFF])
    chip.set_values([base + 2 * size + 3, base + 2 * size + 40,
                     base + 3 * size + 1], [0, 0, 0])
    for a in (base + 100, base + 2 * size + 3, base + 2 * size + 40,
              base + 3 * size + 1):
        chip._units[a] = limit + 1
    twin = chip.clone()
    start = chip.simulated_clock
    before_values = chip.values.copy()
    with pytest.raises(rrsim.WearOutError) as err:
        chip.buffered_write(base, np.full(4 * size, 0xFF, dtype=np.uint8))
    assert err.value.addresses == [base + 2 * size + 3, base + 2 * size + 40]
    assert erase_oracle(twin, base, 4)[1] == err.value.addresses
    assert chip == twin
    # Buffers 0 and 1 were written and paid for, one addition per command.
    assert chip.simulated_clock == start + profile.buffered_command_time \
        + profile.buffered_command_time
    assert np.all(chip.values[base:base + 2 * size] == 0xFF)
    assert np.array_equal(chip.values[base + 2 * size:],
                          before_values[base + 2 * size:])


def test_buffered_write_needs_whole_buffers(chip):
    for length in (0, 255, 257, 3 * 256 + 1):
        with pytest.raises(rrsim.ConfigurationError):
            chip.buffered_write(0, np.zeros(length, dtype=np.uint8))
    assert chip.simulated_clock == 0.0


def plan_oracle(key):
    R, B = key.replica_size, key.payload_length
    bit_of_position = np.empty(key.footprint, dtype=np.int64)
    for r, k in enumerate(key.rotations):
        row = r * B * R
        for j in range(B):
            bit_of_position[row + j * R: row + (j + 1) * R] = (j + k) % B
    return bit_of_position


@pytest.mark.parametrize("layout", [(32, 256, 1), (32, 8, 4), (8, 1, 16), (5, 3, 7)])
def test_address_plan_matches_loop_oracle(small_geometry, layout):
    B, R, count = layout
    key = rrsim.generate_key(B, 17, R, count, 15_000, rng_seed=sum(layout),
                             geometry=small_geometry)
    plan = rrsim.AddressPlan(key, small_geometry)
    assert plan.bit_of_address.dtype == np.int64
    assert np.array_equal(plan.bit_of_address, plan_oracle(key))


def min_threshold_errors_oracle(means, truth):
    means = np.asarray(means, dtype=float)
    truth = np.asarray(truth, dtype=np.int64)
    order = np.sort(np.unique(means))
    cuts = [order[0] - 1.0]
    cuts.extend(0.5 * (order[:-1] + order[1:]))
    cuts.append(order[-1] + 1.0)
    best = len(truth)
    for cut in cuts:
        errors = int(np.sum((means > cut).astype(np.int64) != truth))
        best = min(best, errors)
    return best


def test_min_threshold_errors_matches_loop_oracle():
    rng = rng_for(17)
    for trial in range(500):
        n = int(rng.integers(1, 40))
        if trial % 2:
            means = rng.integers(0, 5, n).astype(float)   # many ties
        else:
            means = rng.normal(1e-6, 1e-7, n)
        truth = rng.integers(0, 2, n)
        assert harness.min_threshold_errors(means, truth) == \
            min_threshold_errors_oracle(means, truth)


def test_repeated_transitions_cannot_pass_endurance(profile):
    chip = fresh_chip(profile, seed=8, addresses=1024)
    limit = profile.endurance_max * rrsim.chip.UNITS_PER_PAIR
    before = chip.clone()
    # Each listing alone fits, but together they put cell 5 past the limit.
    with pytest.raises(rrsim.WearOutError) as err:
        chip.apply_transitions([5, 9, 5], [limit - 10, 7, limit - 10], 1.0)
    assert err.value.addresses == [5, 5]
    assert chip == before
    chip.apply_transitions([5, 9, 5], [limit // 2, 7, limit // 2], 1.0)
    assert chip.stress_count(5) == profile.endurance_max
    assert chip.wear_units([9])[0] == 7
    assert chip.simulated_clock == 1.0


def test_increasing_transitions_match_repeated_path(profile):
    chip = worn_chip(profile)
    twin = chip.clone()
    addrs = np.arange(100, 900, 3)
    steps = rng_for(4).integers(0, 5000, len(addrs))
    chip.apply_transitions(addrs, steps, 0.5)
    for a, s in zip(addrs, steps):
        twin.apply_transitions([a, a], [s, 0], 0.5 / len(addrs))
    assert np.array_equal(chip.wear_units(np.arange(4096)),
                          twin.wear_units(np.arange(4096)))
