"""The chip's hot path against straightforward oracles.

Each oracle below is the straightforward version of a hot-path routine:
np.split run splitting, indexed wear, per-buffer erase commands, nested
plan loops and a loop over every threshold cut.  The library must agree
with it exactly on single, contiguous and multi-run input.  Address lists
must be strictly increasing: the oracles refuse unsorted or repeated ones,
and so must the chip, before it changes any state.
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
}
REFUSED_SETS = {
    "unsorted": SHUFFLED,
    "repeated": np.array([5, 5, 6, 7, 7, 7, 300, 301]),
    "repeated-unsorted": np.r_[SHUFFLED[:400], SHUFFLED[100:200], 5, 5],
}
ALL_SETS = {**ADDRESS_SETS, **REFUSED_SETS}


def outcome(fn, *args):
    """What `fn(*args)` returns, or "refused" on ConfigurationError."""
    try:
        return fn(*args)
    except rrsim.ConfigurationError:
        return "refused"


def refuse_unless_increasing(addrs):
    if not np.all(np.diff(addrs) > 0):
        raise rrsim.ConfigurationError("addresses must be strictly increasing")


def span_count_oracle(addrs, size):
    refuse_unless_increasing(addrs)
    runs = np.split(addrs, np.nonzero(np.diff(addrs) != 1)[0] + 1)
    return int(sum(-(-len(run) // size) for run in runs))


def stress_oracle(chip, addrs, pairs):
    refuse_unless_increasing(addrs)
    chip._units[addrs] += pairs * UNITS_PER_PAIR
    elapsed = (pairs * span_count_oracle(addrs, chip.geometry.buffer_size)
               * chip.profile.pair_time)
    chip.simulated_clock += elapsed
    return elapsed


def trace_oracle(chip, addrs):
    """One vectorized draw over every address."""
    refuse_unless_increasing(addrs)
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


@pytest.mark.parametrize("kind", ALL_SETS)
def test_buffer_span_count_matches_oracle(profile, kind):
    addrs = ALL_SETS[kind]
    for size in (1, 7, 256, 4096):
        chip = rrsim.new_chip(rrsim.ChipGeometry(4096, 8, size), profile, seed=1)
        # apply_stress_pairs counts spans only of a list `_index` accepted.
        counted = outcome(lambda: chip._buffer_span_count(chip._index(addrs)[0]))
        assert counted == outcome(span_count_oracle, addrs, size)


@pytest.mark.parametrize("kind", ALL_SETS)
def test_stress_pairs_match_oracle(profile, kind):
    chip = worn_chip(profile)
    twin = chip.clone()
    addrs = ALL_SETS[kind]
    elapsed = outcome(chip.apply_stress_pairs, addrs, 1234)
    assert elapsed == outcome(stress_oracle, twin, addrs, 1234)
    assert chip == twin


@pytest.mark.parametrize("random_delay", [False, True])
@pytest.mark.parametrize("kind", ALL_SETS)
def test_trace_matches_oracle(profile, kind, random_delay):
    chip = worn_chip(profile, random_delay=random_delay)
    twin = chip.clone()
    addrs = ALL_SETS[kind]
    trace = outcome(chip.measure_trace, addrs)
    expected = outcome(trace_oracle, twin, addrs)
    if expected == "refused":
        assert trace == "refused"
    else:
        assert np.array_equal(trace.addresses, addrs)
        assert np.array_equal(trace.set_times, expected[0])
        assert np.array_equal(trace.reset_times, expected[1])
    assert chip == twin


ADDRESS_METHODS = {
    "measure_trace": lambda chip, a: chip.measure_trace(a),
    "apply_stress_pairs": lambda chip, a: chip.apply_stress_pairs(a, 3),
    "apply_transitions": lambda chip, a: chip.apply_transitions(
        a, np.full(len(a), 7), 1.0),
    "set_values": lambda chip, a: chip.set_values(a, np.zeros(len(a))),
    "wear_units": lambda chip, a: chip.wear_units(a),
}


@pytest.mark.parametrize("method", ADDRESS_METHODS)
@pytest.mark.parametrize("addrs, error", [
    *((REFUSED_SETS[kind], rrsim.ConfigurationError) for kind in REFUSED_SETS),
    (np.array([-1, 0, 1]), rrsim.BoundsError),
    (np.array([4000, 4096]), rrsim.BoundsError),
    (np.array([5, 4095, 4096]), rrsim.BoundsError),
    (np.array([1.5, 2.5]), rrsim.ConfigurationError),
    (np.array([False, True]), rrsim.ConfigurationError),
], ids=[*REFUSED_SETS, "negative", "past-end", "past-end-gapped", "fractional",
        "boolean"])
def test_address_rule_refuses_before_any_change(profile, method, addrs, error):
    chip = worn_chip(profile)
    before = chip.clone()
    with pytest.raises(error):
        ADDRESS_METHODS[method](chip, addrs)
    assert chip == before


def test_repeated_addresses_cannot_pass_endurance(profile):
    chip = fresh_chip(profile, seed=8, addresses=1024)
    chip.apply_stress_pairs([9], 10)
    before = chip.clone()
    # Listed three times, cell 5 would take 1.2 M pairs against a 1 M limit;
    # repeated lists are refused before any wear is added.
    with pytest.raises(rrsim.ConfigurationError):
        chip.apply_stress_pairs([5, 9, 5, 5], 400_000)
    assert chip == before
    with pytest.raises(rrsim.ConfigurationError):
        chip.apply_stress_pairs([5, 5], 400_000)
    assert chip == before


def test_multi_buffer_write_matches_single_buffer_commands(profile):
    chip = worn_chip(profile)
    chip.simulated_clock = 1234.5
    twin = chip.clone()
    elapsed = chip.buffered_write(256, np.full(3 * 256, 0xFF, dtype=np.uint8))
    assert (elapsed, None) == erase_oracle(twin, 256, 3)
    assert chip == twin


def test_worn_erase_changes_nothing(profile):
    chip = worn_chip(profile)
    chip.simulated_clock = 1234.5
    size = chip.geometry.buffer_size
    limit = profile.endurance_max * UNITS_PER_PAIR
    base = 256
    # A worn cell already holding 0xFF is not rewritten, so it blocks
    # nothing; the worn cells that would toggle sit in buffers 2 and 3.
    chip.set_values([base + 100], [0xFF])
    chip.set_values([base + 2 * size + 3, base + 2 * size + 40,
                     base + 3 * size + 1], [0, 0, 0])
    for a in (base + 100, base + 2 * size + 3, base + 2 * size + 40,
              base + 3 * size + 1):
        chip._units[a] = limit + 1
    twin = chip.clone()
    with pytest.raises(rrsim.WearOutError) as err:
        chip.buffered_write(base, np.full(4 * size, 0xFF, dtype=np.uint8))
    # Every worn cell the write would toggle is named, and nothing is
    # written or paid for, not even the buffers before the first worn one.
    assert err.value.addresses == [771, 808, 1025]
    assert chip == twin


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
    # Each listing alone fits, but together they would put cell 5 past the
    # limit; repeated lists are refused before any wear is added.
    with pytest.raises(rrsim.ConfigurationError):
        chip.apply_transitions([5, 9, 5], [limit - 10, 7, limit - 10], 1.0)
    assert chip == before
    with pytest.raises(rrsim.ConfigurationError):
        chip.apply_transitions([5, 9, 5], [limit // 2, 7, limit // 2], 1.0)
    assert chip == before


@pytest.mark.parametrize("addrs, counts, seconds", [
    ([5], [-160], 0.0), ([5, 9], [32, -1], 1.0), ([5], [32], -1.0),
    ([], [], -0.5), ([5], [1.7], 0.0), ([5], 1.7, 0.0), ([5], True, 0.0),
    ([5], [32], float("nan")), ([5], [32], float("inf")), ([5], [32], True)])
def test_negative_transitions_refused(profile, addrs, counts, seconds):
    chip = fresh_chip(profile, seed=8, addresses=1024)
    chip.apply_transitions([5, 9], [48, 16], 2.0)
    before = chip.clone()
    with pytest.raises(rrsim.ConfigurationError):
        chip.apply_transitions(addrs, counts, seconds)
    assert chip == before
    assert chip.stress_count(5) == 3


def test_increasing_transitions_match_repeated_path(profile):
    chip = worn_chip(profile)
    twin = chip.clone()
    addrs = np.arange(100, 900, 3)
    steps = rng_for(4).integers(0, 5000, len(addrs))
    chip.apply_transitions(addrs, steps, 0.5)
    for a, s in zip(addrs, steps):
        twin.apply_transitions([a], [s], 0.5 / len(addrs))
    assert np.array_equal(chip.wear_units(np.arange(4096)),
                          twin.wear_units(np.arange(4096)))


@pytest.mark.parametrize("counts", [[5], [5, 5], [[5, 5, 5]], np.ones((3, 1))])
def test_transition_counts_need_one_per_address(profile, counts):
    chip = fresh_chip(profile, seed=8, addresses=1024)
    before = chip.clone()
    with pytest.raises(rrsim.ConfigurationError):
        chip.apply_transitions([1, 2, 3], counts, 0.0)
    assert chip == before
    chip.apply_transitions([1, 2, 3], 5, 0.0)
    assert chip.wear_units([1, 2, 3]).tolist() == [5, 5, 5]


@pytest.mark.parametrize("values", [[7], [7, 7], [[7, 7, 7]]])
def test_stored_values_need_one_per_address(profile, values):
    chip = fresh_chip(profile, seed=8, addresses=1024)
    before = chip.clone()
    with pytest.raises(rrsim.ConfigurationError):
        chip.set_values(np.arange(3), values)
    assert chip == before
    chip.set_values(np.arange(3), 7)
    assert chip.values[:4].tolist() == [7, 7, 7, 0xFF]
