"""The chip's failure contract, driven by random call sequences.

A hypothesis state machine runs every chip operation (timed and buffered
writes, stress pairs, raw transitions, value bookkeeping, measurement,
temperature, retention, bake, save and reload) with valid and invalid
arguments on small chips that carry worn cells, and checks:

- a call that raises leaves `save_state()` and `bake_log` unchanged;
- two chips are equal exactly when their state files are;
- every chip the machine reaches saves and reloads equal, and a reload
  replays the same next trace;
- the simulated clock never goes backwards.

"Wear never passes `endurance_max`" is left out: measuring (or writing) a
cell that sits exactly at the limit still leaves it one pair past it, and
mending that moves the fitted-profile digest of the calibration workload,
so it belongs with the change that declares that digest move.
"""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, settings, strategies as st
from hypothesis.stateful import (RuleBasedStateMachine, initialize, invariant,
                                 rule, run_state_machine_as_test)

import rrsim
from rrsim.chip import UNITS_PER_PAIR

CELLS = 4096
SIZE = 256
# Worn and at-limit cells sit in the first buffers, where most calls land.
WORN_SPAN = 1024

ordered = st.sets(st.integers(0, CELLS - 1), max_size=12).map(sorted)
runs = st.tuples(st.integers(0, CELLS - 1), st.integers(1, 600)).map(
    lambda r: list(range(r[0], min(r[0] + r[1], CELLS))))
valid_addresses = st.one_of(ordered, runs,
                            st.sets(st.integers(0, WORN_SPAN - 1), max_size=12).map(sorted))
addresses = st.one_of(
    valid_addresses,
    st.lists(st.integers(-2, CELLS + 1), max_size=8),    # unsorted, repeated, outside
    st.sampled_from([[1.5, 2.5], [True, False], [4095, 4096], 7, [[1, 2]]]))
byte = st.one_of(st.integers(0, 0xFF), st.sampled_from([-1, 256, 300, 2.7, True]))
pairs = st.one_of(st.integers(0, 2_000), st.sampled_from(
    [-1, 2.5, True, 999_999, 1_000_000, 2_000_000, 10**18, 2**63 - 1]))
# 1e308 s reaches `_commit`'s refusal of a clock past the largest float.
amount = st.one_of(st.floats(0, 1e6), st.sampled_from(
    [-1.0, float("nan"), float("inf"), True, 1e308]))
celsius = st.one_of(st.floats(-40, 85), st.sampled_from(
    [-41.0, 86.0, 500.0, float("nan"), -0.0, True]))


def trace_or_refusal(chip, addrs):
    try:
        t = chip.measure_trace(addrs)
    except rrsim.RRSimError as exc:
        return type(exc)
    return t.addresses.tolist(), t.set_times.tobytes(), t.reset_times.tobytes()


class ChipContract(RuleBasedStateMachine):
    random_delay = False

    @initialize(seed=st.integers(0, 2**16), worn=st.sets(st.integers(0, WORN_SPAN - 1),
                                                       max_size=16),
                at_limit=st.sets(st.integers(0, WORN_SPAN - 1), max_size=8))
    def start(self, seed, worn, at_limit):
        self.chip = rrsim.new_chip(rrsim.ChipGeometry(CELLS), seed=seed,
                                   random_delay_enabled=self.random_delay)
        limit = self.chip.profile.endurance_max * UNITS_PER_PAIR
        self.chip._units[sorted(at_limit)] = limit
        self.chip._units[sorted(worn)] = limit + UNITS_PER_PAIR
        rng = np.random.Generator(np.random.PCG64(seed))
        self.chip.set_values(np.arange(WORN_SPAN),
                             rng.integers(0, 256, WORN_SPAN, dtype=np.uint8))
        self.clock = self.chip.simulated_clock

    def attempt(self, call, *args):
        """Run `call`; if it raises a simulator error, nothing may change.
        Either way the chip equals its old self exactly when their state
        files are equal."""
        before = self.chip.clone()
        state, log = before.save_state(), list(before.bake_log)
        try:
            call(*args)
        except rrsim.RRSimError:
            assert self.chip.save_state() == state
            assert self.chip.bake_log == log
        assert (self.chip == before) == (self.chip.save_state() == state)

    @invariant()
    def saves_and_reloads_equal(self):
        if hasattr(self, "chip"):
            assert rrsim.load_state(self.chip.save_state(), self.chip.profile) == self.chip

    @invariant()
    def clock_never_goes_back(self):
        if hasattr(self, "chip"):
            assert self.chip.simulated_clock >= self.clock
            self.clock = self.chip.simulated_clock

    @rule(address=st.integers(-1, CELLS), value=byte)
    def timed_write(self, address, value):
        self.attempt(self.chip.timed_write, address, value)

    @rule(base=st.one_of(st.sampled_from([0, SIZE, 2 * SIZE, CELLS - SIZE]),
                         st.integers(-1, CELLS)),
          buffers=st.integers(0, 3), fill=byte,
          shape=st.sampled_from(["array", "list", "scalar", "2d", "random"]))
    def buffered_write(self, base, buffers, fill, shape):
        n = buffers * SIZE
        values = {"array": lambda: np.full(n, fill),
                  "list": lambda: [fill] * n,
                  "scalar": lambda: fill,
                  "2d": lambda: np.full((n, 2), fill),
                  "random": lambda: np.random.Generator(np.random.PCG64(base + 1))
                  .integers(0, 256, n, dtype=np.uint8)}[shape]()
        self.attempt(self.chip.buffered_write, base, values)

    @rule(addrs=addresses, pairs=pairs)
    def apply_stress_pairs(self, addrs, pairs):
        self.attempt(self.chip.apply_stress_pairs, addrs, pairs)

    @rule(addrs=addresses, count=st.one_of(st.integers(0, 1_000), st.sampled_from(
        [-1, 2.5, 16_000_000, 10**18, 2**63 - 1, "each"])), seconds=amount)
    def apply_transitions(self, addrs, count, seconds):
        counts = np.arange(np.size(addrs)) * 7 if count == "each" else count
        self.attempt(self.chip.apply_transitions, addrs, counts, seconds)

    @rule(addrs=addresses, value=st.one_of(byte, st.just("each")))
    def set_values(self, addrs, value):
        values = np.arange(np.size(addrs)) % 256 if value == "each" else value
        self.attempt(self.chip.set_values, addrs, values)

    @rule(addrs=addresses)
    def measure_trace(self, addrs):
        self.attempt(self.chip.measure_trace, addrs)

    @rule(celsius=celsius)
    def set_temperature(self, celsius):
        self.attempt(self.chip.set_temperature, celsius)

    @rule(duration=amount)
    def age_retention(self, duration):
        self.attempt(self.chip.age_retention, duration)

    @rule(celsius=celsius, duration=amount)
    def bake(self, celsius, duration):
        self.attempt(self.chip.bake, celsius, duration)

    @rule(addrs=valid_addresses)
    def save_and_reload(self, addrs):
        twin = rrsim.load_state(self.chip.save_state(), self.chip.profile)
        assert twin == self.chip
        assert trace_or_refusal(twin.clone(), addrs) == \
            trace_or_refusal(self.chip.clone(), addrs)
        self.chip = twin


class DelayedChipContract(ChipContract):
    random_delay = True


CONTRACT_SETTINGS = settings(max_examples=40, stateful_step_count=25,
                             derandomize=True, database=None, deadline=None,
                             suppress_health_check=[HealthCheck.too_slow])


@pytest.mark.parametrize("machine", [ChipContract, DelayedChipContract],
                         ids=["plain", "random-delay"])
def test_refused_calls_change_nothing(machine):
    run_state_machine_as_test(machine, settings=CONTRACT_SETTINGS)
