"""Simulated byte-addressable resistive memory with wear-dependent timing.

The chip keeps one wear counter and one stored byte per address.  Wear is
tracked in bit-transition units: every bit that toggles during a write
contributes one unit, and 16 units (eight bits switched down and back up)
make one full set-reset pair for the byte.  Mean switch time grows with
accumulated pairs per the chip's calibration profile; reported times add
per-sample lognormal noise, a per-chip speed factor, and the temperature
multiplier.

Timing noise is derived by hashing the chip seed together with the
addresses and wear state touched by each operation, so a chip restored
from a state file replays the exact same trace an un-persisted chip would
produce for the same operation sequence.
"""

from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass

import numpy as np

from .errors import BoundsError, ConfigurationError, FormatError, WearOutError
from .profile import CalibrationProfile

STATE_MAGIC = b"RRSIM\x01"

# Bit-transition units per full byte set-reset pair (8 bits down + 8 bits up).
UNITS_PER_PAIR = 16

_CELL_DTYPE = np.dtype([("stress", "<u4"), ("value", "u1")])
# Header after the magic: address count, word length, buffer size, seed,
# simulated clock, temperature, random-delay flag.
_HEAD_FORMAT = "<QHIqdd?"
_HEAD_SIZE = struct.calcsize(_HEAD_FORMAT)

_PAST_ENDURANCE = "cells past rated endurance can no longer store data reliably"

# Popcount of every byte value, for toggle accounting.
_POPCOUNT = np.array([bin(v).count("1") for v in range(256)], dtype=np.uint8)


@dataclass(frozen=True)
class ChipGeometry:
    """Addressable layout of the part: 8 Mb chip by default."""

    address_count: int = 1_048_576
    word_length: int = 8
    buffer_size: int = 256

    def validate(self):
        if self.address_count <= 0:
            raise ConfigurationError("address_count must be positive")
        if self.word_length != 8:
            raise ConfigurationError("only 8-bit words are supported")
        if not 0 < self.buffer_size <= self.address_count:
            raise ConfigurationError("buffer_size must fit the chip")


@dataclass
class WriteResult:
    """Outcome of a single timed write."""

    kind: str        # "set", "reset" or "noop"
    seconds: float


class TimingTrace:
    """Ordered set/reset time samples per measured address."""

    def __init__(self, addresses, set_times, reset_times):
        self.addresses = np.asarray(addresses, dtype=np.int64)
        self.set_times = np.asarray(set_times, dtype=float)
        self.reset_times = np.asarray(reset_times, dtype=float)
        if not (len(self.addresses) == len(self.set_times) == len(self.reset_times)):
            raise ConfigurationError("trace arrays must have equal length")

    def __len__(self):
        return len(self.addresses)


def _increasing_index(addrs: np.ndarray):
    """Index selecting `addrs` if they are strictly increasing, else None.

    A contiguous run becomes a slice, which reads and writes the cell
    arrays without a gather or scatter.  `addrs` must be non-empty.
    """
    if not np.all(addrs[1:] > addrs[:-1]):
        return None
    if addrs[-1] - addrs[0] == len(addrs) - 1:
        return slice(int(addrs[0]), int(addrs[-1]) + 1)
    return addrs


class ChipModel:
    """One simulated chip; mutated in place by exactly one caller at a time."""

    def __init__(self, geometry: ChipGeometry, profile: CalibrationProfile,
                 seed: int, random_delay_enabled: bool = False):
        geometry.validate()
        self._assemble(geometry, profile, seed, random_delay_enabled,
                       np.zeros(geometry.address_count, dtype=np.int64),
                       np.full(geometry.address_count, 0xFF, dtype=np.uint8))

    def _assemble(self, geometry, profile, seed, random_delay_enabled,
                  units, values, chip_factor=None):
        """Set every attribute around the given cell arrays, which the chip
        takes over.  `__init__`, `clone` and `load_state` all build here;
        the chip factor is drawn from the seed unless one is passed."""
        if (profile.endurance_max + 1) * UNITS_PER_PAIR >= 2**32:
            raise ConfigurationError(
                f"endurance_max {profile.endurance_max} overflows the state "
                f"file's uint32 wear field")
        self.geometry = geometry
        self.profile = profile
        self.seed = int(seed)
        self.temperature = 25.0
        self.simulated_clock = 0.0
        self.random_delay_enabled = random_delay_enabled
        self.bake_log: list[tuple[float, float]] = []  # (celsius, seconds), not persisted
        # Wear in bit-transition units (16 = one byte set-reset pair).
        self._units = units
        self._values = values
        self.chip_factor = (profile.draw_chip_factor(self._rng(b"chip-factor"))
                            if chip_factor is None else chip_factor)

    # -- basic state -------------------------------------------------------

    @property
    def stress_pairs(self):
        """Per-cell completed set-reset pairs (float, fractional wear counts)."""
        return self._units / UNITS_PER_PAIR

    @property
    def values(self):
        return self._values

    def stress_count(self, address: int) -> int:
        """Completed pairs at one address (whole pairs)."""
        self._check_range(address, 1)
        return int(self._units[address]) // UNITS_PER_PAIR

    def stored_value(self, address: int) -> int:
        self._check_range(address, 1)
        return int(self._values[address])

    def __eq__(self, other):
        if not isinstance(other, ChipModel):
            return NotImplemented
        return (self.geometry == other.geometry
                and self.seed == other.seed
                and self.temperature == other.temperature
                and self.simulated_clock == other.simulated_clock
                and np.array_equal(self._units, other._units)
                and np.array_equal(self._values, other._values))

    def clone(self) -> "ChipModel":
        """Independent copy sharing the (immutable) profile."""
        twin = ChipModel.__new__(ChipModel)
        twin._assemble(self.geometry, self.profile, self.seed,
                       self.random_delay_enabled, self._units.copy(),
                       self._values.copy(), self.chip_factor)
        twin.temperature = self.temperature
        twin.simulated_clock = self.simulated_clock
        twin.bake_log = list(self.bake_log)
        return twin

    # -- internals ---------------------------------------------------------

    def _check_range(self, base: int, count: int):
        if base < 0 or base + count > self.geometry.address_count:
            raise BoundsError(
                f"addresses [{base}, {base + count}) outside chip of "
                f"{self.geometry.address_count}")

    def _check_addresses(self, addrs: np.ndarray):
        if len(addrs) and (addrs.min() < 0 or addrs.max() >= self.geometry.address_count):
            raise BoundsError("address outside chip")

    def _rng(self, tag: bytes, *parts) -> np.random.Generator:
        h = hashlib.blake2b(digest_size=16)
        h.update(self.seed.to_bytes(8, "little", signed=True))
        h.update(tag)
        for part in parts:
            h.update(np.ascontiguousarray(part))
        return np.random.Generator(np.random.PCG64(int.from_bytes(h.digest(), "little")))

    def _scale(self) -> float:
        """Common multiplier on mean times: chip speed, temperature, aging."""
        drift = 1.0
        if self.profile.retention_drift:
            drift += self.profile.retention_drift * self.simulated_clock / 86400.0
        if self.profile.bake_drift and self.bake_log:
            drift += self.profile.bake_drift * sum(s / 86400.0 for _, s in self.bake_log)
        return self.chip_factor * self.profile.temp_factor(self.temperature) * drift

    def _check_wear(self, addrs: np.ndarray, worst: np.ndarray):
        """Refuse the operation if any entry of `worst` (the wear `addrs`
        would carry, in units) passes the endurance limit."""
        mask = worst > self.profile.endurance_max * UNITS_PER_PAIR
        if np.any(mask):
            raise WearOutError(_PAST_ENDURANCE,
                               addresses=np.atleast_1d(addrs[mask]).tolist())

    # -- writes ------------------------------------------------------------

    def timed_write(self, address: int, value: int) -> WriteResult:
        """Write one byte and report the modeled command latency.

        Bits going 1->0 are set events, 0->1 reset events; the reported
        latency is one noisy draw from the slower (set-bearing) curve at the
        cell's current wear.  Each toggled bit adds half a bit-pair of wear.
        """
        self._check_range(address, 1)
        if not 0 <= value <= 0xFF:
            raise ConfigurationError("value must be one byte")
        old = int(self._values[address])
        toggled = old ^ value
        if toggled == 0:
            self.simulated_clock += self.profile.noop_time
            return WriteResult("noop", self.profile.noop_time)
        cell = np.array([address])
        self._check_wear(cell, self._units[cell])
        set_bits = old & ~value & 0xFF
        kind = "set" if set_bits else "reset"
        stress = self._units[address] / UNITS_PER_PAIR
        rng = self._rng(b"write", np.int64(address), self._units[address])
        seconds = float(self.profile.sample_times(kind, stress, rng, scale=self._scale()))
        if self.random_delay_enabled:
            seconds += float(rng.uniform(0.0, self.profile.jitter_max))
        self._units[address] += int(_POPCOUNT[toggled])
        self._values[address] = value
        self.simulated_clock += seconds
        return WriteResult(kind, seconds)

    def buffered_write(self, base_address: int, values) -> float:
        """Write whole buffers of bytes, one flat-latency command per buffer.

        `values` may span any positive whole number of buffers from
        `base_address`; they are issued as that many consecutive buffered
        commands, and the clock advances once per command.  If a toggled
        cell in buffer k is past endurance, buffers 0..k-1 are written and
        WearOutError names buffer k's worn cells.  Returns the seconds
        consumed.
        """
        buf = np.asarray(values, dtype=np.uint8)
        size = self.geometry.buffer_size
        if len(buf) == 0 or len(buf) % size:
            raise ConfigurationError(
                f"buffered write needs a whole number of {size}-byte buffers")
        self._check_range(base_address, len(buf))
        sl = slice(base_address, base_address + len(buf))
        toggled = self._values[sl] ^ buf
        limit = self.profile.endurance_max * UNITS_PER_PAIR
        worn = (toggled != 0) & (self._units[sl] > limit)
        done = len(buf)
        if np.any(worn):
            first = int(np.argmax(worn))
            done = first - first % size
        ok = slice(base_address, base_address + done)
        self._units[ok] += _POPCOUNT[toggled[:done]].astype(np.int64)
        self._values[ok] = buf[:done]
        # One addition per command: n * t rounds differently from n sums,
        # and the clock is persisted.
        step = self.profile.buffered_command_time
        elapsed = 0.0
        for _ in range(done // size):
            elapsed += step
            self.simulated_clock += step
        if done < len(buf):
            bad = np.flatnonzero(worn[done:done + size]) + (base_address + done)
            raise WearOutError(_PAST_ENDURANCE, addresses=bad.tolist())
        return elapsed

    def apply_stress_pairs(self, addresses, pairs: int) -> float:
        """Apply `pairs` alternating all-zeros/all-ones buffered write pairs.

        Equivalent to issuing 2*pairs buffered writes over the covered
        buffer windows, with only the wear accounting and the flat command
        costs applied in bulk.  Stored values are left unchanged (each pair
        ends where it started).  Returns the simulated seconds consumed.

        An address listed m times gains m * pairs (see `_add_wear`), and
        its buffer is paid for once.
        """
        addrs = np.asarray(addresses, dtype=np.int64)
        if pairs < 0:
            raise ConfigurationError("pairs must be >= 0")
        if len(addrs) == 0 or pairs == 0:
            return 0.0
        self._check_addresses(addrs)
        self._add_wear(addrs, pairs * UNITS_PER_PAIR)
        commands = self._buffer_span_count(addrs)
        elapsed = pairs * commands * self.profile.pair_time
        self.simulated_clock += elapsed
        return elapsed

    def _buffer_span_count(self, addrs: np.ndarray) -> int:
        """Buffered commands needed to cover the distinct addresses once:
        ceil(length / buffer_size) per run of consecutive addresses."""
        gaps = np.diff(addrs)
        if not np.all(gaps > 0):
            gaps = np.diff(np.unique(addrs))
        run_ends = np.append(np.flatnonzero(gaps != 1), len(gaps))
        lengths = np.diff(run_ends, prepend=-1)
        size = self.geometry.buffer_size
        return int((-(-lengths // size)).sum())

    def _add_wear(self, addrs: np.ndarray, units):
        """Add `units` (scalar or per listing) to non-empty `addrs`, or
        nothing if a cell would pass the endurance limit at the sum of its
        listings.  Strictly increasing addresses skip the sort."""
        cells = _increasing_index(addrs)
        if cells is not None:
            self._check_wear(addrs, self._units[cells] + units)
            self._units[cells] += units
            return
        _, inverse = np.unique(addrs, return_inverse=True)
        summed = np.zeros(len(addrs), dtype=np.int64)
        np.add.at(summed, inverse, units)
        self._check_wear(addrs, self._units[addrs] + summed[inverse])
        np.add.at(self._units, addrs, units)

    def apply_transitions(self, addresses, transitions, seconds: float) -> None:
        """Add raw per-cell bit-transition counts plus a flat time cost.

        Backdoor for bulk traffic generators that compute their own toggle
        statistics; wear limits are still enforced (see `_add_wear`) and
        nothing is applied on failure.
        """
        addrs = np.asarray(addresses, dtype=np.int64)
        self._check_addresses(addrs)
        if len(addrs):
            self._add_wear(addrs, np.asarray(transitions, dtype=np.int64))
        self.simulated_clock += seconds

    def set_values(self, addresses, values) -> None:
        """Overwrite stored bytes without timing or wear (traffic bookkeeping)."""
        addrs = np.asarray(addresses, dtype=np.int64)
        self._check_addresses(addrs)
        self._values[addrs] = np.asarray(values, dtype=np.uint8)

    def derive_rng(self, tag: bytes, *parts) -> np.random.Generator:
        """Deterministic generator tied to this chip's seed and the call data."""
        return self._rng(tag, *parts)

    def wear_units(self, addresses) -> np.ndarray:
        """Raw bit-transition units at the given addresses (16 = one pair)."""
        addrs = np.asarray(addresses, dtype=np.int64)
        self._check_addresses(addrs)
        return self._units[addrs].copy()

    # -- measurement -------------------------------------------------------

    def measure_trace(self, addresses) -> TimingTrace:
        """Write all-zeros then all-ones per address, recording both times.

        Each measured address gains exactly one set-reset pair of wear; both
        samples are drawn at the wear level on entry.  Strictly increasing
        addresses skip the duplicate search; a repeated address is measured
        once per listing, each time at the wear its earlier entries left.
        """
        addrs = np.asarray(addresses, dtype=np.int64)
        if len(addrs) == 0:
            return TimingTrace(addrs, [], [])
        self._check_addresses(addrs)
        cells = _increasing_index(addrs)
        units = self._units[addrs if cells is None else cells]
        self._check_wear(addrs, units)
        if cells is None:
            if len(np.unique(addrs)) != len(addrs):
                # Repeated addresses must see the wear of earlier entries.
                return self._measure_with_repeats(addrs)
            cells = addrs
        stress = units / UNITS_PER_PAIR
        rng = self._rng(b"trace", addrs, units)
        scale = self._scale()
        set_times = self.profile.sample_times("set", stress, rng, scale=scale)
        reset_times = self.profile.sample_times("reset", stress, rng, scale=scale)
        if self.random_delay_enabled:
            set_times = set_times + rng.uniform(0.0, self.profile.jitter_max, len(addrs))
            reset_times = reset_times + rng.uniform(0.0, self.profile.jitter_max, len(addrs))
        self._units[cells] += UNITS_PER_PAIR
        self._values[cells] = 0xFF
        self.simulated_clock += float(set_times.sum() + reset_times.sum())
        return TimingTrace(addrs, set_times, reset_times)

    def _measure_with_repeats(self, addrs: np.ndarray) -> TimingTrace:
        set_times = np.empty(len(addrs))
        reset_times = np.empty(len(addrs))
        for i, a in enumerate(addrs):
            t = self.measure_trace(np.array([a]))
            set_times[i] = t.set_times[0]
            reset_times[i] = t.reset_times[0]
        return TimingTrace(addrs, set_times, reset_times)

    # -- environment -------------------------------------------------------

    def set_temperature(self, celsius: float):
        prof = self.profile
        if not prof.temp_rated_min <= celsius <= prof.temp_rated_max:
            raise ConfigurationError(
                f"{celsius} C outside rated range "
                f"[{prof.temp_rated_min}, {prof.temp_rated_max}]")
        self.temperature = float(celsius)

    # -- persistence -------------------------------------------------------

    def save_state(self) -> bytes:
        """Serialize to the versioned little-endian chip-state format.

        The cells are packed into one structured buffer (the int64 wear
        cast to the uint32 field on assignment) and copied once into the
        returned bytes.
        """
        head = struct.pack(
            _HEAD_FORMAT,
            self.geometry.address_count,
            self.geometry.word_length,
            self.geometry.buffer_size,
            self.seed,
            self.simulated_clock,
            self.temperature,
            self.random_delay_enabled,
        )
        cells = np.empty(self.geometry.address_count, dtype=_CELL_DTYPE)
        cells["stress"] = self._units
        cells["value"] = self._values
        return b"".join((STATE_MAGIC, head, cells))


def new_chip(geometry: ChipGeometry | None = None,
             profile: CalibrationProfile | None = None,
             seed: int = 0,
             random_delay_enabled: bool = False) -> ChipModel:
    """Fresh chip: every cell unstressed and erased to 0xFF, clock at zero."""
    if geometry is None:
        geometry = ChipGeometry()
    if profile is None:
        from .profile import default_profile
        profile = default_profile()
    return ChipModel(geometry, profile, seed, random_delay_enabled)


def load_state(data, profile: CalibrationProfile | None = None) -> ChipModel:
    """Rebuild a chip from `save_state` output; raises FormatError if corrupt.

    `data` may be any C-contiguous bytes-like object (`bytes`, `bytearray`,
    `memoryview`, a uint8 array).  The cells are read in place and copied
    once into the chip's own wear and value arrays.
    """
    data = memoryview(data).cast("B")
    if data[:len(STATE_MAGIC)] != STATE_MAGIC:
        raise FormatError("bad magic: not a chip-state file")
    off = len(STATE_MAGIC)
    if len(data) < off + _HEAD_SIZE:
        raise FormatError("truncated chip-state header")
    (address_count, word_length, buffer_size, seed, clock, temperature,
     random_delay) = struct.unpack_from(_HEAD_FORMAT, data, off)
    off += _HEAD_SIZE
    expected = address_count * _CELL_DTYPE.itemsize
    if len(data) - off != expected:
        raise FormatError(
            f"truncated chip-state payload: want {expected} cell bytes, "
            f"have {len(data) - off}")
    try:
        geometry = ChipGeometry(address_count, word_length, buffer_size)
        geometry.validate()
    except ConfigurationError as exc:
        raise FormatError(f"invalid geometry in state file: {exc}") from exc
    if profile is None:
        from .profile import default_profile
        profile = default_profile()
    cells = np.frombuffer(data, dtype=_CELL_DTYPE, offset=off)
    chip = ChipModel.__new__(ChipModel)
    chip._assemble(geometry, profile, seed, random_delay,
                   cells["stress"].astype(np.int64), cells["value"].copy())
    chip.simulated_clock = clock
    # A new chip's 25 C loads even where the rated range leaves it out.
    if temperature != chip.temperature:
        try:
            chip.set_temperature(temperature)
        except ConfigurationError as exc:
            raise FormatError(f"temperature in state file: {exc}") from exc
    return chip
