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

from .errors import (BoundsError, ConfigurationError, FormatError, WearOutError,
                     amount, whole)
from .profile import CalibrationProfile, default_profile

STATE_MAGIC = b"RRSIM\x01"

# Bit-transition units per full byte set-reset pair (8 bits down + 8 bits up).
UNITS_PER_PAIR = 16

_CELL_DTYPE = np.dtype([("stress", "<u4"), ("value", "u1")])
# Header after the magic; `ChipModel._header` packs it.
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

    def __post_init__(self):
        whole("address_count", self.address_count, 1)
        if whole("word_length", self.word_length) != 8:
            raise ConfigurationError("only 8-bit words are supported")
        whole("buffer_size", self.buffer_size, 1, self.address_count)


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


class ChipModel:
    """One simulated chip; mutated in place by exactly one caller at a time."""

    def __init__(self, geometry: ChipGeometry, profile: CalibrationProfile,
                 seed: int, random_delay_enabled: bool = False):
        self._assemble(geometry, profile, seed, random_delay_enabled,
                       np.zeros(geometry.address_count, dtype=np.int64),
                       np.full(geometry.address_count, 0xFF, dtype=np.uint8))

    def _assemble(self, geometry, profile, seed, random_delay_enabled,
                  units, values, clock=0.0, temperature=25.0):
        """Set the chip's whole state around the given cell arrays, which
        the chip takes over; the chip factor is drawn from the seed."""
        self._limit = profile.endurance_max * UNITS_PER_PAIR  # most wear a cell may carry
        if self._limit + UNITS_PER_PAIR >= 2**32:
            raise ConfigurationError(
                f"endurance_max {profile.endurance_max} overflows the state "
                f"file's uint32 wear field")
        self.geometry = geometry
        self.profile = profile
        self.seed = int(whole("seed", seed, -2**63, 2**63 - 1))  # the header's int64
        self.temperature = float(temperature)
        self.simulated_clock = clock
        self.random_delay_enabled = random_delay_enabled
        self.bake_log = []  # (celsius, seconds), not persisted
        # Wear in bit-transition units (16 = one byte set-reset pair).
        self._units = units
        self._values = values
        self.chip_factor = profile.draw_chip_factor(self._rng(b"chip-factor"))

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

    def __eq__(self, other):
        if not isinstance(other, ChipModel):
            return NotImplemented
        return (self._header() == other._header()
                and np.array_equal(self._units, other._units)
                and np.array_equal(self._values, other._values))

    def clone(self) -> "ChipModel":
        """Independent copy sharing the (immutable) geometry and profile."""
        twin = ChipModel.__new__(ChipModel)
        twin.__dict__.update(self.__dict__, _units=self._units.copy(),
                             _values=self._values.copy(),
                             bake_log=list(self.bake_log))
        return twin

    # -- internals ---------------------------------------------------------

    def _check_range(self, base: int, count: int):
        if whole("address", base, None) < 0 or base + count > self.geometry.address_count:
            raise BoundsError(
                f"addresses [{base}, {base + count}) outside chip of "
                f"{self.geometry.address_count}")

    def _index(self, addresses):
        """The address list as int64 and the index selecting its cells.

        Refuses a list of non-integers or one that is not strictly
        increasing (ConfigurationError), or one that leaves the chip
        (BoundsError).  A contiguous run is indexed by a slice, which reads
        and writes the cell arrays without a gather or scatter.
        """
        addrs = np.asarray(addresses)
        if addrs.size and addrs.dtype.kind not in "iu":
            raise ConfigurationError("addresses must be whole numbers")
        addrs = addrs.astype(np.int64, copy=False)
        if len(addrs) == 0:
            return addrs, addrs
        if not np.all(addrs[1:] > addrs[:-1]):
            raise ConfigurationError("addresses must be strictly increasing")
        first, last = int(addrs[0]), int(addrs[-1])
        self._check_range(first, last + 1 - first)
        if last - first == len(addrs) - 1:
            return addrs, slice(first, last + 1)
        return addrs, addrs

    def _rng(self, tag: bytes, *parts) -> np.random.Generator:
        h = hashlib.blake2b(digest_size=16)
        h.update(self.seed.to_bytes(8, "little", signed=True))
        h.update(tag)
        for part in parts:
            h.update(np.ascontiguousarray(part))
        return np.random.Generator(np.random.PCG64(int.from_bytes(h.digest(), "little")))

    def _scale(self) -> float:
        """Common multiplier on mean times: chip speed, temperature, aging."""
        drift = (1.0 + self.profile.retention_drift * self.simulated_clock / 86400.0
                 + self.profile.bake_drift * sum(s / 86400.0 for _, s in self.bake_log))
        return self.chip_factor * self.profile.temp_factor(self.temperature) * drift

    def _check_wear(self, addrs: np.ndarray, worst: np.ndarray):
        """Refuse the operation if any entry of `worst` (the wear `addrs`
        would carry, in units) passes the endurance limit."""
        mask = worst > self._limit
        if np.any(mask):
            raise WearOutError(_PAST_ENDURANCE,
                               addresses=np.atleast_1d(addrs[mask]).tolist())

    def _commit(self, seconds: float, cells=None, units=0, commands=1) -> float:
        """The one step that changes wear and the clock, after the caller's
        checks: add `units` at `cells`, if given, and `seconds` once per
        command (n * t rounds differently from n sums); return the sum."""
        if cells is not None:
            self._units[cells] += units
        elapsed = 0.0
        for _ in range(commands):
            elapsed += seconds
            self.simulated_clock += seconds
        return elapsed

    # -- writes ------------------------------------------------------------

    def timed_write(self, address: int, value: int) -> WriteResult:
        """Write one byte and report the modeled command latency.

        Bits going 1->0 are set events, 0->1 reset events; the reported
        latency is one noisy draw from the slower (set-bearing) curve at the
        cell's current wear.  Each toggled bit adds half a bit-pair of wear.
        """
        self._check_range(address, 1)
        whole("value", value, 0, 0xFF)
        old = int(self._values[address])
        toggled = old ^ value
        if toggled == 0:
            return WriteResult("noop", self._commit(self.profile.noop_time))
        cell = np.array([address])
        self._check_wear(cell, self._units[cell])
        set_bits = old & ~value & 0xFF
        kind = "set" if set_bits else "reset"
        stress = self._units[address] / UNITS_PER_PAIR
        rng = self._rng(b"write", np.int64(address), self._units[address])
        seconds = float(self.profile.sample_times(kind, stress, rng, scale=self._scale()))
        if self.random_delay_enabled:
            seconds += float(rng.uniform(0.0, self.profile.jitter_max))
        self._values[address] = value
        return WriteResult(kind, self._commit(seconds, address,
                                              int(_POPCOUNT[toggled])))

    def buffered_write(self, base_address: int, values) -> float:
        """Write whole buffers of bytes, one flat-latency command per buffer.

        `values` (whole numbers in [0, 255]) may span any positive whole
        number of buffers from `base_address`; they are issued as that many
        consecutive buffered commands, and the clock advances once per
        command.  If any cell the write would toggle is past endurance,
        WearOutError names every such cell and nothing is written.  Returns
        the seconds consumed.
        """
        buf = np.asarray(values)
        size = self.geometry.buffer_size
        if buf.ndim != 1 or len(buf) == 0 or len(buf) % size:
            raise ConfigurationError(
                f"buffered write needs a whole number of {size}-byte buffers")
        buf = _per_address("values", buf.shape, buf, np.uint8)
        self._check_range(base_address, len(buf))
        sl = slice(base_address, base_address + len(buf))
        toggled = self._values[sl] ^ buf
        hot = np.flatnonzero(toggled)
        self._check_wear(hot + base_address, self._units[sl][hot])
        self._values[sl] = buf
        return self._commit(self.profile.buffered_command_time, sl,
                            _POPCOUNT[toggled], len(buf) // size)

    def apply_stress_pairs(self, addresses, pairs: int) -> float:
        """Apply `pairs` alternating all-zeros/all-ones buffered write pairs.

        Equivalent to issuing 2*pairs buffered writes over the covered
        buffer windows, with only the wear accounting and the flat command
        costs applied in bulk.  Stored values are left unchanged (each pair
        ends where it started).  Returns the simulated seconds consumed.
        Addresses must be strictly increasing and inside the chip.
        """
        addrs, cells = self._index(addresses)
        if whole("pairs", pairs) == 0 or len(addrs) == 0:
            return 0.0
        self._check_wear(addrs, self._units[cells] + pairs * UNITS_PER_PAIR)
        commands = self._buffer_span_count(addrs)
        return self._commit(pairs * commands * self.profile.pair_time,
                            cells, pairs * UNITS_PER_PAIR)

    def _buffer_span_count(self, addrs: np.ndarray) -> int:
        """Buffered commands needed to cover strictly increasing `addrs`:
        ceil(length / buffer_size) per run of consecutive addresses."""
        gaps = np.diff(addrs)
        run_ends = np.append(np.flatnonzero(gaps != 1), len(gaps))
        lengths = np.diff(run_ends, prepend=-1)
        size = self.geometry.buffer_size
        return int((-(-lengths // size)).sum())

    def apply_transitions(self, addresses, transitions, seconds: float) -> None:
        """Add raw per-cell bit-transition counts plus a flat time cost.

        Backdoor for bulk traffic generators that compute their own toggle
        statistics.  Addresses must be strictly increasing and inside the
        chip; counts (one, or one per address) are whole, seconds finite,
        and neither negative; wear limits hold and nothing is applied on failure.
        """
        addrs, cells = self._index(addresses)
        units = _per_address("transitions", addrs.shape, transitions, np.int64)
        self._check_wear(addrs, self._units[cells] + units)
        self._commit(amount("seconds", seconds), cells, units)

    def set_values(self, addresses, values) -> None:
        """Overwrite stored bytes without timing or wear (traffic
        bookkeeping) at strictly increasing addresses inside the chip;
        `values` is one byte or one per address."""
        addrs, cells = self._index(addresses)
        self._values[cells] = _per_address("values", addrs.shape, values, np.uint8)

    def derive_rng(self, tag: bytes, *parts) -> np.random.Generator:
        """Deterministic generator tied to this chip's seed and the call data."""
        return self._rng(tag, *parts)

    def wear_units(self, addresses) -> np.ndarray:
        """Raw bit-transition units (16 = one pair) at strictly increasing
        addresses inside the chip."""
        _, cells = self._index(addresses)
        return self._units[cells].copy()

    # -- measurement -------------------------------------------------------

    def measure_trace(self, addresses) -> TimingTrace:
        """Write all-zeros then all-ones per address, recording both times.

        Each measured address gains exactly one set-reset pair of wear; both
        samples are drawn at the wear level on entry.  Addresses must be
        strictly increasing and inside the chip.
        """
        addrs, cells = self._index(addresses)
        units = self._units[cells]
        self._check_wear(addrs, units)
        stress = units / UNITS_PER_PAIR
        rng = self._rng(b"trace", addrs, units)
        scale = self._scale()
        set_times = self.profile.sample_times("set", stress, rng, scale=scale)
        reset_times = self.profile.sample_times("reset", stress, rng, scale=scale)
        if self.random_delay_enabled:
            set_times = set_times + rng.uniform(0.0, self.profile.jitter_max, len(addrs))
            reset_times = reset_times + rng.uniform(0.0, self.profile.jitter_max, len(addrs))
        self._values[cells] = 0xFF
        self._commit(float(set_times.sum() + reset_times.sum()),
                     cells, UNITS_PER_PAIR)
        return TimingTrace(addrs, set_times, reset_times)

    # -- environment -------------------------------------------------------

    def set_temperature(self, celsius: float):
        self.profile.check_rated(celsius)
        self.temperature = float(celsius)

    def age_retention(self, duration: float) -> None:
        """Advance the simulated calendar; the default profile drifts nothing."""
        self._commit(amount("duration", duration))

    def bake(self, celsius: float, duration: float) -> None:
        """Age the chip by a thermal soak and log it; drift only if the profile says so."""
        self.profile.check_rated(celsius)
        self.age_retention(duration)
        self.bake_log.append((celsius, duration))

    # -- persistence -------------------------------------------------------

    def _header(self) -> bytes:
        """The state file's magic and packed header; equal headers and
        cells make equal files, so chips compare as their files do."""
        g = self.geometry
        return STATE_MAGIC + struct.pack(
            _HEAD_FORMAT, g.address_count, g.word_length, g.buffer_size,
            self.seed, self.simulated_clock, self.temperature,
            self.random_delay_enabled)

    def save_state(self) -> bytes:
        """Serialize to the versioned little-endian chip-state format.

        The cells are packed into one structured buffer (the int64 wear
        cast to the uint32 field on assignment) and copied once into the
        returned bytes.
        """
        cells = np.empty(self.geometry.address_count, dtype=_CELL_DTYPE)
        cells["stress"] = self._units
        cells["value"] = self._values
        return b"".join((self._header(), cells))


def _per_address(name: str, shape: tuple, data, dtype) -> np.ndarray:
    """`data` as a `dtype` array: one whole number or one per cell of
    `shape`, each between 0 and the dtype's maximum; floats are refused,
    not truncated."""
    arr = np.asarray(data)
    if arr.ndim and arr.shape != shape:
        raise ConfigurationError(f"need one value or one per address, not {arr.shape}")
    top = np.iinfo(dtype).max
    if arr.size and (arr.dtype.kind not in "iu" or arr.min() < 0 or arr.max() > top):
        raise ConfigurationError(f"{name} must be whole numbers in [0, {top}]")
    return arr.astype(dtype, copy=False)


def new_chip(geometry: ChipGeometry | None = None,
             profile: CalibrationProfile | None = None,
             seed: int = 0,
             random_delay_enabled: bool = False) -> ChipModel:
    """Fresh chip: every cell unstressed and erased to 0xFF, clock at zero."""
    if geometry is None:
        geometry = ChipGeometry()
    if profile is None:
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
    except ConfigurationError as exc:
        raise FormatError(f"invalid geometry in state file: {exc}") from exc
    if not 0 <= clock < np.inf:
        raise FormatError(f"clock in state file must be finite and >= 0, not {clock}")
    if profile is None:
        profile = default_profile()
    # A new chip's 25 C loads even where the rated range leaves it out.
    if temperature != 25.0:
        try:
            profile.check_rated(temperature)
        except ConfigurationError as exc:
            raise FormatError(f"temperature in state file: {exc}") from exc
    cells = np.frombuffer(data, dtype=_CELL_DTYPE, offset=off)
    chip = ChipModel.__new__(ChipModel)
    chip._assemble(geometry, profile, seed, random_delay,
                   cells["stress"].astype(np.int64), cells["value"].copy(),
                   clock=clock, temperature=temperature)
    return chip
