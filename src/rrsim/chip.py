"""Simulated byte-addressable resistive memory with wear-dependent timing.

The chip keeps one packed 5-byte record per address, as the state file
lays it out: a uint32 wear counter and the stored byte.  Wear is tracked
in bit-transition units: every bit that toggles during a write contributes
one unit, and 16 units (eight bits switched down and back up) make one
full set-reset pair for the byte.  Mean switch time grows with accumulated
pairs per the chip's calibration profile; reported times add per-sample
lognormal noise, a per-chip speed factor, and the temperature multiplier.

Timing noise is derived by hashing the chip seed together with the
addresses and wear state touched by each operation, so a chip restored
from a state file replays the exact same trace an un-persisted chip would
produce for the same operation sequence.
"""

from __future__ import annotations

import hashlib
import io
import os
import struct
from dataclasses import dataclass

import numpy as np

from .errors import (BoundsError, ConfigurationError, FormatError, WearOutError,
                     real, whole)
from .profile import CalibrationProfile, default_profile

STATE_MAGIC = b"RRSIM\x01"

# Bit-transition units per full byte set-reset pair (8 bits down + 8 bits up).
UNITS_PER_PAIR = 16
BUFFER_SIZE = 256  # bytes per buffered write command: the part's write buffer
MAX_ADDRESS_COUNT = 2**24  # 16 times the 8 Mb part: an 80 MB cell table

_CELL_DTYPE = np.dtype([("stress", "<u4"), ("value", "u1")])
_FRESH_CELL = b"\0\0\0\0\xff"  # one `_CELL_DTYPE` record: no wear, erased
# Header after the magic; `ChipModel._header` packs it.
_HEAD_FORMAT = "<QHIqdd?"
_FILE_HEAD = len(STATE_MAGIC) + struct.calcsize(_HEAD_FORMAT)

_PAST_ENDURANCE = "cells past rated endurance can no longer store data reliably"

# Popcount of every byte value, for toggle accounting.
_POPCOUNT = np.array([bin(v).count("1") for v in range(256)], dtype=np.uint8)


@dataclass(frozen=True)
class ChipGeometry:
    """Addresses of the part: 8 Mb by default, BUFFER_SIZE to MAX_ADDRESS_COUNT."""

    address_count: int = 1_048_576

    def __post_init__(self):
        whole("address_count", self.address_count, BUFFER_SIZE, MAX_ADDRESS_COUNT)


@dataclass
class WriteResult:
    """Outcome of a single timed write."""

    kind: str        # "set", "reset" or "noop"
    seconds: float


@dataclass(frozen=True, eq=False)
class TimingTrace:
    """Ordered set/reset time samples per measured address: int64
    addresses and float times, all of one length."""

    addresses: np.ndarray
    set_times: np.ndarray
    reset_times: np.ndarray

    def __len__(self):
        return len(self.addresses)


class ChipModel:
    """One simulated chip; mutated in place by exactly one caller at a time."""

    def __init__(self, geometry: ChipGeometry, profile: CalibrationProfile,
                 seed: int, random_delay_enabled: bool = False):
        # Repeating one record writes the table once, with no strided store.
        cells = np.frombuffer(bytearray(_FRESH_CELL) * geometry.address_count,
                              dtype=_CELL_DTYPE)
        self._assemble(geometry, profile, seed, random_delay_enabled, cells)

    def _assemble(self, geometry, profile, seed, random_delay_enabled,
                  cells, clock=0.0, temperature=25.0):
        """Set the chip's whole state around `cells`, a `_CELL_DTYPE` record
        table the chip takes over; the chip factor is drawn from the seed."""
        self._limit = profile.endurance_max * UNITS_PER_PAIR  # most wear a cell may carry
        if self._limit + UNITS_PER_PAIR >= 2**32:
            raise ConfigurationError(
                f"endurance_max {profile.endurance_max} overflows the state "
                f"file's uint32 wear field")
        if not isinstance(random_delay_enabled, bool):  # the header's flag byte
            raise ConfigurationError(
                f"random_delay_enabled must be True or False, not {random_delay_enabled!r}")
        self.geometry = geometry
        self.profile = profile
        self.seed = int(whole("seed", seed, -2**63, 2**63 - 1))  # the header's int64
        self.temperature = float(temperature)
        self.simulated_clock = clock
        self.random_delay_enabled = random_delay_enabled
        self.bake_log = []  # (celsius, seconds), not persisted
        # Wear in bit-transition units (16 = one byte set-reset pair).
        self._cells, self._units, self._values = cells, cells["stress"], cells["value"]
        self.chip_factor = profile.draw_chip_factor(self._rng(b"chip-factor"))

    # -- basic state -------------------------------------------------------

    @property
    def values(self):
        """The stored bytes, as a read-only view."""
        view = self._values.view()
        view.flags.writeable = False
        return view

    def __eq__(self, other):
        if not isinstance(other, ChipModel):
            return NotImplemented
        return (self._header() == other._header()
                and np.array_equal(self._cells.view(np.uint8), other._cells.view(np.uint8)))

    def clone(self) -> "ChipModel":
        """Independent copy sharing the (immutable) geometry and profile."""
        cells = self._cells.view(np.uint8).copy().view(_CELL_DTYPE)
        twin = ChipModel.__new__(ChipModel)
        twin.__dict__.update(self.__dict__, _cells=cells, _units=cells["stress"],
                             _values=cells["value"], bake_log=list(self.bake_log))
        return twin

    # -- internals ---------------------------------------------------------

    def _check_range(self, base: int, count: int):
        if whole("address", base, None) < 0 or base + count > self.geometry.address_count:
            raise BoundsError(
                f"addresses [{base}, {base + count}) outside chip of "
                f"{self.geometry.address_count}")

    def _index(self, addresses):
        """The address list as int64 and the index selecting its cells.

        Refuses a list that is not one flat list of strictly increasing
        whole numbers (ConfigurationError), or one that leaves the chip
        (BoundsError).  A contiguous run is indexed by a slice, which reads
        and writes the cell arrays without a gather or scatter.
        """
        addrs = np.asarray(addresses)
        if addrs.ndim != 1 or addrs.size and addrs.dtype.kind not in "iu":
            raise ConfigurationError("addresses must be one flat list of whole numbers")
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

    def _wear(self, cells) -> np.ndarray:
        """Wear at `cells` as int64, the one type wear is summed, checked and hashed in."""
        return self._units[cells].astype(np.int64)

    def _check_wear(self, addrs: np.ndarray, worst: np.ndarray):
        """Refuse the operation if any entry of `worst` (the wear `addrs`
        would carry, in units) passes the endurance limit."""
        mask = worst > self._limit
        if np.any(mask):
            raise WearOutError(_PAST_ENDURANCE,
                               addresses=np.atleast_1d(addrs[mask]).tolist())

    def _commit(self, seconds: float, cells=None, wear=None, commands=1,
                values=None) -> float:
        """The one step that changes wear, values and the clock, after the
        caller's checks: store the checked `wear` and any `values` at `cells`,
        and add `seconds` once per command (n * t rounds differently from n
        sums); return the sum.  A clock sum past the largest float changes
        nothing and is refused."""
        elapsed, clock = 0.0, self.simulated_clock
        for _ in range(commands):
            elapsed += seconds
            clock += seconds
        if not clock < np.inf:
            raise ConfigurationError("the simulated clock would pass the largest float")
        if cells is not None:
            self._units[cells] = wear
            if values is not None:
                self._values[cells] = values
        self.simulated_clock = clock
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
        wear = self._wear(cell)
        self._check_wear(cell, wear)
        set_bits = old & ~value & 0xFF
        kind = "set" if set_bits else "reset"
        stress = wear[0] / UNITS_PER_PAIR
        rng = self._rng(b"write", np.int64(address), wear[0])
        seconds = float(self.profile.sample_times(kind, stress, rng, scale=self._scale()))
        if self.random_delay_enabled:
            seconds += float(rng.uniform(0.0, self.profile.jitter_max))
        return WriteResult(kind, self._commit(seconds, cell, wear + int(_POPCOUNT[toggled]),
                                              values=value))

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
        if buf.ndim != 1 or len(buf) == 0 or len(buf) % BUFFER_SIZE:
            raise ConfigurationError(
                f"buffered write needs a whole number of {BUFFER_SIZE}-byte buffers")
        buf = _per_address("values", buf.shape, buf, np.uint8)
        self._check_range(base_address, len(buf))
        sl = slice(base_address, base_address + len(buf))
        toggled = self._values[sl] ^ buf
        wear = self._wear(sl)
        hot = np.flatnonzero(toggled)
        self._check_wear(hot + base_address, wear[hot])
        return self._commit(self.profile.buffered_command_time, sl,
                            wear + _POPCOUNT[toggled], len(buf) // BUFFER_SIZE, buf)

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
        # Capped past the limit, so a huge count fails the check, not the int64 sum.
        worst = self._wear(cells) + min(pairs, self._limit) * UNITS_PER_PAIR
        self._check_wear(addrs, worst)
        commands = self._buffer_span_count(addrs)
        return self._commit(pairs * commands * self.profile.pair_time, cells, worst)

    def _buffer_span_count(self, addrs: np.ndarray) -> int:
        """Buffered commands needed to cover strictly increasing `addrs`:
        ceil(length / BUFFER_SIZE) per run of consecutive addresses."""
        gaps = np.diff(addrs)
        run_ends = np.append(np.flatnonzero(gaps != 1), len(gaps))
        lengths = np.diff(run_ends, prepend=-1)
        return int((-(-lengths // BUFFER_SIZE)).sum())

    def apply_transitions(self, addresses, transitions, seconds: float) -> None:
        """Add raw per-cell bit-transition counts plus a flat time cost.

        Backdoor for bulk traffic generators that compute their own toggle
        statistics.  Addresses must be strictly increasing and inside the
        chip; counts (one, or one per address) are whole, seconds finite,
        and neither negative; wear limits hold and nothing is applied on failure.
        """
        addrs, cells = self._index(addresses)
        units = _per_address("transitions", addrs.shape, transitions, np.int64)
        worst = self._wear(cells) + np.minimum(units, self._limit + 1)  # no overflow
        self._check_wear(addrs, worst)
        self._commit(real("seconds", seconds, least=0), cells, worst)

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
        return self._wear(cells)

    # -- measurement -------------------------------------------------------

    def measure_trace(self, addresses) -> TimingTrace:
        """Write all-zeros then all-ones per address, recording both times.

        Each measured address gains exactly one set-reset pair of wear; both
        samples are drawn at the wear level on entry.  Addresses must be
        strictly increasing and inside the chip.
        """
        addrs, cells = self._index(addresses)
        wear = self._wear(cells)
        self._check_wear(addrs, wear)
        stress = wear / UNITS_PER_PAIR
        rng = self._rng(b"trace", addrs, wear)
        scale = self._scale()
        set_times = self.profile.sample_times("set", stress, rng, scale=scale)
        reset_times = self.profile.sample_times("reset", stress, rng, scale=scale)
        if self.random_delay_enabled:
            set_times = set_times + rng.uniform(0.0, self.profile.jitter_max, len(addrs))
            reset_times = reset_times + rng.uniform(0.0, self.profile.jitter_max, len(addrs))
        self._commit(float(set_times.sum() + reset_times.sum()),
                     cells, wear + UNITS_PER_PAIR, values=0xFF)
        return TimingTrace(addrs, set_times, reset_times)

    # -- environment -------------------------------------------------------

    def set_temperature(self, celsius: float):
        self.profile.check_rated(celsius)
        self.temperature = float(celsius)

    def age_retention(self, duration: float) -> None:
        """Advance the simulated calendar; the default profile drifts nothing."""
        self._commit(real("duration", duration, least=0))

    def bake(self, celsius: float, duration: float) -> None:
        """Age the chip by a thermal soak and log it; drift only if the profile says so."""
        self.profile.check_rated(celsius)
        self.age_retention(duration)
        self.bake_log.append((celsius, duration))

    # -- persistence -------------------------------------------------------

    def _header(self) -> bytes:
        """The state file's magic and packed header; equal headers and
        cells make equal files, so chips compare as their files do."""
        return STATE_MAGIC + struct.pack(
            _HEAD_FORMAT, self.geometry.address_count, 8, BUFFER_SIZE,  # 8: the word length
            self.seed, self.simulated_clock, self.temperature,
            self.random_delay_enabled)

    def save_state(self) -> bytes:
        """The state file's bytes, as `write_state` writes them."""
        fh = io.BytesIO()
        self.write_state(fh)
        return fh.getvalue()

    def write_state(self, fh) -> None:
        """The one writer of the versioned little-endian chip-state format:
        the header, then the cell table, written to the binary file `fh`
        straight from the chip's own records, which have the file's layout."""
        fh.write(self._header())
        fh.write(self._cells.view(np.uint8))


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
    `memoryview`, a uint8 array).  It is read by `read_state`, which copies
    the cell records once, as bytes, into the chip's own table; any input
    but `bytes` is copied once more first.
    """
    return read_state(io.BytesIO(data), profile)


def read_state(fh, profile: CalibrationProfile | None = None) -> ChipModel:
    """Read a chip from the seekable binary file `fh`, positioned at a state
    file's start, straight into the chip's own table; raises FormatError if
    corrupt.  The one reader of the state file: every check runs before the
    table is allocated, the header's cell count against the bytes left in
    the file included."""
    head = fh.read(_FILE_HEAD)
    start = fh.tell()
    left = fh.seek(0, os.SEEK_END) - start
    fh.seek(start)
    if head[:len(STATE_MAGIC)] != STATE_MAGIC:
        raise FormatError("bad magic: not a chip-state file")
    if len(head) < _FILE_HEAD:
        raise FormatError("truncated chip-state header")
    (address_count, word_length, buffer, seed, clock, temperature,
     random_delay) = struct.unpack_from(_HEAD_FORMAT, head, len(STATE_MAGIC))
    expected = address_count * _CELL_DTYPE.itemsize
    if left != expected:
        raise FormatError(
            f"wrong chip-state payload length: want {expected} cell bytes, "
            f"have {left}")
    if (word_length, buffer) != (8, BUFFER_SIZE):
        raise FormatError(f"invalid geometry in state file: word {word_length}, buffer {buffer}")
    try:
        geometry = ChipGeometry(address_count)
    except ConfigurationError as exc:
        raise FormatError(f"invalid geometry in state file: {exc}") from exc
    if not 0 <= clock < np.inf:
        raise FormatError(f"clock in state file must be finite and >= 0, not {clock}")
    if head[-1] > 1:  # the flag, last in the header; `?` reads any nonzero byte as True
        raise FormatError(f"random-delay flag in state file must be 0 or 1, not {head[-1]}")
    if profile is None:
        profile = default_profile()
    # A new chip's 25 C loads even where the rated range leaves it out.
    if temperature != 25.0:
        try:
            profile.check_rated(temperature)
        except ConfigurationError as exc:
            raise FormatError(f"temperature in state file: {exc}") from exc
    cells = np.empty(address_count, dtype=_CELL_DTYPE)
    if fh.readinto(cells.view(np.uint8)) != expected or fh.read(1):
        raise FormatError("chip-state file changed length while it was read")
    chip = ChipModel.__new__(ChipModel)
    chip._assemble(geometry, profile, seed, random_delay, cells, clock, temperature)
    return chip
