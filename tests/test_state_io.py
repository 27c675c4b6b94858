"""Chip-state I/O: pinned full-chip bytes, accepted inputs, memory budget.

The sha256 digests were recorded before `save_state` and `load_state`
stopped building throwaway buffers, before the CLI streamed the file
through `write_state` and `read_state`, and before `load_state` became
`read_state` on an in-memory file, so a pass here shows the leaner paths
write and read the same bytes.  The allocation budgets are
tracemalloc counts, not timings, so they repeat exactly on any host.
"""

import contextlib
import hashlib
import io
import math
import os
import struct

import numpy as np
import pytest

import rrsim
from rrsim import cli
from rrsim.chip import STATE_MAGIC, UNITS_PER_PAIR
from conftest import fresh_chip, traced_peak

PAYLOAD = "0xECE3038B"
FULL_CHIP = 1_048_576

# Full-chip CLI hide + retrieve: one block layout, one rotated-rows layout.
LAYOUTS = {
    "block": ["--seed", "11", "--base", "123456", "--replica-size", "256"],
    "rows": ["--seed", "12", "--base", "700001", "--replicas", "8",
             "--replica-size", "32"],
}

GOLDEN = {
    "block.hide_state": "e475300d49fbb1e2e2be223f18497067d8743cb00d1e75a169d6aaf0aca72628",
    "block.retrieve_stdout": "a182b9b8e9e0b67f4fcf39f199e6fc8467d950b04916126b1bedb9ed77c22157",
    "block.retrieve_state": "bbff8b8505dbb5bb62ed5a95510d62427ec9a0c15e76c3d852317f9b76d0cf6b",
    "rows.hide_state": "b3e475db9d297a54fe1644b6fa7558e187192fc23310f30e80c6d5df72c2509a",
    "rows.retrieve_stdout": "f66ce4f24711d0af54568392a64023798c6611d4b817485e398ef0be9328b6df",
    "rows.retrieve_state": "8fe5921c6210eb371604fc691b1b517b0a35877c454718f39af11d7ba21ed162",
}

# Offset of the temperature field: magic, then <QHIqd (count, word length,
# buffer size, seed, clock).
TEMPERATURE_OFFSET = len(STATE_MAGIC) + struct.calcsize("<QHIqd")
CLOCK_OFFSET = TEMPERATURE_OFFSET - struct.calcsize("<d")
COUNT_OFFSET = len(STATE_MAGIC)
WORD_LENGTH_OFFSET = len(STATE_MAGIC) + struct.calcsize("<Q")
BUFFER_SIZE_OFFSET = len(STATE_MAGIC) + struct.calcsize("<QH")
DELAY_FLAG_OFFSET = TEMPERATURE_OFFSET + struct.calcsize("<d")


def sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def cli_digests(tmp_path, name):
    """Digests of `hide`'s state file, `retrieve`'s stdout and the state
    `retrieve --chip-out` writes after measuring."""
    key, state, after = (str(tmp_path / f) for f in
                         ("key.json", "chip.bin", "after.bin"))
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["hide", "--payload", PAYLOAD, "--key-out", key,
                         "--chip-out", state, "--n-stress", "15000",
                         *LAYOUTS[name]]) == cli.EXIT_OK
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(["retrieve", "--key", key, "--chip", state,
                         "--chip-out", after]) == cli.EXIT_OK
    assert f"payload: {PAYLOAD}" in out.getvalue()
    with open(state, "rb") as fh:
        hide_state = fh.read()
    with open(after, "rb") as fh:
        retrieve_state = fh.read()
    assert len(hide_state) == len(retrieve_state) == \
        len(STATE_MAGIC) + struct.calcsize("<QHIqdd?") + 5 * FULL_CHIP
    return {f"{name}.hide_state": sha(hide_state),
            f"{name}.retrieve_stdout": sha(out.getvalue().encode()),
            f"{name}.retrieve_state": sha(retrieve_state)}


@pytest.mark.parametrize("name", sorted(LAYOUTS))
def test_full_chip_cli_bytes(tmp_path, name):
    assert cli_digests(tmp_path, name) == \
        {k: v for k, v in GOLDEN.items() if k.startswith(f"{name}.")}


# -- accepted inputs ---------------------------------------------------------

def worn_chip(profile):
    chip = fresh_chip(profile, seed=21, addresses=4096)
    chip.apply_stress_pairs(np.arange(300, 900), 12_345)
    chip.timed_write(5, 0x3C)
    chip.set_temperature(61.5)
    return chip


BYTES_LIKE = {
    "bytes": bytes,
    "bytearray": bytearray,
    "memoryview": memoryview,
    "uint8 array": lambda b: np.frombuffer(b, dtype=np.uint8).copy(),
}


@pytest.mark.parametrize("kind", sorted(BYTES_LIKE))
def test_load_state_accepts_bytes_like(profile, kind):
    chip = worn_chip(profile)
    twin = rrsim.load_state(BYTES_LIKE[kind](chip.save_state()), profile)
    assert twin == chip
    assert twin.chip_factor == chip.chip_factor
    assert twin.random_delay_enabled == chip.random_delay_enabled
    assert twin.save_state() == chip.save_state()


@pytest.mark.parametrize("kind", sorted(BYTES_LIKE))
def test_load_state_owns_its_cells(profile, kind):
    # The chip must not alias the caller's buffer.
    chip = worn_chip(profile)
    data = BYTES_LIKE[kind](chip.save_state())
    twin = rrsim.load_state(data, profile)
    twin.apply_stress_pairs([7], 3)
    assert twin.wear_units([7])[0] // UNITS_PER_PAIR == 3
    assert rrsim.load_state(data, profile) == chip


@pytest.mark.parametrize("kind", sorted(BYTES_LIKE))
def test_load_state_bad_magic(profile, kind):
    blob = bytearray(worn_chip(profile).save_state())
    blob[0:5] = b"NOTRR"
    with pytest.raises(rrsim.FormatError, match="magic"):
        rrsim.load_state(BYTES_LIKE[kind](bytes(blob)), profile)


@pytest.mark.parametrize("kind", sorted(BYTES_LIKE))
@pytest.mark.parametrize("cut", [3, TEMPERATURE_OFFSET, -1])
def test_load_state_truncated(profile, kind, cut):
    blob = worn_chip(profile).save_state()[:cut]
    with pytest.raises(rrsim.FormatError):
        rrsim.load_state(BYTES_LIKE[kind](blob), profile)


def test_load_state_rejects_trailing_bytes(profile):
    blob = worn_chip(profile).save_state() + b"\x00"
    with pytest.raises(rrsim.FormatError, match="payload"):
        rrsim.load_state(blob, profile)


# -- files -------------------------------------------------------------------

def baked_chip(profile):
    chip = worn_chip(profile)
    chip.bake(80.0, 2 * 86400.0)
    return chip


def negative_zero_chip(profile):
    chip = worn_chip(profile)
    chip.set_temperature(-0.0)
    return chip


# Chips whose files must read back the same through a file and through bytes.
FILE_CHIPS = {
    "fresh": lambda profile: fresh_chip(profile, seed=4, addresses=4096),
    "worn": worn_chip,
    "baked": baked_chip,
    "-0.0 C": negative_zero_chip,
}


def fields(chip):
    """Everything a chip holds but its cell arrays."""
    return {k: v for k, v in vars(chip).items() if not isinstance(v, np.ndarray)}


@pytest.mark.parametrize("kind", sorted(FILE_CHIPS))
def test_file_io_matches_bytes_io(profile, tmp_path, kind):
    chip = FILE_CHIPS[kind](profile)
    path = tmp_path / "chip.bin"
    with open(path, "wb") as fh:
        chip.write_state(fh)
    assert path.read_bytes() == chip.save_state()
    with open(path, "rb") as fh:
        from_file = rrsim.read_state(fh, profile)
    from_bytes = rrsim.load_state(chip.save_state(), profile)
    assert from_file == from_bytes == chip
    assert fields(from_file) == fields(from_bytes)
    assert from_file.save_state() == from_bytes.save_state()


def packed(fmt, offset, value):
    def corrupt(blob):
        blob = bytearray(blob)
        struct.pack_into(fmt, blob, offset, value)
        return bytes(blob)
    return corrupt


CORRUPT_FILES = {
    "2**40 cells": packed("<Q", COUNT_OFFSET, 2**40),
    "empty": lambda blob: b"",
    "bad magic": lambda blob: b"NOTRR" + blob[5:],
    "truncated": lambda blob: blob[:-1],
    "one byte too long": lambda blob: blob + b"\0",
    "NaN clock": packed("<d", CLOCK_OFFSET, math.nan),
    # The flag is packed as `?`, which would read any nonzero byte as True.
    "delay flag 7": packed("<B", DELAY_FLAG_OFFSET, 7),
}


@pytest.mark.parametrize("what", sorted(CORRUPT_FILES))
def test_read_state_refuses_corrupt_file(profile, tmp_path, capsys, what):
    path, key = tmp_path / "chip.bin", tmp_path / "key.json"
    blob = CORRUPT_FILES[what](worn_chip(profile).save_state())
    path.write_bytes(blob)

    def refused():
        with open(path, "rb") as fh, pytest.raises(rrsim.FormatError):
            rrsim.read_state(fh, profile)
        with pytest.raises(rrsim.FormatError):
            rrsim.load_state(blob, profile)

    # Refused from the header, before the cell table is allocated.
    _, peak = traced_peak(refused)
    assert peak <= 64 * 1024
    rrsim.save_key(rrsim.generate_key(32, 0, 256, 1, 15_000, 0), key)
    assert cli.main(["retrieve", "--key", str(key), "--chip", str(path)]) == \
        cli.EXIT_FORMAT
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("format error: ")
    assert "Traceback" not in captured.err


def test_read_state_after_a_prefix(profile, tmp_path):
    # The reader counts the file's bytes from where the state starts.
    chip = worn_chip(profile)
    path = tmp_path / "chip.bin"
    with open(path, "wb") as fh:
        fh.write(b"prefix")
        chip.write_state(fh)
    with open(path, "rb") as fh:
        assert fh.read(6) == b"prefix"
        assert rrsim.read_state(fh, profile) == chip


@pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd")
def test_retrieve_refuses_unseekable_chip_file(profile, tmp_path, capsys):
    # The reader seeks to learn the length; a pipe is a format error.
    key = tmp_path / "key.json"
    rrsim.save_key(rrsim.generate_key(32, 0, 256, 1, 15_000, 0), key)
    read_end, write_end = os.pipe()
    with open(read_end, "rb"):
        with open(write_end, "wb") as writer:
            writer.write(fresh_chip(profile, seed=1, addresses=1024).save_state())
        assert cli.main(["retrieve", "--key", str(key),
                         "--chip", f"/dev/fd/{read_end}"]) == cli.EXIT_FORMAT
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("format error: ")
    assert "Traceback" not in captured.err


# -- header and wear-field checks --------------------------------------------

@pytest.mark.parametrize("celsius", [500.0, -273.15, math.nan, math.inf])
def test_load_state_rejects_unrated_temperature(profile, celsius):
    blob = bytearray(worn_chip(profile).save_state())
    struct.pack_into("<d", blob, TEMPERATURE_OFFSET, celsius)
    with pytest.raises(rrsim.FormatError, match="temperature"):
        rrsim.load_state(bytes(blob), profile)


@pytest.mark.parametrize("clock", [math.nan, math.inf, -1.0])
def test_load_state_rejects_bad_clock(profile, clock):
    # A NaN clock made every measured time NaN; no chip runs its clock
    # backwards or to infinity.
    blob = bytearray(worn_chip(profile).save_state())
    struct.pack_into("<d", blob, CLOCK_OFFSET, clock)
    with pytest.raises(rrsim.FormatError, match="clock"):
        rrsim.load_state(bytes(blob), profile)


@pytest.mark.parametrize("fmt, offset, value", [
    ("<H", WORD_LENGTH_OFFSET, 16), ("<I", BUFFER_SIZE_OFFSET, 0),
    ("<I", BUFFER_SIZE_OFFSET, 128), ("<I", BUFFER_SIZE_OFFSET, 1024)])
def test_load_state_rejects_bad_geometry(profile, fmt, offset, value):
    blob = bytearray(worn_chip(profile).save_state())
    struct.pack_into(fmt, blob, offset, value)
    with pytest.raises(rrsim.FormatError, match="geometry"):
        rrsim.load_state(bytes(blob), profile)


@pytest.mark.parametrize("celsius", [-40.0, 85.0])
def test_load_state_keeps_rated_extremes(profile, celsius):
    chip = worn_chip(profile)
    chip.set_temperature(celsius)
    assert rrsim.load_state(chip.save_state(), profile).temperature == celsius


def test_fresh_chip_reloads_under_profile_rated_above_25c(profile):
    # Every new chip starts at 25 C, so its own state file must reload
    # even where the part's rated range excludes 25 C.
    hot = rrsim.CalibrationProfile(**{
        **{k: getattr(profile, k) for k in profile.__dataclass_fields__},
        "temp_rated_min": 40.0, "temp_rated_max": 85.0})
    chip = fresh_chip(hot, seed=3, addresses=1024)
    assert rrsim.load_state(chip.save_state(), hot) == chip


def profile_with_endurance(profile, endurance_max):
    return rrsim.CalibrationProfile(**{
        **{k: getattr(profile, k) for k in profile.__dataclass_fields__},
        "endurance_max": endurance_max})


def test_wear_field_overflow_rejected(profile):
    # 300 M pairs is 4.8 G units: past the state file's uint32 wear field.
    wide = profile_with_endurance(profile, 300_000_000)
    with pytest.raises(rrsim.ConfigurationError, match="uint32"):
        fresh_chip(wide, seed=1, addresses=1024)
    blob = fresh_chip(profile, seed=1, addresses=1024).save_state()
    with pytest.raises(rrsim.ConfigurationError, match="uint32"):
        rrsim.load_state(blob, wide)


def test_wear_field_largest_endurance_round_trips(profile):
    # The largest endurance whose limit plus one measured pair fits uint32.
    top = 2**32 // UNITS_PER_PAIR - 2
    edge = profile_with_endurance(profile, top)
    chip = fresh_chip(edge, seed=1, addresses=1024)
    chip.apply_stress_pairs([9], top)
    chip.measure_trace([9])
    assert chip.wear_units([9])[0] // UNITS_PER_PAIR == top + 1
    assert rrsim.load_state(chip.save_state(), edge) == chip
    with pytest.raises(rrsim.ConfigurationError):
        fresh_chip(profile_with_endurance(profile, top + 1), seed=1,
                   addresses=1024)


# -- equality ----------------------------------------------------------------

# One persisted thing changed per entry: chip options, then an operation.
ONE_CHANGE = {
    "nothing": ({}, None),
    "seed": ({"seed": 2}, None),
    "address count": ({"address_count": 2048}, None),
    "delay flag": ({"random_delay_enabled": True}, None),
    "clock": ({}, lambda chip: chip.age_retention(1.0)),
    "temperature": ({}, lambda chip: chip.set_temperature(40.0)),
    "one cell's wear": ({}, lambda chip: chip.apply_transitions([7], 1, 0.0)),
    "one cell's value": ({}, lambda chip: chip.set_values([7], 0x5A)),
}


def chip_with(profile, seed=1, address_count=1024, random_delay_enabled=False):
    chip = rrsim.new_chip(rrsim.ChipGeometry(address_count),
                          profile, seed, random_delay_enabled)
    chip.apply_stress_pairs([3, 4, 9], 5)
    return chip


@pytest.mark.parametrize("what", sorted(ONE_CHANGE))
def test_equal_chips_write_the_same_state_file(profile, what):
    options, change = ONE_CHANGE[what]
    a, b = chip_with(profile), chip_with(profile, **options)
    if change:
        change(b)
    same_file = a.save_state() == b.save_state()
    assert same_file == (what == "nothing")
    assert (a == b) == (b == a) == same_file
    assert rrsim.load_state(b.save_state(), profile) == b


def test_signed_zeros_are_different_chips(profile):
    # 0.0 and -0.0 are equal floats but different state-file bytes.
    a, b = chip_with(profile), chip_with(profile)
    a.set_temperature(0.0)
    b.set_temperature(-0.0)
    fresh = rrsim.new_chip(rrsim.ChipGeometry(1024), profile, 1)
    blob = bytearray(fresh.save_state())
    struct.pack_into("<d", blob, CLOCK_OFFSET, -0.0)
    negative_clock = rrsim.load_state(bytes(blob), profile)
    for x, y in ((a, b), (fresh, negative_clock)):
        assert x.save_state() != y.save_state()
        assert x != y and y != x


# -- allocation budget -------------------------------------------------------

def test_state_io_allocation_budget(profile, tmp_path):
    chip = fresh_chip(profile, seed=5, addresses=FULL_CHIP)
    chip.apply_stress_pairs(np.arange(1000, 9192), 15_000)
    # The chip holds its cells in the file's own 5-byte records, so each
    # of these allocates one table (or the returned bytes) and little else.
    state, save_peak = traced_peak(chip.save_state)
    assert save_peak <= len(state) + 64 * 1024
    twin, load_extra = traced_peak(lambda: rrsim.load_state(state, profile))
    assert load_extra <= 5 * FULL_CHIP + 64 * 1024
    assert twin == chip
    # The file paths stream the table: no copy of it on the way out, and
    # only the chip's own table on the way in.
    path = tmp_path / "chip.bin"
    with open(path, "wb") as fh:
        _, write_extra = traced_peak(lambda: chip.write_state(fh))
    assert write_extra <= 64 * 1024
    with open(path, "rb") as fh:
        from_file, read_extra = traced_peak(lambda: rrsim.read_state(fh, profile))
    assert read_extra <= 5 * FULL_CHIP + 64 * 1024
    assert from_file == chip
    copy, clone_extra = traced_peak(chip.clone)
    assert clone_extra <= 5 * FULL_CHIP + 64 * 1024
    assert copy == chip
    _, new_extra = traced_peak(lambda: rrsim.new_chip(chip.geometry, profile, 5))
    assert new_extra <= 5 * FULL_CHIP + 64 * 1024
