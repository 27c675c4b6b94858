"""Correctness checks computed apart from rrsim.

Every expected value here comes from the paper's model figures (16
bit-transition units per byte set-reset pair, 256-address buffers, 5 ms per
buffered command, 10 ms per buffered pair) or from properties the method
must have.  Nothing is read back from rrsim's own oracles (`kmeans2`,
`best_threshold`, `stress_tolerance`, `min_separable_replica`,
`load_state`), and no check compares against a stored copy of earlier
output.  A failed check raises `CheckError`.
"""

from __future__ import annotations

import math
import re
import struct

import numpy as np

UNITS_PER_PAIR = 16
BUFFER_SIZE = 256
BUFFERED_COMMAND_S = 0.005
PAIR_S = 0.010

STATE_MAGIC = b"RRSIM\x01"
# Address count, word length, buffer size, seed, clock, temperature, jitter.
STATE_HEAD = "<QHIqdd?"
STATE_HEADER_BYTES = len(STATE_MAGIC) + struct.calcsize(STATE_HEAD)
STATE_CELL = np.dtype([("stress", "<u4"), ("value", "u1")])

# Exponents of the profile the calibrate workload's chips are drawn from.
GENERATING_SET_P = 1.15
GENERATING_RESET_P = 1.40
EXPONENT_TOLERANCE = 0.05
# The paper's replica-256 separation anchor is ~12 K pairs; a threshold
# fitted from one 2,048-cell part and 2,000 confidence samples lands within
# a third of it.
THRESHOLD_BAND = (8_000, 16_000)

ATTACK_BROKEN_SHARE = 0.99
ATTACK_BER_BAND = (0.35, 0.65)


class CheckError(AssertionError):
    """An output of the program disagrees with the benchmark's own figures."""


def require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckError(message)


# ---------------------------------------------------------------------------
# address math and wear
# ---------------------------------------------------------------------------

def bit_groups(payload_length: int, base: int, replica_size: int, rotations):
    """(first address, payload bit) of every replica group of a key.

    Replica row r starts at base + r * payload_length * replica_size and
    is stored left-rotated by rotations[r], so group j of that row holds
    bit (j + rotations[r]) % payload_length.  A block layout is the single
    row with rotation 0.
    """
    groups = []
    row_len = payload_length * replica_size
    for r, k in enumerate(rotations):
        for j in range(payload_length):
            groups.append((base + r * row_len + j * replica_size,
                           (j + k) % payload_length))
    return groups


def expected_wear(address_count: int, bits, base: int, replica_size: int,
                  rotations, one_units: int, zero_units: int) -> np.ndarray:
    """Wear units per address after hiding `bits` with the given layout."""
    wear = np.zeros(address_count, dtype=np.uint32)
    for start, bit in bit_groups(len(bits), base, replica_size, rotations):
        wear[start:start + replica_size] = one_units if bits[bit] else zero_units
    return wear


def one_bit_runs(bits, base: int, replica_size: int, rotations):
    """Lengths of the runs of consecutive addresses that hold 1-bits."""
    starts = sorted(s for s, bit in bit_groups(len(bits), base, replica_size,
                                               rotations) if bits[bit])
    runs = []
    end = None
    for s in starts:
        if s == end:
            runs[-1] += replica_size
        else:
            runs.append(replica_size)
        end = s + replica_size
    return runs


def encode_busy_s(footprint: int, bits, base: int, replica_size: int,
                  rotations, n_stress: int) -> float:
    """Erase of the footprint plus n_stress pairs over the 1-bit buffers."""
    commands = sum(-(-run // BUFFER_SIZE)
                   for run in one_bit_runs(bits, base, replica_size, rotations))
    return (footprint // BUFFER_SIZE * BUFFERED_COMMAND_S
            + n_stress * commands * PAIR_S)


def check_wear(actual, expected, what: str) -> None:
    actual = np.asarray(actual)
    require(actual.shape == expected.shape,
            f"{what}: wear covers {actual.shape} cells, expected {expected.shape}")
    bad = np.flatnonzero(actual != expected)
    require(len(bad) == 0,
            f"{what}: {len(bad)} cells off the expected wear, first at "
            f"address {bad[0] if len(bad) else -1}")


# ---------------------------------------------------------------------------
# two-means split
# ---------------------------------------------------------------------------

def two_means_bits(values) -> tuple:
    """Labels of the exact two-means split, by brute force over sorted cuts.

    Every cut between distinct adjacent sorted values is scored by the
    within-cluster sum of squares, summed directly; the first best cut wins
    and a value above it is a 1-bit.
    """
    vals = [float(v) for v in values]
    order = sorted(vals)
    best_ss, best_cut = math.inf, None
    for k in range(1, len(order)):
        if order[k - 1] == order[k]:
            continue
        ss = 0.0
        for side in (order[:k], order[k:]):
            centre = sum(side) / len(side)
            ss += sum((v - centre) ** 2 for v in side)
        if ss < best_ss:
            best_ss, best_cut = ss, 0.5 * (order[k - 1] + order[k])
    require(best_cut is not None, "two-means split of identical values")
    return tuple(int(v > best_cut) for v in vals)


# ---------------------------------------------------------------------------
# per-workload checks
# ---------------------------------------------------------------------------

def check_roundtrip(bits, decoded, bit_means, wear, busy_s, n_stress: int,
                    replica_size: int) -> None:
    """One hide-and-decode on a fresh chip with the block layout at base 0."""
    bits = tuple(bits)
    require(tuple(decoded) == bits, f"decoded {decoded} != hidden {bits}")
    require(tuple(decoded) == two_means_bits(bit_means),
            "decoded bits differ from the exact two-means split of the bit means")
    expected = expected_wear(len(wear), bits, 0, replica_size, (0,),
                             n_stress * UNITS_PER_PAIR + UNITS_PER_PAIR,
                             UNITS_PER_PAIR)
    check_wear(wear, expected, "round trip")
    want = encode_busy_s(len(bits) * replica_size, bits, 0, replica_size, (0,),
                         n_stress)
    require(math.isclose(busy_s, want, rel_tol=1e-12),
            f"encode busy time {busy_s!r} s, expected {want!r} s")


def parse_state(data: bytes):
    """Header fields and cell array of a chip-state file, read independently."""
    require(len(data) >= STATE_HEADER_BYTES and data.startswith(STATE_MAGIC),
            f"state file of {len(data)} bytes has no complete header")
    head = struct.unpack_from(STATE_HEAD, data, len(STATE_MAGIC))
    count = head[0]
    want = STATE_HEADER_BYTES + STATE_CELL.itemsize * count
    require(len(data) == want,
            f"state file is {len(data)} bytes, expected {want} for {count} cells")
    return head, np.frombuffer(data, dtype=STATE_CELL, offset=STATE_HEADER_BYTES)


def check_cli(bits, hide_code: int, retrieve_code: int, hide_out: str,
              retrieve_out: str, key: dict, state: bytes, address_count: int,
              n_stress: int) -> None:
    """`rrsim hide` then `rrsim retrieve` on a full chip."""
    require(hide_code == 0 and retrieve_code == 0,
            f"exit codes hide={hide_code} retrieve={retrieve_code}")
    value = int("".join(map(str, bits)), 2)
    got = re.search(r"^payload: 0x([0-9A-F]+)$", retrieve_out, re.M)
    require(got is not None and int(got.group(1), 16) == value,
            f"retrieve printed {got.group(0) if got else 'no payload line'}, "
            f"hidden 0x{value:0{len(bits) // 4}X}")
    require(len(state) == STATE_HEADER_BYTES + STATE_CELL.itemsize * address_count,
            f"state file is {len(state)} bytes for a {address_count}-cell chip")
    _, cells = parse_state(state)
    expected = expected_wear(address_count, bits, key["base_address"],
                             key["replica_size"], key["rotations"],
                             n_stress * UNITS_PER_PAIR, 0)
    check_wear(cells["stress"], expected, "reloaded state")
    printed = re.search(r"^simulated encode time: (\S+) s", hide_out, re.M)
    want = n_stress * len(bits) * PAIR_S
    require(printed is not None and math.isclose(float(printed.group(1)), want),
            f"hide printed {printed.group(0) if printed else 'no encode time'}, "
            f"expected {want:g} s")


def zero_error_tolerance(rows) -> int:
    """Largest post-stress reached before the first grid point with errors."""
    last_good = 0
    for post, errors in sorted(rows):
        if errors > 0:
            break
        last_good = post
    return last_good


# Bit errors allowed at post-stress 0.  Reset at N = 15 K and replica 256
# sits just above the reset separation threshold (~224 addresses per bit at
# 15 K), so one 32-bit payload in a hundred or so loses one bit there even
# on a fresh chip; two lost bits would be a fault.
FRESH_ERRORS = {"set": 0, "reset": 1}


def check_post_hiding(rows, op: str) -> None:
    """rows: (N, post_stress, bit errors) of one post-hiding sweep."""
    fresh = [errors for _, post, errors in rows if post == 0]
    require(fresh and all(e <= FRESH_ERRORS[op] for e in fresh),
            f"{op} bit errors at post-stress 0: {fresh}")


def check_tolerance_order(tolerances) -> None:
    """tolerances: {(op, N): [zero-error tolerance of each sweep]}.

    Single chips scatter, so the order is checked on the run's mean per op.
    """
    for op in sorted({op for op, _ in tolerances}):
        ns = sorted(n for o, n in tolerances if o == op)
        means = [float(np.mean(tolerances[(op, n)])) for n in ns]
        require(all(a <= b for a, b in zip(means, means[1:])),
                f"{op} mean zero-error tolerance decreases with N: "
                f"{dict(zip(ns, means))}")


def min_separable_size(rows):
    """Smallest replica size from which every larger size separates."""
    size = None
    for replica, min_distance in sorted(rows):
        if min_distance > 0:
            size = replica if size is None else size
        else:
            size = None
    return size


def check_replica_order(set_rows, reset_rows) -> None:
    """rows: (replica size, min distance) of one replica-size sweep per op."""
    s, r = min_separable_size(set_rows), min_separable_size(reset_rows)
    require(s is not None and (r is None or s <= r),
            f"set separates from replica {s}, reset from {r}")


def check_honest(min_distance: float) -> None:
    require(min_distance > 0, f"honest key does not separate ({min_distance!r})")


def check_attacks(min_distances, decode_bers) -> None:
    n = len(min_distances)
    broken = sum(d < 0 for d in min_distances)
    require(n > 0 and broken >= ATTACK_BROKEN_SHARE * n,
            f"only {broken}/{n} attacks give a negative minimum distance")
    ber = float(np.mean(decode_bers))
    require(ATTACK_BER_BAND[0] <= ber <= ATTACK_BER_BAND[1],
            f"mean attack decode BER {ber:.3f} outside {ATTACK_BER_BAND}")


def fit_should_fail(set_means, reset_means) -> bool:
    """The fit needs means that rise strictly with stress for both ops."""
    return any(b <= a for means in (set_means, reset_means)
               for a, b in zip(means, means[1:]))


def check_fit(set_p: float, reset_p: float, threshold: int) -> None:
    require(abs(set_p - GENERATING_SET_P) <= EXPONENT_TOLERANCE,
            f"fitted set exponent {set_p:.4f}, generating {GENERATING_SET_P}")
    require(abs(reset_p - GENERATING_RESET_P) <= EXPONENT_TOLERANCE,
            f"fitted reset exponent {reset_p:.4f}, generating {GENERATING_RESET_P}")
    require(THRESHOLD_BAND[0] <= threshold <= THRESHOLD_BAND[1],
            f"fitted separation threshold {threshold} outside {THRESHOLD_BAND}")
