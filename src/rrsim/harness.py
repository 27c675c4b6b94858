"""Experiment harness: usage aging, retention, attacks, sweeps, cost math.

Every experiment reduces to one question: after some history of wear, do
the per-bit mean switch times of 0-bits and 1-bits still sit on opposite
sides of some cut?  The SeparationReport captures that as the smallest
gap between a 1-bit mean and a 0-bit mean; a positive gap is equivalent
to the existence of a zero-error threshold.
"""

from __future__ import annotations

import csv
import warnings
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import ClassVar

import numpy as np

from .chip import ChipModel
from .codec import HidingKey, Payload, _check_kmeans, decode, encode
from .errors import ConfigurationError, UsedCellsWarning, whole

REPORT_COLUMNS = ("sweep_id", "N", "post_stress", "op", "replica_size",
                  "min_distance_s", "ber", "errors")


# ---------------------------------------------------------------------------
# separation metrics
# ---------------------------------------------------------------------------

@dataclass
class SeparationReport:
    """Smallest 0-bit/1-bit timing gap plus best-threshold error counts."""

    op: str
    stress_count: int
    post_stress: int
    replica_size: int
    min_distance: float     # min(1-bit means) - max(0-bit means)
    bit_error_count: int
    ber: float
    decode_ber: float | None = None   # errors of the actual decoder output

    @property
    def separable(self) -> bool:
        return self.min_distance > 0


def min_threshold_errors(means, truth):
    """Fewest bit errors any threshold achieves (bit = mean > cut).

    The cuts tried are one below all means, the midpoint of each pair of
    adjacent distinct means, and one above all.  A cut's errors are the
    bits at or below it that are not 0 plus those above it that are not 1,
    counted by prefix sums over the means in sorted order.
    """
    means = np.asarray(means, dtype=float)
    truth = np.asarray(truth, dtype=np.int64)
    rank = np.argsort(means, kind="stable")
    ordered = means[rank]
    distinct = ordered[np.append(True, ordered[1:] != ordered[:-1])]
    cuts = np.concatenate(([distinct[0] - 1.0],
                           0.5 * (distinct[:-1] + distinct[1:]),
                           [distinct[-1] + 1.0]))
    below = np.searchsorted(ordered, cuts, side="right")
    wrong_as_0 = np.append(0, np.cumsum(truth[rank] != 0))
    wrong_as_1 = np.append(0, np.cumsum(truth[rank] != 1))
    errors = wrong_as_0[below] + (wrong_as_1[-1] - wrong_as_1[below])
    return int(errors.min())


def separation_report(bit_means, truth, op, stress_count, post_stress=0,
                      replica_size=256, decode_bits=None) -> SeparationReport:
    """Score recovered bit means against the true payload."""
    means = np.asarray(bit_means, dtype=float)
    truth_arr = np.asarray(truth, dtype=np.int64)
    zeros = means[truth_arr == 0]
    ones = means[truth_arr == 1]
    # Rounded subtraction is monotone, so this is exactly the smallest
    # pairwise difference ones[j] - zeros[i].
    min_distance = (float(ones.min() - zeros.max()) if len(zeros) and len(ones)
                    else float("inf"))
    errors = min_threshold_errors(means, truth_arr)
    decode_ber = None
    if decode_bits is not None:
        decode_ber = float(np.mean(np.asarray(decode_bits) != truth_arr))
    return SeparationReport(
        op=op, stress_count=stress_count, post_stress=post_stress,
        replica_size=replica_size, min_distance=min_distance, bit_error_count=errors,
        ber=errors / len(truth_arr), decode_ber=decode_ber,
    )


# ---------------------------------------------------------------------------
# usage and environment aging
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class UsagePattern:
    """Write-traffic model used to age cells.

    worst_case_toggle writes a value and its complement each cycle, so
    every bit completes exactly one set-reset pair per cycle.  The
    realistic pattern toggles low bits more often than high bits (small
    values dominate real traffic) with per-write toggle probabilities
    tuned so the average cell also gains about one pair per cycle.
    """

    kind: str = "worst_case_toggle"
    # P(bit toggles per write), LSB first; sums to 4 -> 1 pair/cell/cycle.
    toggle_probs: ClassVar[tuple] = (0.80, 0.68, 0.58, 0.50, 0.42, 0.36, 0.34, 0.32)
    writes_per_cycle: ClassVar[int] = 4

    def __post_init__(self):
        if self.kind not in ("worst_case_toggle", "realistic_random"):
            raise ConfigurationError(f"unknown usage pattern {self.kind!r}")


WORST_CASE = UsagePattern("worst_case_toggle")
REALISTIC = UsagePattern("realistic_random")


def simulate_usage(chip: ChipModel, pattern: UsagePattern, cycles: int,
                   region: tuple[int, int]) -> None:
    """Age `region` = (start, count) with `cycles` pair-equivalents of traffic."""
    start, count = region
    chip._check_range(start, whole("region count", count))
    if whole("cycles", cycles) == 0 or count == 0:
        return
    addrs = np.arange(start, start + count, dtype=np.int64)
    if pattern.kind == "worst_case_toggle":
        chip.apply_stress_pairs(addrs, cycles)
        return
    # Realistic traffic: per-cell, per-bit binomial transition counts.
    writes = cycles * pattern.writes_per_cycle
    rng = chip.derive_rng(b"usage", addrs[0], addrs[-1], np.int64(cycles),
                          chip.wear_units(addrs))
    transitions = np.zeros(count, dtype=np.int64)
    for q in pattern.toggle_probs:
        transitions += rng.binomial(writes, q, size=count)
    commands = writes * -(-count // chip.geometry.buffer_size)
    chip.apply_transitions(addrs, transitions,
                           commands * chip.profile.buffered_command_time)
    chip.set_values(addrs, rng.integers(0, 256, count, dtype=np.uint8))


# Aging and baking belong to the chip, which owns its clock and bake log.
age_retention = ChipModel.age_retention
bake = ChipModel.bake


# ---------------------------------------------------------------------------
# attacks
# ---------------------------------------------------------------------------

def attack_wrong_base(chip: ChipModel, key: HidingKey, truth: Payload,
                      offset_mode: str = "case3", op: str = "set"
                      ) -> SeparationReport:
    """Decode with a perturbed base address and score against the truth.

    case1 shifts by half a replica (the wrong groups overlap the true ones
    almost completely), case2 lands mid-footprint (inside the true region),
    case3 shifts by exactly one replica size.  The honest chip state is
    cloned so the attack's measurement wear does not touch the original.
    """
    offsets = {
        "case1": key.replica_size // 2,
        "case2": key.replica_size * (key.payload_length // 2),
        "case3": key.replica_size,
    }
    if offset_mode not in offsets:
        raise ConfigurationError("offset_mode must be case1, case2 or case3")
    wrong = replace(key, base_address=key.base_address
                    + max(offsets[offset_mode], 1))
    return _scored_decode(chip.clone(), wrong, truth, op)


def attack_wrong_key(chip: ChipModel, key: HidingKey, truth: Payload,
                     rng_seed: int = 1, op: str = "set") -> SeparationReport:
    """Decode with freshly drawn random rotations instead of the real ones."""
    _check_kmeans(key)  # a 1-bit key has no other rotation to draw
    rng = np.random.Generator(np.random.PCG64(whole("rng_seed", rng_seed)))
    while True:
        rotations = tuple(int(k) for k in
                          rng.integers(0, key.payload_length, key.replica_count))
        if rotations != key.rotations:
            break
    wrong = replace(key, rotations=rotations)
    return _scored_decode(chip.clone(), wrong, truth, op)


def _scored_decode(chip: ChipModel, key: HidingKey, truth: Payload, op: str,
                   post_stress: int = 0) -> SeparationReport:
    """Kmeans-decode `chip` in place, warnings silenced, and score it;
    callers that must keep the chip's state pass a clone."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        result = decode(chip, key, method="kmeans", op=op)
    return separation_report(
        result.bit_means, truth.bits, op=op, stress_count=key.stress_count,
        post_stress=post_stress, replica_size=key.replica_size,
        decode_bits=result.payload.bits)


# ---------------------------------------------------------------------------
# sweeps
# ---------------------------------------------------------------------------

# The word both aging sweeps hide, at address 0.
_SWEEP_PAYLOAD = Payload.from_hex("0xECE3038B")


def sweep_post_hiding(chip_factory, stress_counts, post_grid, op: str = "set"
                      ) -> list[SeparationReport]:
    """Age an encoded chip along a post-stress grid and report separation.

    For each hiding stress count: one fresh chip is encoded, then every
    grid point ages a clone of that encoded state with worst-case toggle
    traffic and decodes it, so measurement wear never compounds across
    grid points.
    """
    reports = []
    for n in stress_counts:
        chip = chip_factory()
        key = HidingKey(0, 256, 1, (0,), len(_SWEEP_PAYLOAD), n)
        encode(chip, key, _SWEEP_PAYLOAD)
        for s in post_grid:
            twin = chip.clone()
            simulate_usage(twin, WORST_CASE, s, (0, key.footprint))
            reports.append(_scored_decode(twin, key, _SWEEP_PAYLOAD, op, s))
    return reports


def stress_tolerance(reports, stress_count: int, max_errors: int = 0) -> int:
    """Largest grid stress sustained before errors first exceed the budget.

    Matches the silicon reading: data "remains separated up to X" when the
    first grid point with more than `max_errors` bit errors is the one
    after X.  Returns 0 when even the first aged point fails.
    """
    rows = sorted((r for r in reports if r.stress_count == stress_count),
                  key=lambda r: r.post_stress)
    if not rows:
        raise ConfigurationError(f"no reports for stress count {stress_count}")
    last_good = 0
    for r in rows:
        if r.bit_error_count > max_errors:
            break
        last_good = r.post_stress
    return last_good


def sweep_replica_size(chip_factory, sizes, op: str = "set",
                       stress_count: int = 15_000,
                       payload: Payload | None = None,
                       rng_seed: int = 0) -> list[SeparationReport]:
    """Encode/decode once per replica size on fresh chips."""
    rng = np.random.Generator(np.random.PCG64(whole("rng_seed", rng_seed)))
    reports = []
    for size in sizes:
        pay = payload if payload is not None else Payload.random(32, rng)
        chip = chip_factory()
        key = HidingKey(0, size, 1, (0,), len(pay), stress_count)
        encode(chip, key, pay)
        reports.append(_scored_decode(chip, key, pay, op))
    return reports


def min_separable_replica(reports) -> int | None:
    """Smallest replica size from which separation holds for all larger sizes."""
    rows = sorted(reports, key=lambda r: r.replica_size)
    threshold = None
    for r in rows:
        if r.separable:
            if threshold is None:
                threshold = r.replica_size
        else:
            threshold = None
    return threshold


def sweep_initial_stress(chip_factory, initial_grid, stress_count: int,
                         ops=("set", "reset"), replica_size: int = 256
                         ) -> list[SeparationReport]:
    """Pre-age the footprint with realistic traffic, then hide and decode."""
    reports = []
    for s in initial_grid:
        chip = chip_factory()
        key = HidingKey(0, replica_size, 1, (0,), len(_SWEEP_PAYLOAD),
                        stress_count)
        simulate_usage(chip, REALISTIC, s, (0, key.footprint))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UsedCellsWarning)
            encode(chip, key, _SWEEP_PAYLOAD)
        for op in ops:
            reports.append(_scored_decode(chip.clone(), key, _SWEEP_PAYLOAD, op, s))
    return reports


# ---------------------------------------------------------------------------
# pure performance calculators (exact rational arithmetic)
# ---------------------------------------------------------------------------

def _fraction(x) -> Fraction:
    if isinstance(x, float):
        # Via the shortest decimal repr, so 0.01 means exactly 1/100.
        return Fraction(repr(x))
    if isinstance(x, (int, str, Fraction)):
        return Fraction(x)
    raise ConfigurationError(f"cannot interpret {x!r} as an exact number")


def encode_time(stress_pairs, payload_bits, pair_time) -> Fraction:
    """Seconds to hide: pairs x bits x buffered pair time."""
    return _fraction(stress_pairs) * _fraction(payload_bits) * _fraction(pair_time)


def retrieve_time(mean_switch, payload_bits, replica_size) -> Fraction:
    """Seconds to recover: mean switch time x bits x replicas per bit."""
    return _fraction(mean_switch) * _fraction(payload_bits) * _fraction(replica_size)


def endurance_cost(stress_pairs, rated_pairs) -> Fraction:
    """Fraction of rated endurance consumed by hiding."""
    rated = _fraction(rated_pairs)
    if rated <= 0:
        raise ConfigurationError("rated_pairs must be positive")
    return _fraction(stress_pairs) / rated


# ---------------------------------------------------------------------------
# CSV emission
# ---------------------------------------------------------------------------

def write_reports_csv(path, sweep_id: str, reports, seed: int | None = None
                      ) -> None:
    """One plot-ready CSV per sweep, rows in deterministic grid order."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        if seed is not None:
            fh.write(f"# rrsim {sweep_id} seed={seed}\n")
        writer = csv.writer(fh)
        writer.writerow(REPORT_COLUMNS)
        for r in reports:
            writer.writerow([
                sweep_id, r.stress_count, r.post_stress, r.op, r.replica_size,
                repr(r.min_distance), repr(r.ber), r.bit_error_count,
            ])
