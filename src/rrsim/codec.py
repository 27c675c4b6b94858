"""Hide bit-strings in cell wear and recover them from timing measurements.

Encoding stresses the cells that map to 1-bits with a configured number of
set-reset pairs, leaving 0-bit cells fresh; decoding measures switch times
over the same footprint, averages them per payload bit, and classifies the
bit means with a threshold or a two-cluster split.

Two address layouts are supported behind one plan abstraction:

* block:  replica_count == 1; one row of payload_length groups of
  `replica_size` consecutive addresses, left-rotated by the key's one
  displacement k: bit i owns base + ((i - k) mod payload_length) * replica_size.
* rows:   replica_count > 1; one such row per replica, each rotated by
  its own secret displacement.  Without the rotation list the groups
  cannot be reassembled.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass

import numpy as np

from .chip import UNITS_PER_PAIR, ChipGeometry, ChipModel
from .errors import (AmbiguousDecodeWarning, ConfigurationError, EncodeError,
                     FormatError, UsedCellsWarning, WearOutError, whole)

KEY_FORMAT = "rrsim-key"
KEY_VERSION = 1


# ---------------------------------------------------------------------------
# payload
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Payload:
    """An ordered bit-string, most significant bit first."""

    bits: tuple

    def __post_init__(self):
        if len(self.bits) < 1:
            raise ConfigurationError("payload must have at least one bit")
        # Exactly int: a bool or float bit equals 0 or 1 but breaks to_hex.
        if any(type(b) is not int or b not in (0, 1) for b in self.bits):
            raise ConfigurationError("payload bits must be the ints 0 or 1")

    def __len__(self):
        return len(self.bits)

    @classmethod
    def from_hex(cls, text: str, length: int | None = None) -> "Payload":
        t = text.strip().lower()
        if t.startswith("0x"):
            t = t[2:]
        if not t or any(c not in "0123456789abcdef" for c in t):
            raise ConfigurationError(f"not a hex payload: {text!r}")
        value = int(t, 16)
        nbits = whole("length", length, None) if length is not None else 4 * len(t)
        if nbits < 1:
            raise ConfigurationError("payload length must be at least 1 bit")
        if value >= (1 << nbits):
            raise ConfigurationError("payload value does not fit the bit length")
        return cls(tuple((value >> (nbits - 1 - i)) & 1 for i in range(nbits)))

    def to_hex(self) -> str:
        value = 0
        for b in self.bits:
            value = (value << 1) | b
        nibbles = -(-len(self.bits) // 4)
        return "0x" + format(value, "0{}X".format(nibbles))

    def to_array(self) -> np.ndarray:
        return np.array(self.bits, dtype=np.int64)

    @classmethod
    def random(cls, length: int, rng) -> "Payload":
        return cls(tuple(int(b) for b in rng.integers(0, 2, whole("length", length, 1))))


def rotate_left(bits, k: int):
    """Left circular rotation by k positions."""
    n = len(bits)
    k %= n
    return tuple(bits[(i + k) % n] for i in range(n))


# ---------------------------------------------------------------------------
# hiding key and address plan
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class HidingKey:
    """Secret layout recipe; recovery is chance-level without it."""

    base_address: int
    replica_size: int
    replica_count: int
    rotations: tuple
    payload_length: int
    stress_count: int

    def __post_init__(self):
        # A float or bool field would select the wrong cells.
        whole("base_address", self.base_address)
        whole("replica_size", self.replica_size, 1)
        whole("replica_count", self.replica_count, 1)
        whole("payload_length", self.payload_length, 1)
        whole("stress_count", self.stress_count)
        for k in self.rotations:
            whole("rotations", k, 0, self.payload_length - 1)
        if len(self.rotations) != self.replica_count:
            raise ConfigurationError("need one rotation per replica")

    @property
    def layout_mode(self) -> str:
        return "block" if self.replica_count == 1 else "rows"

    @property
    def footprint(self) -> int:
        return self.payload_length * self.replica_size * self.replica_count

    def to_json(self) -> str:
        return json.dumps({
            "format": KEY_FORMAT,
            "version": KEY_VERSION,
            "base_address": self.base_address,
            "replica_size": self.replica_size,
            "replica_count": self.replica_count,
            "rotations": list(self.rotations),
            "payload_length": self.payload_length,
            "stress_count": self.stress_count,
            "layout_mode": self.layout_mode,
        }, indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "HidingKey":
        try:
            d = json.loads(text)
        except json.JSONDecodeError as exc:
            raise FormatError(f"key file is not valid JSON: {exc}") from exc
        if not isinstance(d, dict) or d.get("format") != KEY_FORMAT:
            raise FormatError("not a hiding-key file")
        if d.get("version") != KEY_VERSION:
            raise FormatError(f"unsupported key version {d.get('version')}")
        try:
            key = cls(
                base_address=d["base_address"],
                replica_size=d["replica_size"],
                replica_count=d["replica_count"],
                rotations=tuple(d["rotations"]),
                payload_length=d["payload_length"],
                stress_count=d["stress_count"],
            )
        except (KeyError, TypeError, ConfigurationError) as exc:
            raise FormatError(f"malformed key file: {exc}") from exc
        if d.get("layout_mode") != key.layout_mode:
            raise FormatError("layout_mode inconsistent with replica_count")
        return key


def generate_key(payload_length: int, base_address: int, replica_size: int,
                 replica_count: int, stress_count: int, rng_seed: int,
                 geometry: ChipGeometry | None = None) -> HidingKey:
    """Draw a fresh key with uniform i.i.d. per-replica rotations."""
    rng = np.random.Generator(np.random.PCG64(whole("rng_seed", rng_seed)))
    draws = rng.integers(0, whole("payload_length", payload_length, 1),
                         whole("replica_count", replica_count, 1))
    key = HidingKey(base_address, replica_size, replica_count,
                    tuple(int(k) for k in draws), payload_length, stress_count)
    _check_fits(key, ChipGeometry() if geometry is None else geometry)
    return key


def _check_fits(key: HidingKey, geometry: ChipGeometry) -> None:
    if key.base_address + key.footprint > geometry.address_count:
        raise ConfigurationError(
            f"footprint of {key.footprint} addresses at base {key.base_address} "
            f"does not fit a chip of {geometry.address_count}")


class AddressPlan:
    """Deterministic map from payload-bit positions to chip addresses."""

    def __init__(self, key: HidingKey, geometry: ChipGeometry):
        _check_fits(key, geometry)
        self.key = key
        R, B = key.replica_size, key.payload_length
        # bit_of_address[j] = payload bit stored at offset j: row r holds
        # groups of R copies of bits k_r, k_r + 1, ... (mod B).
        rotations = np.asarray(key.rotations, dtype=np.int64)
        self.bit_of_address = ((np.arange(B)[None, :] + rotations[:, None]) % B
                               ).repeat(R, axis=1).ravel()
        self.addresses = key.base_address + np.arange(key.footprint, dtype=np.int64)

    def addresses_for_bit(self, bit: int) -> np.ndarray:
        return self.addresses[self.bit_of_address == bit]

    def bit_means(self, times: np.ndarray) -> np.ndarray:
        """Average the measured times of each payload bit's replicas."""
        b = self.key.payload_length
        sums = np.bincount(self.bit_of_address, weights=times, minlength=b)
        counts = np.bincount(self.bit_of_address, minlength=b)
        return sums / counts


# ---------------------------------------------------------------------------
# encode
# ---------------------------------------------------------------------------

@dataclass
class EncodeReport:
    """What the hiding run cost in simulated silicon time."""

    chip_busy_seconds: float    # command time actually consumed on the chip


def encode(chip: ChipModel, key: HidingKey, payload: Payload) -> EncodeReport:
    """Imprint `payload` by stressing the cells mapped to its 1-bits.

    All planned addresses are first initialized to the erased pattern; the
    1-bit cells then receive `key.stress_count` set-reset pairs, applied
    buffer-by-buffer.  Cells holding 0-bits keep their wear untouched.  A
    cell past endurance in either step raises EncodeError.
    """
    if len(payload) != key.payload_length:
        raise ConfigurationError(
            f"payload has {len(payload)} bits, key expects {key.payload_length}")
    plan = AddressPlan(key, chip.geometry)
    prior = chip.wear_units(plan.addresses) / UNITS_PER_PAIR
    if prior.mean() > 0:
        warnings.warn(
            f"target cells already carry {prior.mean():.1f} mean pairs of wear",
            UsedCellsWarning)
    ones = plan.addresses[payload.to_array()[plan.bit_of_address] == 1]
    try:
        busy = _init_to_erased(chip, plan.addresses)
        busy += chip.apply_stress_pairs(ones, key.stress_count)
    except WearOutError as exc:
        raise EncodeError("cells wore out during encoding",
                          addresses=exc.addresses) from exc
    return EncodeReport(chip_busy_seconds=busy)


def _init_to_erased(chip: ChipModel, addresses: np.ndarray) -> float:
    """Write 0xFF to a contiguous footprint: every full buffer in one
    buffered write, the stragglers bytewise."""
    elapsed = 0.0
    n_full = len(addresses) - len(addresses) % chip.geometry.buffer_size
    if n_full:
        elapsed += chip.buffered_write(int(addresses[0]),
                                       np.full(n_full, 0xFF, dtype=np.uint8))
    for a in addresses[n_full:]:
        elapsed += chip.timed_write(int(a), 0xFF).seconds
    return elapsed


# ---------------------------------------------------------------------------
# decode
# ---------------------------------------------------------------------------

@dataclass
class DecodeResult:
    """Recovered bits plus the evidence they were cut from."""

    payload: Payload
    bit_means: np.ndarray
    threshold_used: float
    confidence: float           # smallest margin between a bit mean and the cut
    ambiguous: bool
    op: str

    def to_hex(self) -> str:
        return self.payload.to_hex()


def decode(chip: ChipModel, key: HidingKey, method: str = "kmeans",
           threshold: float | None = None, reference_addresses=None,
           op: str = "set") -> DecodeResult:
    """Measure the key's footprint and classify each payload bit.

    method is one of "kmeans" (two-cluster split of the bit means),
    "threshold" (explicit cut, pass `threshold`), or "reference" (cut
    derived from spare fresh-equivalent cells, pass `reference_addresses`).
    Set times are used by default; reset times via op="reset".
    """
    if op not in ("set", "reset"):
        raise ConfigurationError("op must be 'set' or 'reset'")
    if method not in ("kmeans", "threshold", "reference"):
        raise ConfigurationError(f"unknown decode method {method!r}")
    if method == "threshold" and (threshold is None or not np.isfinite(threshold)):
        raise ConfigurationError("threshold method needs a finite threshold value")
    if method == "kmeans":
        _check_kmeans(key)
    if method == "reference":
        if reference_addresses is None or len(reference_addresses) == 0:
            raise ConfigurationError("reference method needs reference addresses")
        reference_addresses = np.asarray(reference_addresses)
        offsets = reference_addresses - key.base_address
        if np.any((offsets >= 0) & (offsets < key.footprint)):
            raise ConfigurationError("reference cells lie inside the footprint")
        chip.wear_units(reference_addresses)  # the chip's address rule, nothing measured
    plan = AddressPlan(key, chip.geometry)
    trace = chip.measure_trace(plan.addresses)
    times = trace.set_times if op == "set" else trace.reset_times
    means = plan.bit_means(times)

    ambiguous = False
    if method == "kmeans":
        labels, (c0, c1) = kmeans2(means)
        cut = 0.5 * (c0 + c1)
        bits = labels
        ambiguous = _is_ambiguous(means, labels, c0, c1)
        if ambiguous:
            warnings.warn(
                "cluster separation is within the noise floor; decoded bits "
                "are a best guess", AmbiguousDecodeWarning)
    elif method == "threshold":
        cut = float(threshold)
        bits = (means > cut).astype(np.int64)
    else:
        ref = chip.measure_trace(reference_addresses)
        ref_mean = float((ref.set_times if op == "set" else ref.reset_times).mean())
        ratio = (chip.profile.mean_time(op, key.stress_count)
                 / chip.profile.mean_time(op, 0))
        cut = 0.5 * (ref_mean + ref_mean * ratio)
        bits = (means > cut).astype(np.int64)

    return DecodeResult(
        payload=Payload(tuple(int(b) for b in bits)),
        bit_means=means,
        threshold_used=cut,
        confidence=float(np.abs(means - cut).min()),
        ambiguous=ambiguous,
        op=op,
    )


def _check_kmeans(key: HidingKey) -> None:
    if key.payload_length < 2:
        raise ConfigurationError("kmeans decoding needs at least two payload "
                                 "bits; use the reference method")


def _is_ambiguous(means, labels, c0, c1) -> bool:
    """Ambiguous when the centroid gap is within the cluster noise."""
    if c1 <= c0:
        return True
    spread = 0.0
    for lab, c in ((0, c0), (1, c1)):
        member = means[labels == lab]
        if len(member) > 1:
            spread += float(member.std())
    if spread == 0.0:
        # Degenerate single-member clusters: fall back to a relative gap test.
        return (c1 - c0) < 0.05 * c0
    return (c1 - c0) < 2.0 * spread


# ---------------------------------------------------------------------------
# two-cluster tools
# ---------------------------------------------------------------------------

def kmeans2(values):
    """Exact two-means clustering of 1-D values.

    In one dimension the optimal two-cluster partition is a cut between
    adjacent sorted values, so the within-cluster sum of squares can be
    minimized exactly: prefix sums give every cut's SS in one vectorized
    pass and the argmin is the clustering Lloyd's iteration is trying to
    reach (Lloyd from min/max seeds can strand boundary points in a local
    optimum, which would break the agreement with threshold decoding).
    Deterministic; ties resolve to the lowest cut.  Returns
    (labels, (c0, c1)) with c0 <= c1; equal centroids signal that all
    values are identical (a single cluster).
    """
    vals = np.asarray(values, dtype=float)
    if len(vals) < 2:
        raise ConfigurationError("kmeans2 needs at least two values")
    sv = np.sort(vals)
    if sv[0] == sv[-1]:
        v = float(sv[0])
        return np.zeros(len(vals), dtype=np.int64), (v, v)
    n = len(sv)
    csum = np.cumsum(sv)
    csq = np.cumsum(sv * sv)
    ks = np.nonzero(sv[1:] > sv[:-1])[0] + 1   # valid cut positions
    left_ss = csq[ks - 1] - csum[ks - 1] ** 2 / ks
    right_n = n - ks
    right_sum = csum[-1] - csum[ks - 1]
    right_ss = (csq[-1] - csq[ks - 1]) - right_sum ** 2 / right_n
    k = int(ks[np.argmin(left_ss + right_ss)])
    cut = 0.5 * (float(sv[k - 1]) + float(sv[k]))
    labels = (vals > cut).astype(np.int64)
    c0 = float(vals[labels == 0].mean())
    c1 = float(vals[labels == 1].mean())
    return labels, (c0, c1)


def best_threshold(values):
    """Exhaustive midpoint sweep minimizing within-cluster sum of squares.

    The brute-force 1-D oracle for two-cluster splits: every midpoint
    between adjacent sorted values is tried.  Returns (threshold, labels).
    """
    vals = np.asarray(values, dtype=float)
    if len(vals) < 2:
        raise ConfigurationError("need at least two values")
    order = np.sort(vals)
    best = (np.inf, order[0])
    for i in range(len(order) - 1):
        if order[i] == order[i + 1]:
            continue
        cut = 0.5 * (order[i] + order[i + 1])
        low, high = vals[vals <= cut], vals[vals > cut]
        ss = float(((low - low.mean()) ** 2).sum() + ((high - high.mean()) ** 2).sum())
        if ss < best[0]:
            best = (ss, cut)
    cut = best[1]
    return cut, (vals > cut).astype(np.int64)


# ---------------------------------------------------------------------------
# repetition code
# ---------------------------------------------------------------------------

def apply_ecc(payload: Payload, k: int) -> Payload:
    """Repeat every bit k times (k odd); k = 1 is the identity."""
    _check_repetition(k)
    return Payload(tuple(b for b in payload.bits for _ in range(k)))


def strip_ecc(payload: Payload, k: int) -> Payload:
    """Majority-vote each k-bit group back to one bit."""
    _check_repetition(k)
    if len(payload) % k:
        raise ConfigurationError("encoded length is not a multiple of k")
    bits = payload.to_array().reshape(-1, k)
    return Payload(tuple(int(v) for v in (bits.sum(axis=1) * 2 > k)))


def _check_repetition(k: int):
    if whole("repetition factor", k, 1) % 2 == 0:
        raise ConfigurationError("repetition factor must be odd and >= 1")


def save_key(key: HidingKey, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(key.to_json())
        fh.write("\n")


def load_key(path) -> HidingKey:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return HidingKey.from_json(fh.read())
    except OSError as exc:
        raise FormatError(f"cannot read key file: {exc}") from exc
