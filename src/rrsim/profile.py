"""Parametric wear-timing profiles for resistive memory cells.

Switching a cell (set: all-ones -> all-zeros, reset: the reverse) gets
slower as the cell accumulates switching stress.  A profile captures that
behaviour with one monotone mean curve per operation,

    mean_time(s) = t0 + a * s**p        (s = completed set-reset pairs)

plus a multiplicative lognormal noise term per sample, a per-chip
lognormal spread (chips of the same part number age at slightly different
overall speed), a linear temperature coefficient, and the flat command
timings of the serial interface (buffered writes, no-op writes, optional
software jitter).

All times are seconds; stress is counted in set-reset pairs.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, fields
from importlib import resources

import numpy as np

from .errors import (ConfigurationError, dump_document, load_document, read_text,
                     real, whole, write_text)

PROFILE_VERSION = 1

DEFAULT_PROFILE_RESOURCE = "default_mb85as8mt.profile.json"


@dataclass(frozen=True)
class WearCurve:
    """Mean switch time versus accumulated stress: t0 + a * s**p."""

    t0: float          # fresh-cell time, seconds
    a: float           # wear coefficient, seconds per pair**p
    p: float           # wear exponent, >= 1

    def mean(self, stress):
        """Mean switch time at `stress` pairs (finite, >= 0; scalar or ndarray)."""
        s = np.asarray(real("stress", stress, least=0, array=True), dtype=float)
        out = self.t0 + self.a * np.power(s, self.p)
        if out.ndim == 0:
            return float(out)
        return out

    def __post_init__(self):
        for f in fields(self):
            real(f"wear curve {f.name}", getattr(self, f.name))
        if self.t0 <= 0 or self.a <= 0:
            raise ConfigurationError("wear curve times must be positive")
        if self.p < 1:
            raise ConfigurationError("wear exponent must be >= 1")


def _known_op(op: str) -> str:
    if op not in ("set", "reset"):
        raise ConfigurationError(f"unknown operation {op!r} (want 'set' or 'reset')")
    return op


def _lognormal(sig: float, rng, size=None):
    """Lognormal factors with mean 1 and log-sigma `sig`; a float for no size.

    The transform runs in the normal draw's own buffer, so a large draw
    allocates (and faults in) one array rather than three.
    """
    z = np.asarray(rng.standard_normal(size))
    np.multiply(z, sig, out=z)
    np.subtract(z, 0.5 * sig * sig, out=z)
    np.exp(z, out=z)
    return z[()]


# Past this sigma `_lognormal`'s mean-1 correction exp(-sigma**2/2) is below
# the smallest normal float, and every factor it draws is 0.0.
_SIGMA_MAX = float(np.sqrt(-2 * np.log(np.finfo(float).tiny)))  # about 37.6


@dataclass(frozen=True)
class CalibrationProfile:
    """Fitted timing model for one memory part number."""

    set_curve: WearCurve
    reset_curve: WearCurve
    set_sigma: float              # lognormal sigma of a single set sample
    reset_sigma: float            # lognormal sigma of a single reset sample
    buffered_command_time: float  # one buffered all-set or all-reset command
    pair_time: float              # buffered set+reset pair over one buffer
    noop_time: float              # write that toggles no bits
    temp_coeff: float             # fractional mean shift per degC from 25 C
    jitter_max: float             # max uniform software delay when enabled
    endurance_rated: int          # vendor-rated pairs
    endurance_max: int            # pairs after which cells go unreliable
    chip_variation: float         # lognormal sigma of the per-chip speed factor
    temp_rated_min: float = -40.0
    temp_rated_max: float = 85.0
    retention_drift: float = 0.0  # fractional mean shift per day of retention
    bake_drift: float = 0.0       # fractional permanent shift per bake day

    def __post_init__(self):
        whole("endurance_rated", self.endurance_rated, 1)
        whole("endurance_max", self.endurance_max, self.endurance_rated)
        for f in fields(self)[2:]:  # every number; the curves come first
            real(f.name, getattr(self, f.name))
        if self.set_sigma < 0 or self.reset_sigma < self.set_sigma:
            raise ConfigurationError("need reset_sigma >= set_sigma >= 0")
        for name in ("buffered_command_time", "pair_time", "noop_time"):
            if getattr(self, name) <= 0:
                raise ConfigurationError(f"{name} must be positive")
        if self.jitter_max < 0 or self.chip_variation < 0:
            raise ConfigurationError("jitter_max and chip_variation must be >= 0")
        for name in ("set_sigma", "reset_sigma", "chip_variation"):
            if getattr(self, name) > _SIGMA_MAX:
                raise ConfigurationError(f"{name} {getattr(self, name)} is too wide: its "
                                         "mean-1 correction exp(-sigma**2/2) underflows")
        if self.temp_rated_min >= self.temp_rated_max:
            raise ConfigurationError("bad rated temperature range")
        # temp_factor is linear, so both ends bound it over the whole range.
        if min(self.temp_factor(self.temp_rated_min),
               self.temp_factor(self.temp_rated_max)) <= 0:
            raise ConfigurationError(
                "temp_coeff makes switch times non-positive in the rated range")

    # -- mean model ------------------------------------------------------

    def curve(self, op: str) -> WearCurve:
        return self.set_curve if _known_op(op) == "set" else self.reset_curve

    def sigma(self, op: str) -> float:
        return self.set_sigma if _known_op(op) == "set" else self.reset_sigma

    def mean_time(self, op: str, stress):
        """Deterministic mean switch time at a stress level (pairs)."""
        return self.curve(op).mean(stress)

    def temp_factor(self, celsius: float) -> float:
        return 1.0 + self.temp_coeff * (celsius - 25.0)

    def check_rated(self, celsius: float) -> None:
        """Refuse a temperature that is not one real number (nor a bool) or is not rated."""
        real("temperature", celsius)
        if not self.temp_rated_min <= celsius <= self.temp_rated_max:
            raise ConfigurationError(f"{celsius} C outside rated range "
                                     f"[{self.temp_rated_min}, {self.temp_rated_max}]")

    # -- sampling --------------------------------------------------------

    def sample_times(self, op, stress, rng, scale=1.0):
        """Draw noisy switch times for an array of per-cell stress levels.

        The lognormal factor is mean-corrected so the expected sample equals
        scale * mean_time(stress).  `scale` folds in the chip speed factor
        and any temperature/aging multipliers.
        """
        mean = self.mean_time(op, stress)
        noise = _lognormal(self.sigma(op), rng, np.shape(mean))
        return scale * mean * noise

    def draw_chip_factor(self, rng) -> float:
        """Per-chip overall speed factor, mean 1."""
        return float(_lognormal(self.chip_variation, rng))

    def sample_replica_means(self, op, stress, replica_size, count, rng):
        """Means of `replica_size` samples at one stress level, `count` draws.

        Each draw models a fresh chip of this part number measuring one
        replica group, so the chip speed factor varies draw to draw while
        per-sample noise averages down with the group size.
        """
        mean = self.mean_time(op, stress)  # checks op and stress before any draw
        shape = (whole("count", count, 1), whole("replica_size", replica_size, 1))
        chip = _lognormal(self.chip_variation, rng, shape[0])
        samples = _lognormal(self.sigma(op), rng, shape).mean(axis=1)
        return mean * chip * samples

    # -- persistence -----------------------------------------------------

    def to_json(self) -> str:
        return dump_document("profile", PROFILE_VERSION, asdict(self))

    @classmethod
    def from_json(cls, text: str) -> "CalibrationProfile":
        fields = load_document(text, "profile", PROFILE_VERSION, ConfigurationError)
        try:
            return cls(**dict(fields, set_curve=WearCurve(**fields["set_curve"]),
                              reset_curve=WearCurve(**fields["reset_curve"])))
        except (KeyError, TypeError) as exc:
            raise ConfigurationError(f"malformed profile: {exc}") from exc


def save_profile(profile: CalibrationProfile, path) -> None:
    write_text(path, profile.to_json() + "\n")


def load_profile(path) -> CalibrationProfile:
    return CalibrationProfile.from_json(read_text(path, "profile", ConfigurationError))


def default_profile() -> CalibrationProfile:
    """Shipped profile fitted to the MB85AS8MT-class behaviour anchors."""
    text = resources.files("rrsim.data").joinpath(DEFAULT_PROFILE_RESOURCE).read_text()
    return CalibrationProfile.from_json(text)
