"""Cell characterization and profile fitting.

Characterization is the destructive bring-up step: a sacrificial chip's
cells are switched back and forth up to a target wear level while the
set/reset times are sampled at fixed intervals.  The sampled statistics
(grouped into write-buffer-sized replica bins) are then fitted back to the
parametric wear model by least squares in log space, which linearizes the
power law.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace

import numpy as np

from .chip import BUFFER_SIZE, ChipModel
from .errors import (ConfigurationError, FitError, NotSeparableError,
                     TruncatedRunWarning, WearOutError, whole)
from .profile import CalibrationProfile, WearCurve, _lognormal, default_profile

# Expected maximum of n i.i.d. standard normals, for turning min/max
# envelopes of replica means back into a per-sample sigma estimate.
_EXPECTED_MAX = {
    2: 0.5642, 3: 0.8463, 4: 1.0294, 5: 1.1630, 6: 1.2672, 7: 1.3522, 8: 1.4236,
    10: 1.5388, 12: 1.6292, 16: 1.7660, 24: 1.9477, 32: 2.0697, 48: 2.2331, 64: 2.3437,
    128: 2.5946, 256: 2.8269, 512: 3.0439, 1024: 3.2482, 2048: 3.4418, 4096: 3.6261,
    8192: 3.8023, 16384: 3.9714, 32768: 4.1341, 65536: 4.2911,  # 2**24 addresses / 256
}


def _expected_range(n: int) -> float:
    """E[range] of n standard normals: the table interpolated in ln n, held at its ends."""
    return 2 * float(np.interp(np.log(n), np.log(list(_EXPECTED_MAX)),
                               list(_EXPECTED_MAX.values())))


@dataclass(frozen=True)
class CharacterizationRecord:
    """Replica-mean statistics at one wear level."""

    stress_level: int
    set_min: float
    set_mean: float
    set_max: float
    reset_min: float
    reset_mean: float
    reset_max: float
    replica_size: int = 256
    group_count: int = 8

    def __post_init__(self):
        if not (self.set_min <= self.set_mean <= self.set_max):
            raise ConfigurationError("set statistics out of order")
        if not (self.reset_min <= self.reset_mean <= self.reset_max):
            raise ConfigurationError("reset statistics out of order")


def characterize(chip: ChipModel, addresses, max_pairs: int,
                 sample_interval: int) -> list[CharacterizationRecord]:
    """Stress `addresses` to `max_pairs`, sampling timing statistics.

    Destructive: the chip is worn out up to the target level.  Sampling
    happens at every multiple of `sample_interval` starting from the fresh
    state; each sample itself costs one set-reset pair, which is counted
    toward the next level.  If the cells hit the endurance limit mid-run
    the record list is truncated and a TruncatedRunWarning is emitted.
    """
    addrs = np.asarray(addresses)
    chip.wear_units(addrs)  # the chip's address rule, nothing changed
    if len(addrs) == 0:
        raise ConfigurationError("need at least one address to characterize")
    whole("max_pairs", max_pairs, 0, chip.profile.endurance_max)
    # max_pairs == 0 takes a single record and needs no interval.
    whole("sample_interval", sample_interval, 1 if max_pairs else None)

    bin_size = min(BUFFER_SIZE, len(addrs))
    n_bins = len(addrs) // bin_size  # trailing cells of a partial bin are unused

    def bin_means(times):
        return times[:n_bins * bin_size].reshape(n_bins, bin_size).mean(axis=1)

    records = []
    applied = 0  # pairs applied so far; each measurement applies one
    try:
        for level in [*range(0, max_pairs, max(sample_interval, 1)), max_pairs]:
            if level > applied:
                chip.apply_stress_pairs(addrs, level - applied)
            trace = chip.measure_trace(addrs)
            records.append(_record(level, bin_means(trace.set_times),
                                   bin_means(trace.reset_times), bin_size))
            applied = level + 1
    except WearOutError:
        warnings.warn(
            f"characterization stopped short of {level} pairs: cells reached "
            "the endurance limit", TruncatedRunWarning)
    return records


def _record(level, set_means, reset_means, replica_size) -> CharacterizationRecord:
    """The record of one wear level from its per-group set and reset means."""
    stats = [float(v) for m in (set_means, reset_means)
             for v in (m.min(), m.mean(), m.max())]
    return CharacterizationRecord(int(whole("stress level", level)), *stats,
                                  replica_size=replica_size, group_count=len(set_means))


def synthesize_records(profile: CalibrationProfile, levels,
                       replica_size: int = 256, group_count: int = 8,
                       seed: int = 0) -> list[CharacterizationRecord]:
    """Draw characterization records straight from a profile (no chip).

    Models a nominal chip (unit speed factor) measuring `group_count`
    replica bins at each wear level; used as the fitting oracle.
    """
    shape = (whole("group_count", group_count, 1),
             whole("replica_size", replica_size, 1))
    rng = np.random.Generator(np.random.PCG64(whole("seed", seed)))

    def group_means(op, s):
        noise = _lognormal(profile.sigma(op), rng, shape)
        return profile.mean_time(op, s) * noise.mean(axis=1)

    return [_record(s, group_means("set", s), group_means("reset", s), replica_size)
            for s in levels]


def fit_profile(records, template: CalibrationProfile | None = None
                ) -> CalibrationProfile:
    """Least-squares fit of the wear curves to characterization records.

    t0 is pinned to the fresh-state record; (a, p) come from a linear fit
    of log(mean - t0) against log(stress).  Sigmas are recovered from the
    min/max envelopes.  Command timings, endurance limits and the chip
    spread cannot be observed in a single timing run and are carried over
    from `template` (the shipped default when omitted).
    """
    if template is None:
        template = default_profile()
    recs = sorted(records, key=lambda r: r.stress_level)
    levels = [r.stress_level for r in recs]
    if len(set(levels)) < 3:
        raise FitError("need records at three or more distinct stress levels")
    if levels[0] != 0:
        raise FitError("need a fresh-state (stress 0) record to pin t0")
    if any(r.group_count < 2 for r in recs):
        raise FitError("need two or more replica groups per record to fit the sigmas")

    curves = {}
    sigmas = {}
    for op in ("set", "reset"):
        means = np.array([getattr(r, f"{op}_mean") for r in recs])
        if np.any(np.diff(means) <= 0):
            raise FitError(f"{op} means are not strictly increasing with stress")
        t0 = float(means[0])
        s = np.array(levels[1:], dtype=float)
        y = means[1:] - t0
        if np.any(y <= 0):
            raise FitError(f"{op} means do not rise above the fresh level")
        p, loga = np.polyfit(np.log(s), np.log(y), 1)
        curves[op] = WearCurve(t0=t0, a=float(np.exp(loga)), p=max(float(p), 1.0))
        rel_ranges = [
            (getattr(r, f"{op}_max") - getattr(r, f"{op}_min"))
            / getattr(r, f"{op}_mean")
            / _expected_range(r.group_count) * np.sqrt(r.replica_size)
            for r in recs
        ]
        sigmas[op] = float(np.mean(rel_ranges))

    if sigmas["reset"] < sigmas["set"]:
        sigmas["reset"] = sigmas["set"]
    return replace(template, set_curve=curves["set"], reset_curve=curves["reset"],
                   set_sigma=sigmas["set"], reset_sigma=sigmas["reset"])


def min_stress_for_separation(profile: CalibrationProfile, replica_size: int,
                              confidence_samples: int = 10_000, seed: int = 0) -> int:
    """Smallest grid stress whose replica means clear the fresh envelope.

    Returns the first level on the 1,000-pair grid where the minimum of
    `confidence_samples` stressed replica means exceeds the maximum of as many
    fresh ones (set curve, chips drawn per sample).  Each level draws its means
    in doubling chunks and stops at the first that does not clear, so only the
    returned level draws them all.  Raises NotSeparableError if none does.
    """
    rng = np.random.Generator(np.random.PCG64(whole("seed", seed)))
    fresh_max = float(profile.sample_replica_means(
        "set", 0, replica_size, confidence_samples, rng).max())
    for s in range(1000, profile.endurance_max + 1, 1000):
        drawn = 0  # each chunk draws as many means as the level has so far, at least 1
        while drawn < confidence_samples:
            k = min(max(drawn, 1), confidence_samples - drawn)
            if profile.sample_replica_means("set", s, replica_size, k, rng).min() <= fresh_max:
                break
            drawn += k
        else:
            return s
    raise NotSeparableError(
        f"no stress level below {profile.endurance_max} pairs separates "
        f"replica size {replica_size}")
