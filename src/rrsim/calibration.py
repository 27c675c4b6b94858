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

from .chip import ChipModel
from .errors import (ConfigurationError, FitError, NotSeparableError,
                     TruncatedRunWarning, WearOutError)
from .profile import CalibrationProfile, WearCurve, default_profile

# Expected maximum of n i.i.d. standard normals, for turning min/max
# envelopes of replica means back into a per-sample sigma estimate.
_EXPECTED_MAX = {
    2: 0.5642, 3: 0.8463, 4: 1.0294, 5: 1.1630, 6: 1.2672, 7: 1.3522,
    8: 1.4236, 10: 1.5388, 12: 1.6292, 16: 1.7660, 24: 1.9467,
    32: 2.0697, 48: 2.2249, 64: 2.3384,
}


def _expected_range(n: int) -> float:
    keys = sorted(_EXPECTED_MAX)
    if n <= keys[0]:
        return 2 * _EXPECTED_MAX[keys[0]]
    if n >= keys[-1]:
        return 2 * _EXPECTED_MAX[keys[-1]]
    lo = max(k for k in keys if k <= n)
    hi = min(k for k in keys if k >= n)
    if lo == hi:
        return 2 * _EXPECTED_MAX[lo]
    w = (n - lo) / (hi - lo)
    return 2 * ((1 - w) * _EXPECTED_MAX[lo] + w * _EXPECTED_MAX[hi])


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
    addrs = np.asarray(addresses, dtype=np.int64)
    if len(addrs) == 0:
        raise ConfigurationError("need at least one address to characterize")
    if max_pairs < 0 or max_pairs > chip.profile.endurance_max:
        raise ConfigurationError("max_pairs must lie within the endurance limit")
    if max_pairs > 0 and sample_interval <= 0:
        raise ConfigurationError("sample_interval must be positive")

    bin_size = min(chip.geometry.buffer_size, len(addrs))
    records = []
    level = 0
    while True:
        try:
            trace = chip.measure_trace(addrs)
        except WearOutError:
            warnings.warn(
                f"characterization stopped at {level} pairs: cells reached "
                "the endurance limit", TruncatedRunWarning)
            break
        records.append(_record_from_trace(level, trace, bin_size))
        if level >= max_pairs:
            break
        nxt = min(level + sample_interval, max_pairs)
        # The measurement above already added one pair.
        bulk = nxt - level - 1
        if bulk > 0:
            try:
                chip.apply_stress_pairs(addrs, bulk)
            except WearOutError:
                warnings.warn(
                    f"characterization stopped after {level} pairs: cells "
                    "reached the endurance limit", TruncatedRunWarning)
                break
        level = nxt
    return records


def _record_from_trace(level, trace, bin_size) -> CharacterizationRecord:
    n_bins = len(trace) // bin_size
    if n_bins == 0:
        n_bins, bin_size = 1, len(trace)
    sets = trace.set_times[:n_bins * bin_size].reshape(n_bins, bin_size).mean(axis=1)
    resets = trace.reset_times[:n_bins * bin_size].reshape(n_bins, bin_size).mean(axis=1)
    return CharacterizationRecord(
        stress_level=level,
        set_min=float(sets.min()), set_mean=float(sets.mean()),
        set_max=float(sets.max()),
        reset_min=float(resets.min()), reset_mean=float(resets.mean()),
        reset_max=float(resets.max()),
        replica_size=bin_size, group_count=n_bins,
    )


def synthesize_records(profile: CalibrationProfile, levels,
                       replica_size: int = 256, group_count: int = 8,
                       seed: int = 0) -> list[CharacterizationRecord]:
    """Draw characterization records straight from a profile (no chip).

    Models a nominal chip (unit speed factor) measuring `group_count`
    replica bins at each wear level; used as the fitting oracle.
    """
    rng = np.random.Generator(np.random.PCG64(seed))
    records = []
    for s in levels:
        stats = {}
        for op in ("set", "reset"):
            sig = profile.sigma(op)
            z = rng.standard_normal((group_count, replica_size))
            means = profile.mean_time(op, s) * np.exp(sig * z - 0.5 * sig * sig).mean(axis=1)
            stats[op] = (float(means.min()), float(means.mean()), float(means.max()))
        records.append(CharacterizationRecord(
            stress_level=int(s),
            set_min=stats["set"][0], set_mean=stats["set"][1], set_max=stats["set"][2],
            reset_min=stats["reset"][0], reset_mean=stats["reset"][1],
            reset_max=stats["reset"][2],
            replica_size=replica_size, group_count=group_count,
        ))
    return records


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
                              confidence_samples: int = 10_000,
                              seed: int = 0, grid_step: int = 1000) -> int:
    """Smallest grid stress whose replica means clear the fresh envelope.

    Walks the stress grid and returns the first level where the empirical
    minimum of `confidence_samples` stressed replica means exceeds the
    empirical maximum of as many fresh ones (set curve, chips drawn per
    sample).  Raises NotSeparableError if no level under the endurance
    limit qualifies.
    """
    if replica_size < 1:
        raise ConfigurationError("replica_size must be >= 1")
    if confidence_samples < 1:
        raise ConfigurationError("confidence_samples must be >= 1")
    rng = np.random.Generator(np.random.PCG64(seed))
    fresh_max = float(profile.sample_replica_means(
        "set", 0, replica_size, confidence_samples, rng).max())
    s = grid_step
    while s <= profile.endurance_max:
        stressed = profile.sample_replica_means(
            "set", s, replica_size, confidence_samples, rng)
        if float(stressed.min()) > fresh_max:
            return s
        s += grid_step
    raise NotSeparableError(
        f"no stress level below {profile.endurance_max} pairs separates "
        f"replica size {replica_size}")
