"""Spans around rrsim's layer boundaries, recorded from outside the package.

`Tracer.install()` wraps public callables and `ChipModel`,
`CalibrationProfile` and `AddressPlan` methods.  A wrapped function is
replaced in every rrsim namespace that holds it (`rrsim.harness.decode`,
`rrsim.cli.encode`, ...), so calls made inside the package are seen too.
Each span records name, start, end, parent and operation id; spans stay in
memory until `write()`.  Counters (draws, calls, cells, bytes, wear units,
simulated seconds) are taken at the same boundaries.  Work done only to
take a counter runs on a paused clock, so span times exclude it.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import defaultdict
from fractions import Fraction

import numpy as np

from rrsim import calibration, chip, cli, codec, harness, profile

# (span name, owner, attribute).  Owners that are classes get their method
# wrapped on the class; modules get the function replaced everywhere.
FUNCTIONS = [
    ("profile.load", profile, "default_profile"),
    ("profile.load", profile, "load_profile"),
    ("chip.new_chip", chip, "new_chip"),
    ("chip.load_state", chip, "load_state"),
    ("codec.kmeans2", codec, "kmeans2"),
    ("codec.encode", codec, "encode"),
    ("codec.decode", codec, "decode"),
    ("codec.generate_key", codec, "generate_key"),
    ("codec.key_io", codec, "save_key"),
    ("codec.key_io", codec, "load_key"),
    ("harness.simulate_usage", harness, "simulate_usage"),
    ("harness.separation_report", harness, "separation_report"),
    ("harness.min_threshold_errors", harness, "min_threshold_errors"),
    ("harness.write_reports_csv", harness, "write_reports_csv"),
    ("calibration.characterize", calibration, "characterize"),
    ("calibration.fit_profile", calibration, "fit_profile"),
    ("calibration.min_stress", calibration, "min_stress_for_separation"),
    ("cli.main", cli, "main"),
]
METHODS = [
    ("profile.sample_times", profile.CalibrationProfile, "sample_times"),
    ("profile.sample_replica_means", profile.CalibrationProfile,
     "sample_replica_means"),
    ("chip.erase", chip.ChipModel, "buffered_write"),
    ("chip.erase", chip.ChipModel, "timed_write"),
    ("chip.apply_stress_pairs", chip.ChipModel, "apply_stress_pairs"),
    ("chip.measure_trace", chip.ChipModel, "measure_trace"),
    ("chip.save_state", chip.ChipModel, "save_state"),
    ("chip.clone", chip.ChipModel, "clone"),
    ("chip.apply_transitions", chip.ChipModel, "apply_transitions"),
    ("codec.plan", codec.AddressPlan, "__init__"),
]
# Chip methods that advance the simulated clock or add wear, with the
# addresses each one touches, from its bound arguments.
CHIP_MUTATORS = {
    "buffered_write": lambda a: np.arange(a["base_address"],
                                          a["base_address"] + len(a["values"])),
    "timed_write": lambda a: np.array([a["address"]]),
    "apply_stress_pairs": lambda a: np.unique(np.asarray(a["addresses"], dtype=np.int64)),
    "apply_transitions": lambda a: np.unique(np.asarray(a["addresses"], dtype=np.int64)),
    "measure_trace": lambda a: np.unique(np.asarray(a["addresses"], dtype=np.int64)),
}

# Per-layer metrics: (name, span, value), value one of "s", "self_s",
# "calls" or a counter name.
PER_LAYER = [
    ("profile.sample_times.s", "profile.sample_times", "s"),
    ("profile.sample_times.draws", None, "draws"),
    ("profile.sample_replica_means.s", "profile.sample_replica_means", "s"),
    ("profile.load.s", "profile.load", "s"),
    ("chip.erase.s", "chip.erase", "s"),
    ("chip.erase.calls", "chip.erase", "calls"),
    ("chip.apply_stress_pairs.s", "chip.apply_stress_pairs", "s"),
    ("chip.measure_trace.self_s", "chip.measure_trace", "self_s"),
    ("chip.cells_measured", None, "cells_measured"),
    ("chip.new_chip.s", "chip.new_chip", "s"),
    ("chip.save_state.s", "chip.save_state", "s"),
    ("chip.load_state.s", "chip.load_state", "s"),
    ("chip.state_bytes", None, "state_bytes"),
    ("chip.clone.s", "chip.clone", "s"),
    ("chip.apply_transitions.s", "chip.apply_transitions", "s"),
    ("chip.sim_s", None, "sim_s"),
    ("chip.wear_units", None, "wear_units"),
    ("codec.plan.s", "codec.plan", "s"),
    ("codec.plan.calls", "codec.plan", "calls"),
    ("codec.kmeans2.s", "codec.kmeans2", "s"),
    ("codec.encode.self_s", "codec.encode", "self_s"),
    ("codec.decode.self_s", "codec.decode", "self_s"),
    ("codec.generate_key.s", "codec.generate_key", "s"),
    ("codec.key_io.s", "codec.key_io", "s"),
    ("harness.simulate_usage.self_s", "harness.simulate_usage", "self_s"),
    ("harness.separation_report.self_s", "harness.separation_report", "self_s"),
    ("harness.min_threshold_errors.s", "harness.min_threshold_errors", "s"),
    ("harness.write_reports_csv.s", "harness.write_reports_csv", "s"),
    ("calibration.characterize.self_s", "calibration.characterize", "self_s"),
    ("calibration.fit_profile.s", "calibration.fit_profile", "s"),
    ("calibration.min_stress.self_s", "calibration.min_stress", "self_s"),
    ("cli.main.self_s", "cli.main", "self_s"),
    ("cli.main.calls", "cli.main", "calls"),
]
UNITS = {"s": "s/op", "self_s": "s/op", "calls": "1/op", "draws": "1/op",
         "cells_measured": "1/op", "state_bytes": "B/op", "sim_s": "s/op",
         "wear_units": "1/op"}


def rrsim_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "rrsim" or name.startswith("rrsim."))]


def replace_everywhere(original, replacement):
    """Swap `original` for `replacement` in every rrsim namespace; undo list."""
    undo = []
    for module in rrsim_modules():
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)
                undo.append((module, attr, original))
    return undo


def restore(undo) -> None:
    for owner, attr, original in reversed(undo):
        setattr(owner, attr, original)


class Tracer:
    """In-memory spans and counters for one traced pass or more."""

    def __init__(self):
        self.spans = []          # [name, start, end, parent index, op id]
        self.stack = []
        self.op = 0
        self.counts = defaultdict(int)
        self.sim_s = Fraction(0)
        self._paused = 0.0
        self._chip_depth = 0
        self._undo = []

    def now(self) -> float:
        return time.perf_counter() - self._paused

    def _pause(self, started: float) -> None:
        self._paused += time.perf_counter() - started

    # -- wrapping -----------------------------------------------------------

    def _span(self, name, fn, after=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self.stack[-1] if self.stack else -1
            index = len(self.spans)
            span = [name, self.now(), None, parent, self.op]
            self.spans.append(span)
            self.stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = self.now()
                self.stack.pop()
            if after is not None:
                started = time.perf_counter()
                after(args, kwargs, result)
                self._pause(started)
            return result
        return traced

    def _chip_mutator(self, fn, touched):
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def counted(model, *args, **kwargs):
            if self._chip_depth:
                return fn(model, *args, **kwargs)
            started = time.perf_counter()
            bound = signature.bind(model, *args, **kwargs).arguments
            addrs = touched(bound)
            wear0 = int(model.wear_units(addrs).sum()) if len(addrs) else 0
            clock0 = model.simulated_clock
            self._pause(started)
            self._chip_depth += 1
            try:
                return fn(model, *args, **kwargs)
            finally:
                self._chip_depth -= 1
                started = time.perf_counter()
                if len(addrs):
                    self.counts["wear_units"] += int(model.wear_units(addrs).sum()) - wear0
                self.sim_s += Fraction(model.simulated_clock) - Fraction(clock0)
                if fn.__name__ == "measure_trace":
                    self.counts["cells_measured"] += len(np.asarray(bound["addresses"]))
                self._pause(started)
        return counted

    def _count(self, key, measure):
        def after(args, kwargs, result):
            self.counts[key] += measure(args, kwargs, result)
        return after

    def install(self) -> None:
        after = {
            "sample_times": self._count("draws", lambda a, k, r: int(np.size(r))),
            "save_state": self._count("state_bytes", lambda a, k, r: len(r)),
            "load_state": self._count(
                "state_bytes", lambda a, k, r: len(a[0] if a else k["data"])),
        }
        for name, module, attr in FUNCTIONS:
            fn = getattr(module, attr)
            self._undo += replace_everywhere(
                fn, self._span(name, fn, after.get(attr)))
        for name, cls, attr in METHODS:
            fn = vars(cls)[attr]
            wrapped = self._span(name, fn, after.get(attr))
            if attr in CHIP_MUTATORS:
                wrapped = self._chip_mutator(wrapped, CHIP_MUTATORS[attr])
            setattr(cls, attr, wrapped)
            self._undo.append((cls, attr, fn))

    def uninstall(self) -> None:
        restore(self._undo)
        self._undo = []

    # -- results ------------------------------------------------------------

    def totals(self):
        """{span name: (seconds, self seconds, calls)} over all spans."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = defaultdict(lambda: [0.0, 0.0, 0])
        for i, (name, start, end, _, _) in enumerate(self.spans):
            row = out[name]
            row[0] += end - start
            row[1] += end - start - child[i]
            row[2] += 1
        return out

    def metrics(self, ops: int, overhead_s: float) -> dict:
        """Every per-layer metric, per operation, plus the tracing overhead."""
        totals = self.totals()
        kinds = {"s": 0, "self_s": 1, "calls": 2}
        out = {}
        for name, span, kind in PER_LAYER:
            if kind in kinds:
                value = totals[span][kinds[kind]] if span in totals else 0
            elif kind == "sim_s":
                value = self.sim_s
            else:
                value = self.counts[kind]
            out[name] = {"value": float(Fraction(value) / ops),
                         "unit": UNITS[kind]}
        out["trace.overhead_s"] = {"value": overhead_s, "unit": "s"}
        return out

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("name,start_s,end_s,parent,op\n")
            for name, start, end, parent, op in self.spans:
                fh.write(f"{name},{start!r},{end!r},{parent},{op}\n")
