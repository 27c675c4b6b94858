"""The four benchmark workloads, driven through rrsim's public API.

Each workload runs in rounds.  Round r's inputs come from (seed, r) only, so
the same seed always gives the same operations, and a run attempts whole
rounds.  Every operation's outputs are checked (see checks.py) outside the
timed region.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import os
import time
import warnings

import numpy as np

import rrsim
from rrsim import calibration, cli, harness

import checks
import tracing

N_STRESS = 15_000
PAYLOAD_BITS = 32

# Attacks and sweeps decode on purpose where cells barely separate, and the
# initial-stress sweep hides on used cells; both warnings are expected there.
warnings.simplefilter("ignore", rrsim.AmbiguousDecodeWarning)
warnings.simplefilter("ignore", rrsim.UsedCellsWarning)


def rng_for(*parts) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64([int(p) for p in parts]))


def random_bits(rng) -> tuple:
    """A random payload with both bit values: a constant payload has no two
    clusters for kmeans to split."""
    while True:
        bits = tuple(int(b) for b in rng.integers(0, 2, PAYLOAD_BITS))
        if 0 < sum(bits) < PAYLOAD_BITS:
            return bits


def to_hex(bits) -> str:
    return "0x%0*X" % (len(bits) // 4, int("".join(map(str, bits)), 2))


class Recorder:
    """Latencies of completed operations, failures, and untimed work."""

    def __init__(self, tracer=None):
        self.latencies = []
        self.failed = 0
        self.excluded_s = 0.0
        self.tracer = tracer

    @property
    def attempted(self) -> int:
        return len(self.latencies) + self.failed

    def _next(self):
        if self.tracer is not None:
            self.tracer.op += 1

    def done(self, seconds: float) -> None:
        self.latencies.append(seconds)
        self._next()

    def fail(self) -> None:
        self.failed += 1
        self._next()

    @contextlib.contextmanager
    def excluded(self):
        """Input generation and checks: left out of every timing."""
        started = time.perf_counter()
        try:
            yield
        finally:
            self.excluded_s += time.perf_counter() - started


class Workload:
    trace_rounds = 1

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.workdir = workdir
        self.profile = rrsim.default_profile()

    def warm_up(self) -> None:
        raise NotImplementedError

    def run_round(self, r: int, rec: Recorder) -> None:
        raise NotImplementedError

    def finish(self) -> None:
        """Checks over every round run."""

    def close(self) -> None:
        """Undo anything set up outside the workload's own objects."""


class Roundtrip(Workload):
    """Criterion-02 traffic: hide and kmeans-decode on fresh 16 K chips."""

    per_round = 64
    replica_size = 256

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.geometry = rrsim.ChipGeometry(address_count=16_384)
        self.key = rrsim.HidingKey(0, self.replica_size, 1, (0,), PAYLOAD_BITS,
                                   N_STRESS)
        self.addresses = np.arange(self.geometry.address_count)

    def inputs(self, r):
        rng = rng_for(self.seed, r)
        return [(random_bits(rng), int(rng.integers(2**31)))
                for _ in range(self.per_round)]

    def op(self, bits, chip_seed):
        chip = rrsim.new_chip(self.geometry, self.profile, seed=chip_seed)
        report = rrsim.encode(chip, self.key, rrsim.Payload(bits))
        return chip, report, rrsim.decode(chip, self.key)

    def warm_up(self):
        self.op((0, 1) * (PAYLOAD_BITS // 2), 0)

    def run_round(self, r, rec):
        with rec.excluded():
            inputs = self.inputs(r)
        for bits, chip_seed in inputs:
            started = time.perf_counter()
            chip, report, result = self.op(bits, chip_seed)
            rec.done(time.perf_counter() - started)
            with rec.excluded():
                checks.check_roundtrip(
                    bits, result.payload.bits, result.bit_means,
                    chip.wear_units(self.addresses), report.chip_busy_seconds,
                    N_STRESS, self.replica_size)


class CliFullchip(Workload):
    """`rrsim hide` + `rrsim retrieve` in-process on the full 1 M-cell chip."""

    per_round = 8
    trace_rounds = 2
    address_count = 1_048_576
    footprint = PAYLOAD_BITS * 256

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.key_path = os.path.join(workdir, "key.json")
        self.state_path = os.path.join(workdir, "chip.bin")

    def inputs(self, r):
        rng = rng_for(self.seed, r)
        return [(random_bits(rng), int(rng.integers(2**31)),
                 int(rng.integers(0, self.address_count - self.footprint + 1)),
                 i % 2 == 1)
                for i in range(self.per_round)]

    def op(self, bits, chip_seed, base, rows):
        layout = (["--replicas", "8", "--replica-size", "32"] if rows
                  else ["--replica-size", "256"])
        hide_out, retrieve_out = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(hide_out):
            hide_code = cli.main(
                ["hide", "--payload", to_hex(bits), "--key-out", self.key_path,
                 "--chip-out", self.state_path, "--n-stress", str(N_STRESS),
                 "--seed", str(chip_seed), "--base", str(base), *layout])
        with contextlib.redirect_stdout(retrieve_out):
            retrieve_code = cli.main(["retrieve", "--key", self.key_path,
                                      "--chip", self.state_path])
        return hide_code, retrieve_code, hide_out.getvalue(), retrieve_out.getvalue()

    def warm_up(self):
        self.op((0, 1) * (PAYLOAD_BITS // 2), 0, 0, False)

    def run_round(self, r, rec):
        with rec.excluded():
            inputs = self.inputs(r)
        for bits, chip_seed, base, rows in inputs:
            started = time.perf_counter()
            outcome = self.op(bits, chip_seed, base, rows)
            rec.done(time.perf_counter() - started)
            with rec.excluded():
                with open(self.key_path, encoding="utf-8") as fh:
                    key = json.load(fh)
                with open(self.state_path, "rb") as fh:
                    state = fh.read()
                checks.check_cli(bits, *outcome, key, state, self.address_count,
                                 N_STRESS)


class Experiments(Workload):
    """The harness experiments at the CLI defaults; one op per report."""

    trace_rounds = 4
    geometry = rrsim.ChipGeometry(address_count=65_536)
    n_list = (15_000, 30_000, 45_000)
    post_grid = range(0, 260_001, 10_000)
    sizes = (32, 64, 96, 128, 160, 192, 224, 256)
    initial_grid = range(0, 60_001, 10_000)
    attacks = 12
    cases = ("case1", "case2", "case3")

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.tolerances = {}
        self.attack_distances = []
        self.attack_bers = []
        # Sweeps return all their reports at once; the time each report
        # completes is taken where the harness scores it.
        self._sweep = None
        scored = harness.separation_report

        def mark(*args, **kwargs):
            report = scored(*args, **kwargs)
            if self._sweep is not None:
                self._sweep.append(time.perf_counter())
            return report

        self._undo = tracing.replace_everywhere(scored, mark)

    def close(self):
        tracing.restore(self._undo)

    def factory(self, first_seed):
        seeds = itertools.count(first_seed)
        return lambda: rrsim.new_chip(self.geometry, self.profile, next(seeds))

    def sweep(self, rec, sweep_id, run):
        """Run one sweep, write its CSV, and record one op per report."""
        self._sweep = marks = []
        started = time.perf_counter()
        try:
            reports = run()
            harness.write_reports_csv(os.path.join(self.workdir, sweep_id + ".csv"),
                                      sweep_id, reports, seed=self.seed)
        finally:
            self._sweep = None
        ended = time.perf_counter()
        if len(marks) == len(reports):
            # The CSV write is charged to the sweep's last report.
            for before, after in zip([started] + marks[:-1], marks[:-1] + [ended]):
                rec.done(after - before)
        else:
            # Reports scored without harness.separation_report share the
            # sweep's time evenly.
            for _ in reports:
                rec.done((ended - started) / len(reports))
        return reports

    def attack(self, i, bits, chip_seed, key_seed):
        chip = rrsim.new_chip(self.geometry, self.profile, chip_seed)
        payload = rrsim.Payload(bits)
        if i % 2 == 0:
            key = rrsim.HidingKey(256, 256, 1, (0,), PAYLOAD_BITS, N_STRESS)
            rrsim.encode(chip, key, payload)
            report = harness.attack_wrong_base(chip, key, payload,
                                               self.cases[i // 2 % 3])
        else:
            key = rrsim.generate_key(PAYLOAD_BITS, 256, 8, 16, N_STRESS,
                                     rng_seed=key_seed, geometry=self.geometry)
            rrsim.encode(chip, key, payload)
            report = harness.attack_wrong_key(chip, key, payload,
                                              rng_seed=key_seed)
        return chip, key, report

    def honest(self, chip, key, bits):
        result = rrsim.decode(chip.clone(), key)
        return harness.separation_report(result.bit_means, bits, "set", N_STRESS)

    def warm_up(self):
        bits = (0, 1) * (PAYLOAD_BITS // 2)
        chip, key, _ = self.attack(0, bits, 0, 0)
        self.honest(chip, key, bits)

    def run_round(self, r, rec):
        with rec.excluded():
            rng = rng_for(self.seed, r)
            chip_seeds = [int(s) for s in rng.integers(0, 2**31, 5)]
            replica_seed = int(rng.integers(2**31))
            attack_inputs = [(random_bits(rng), int(rng.integers(2**31)),
                              int(rng.integers(2**31))) for _ in range(self.attacks)]
        for op, first in zip(("set", "reset"), chip_seeds):
            reports = self.sweep(rec, f"post-hiding-{op}", lambda: harness.sweep_post_hiding(
                self.factory(first), self.n_list, self.post_grid, op=op))
            with rec.excluded():
                rows = [(x.stress_count, x.post_stress, x.bit_error_count)
                        for x in reports]
                checks.check_post_hiding(rows, op)
                for n in self.n_list:
                    self.tolerances.setdefault((op, n), []).append(
                        checks.zero_error_tolerance(
                            [(post, e) for m, post, e in rows if m == n]))
        replica_rows = {}
        for op, first in zip(("set", "reset"), chip_seeds[2:]):
            reports = self.sweep(rec, f"replica-size-{op}", lambda: harness.sweep_replica_size(
                self.factory(first), self.sizes, op=op, stress_count=N_STRESS,
                rng_seed=replica_seed))
            replica_rows[op] = [(x.replica_size, x.min_distance) for x in reports]
        with rec.excluded():
            checks.check_replica_order(replica_rows["set"], replica_rows["reset"])
        reports = self.sweep(rec, "initial-stress-set", lambda: harness.sweep_initial_stress(
            self.factory(chip_seeds[4]), self.initial_grid, N_STRESS, ops=("set",)))
        with rec.excluded():
            checks.check_post_hiding([(x.stress_count, x.post_stress, x.bit_error_count)
                                      for x in reports], "set")
        for i, (bits, chip_seed, key_seed) in enumerate(attack_inputs):
            started = time.perf_counter()
            chip, key, report = self.attack(i, bits, chip_seed, key_seed)
            rec.done(time.perf_counter() - started)
            self.attack_distances.append(report.min_distance)
            self.attack_bers.append(report.decode_ber)
            started = time.perf_counter()
            report = self.honest(chip, key, bits)
            rec.done(time.perf_counter() - started)
            with rec.excluded():
                checks.check_honest(report.min_distance)

    def finish(self):
        checks.check_tolerance_order(self.tolerances)
        checks.check_attacks(self.attack_distances, self.attack_bers)


class Calibrate(Workload):
    """Calibrate sacrificial parts at the CLI defaults, one part per op.

    The parts are the chip seeds 0-39 in every round, in an order drawn from
    the seed.  At these defaults 15 of them raise FitError (reset-mean noise
    beats the step between high-wear levels); they count as failed.
    """

    chip_seeds = range(40)
    addresses = 2048
    max_pairs = 1_000_000
    interval = 50_000
    replica_size = 256
    confidence_samples = 2000

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.geometry = rrsim.ChipGeometry(address_count=self.addresses)

    def op(self, chip_seed, confidence_seed):
        chip = rrsim.new_chip(self.geometry, self.profile, chip_seed)
        records = calibration.characterize(chip, np.arange(self.addresses),
                                           self.max_pairs, self.interval)
        try:
            fitted = calibration.fit_profile(records, template=self.profile)
        except rrsim.FitError:
            return records, None, None
        threshold = calibration.min_stress_for_separation(
            fitted, self.replica_size, confidence_samples=self.confidence_samples,
            seed=confidence_seed)
        return records, fitted, threshold

    def warm_up(self):
        self.op(0, 0)

    def run_round(self, r, rec):
        with rec.excluded():
            rng = rng_for(self.seed, r)
            order = rng.permutation(len(self.chip_seeds))
            confidence_seeds = rng.integers(0, 2**31, len(order))
        for index, confidence_seed in zip(order, confidence_seeds):
            started = time.perf_counter()
            records, fitted, threshold = self.op(self.chip_seeds[index],
                                                 int(confidence_seed))
            elapsed = time.perf_counter() - started
            if fitted is None:
                rec.fail()
            else:
                rec.done(elapsed)
            with rec.excluded():
                expect_failure = checks.fit_should_fail(
                    [x.set_mean for x in records], [x.reset_mean for x in records])
                checks.require(
                    expect_failure == (fitted is None),
                    f"part {self.chip_seeds[index]}: FitError raised "
                    f"{fitted is None}, means say {expect_failure}")
                if fitted is not None:
                    checks.check_fit(fitted.set_curve.p, fitted.reset_curve.p,
                                     threshold)


WORKLOADS = {
    "roundtrip": Roundtrip,
    "cli-fullchip": CliFullchip,
    "experiments": Experiments,
    "calibrate": Calibrate,
}
