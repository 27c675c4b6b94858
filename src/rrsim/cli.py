"""Command-line surface: characterize, hide, retrieve, attack, sweep.

Offline and non-interactive.  Every command is reproducible: the same
inputs and seed produce byte-identical output files, and the seed is
recorded in everything the tool writes.  Simulated chip time is always
labeled as such; it is silicon time, not wall time.

Exit codes: 0 success, 2 usage error (an unwritable output path
included), 3 format error, 4 ambiguous decode, 5 wear-out.
"""

from __future__ import annotations

import argparse
import csv
import functools
import os
import sys
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import harness
from .calibration import CharacterizationRecord, characterize, fit_profile
from .chip import ChipGeometry, load_state, new_chip
from .codec import Payload, decode, encode, generate_key, load_key, save_key
from .errors import ConfigurationError, FormatError, RRSimError, WearOutError
from .profile import default_profile, load_profile, save_profile

PROFILE_ENV = "RRSIM_PROFILE"

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_FORMAT = 3
EXIT_AMBIGUOUS = 4
EXIT_WEAR_OUT = 5


@dataclass
class RunConfig:
    """Resolved common options shared by all commands."""

    profile_path: str | None
    chip_path: str | None
    key_path: str | None
    seed: int
    temperature: float | None
    out_dir: str

    def load_profile(self):
        path = self.profile_path or os.environ.get(PROFILE_ENV)
        if path:
            return load_profile(path)
        return default_profile()

    def resolve(self, path: str) -> str:
        if os.path.isabs(path) or not self.out_dir:
            return path
        return os.path.join(self.out_dir, path)


def _run_config(args) -> RunConfig:
    cfg = RunConfig(
        profile_path=getattr(args, "profile", None),
        chip_path=getattr(args, "chip", None),
        key_path=getattr(args, "key", None),
        seed=getattr(args, "seed", 0),
        temperature=getattr(args, "temperature", None),
        out_dir=getattr(args, "out_dir", ""),
    )
    if cfg.out_dir:
        os.makedirs(cfg.out_dir, exist_ok=True)
    return cfg


def _load_chip(cfg: RunConfig, profile):
    if not cfg.chip_path:
        raise ConfigurationError("this command needs --chip")
    try:
        with open(cfg.chip_path, "rb") as fh:
            # NumPy asks the kernel for huge pages on buffers of 4 MB and
            # up; a bytes object of that size faults in 4 KiB at a time.
            chip = load_state(np.fromfile(fh, dtype=np.uint8), profile)
    except OSError as exc:
        raise FormatError(f"cannot read chip state: {exc}") from exc
    if cfg.temperature is not None and cfg.temperature != chip.temperature:
        chip.set_temperature(cfg.temperature)
    return chip


def _grid(text: str) -> list[int]:
    """Parse 'start:stop:step' (stop inclusive) or a comma list."""
    try:
        if ":" in text:
            parts = text.split(":")
            if len(parts) != 3:
                raise ConfigurationError("grid must be start:stop:step")
            start, stop, step = (int(p) for p in parts)
            if step <= 0 or stop < start:
                raise ConfigurationError(
                    "grid must be ascending with positive step")
            return list(range(start, stop + 1, step))
        return [int(p) for p in text.split(",") if p]
    except ValueError as exc:
        raise ConfigurationError(f"bad grid {text!r}: {exc}") from exc


# ---------------------------------------------------------------------------
# characterize
# ---------------------------------------------------------------------------

RECORD_COLUMNS = ("stress_level", "set_min", "set_mean", "set_max",
                  "reset_min", "reset_mean", "reset_max",
                  "replica_size", "group_count")


def write_records_csv(path, records, seed: int) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(f"# rrsim characterize seed={seed}\n")
        writer = csv.writer(fh)
        writer.writerow(RECORD_COLUMNS)
        for r in records:
            writer.writerow([r.stress_level, repr(r.set_min), repr(r.set_mean),
                             repr(r.set_max), repr(r.reset_min),
                             repr(r.reset_mean), repr(r.reset_max),
                             r.replica_size, r.group_count])


def read_records_csv(path) -> list[CharacterizationRecord]:
    records = []
    try:
        with open(path, "r", encoding="utf-8") as fh:
            rows = [ln for ln in fh if not ln.startswith("#")]
    except OSError as exc:
        raise FormatError(f"cannot read records: {exc}") from exc
    reader = csv.DictReader(rows)
    if reader.fieldnames is None or tuple(reader.fieldnames) != RECORD_COLUMNS:
        raise FormatError("not a characterization records CSV")
    for row in reader:
        records.append(CharacterizationRecord(
            stress_level=int(row["stress_level"]),
            set_min=float(row["set_min"]), set_mean=float(row["set_mean"]),
            set_max=float(row["set_max"]), reset_min=float(row["reset_min"]),
            reset_mean=float(row["reset_mean"]), reset_max=float(row["reset_max"]),
            replica_size=int(row["replica_size"]),
            group_count=int(row["group_count"])))
    return records


def cmd_characterize(args) -> int:
    cfg = _run_config(args)
    profile = cfg.load_profile()
    geometry = ChipGeometry(address_count=max(args.addresses, 256))
    chip = new_chip(geometry, profile, cfg.seed)
    if cfg.temperature is not None:
        chip.set_temperature(cfg.temperature)
    addrs = np.arange(args.addresses)
    records = characterize(chip, addrs, args.max_pairs, args.interval)
    write_records_csv(cfg.resolve(args.out), records, cfg.seed)
    print(f"wrote {len(records)} records to {cfg.resolve(args.out)}")
    if args.profile_out:
        fitted = fit_profile(records, template=profile)
        save_profile(fitted, cfg.resolve(args.profile_out))
        print(f"fitted profile written to {cfg.resolve(args.profile_out)}")
    print(f"seed: {cfg.seed}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# hide / retrieve
# ---------------------------------------------------------------------------

def cmd_hide(args) -> int:
    cfg = _run_config(args)
    profile = cfg.load_profile()
    if not args.payload:
        raise ConfigurationError("payload must not be empty")
    payload = Payload.from_hex(args.payload, length=args.payload_bits)
    if cfg.chip_path:
        chip = _load_chip(cfg, profile)
    else:
        geometry = ChipGeometry(address_count=args.address_count)
        chip = new_chip(geometry, profile, cfg.seed)
        if cfg.temperature is not None:
            chip.set_temperature(cfg.temperature)
    key = generate_key(len(payload), args.base, args.replica_size,
                       args.replicas, args.n_stress, cfg.seed,
                       geometry=chip.geometry)
    report = encode(chip, key, payload)
    save_key(key, cfg.resolve(args.key_out))
    with open(cfg.resolve(args.chip_out), "wb") as fh:
        fh.write(chip.save_state())
    pair_time = Fraction(repr(profile.pair_time))
    model_time = harness.encode_time(key.stress_count, len(payload), pair_time)
    cost = harness.endurance_cost(key.stress_count, profile.endurance_rated)
    rate = Fraction(len(payload) * 60) / model_time if model_time else Fraction(0)
    print(f"hidden {len(payload)} bits at stress count {key.stress_count}")
    print(f"simulated encode time: {float(model_time):g} s "
          f"({float(rate):g} bit/min)")
    print(f"chip busy time: {report.chip_busy_seconds:g} s")
    print(f"endurance cost: {float(100 * cost):g}% of rated pairs")
    print(f"key: {cfg.resolve(args.key_out)}  chip: {cfg.resolve(args.chip_out)}")
    print(f"seed: {cfg.seed}")
    return EXIT_OK


def cmd_retrieve(args) -> int:
    cfg = _run_config(args)
    profile = cfg.load_profile()
    if not cfg.key_path:
        raise ConfigurationError("this command needs --key")
    key = load_key(cfg.key_path)
    chip = _load_chip(cfg, profile)

    method = args.method
    threshold = None
    reference = None
    if method.startswith("threshold:"):
        try:
            threshold = float(method.split(":", 1)[1])
        except ValueError as exc:
            raise ConfigurationError(f"bad threshold in {method!r}") from exc
        method = "threshold"
    elif method == "reference":
        base = args.reference_base
        if base is None:
            base = key.base_address + key.footprint
        reference = np.arange(base, base + args.reference_count)
    elif method != "kmeans":
        raise ConfigurationError(
            "method must be kmeans, threshold:VALUE or reference")

    result = decode(chip, key, method=method, threshold=threshold,
                    reference_addresses=reference, op=args.op)
    if args.chip_out:
        with open(cfg.resolve(args.chip_out), "wb") as fh:
            fh.write(chip.save_state())
    print(f"payload: {result.to_hex()}")
    print(f"op: {result.op}  method: {args.method}")
    print(f"threshold: {result.threshold_used:.6e} s  "
          f"confidence: {result.confidence:.6e} s")
    for i, (bit, mean) in enumerate(zip(result.payload.bits, result.bit_means)):
        margin = mean - result.threshold_used
        print(f"bit {i:3d}: {bit}  mean={mean:.6e} s  margin={margin:+.6e} s")
    print(f"seed: {cfg.seed}")
    if result.ambiguous:
        print("warning: cluster separation within noise floor; "
              "decode is ambiguous", file=sys.stderr)
        return EXIT_AMBIGUOUS
    return EXIT_OK


# ---------------------------------------------------------------------------
# attack / sweep
# ---------------------------------------------------------------------------

def cmd_attack(args) -> int:
    cfg = _run_config(args)
    profile = cfg.load_profile()
    if not cfg.key_path:
        raise ConfigurationError("this command needs --key")
    key = load_key(cfg.key_path)
    chip = _load_chip(cfg, profile)
    truth = Payload.from_hex(args.payload, length=key.payload_length)
    if args.kind == "wrong-base":
        report = harness.attack_wrong_base(chip, key, truth,
                                           offset_mode=args.case, op=args.op)
        sweep_id = f"attack-wrong-base-{args.case}"
    elif args.kind == "wrong-key":
        report = harness.attack_wrong_key(chip, key, truth,
                                          rng_seed=cfg.seed, op=args.op)
        sweep_id = "attack-wrong-key"
    else:
        raise ConfigurationError("attack kind must be wrong-base or wrong-key")
    harness.write_reports_csv(cfg.resolve(args.out), sweep_id, [report],
                              seed=cfg.seed)
    sep = "separable" if report.separable else "no clean separation"
    print(f"{sweep_id}: min distance {report.min_distance:.3e} s ({sep}), "
          f"best-threshold BER {report.ber:.3f}")
    print(f"report: {cfg.resolve(args.out)}")
    print(f"seed: {cfg.seed}")
    return EXIT_OK


def cmd_sweep(args) -> int:
    cfg = _run_config(args)
    profile = cfg.load_profile()
    geometry = ChipGeometry(address_count=args.address_count)
    seeds = iter(range(cfg.seed, cfg.seed + 1_000_000))

    def factory():
        return new_chip(geometry, profile, next(seeds))

    if args.kind == "post-hiding":
        reports = harness.sweep_post_hiding(
            factory, _grid(args.n_list), _grid(args.grid), op=args.op)
        sweep_id = f"post-hiding-{args.op}"
    elif args.kind == "replica-size":
        reports = harness.sweep_replica_size(
            factory, _grid(args.sizes), op=args.op,
            stress_count=args.n_stress, rng_seed=cfg.seed)
        sweep_id = f"replica-size-{args.op}"
    elif args.kind == "initial-stress":
        reports = harness.sweep_initial_stress(
            factory, _grid(args.grid), args.n_stress, ops=(args.op,))
        sweep_id = f"initial-stress-{args.op}"
    else:
        raise ConfigurationError(
            "sweep kind must be post-hiding, replica-size or initial-stress")
    harness.write_reports_csv(cfg.resolve(args.out), sweep_id, reports,
                              seed=cfg.seed)
    print(f"{sweep_id}: {len(reports)} grid points -> {cfg.resolve(args.out)}")
    if args.kind == "post-hiding":
        for n in _grid(args.n_list):
            tol = harness.stress_tolerance(reports, n)
            print(f"  N={n}: zero-error tolerance {tol}")
    print(f"seed: {cfg.seed}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def _add_common(p, chip=False, key=False):
    p.add_argument("--profile", help="calibration profile JSON "
                   f"(default: ${PROFILE_ENV} or the shipped profile)")
    p.add_argument("--seed", type=int, default=0,
                   help="RNG seed recorded in all outputs")
    p.add_argument("--temperature", type=float, default=None,
                   help="operating temperature in Celsius (default: keep "
                        "the chip state's, 25 C for new chips)")
    p.add_argument("--out-dir", default="", help="directory for output files")
    if chip:
        p.add_argument("--chip", help="chip-state file to operate on")
    if key:
        p.add_argument("--key", help="hiding-key JSON file")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rrsim",
        description="Hide and recover bit-strings in simulated resistive "
                    "memory wear timing.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("characterize", help="wear a sample region and fit a profile")
    _add_common(p)
    p.add_argument("--addresses", type=int, default=2048)
    p.add_argument("--max-pairs", type=int, default=1_000_000)
    p.add_argument("--interval", type=int, default=50_000)
    p.add_argument("--out", required=True, help="records CSV path")
    p.add_argument("--profile-out", help="fitted profile JSON path")
    p.set_defaults(func=cmd_characterize)

    p = sub.add_parser("hide", help="imprint a payload into cell wear")
    _add_common(p, chip=True)
    p.add_argument("--payload", required=True, help="hex payload, e.g. 0xECE3038B")
    p.add_argument("--payload-bits", type=int, help="explicit payload bit length")
    p.add_argument("--key-out", required=True)
    p.add_argument("--chip-out", required=True)
    p.add_argument("--n-stress", type=int, default=15_000)
    p.add_argument("--replicas", type=int, default=1, help="replica row count")
    p.add_argument("--replica-size", type=int, default=256)
    p.add_argument("--base", type=int, default=0)
    p.add_argument("--address-count", type=int, default=1_048_576)
    p.set_defaults(func=cmd_hide)

    p = sub.add_parser("retrieve", help="recover a payload from timing")
    _add_common(p, chip=True, key=True)
    p.add_argument("--method", default="kmeans",
                   help="kmeans | threshold:VALUE | reference")
    p.add_argument("--op", choices=("set", "reset"), default="set")
    p.add_argument("--reference-base", type=int,
                   help="first spare fresh cell for the reference method")
    p.add_argument("--reference-count", type=int, default=256)
    p.add_argument("--chip-out", help="persist post-measurement chip state")
    p.set_defaults(func=cmd_retrieve)

    p = sub.add_parser("attack", help="decode with a wrong base or wrong key")
    _add_common(p, chip=True, key=True)
    p.add_argument("--kind", required=True, choices=("wrong-base", "wrong-key"))
    p.add_argument("--case", default="case3", choices=("case1", "case2", "case3"))
    p.add_argument("--payload", required=True, help="true payload hex for scoring")
    p.add_argument("--op", choices=("set", "reset"), default="set")
    p.add_argument("--out", required=True, help="report CSV path")
    p.set_defaults(func=cmd_attack)

    p = sub.add_parser("sweep", help="run a tolerance or replica-size sweep")
    _add_common(p)
    p.add_argument("--kind", required=True,
                   choices=("post-hiding", "replica-size", "initial-stress"))
    p.add_argument("--op", choices=("set", "reset"), default="set")
    p.add_argument("--out", required=True, help="report CSV path")
    p.add_argument("--n-list", default="15000,30000,45000",
                   help="hiding stress counts (post-hiding sweep)")
    p.add_argument("--n-stress", type=int, default=15_000,
                   help="hiding stress count (replica/initial sweeps)")
    p.add_argument("--grid", default="0:260000:10000",
                   help="stress grid start:stop:step or comma list")
    p.add_argument("--sizes", default="32,64,96,128,160,192,224,256")
    p.add_argument("--address-count", type=int, default=65_536)
    p.set_defaults(func=cmd_sweep)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The process's one parser.  Building it costs milliseconds (every
    argument's help formatter queries the terminal), and `parse_args`
    leaves it unchanged, so `main` reuses it."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigurationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except FormatError as exc:
        print(f"format error: {exc}", file=sys.stderr)
        return EXIT_FORMAT
    except WearOutError as exc:
        print(f"wear-out: {exc}", file=sys.stderr)
        return EXIT_WEAR_OUT
    except (RRSimError, OSError) as exc:
        # OSError: an output path that cannot be written.
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
