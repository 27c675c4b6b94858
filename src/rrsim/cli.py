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
import dataclasses
import functools
import io
import os
import sys
import typing
import warnings
from fractions import Fraction

import numpy as np

from . import harness
from .calibration import CharacterizationRecord, characterize, fit_profile
from .chip import BUFFER_SIZE, ChipGeometry, new_chip, read_state
from .codec import Payload, decode, encode, generate_key, load_key, save_key
from .errors import (AmbiguousDecodeWarning, ConfigurationError, FormatError,
                     RRSimError, WearOutError, read_text, write_csv)
from .profile import default_profile, load_profile, save_profile

PROFILE_ENV = "RRSIM_PROFILE"

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_FORMAT = 3
EXIT_AMBIGUOUS = 4
EXIT_WEAR_OUT = 5


def _profile(args):
    path = args.profile or os.environ.get(PROFILE_ENV)
    return load_profile(path) if path else default_profile()


def _out(args, path: str) -> str:
    """An output path, under --out-dir unless it is absolute."""
    if os.path.isabs(path) or not args.out_dir:
        return path
    return os.path.join(args.out_dir, path)


def _key(args):
    if not args.key:
        raise ConfigurationError("this command needs --key")
    return load_key(args.key)


def _chip(args, profile, address_count=None, seed=None):
    """The --chip state file, else a fresh chip of `address_count` cells
    seeded with `seed`, default --seed (commands without a count need
    --chip), at the --temperature if given."""
    path = getattr(args, "chip", None)  # characterize has no --chip
    if path:
        try:
            with open(path, "rb") as fh:
                chip = read_state(fh, profile)
        except OSError as exc:
            raise FormatError(f"cannot read chip state: {exc}") from exc
    elif address_count is None:
        raise ConfigurationError("this command needs --chip")
    else:
        chip = new_chip(ChipGeometry(address_count=address_count), profile,
                        args.seed if seed is None else seed)
    # A fresh chip checks any requested temperature, a loaded one a change.
    if args.temperature is not None and (
            not path or args.temperature != chip.temperature):
        chip.set_temperature(args.temperature)
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
        values = [int(p) for p in text.split(",") if p]
        if not values:
            raise ConfigurationError(f"grid {text!r} lists no value")
        return values
    except ValueError as exc:
        raise ConfigurationError(f"bad grid {text!r}: {exc}") from exc


# ---------------------------------------------------------------------------
# characterize
# ---------------------------------------------------------------------------

RECORD_COLUMNS = tuple(f.name for f in dataclasses.fields(CharacterizationRecord))
_RECORD_TYPES = typing.get_type_hints(CharacterizationRecord)


def write_records_csv(path, records, seed: int) -> None:
    write_csv(path, "characterize", seed, RECORD_COLUMNS,
              ([getattr(r, c) for c in RECORD_COLUMNS] for r in records))


def read_records_csv(path) -> list[CharacterizationRecord]:
    text = read_text(path, "records", FormatError)
    reader = csv.DictReader(ln for ln in io.StringIO(text) if not ln.startswith("#"))
    if reader.fieldnames is None or tuple(reader.fieldnames) != RECORD_COLUMNS:
        raise FormatError("not a characterization records CSV")
    try:
        return [CharacterizationRecord(
            **{c: _RECORD_TYPES[c](row[c]) for c in RECORD_COLUMNS})
            for row in reader]
    except (TypeError, ValueError, csv.Error) as exc:
        # A short row fills its missing fields with None (TypeError).
        raise FormatError(
            f"malformed records row {reader.line_num}: {exc}") from exc


def cmd_characterize(args, profile) -> int:
    chip = _chip(args, profile, address_count=max(args.addresses, BUFFER_SIZE))
    records = characterize(chip, np.arange(args.addresses), args.max_pairs,
                           args.interval)
    out = _out(args, args.out)
    write_records_csv(out, records, args.seed)
    print(f"wrote {len(records)} records to {out}")
    if args.profile_out:
        fitted = fit_profile(records, template=profile)
        out = _out(args, args.profile_out)
        save_profile(fitted, out)
        print(f"fitted profile written to {out}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# hide / retrieve
# ---------------------------------------------------------------------------

def cmd_hide(args, profile) -> int:
    payload = Payload.from_hex(args.payload, length=args.payload_bits)
    if min(payload.bits) == max(payload.bits):
        print(f"warning: every payload bit is {payload.bits[0]}; kmeans cannot "
              "split it, so retrieve it with --method reference", file=sys.stderr)
    chip = _chip(args, profile, address_count=args.address_count)
    key = generate_key(len(payload), args.base, args.replica_size,
                       args.replicas, args.n_stress, args.seed,
                       geometry=chip.geometry)
    report = encode(chip, key, payload)
    model_time = harness.encode_time(key.stress_count, len(payload),
                                     profile.pair_time)
    cost = harness.endurance_cost(key.stress_count, profile.endurance_rated)
    rate = Fraction(len(payload) * 60) / model_time if model_time else Fraction(0)
    try:  # before any file is written
        seconds, per_min, percent = float(model_time), float(rate), float(100 * cost)
    except OverflowError as exc:
        raise ConfigurationError(f"pair_time {profile.pair_time!r} puts the encode "
                                 "time or rate past the largest float") from exc
    key_out, chip_out = _out(args, args.key_out), _out(args, args.chip_out)
    save_key(key, key_out)
    with open(chip_out, "wb") as fh:
        chip.write_state(fh)
    print(f"hidden {len(payload)} bits at stress count {key.stress_count}")
    print(f"simulated encode time: {seconds:g} s ({per_min:g} bit/min)")
    print(f"chip busy time: {report.chip_busy_seconds:g} s")
    print(f"endurance cost: {percent:g}% of rated pairs")
    print(f"key: {key_out}  chip: {chip_out}")
    return EXIT_OK


def cmd_retrieve(args, profile) -> int:
    key = _key(args)
    chip = _chip(args, profile)
    method, threshold, reference = args.method, None, None
    if method.startswith("threshold:"):
        try:
            threshold = float(method.split(":", 1)[1])
        except ValueError as exc:
            raise ConfigurationError(f"bad threshold in {method!r}") from exc
    elif method == "reference":
        base = args.reference_base
        if base is None:
            base = key.base_address + key.footprint
        reference = np.arange(base, base + args.reference_count)
    elif method != "kmeans":
        raise ConfigurationError(f"unknown decode method {method!r}")

    with warnings.catch_warnings():  # an ambiguous decode is reported below
        warnings.simplefilter("ignore", AmbiguousDecodeWarning)
        result = decode(chip, key, threshold=threshold,
                        reference_addresses=reference, op=args.op)
    if args.chip_out:
        with open(_out(args, args.chip_out), "wb") as fh:
            chip.write_state(fh)
    print(f"payload: {result.payload.to_hex()}")
    print(f"op: {result.op}  method: {args.method}")
    print(f"threshold: {result.threshold_used:.6e} s  "
          f"confidence: {result.confidence:.6e} s")
    for i, (bit, mean) in enumerate(zip(result.payload.bits, result.bit_means)):
        margin = mean - result.threshold_used
        print(f"bit {i:3d}: {bit}  mean={mean:.6e} s  margin={margin:+.6e} s")
    if result.ambiguous:
        print("warning: cluster separation within noise floor; "
              "decode is ambiguous", file=sys.stderr)
        return EXIT_AMBIGUOUS
    return EXIT_OK


# ---------------------------------------------------------------------------
# attack / sweep
# ---------------------------------------------------------------------------

def cmd_attack(args, profile) -> int:
    key = _key(args)
    chip = _chip(args, profile)
    truth = Payload.from_hex(args.payload, length=key.payload_length)
    if args.kind == "wrong-base":
        report = harness.attack_wrong_base(chip, key, truth,
                                           offset_mode=args.case, op=args.op)
        sweep_id = f"attack-wrong-base-{args.case}"
    else:
        report = harness.attack_wrong_key(chip, key, truth,
                                          rng_seed=args.seed, op=args.op)
        sweep_id = "attack-wrong-key"
    out = _out(args, args.out)
    harness.write_reports_csv(out, sweep_id, [report], seed=args.seed)
    sep = "separable" if report.separable else "no clean separation"
    print(f"{sweep_id}: min distance {report.min_distance:.3e} s ({sep}), "
          f"best-threshold BER {report.ber:.3f}")
    print(f"report: {out}")
    return EXIT_OK


def cmd_sweep(args, profile) -> int:
    if args.temperature is not None:  # even when the grid builds no chip
        profile.check_rated(args.temperature)
    seeds = iter(range(args.seed, args.seed + 1_000_000))

    def factory():
        return _chip(args, profile, args.address_count, next(seeds))

    n_list = []
    if args.kind == "post-hiding":
        n_list = _grid(args.n_list)
        reports = harness.sweep_post_hiding(factory, n_list, _grid(args.grid),
                                            op=args.op)
    elif args.kind == "replica-size":
        reports = harness.sweep_replica_size(
            factory, _grid(args.sizes), op=args.op,
            stress_count=args.n_stress, rng_seed=args.seed)
    else:
        reports = harness.sweep_initial_stress(
            factory, _grid(args.grid), args.n_stress, ops=(args.op,))
    sweep_id = f"{args.kind}-{args.op}"
    out = _out(args, args.out)
    harness.write_reports_csv(out, sweep_id, reports, seed=args.seed)
    print(f"{sweep_id}: {len(reports)} grid points -> {out}")
    for n in n_list:
        print(f"  N={n}: zero-error tolerance "
              f"{harness.stress_tolerance(reports, n)}")
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
        if args.out_dir:
            os.makedirs(args.out_dir, exist_ok=True)
        code = args.func(args, _profile(args))
        print(f"seed: {args.seed}")
        return code
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
