"""End-to-end command-line behaviour, exit codes, reproducibility."""

import contextlib
import dataclasses
import hashlib
import io
import json
import os
import struct
import subprocess
import sys
import warnings

import pytest

import rrsim
from rrsim import cli, harness
from rrsim.chip import MAX_ADDRESS_COUNT, UNITS_PER_PAIR


def run(args):
    return cli.main(args)


@pytest.fixture
def workdir(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    return tmp_path


def hide_args(tmp, payload="0xECE3038B", seed=42, extra=()):
    return ["hide", "--payload", payload, "--key-out", str(tmp / "key.json"),
            "--chip-out", str(tmp / "chip.bin"), "--n-stress", "15000",
            "--replica-size", "256", "--base", "0",
            "--address-count", "16384", "--seed", str(seed), *extra]


class TestHideRetrieve:
    def test_round_trip_via_files_only(self, workdir, capsys):
        assert run(hide_args(workdir)) == 0
        out = capsys.readouterr().out
        assert "4800 s" in out
        assert "0.4 bit/min" in out
        assert "3% of rated pairs" in out
        code = run(["retrieve", "--key", str(workdir / "key.json"),
                    "--chip", str(workdir / "chip.bin")])
        assert code == 0
        out = capsys.readouterr().out
        assert "payload: 0xECE3038B" in out
        assert "seed:" in out

    def test_same_seed_identical_key_files(self, workdir):
        run(hide_args(workdir, seed=7))
        first = (workdir / "key.json").read_bytes()
        chip_first = (workdir / "chip.bin").read_bytes()
        run(hide_args(workdir, seed=7))
        assert (workdir / "key.json").read_bytes() == first
        assert (workdir / "chip.bin").read_bytes() == chip_first

    def test_empty_payload_usage_error(self, workdir):
        assert run(hide_args(workdir, payload="")) == cli.EXIT_USAGE

    def test_retrieve_threshold_zero_all_ones(self, workdir, capsys):
        run(hide_args(workdir))
        capsys.readouterr()
        code = run(["retrieve", "--key", str(workdir / "key.json"),
                    "--chip", str(workdir / "chip.bin"),
                    "--method", "threshold:0"])
        assert code == 0
        assert "payload: 0xFFFFFFFF" in capsys.readouterr().out

    def test_retrieve_reset_times(self, workdir, capsys):
        run(hide_args(workdir))
        capsys.readouterr()
        code = run(["retrieve", "--key", str(workdir / "key.json"),
                    "--chip", str(workdir / "chip.bin"), "--op", "reset"])
        assert code == 0
        assert "payload: 0xECE3038B" in capsys.readouterr().out

    def test_missing_key_file_is_format_error(self, workdir):
        run(hide_args(workdir))
        code = run(["retrieve", "--key", str(workdir / "nope.json"),
                    "--chip", str(workdir / "chip.bin")])
        assert code == cli.EXIT_FORMAT

    def test_key_file_not_utf8_is_format_error(self, workdir, capsys):
        run(hide_args(workdir))
        (workdir / "key.json").write_bytes(b"\xff\xfe{}")
        capsys.readouterr()
        code = run(["retrieve", "--key", str(workdir / "key.json"),
                    "--chip", str(workdir / "chip.bin")])
        assert code == cli.EXIT_FORMAT
        err = capsys.readouterr().err
        assert err.startswith("format error: ") and "Traceback" not in err

    def test_profile_not_utf8_is_usage_error(self, workdir, capsys):
        (workdir / "p.json").write_bytes(b"\xff\xfe{}")
        code = run(["sweep", "--kind", "replica-size", "--sizes", "32",
                    "--profile", str(workdir / "p.json"),
                    "--out", str(workdir / "sweep.csv")])
        assert code == cli.EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err
        assert not (workdir / "sweep.csv").exists()

    def test_corrupt_chip_state_is_format_error(self, workdir):
        run(hide_args(workdir))
        (workdir / "chip.bin").write_bytes(b"garbage")
        code = run(["retrieve", "--key", str(workdir / "key.json"),
                    "--chip", str(workdir / "chip.bin")])
        assert code == cli.EXIT_FORMAT

    def test_non_finite_clock_is_format_error(self, workdir, capsys):
        # A NaN clock made every measured time NaN, and kmeans then crashed.
        run(hide_args(workdir))
        blob = bytearray((workdir / "chip.bin").read_bytes())
        struct.pack_into("<d", blob, len(rrsim.chip.STATE_MAGIC)
                         + struct.calcsize("<QHIq"), float("nan"))
        (workdir / "chip.bin").write_bytes(blob)
        capsys.readouterr()
        code = run(["retrieve", "--key", str(workdir / "key.json"),
                    "--chip", str(workdir / "chip.bin")])
        assert code == cli.EXIT_FORMAT
        err = capsys.readouterr().err
        assert err.startswith("format error: ") and "clock" in err
        assert "Traceback" not in err

    def test_header_buffer_size_other_than_256_is_format_error(self, workdir, capsys):
        run(hide_args(workdir))
        blob = bytearray((workdir / "chip.bin").read_bytes())
        struct.pack_into("<I", blob, len(rrsim.chip.STATE_MAGIC) + struct.calcsize("<QH"), 128)
        (workdir / "chip.bin").write_bytes(blob)
        capsys.readouterr()
        code = run(["retrieve", "--key", str(workdir / "key.json"),
                    "--chip", str(workdir / "chip.bin")])
        assert code == cli.EXIT_FORMAT
        err = capsys.readouterr().err
        assert err.startswith("format error: ") and "buffer 128" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("cut", ["nan", "inf"])
    def test_non_finite_threshold_is_usage_error(self, workdir, capsys, cut):
        # It printed payload 0x00 and a NaN confidence after measuring.
        run(hide_args(workdir))
        capsys.readouterr()
        code = run(["retrieve", "--key", str(workdir / "key.json"),
                    "--chip", str(workdir / "chip.bin"),
                    "--method", f"threshold:{cut}",
                    "--chip-out", str(workdir / "after.bin")])
        assert code == cli.EXIT_USAGE
        assert "threshold must be a finite number" in capsys.readouterr().err
        assert not (workdir / "after.bin").exists()

    @pytest.mark.parametrize("text", ["[1]", "\"x\"", "7"])
    def test_non_object_profile_is_usage_error(self, workdir, capsys, text):
        (workdir / "p.json").write_text(text)
        code = run(hide_args(workdir, extra=("--profile", str(workdir / "p.json"))))
        assert code == cli.EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err
        assert not (workdir / "key.json").exists()

    def test_wear_out_exits_5_and_writes_nothing(self, workdir, capsys):
        code = run(["hide", "--payload", "0xAB",
                    "--key-out", str(workdir / "key.json"),
                    "--chip-out", str(workdir / "chip.bin"),
                    "--n-stress", "2000000", "--address-count", "4096"])
        assert code == cli.EXIT_WEAR_OUT
        assert capsys.readouterr().err.startswith("wear-out: ")
        assert not (workdir / "key.json").exists()
        assert not (workdir / "chip.bin").exists()

    @pytest.mark.filterwarnings("ignore::rrsim.UsedCellsWarning")
    def test_worn_erase_exits_5_and_writes_nothing(self, workdir, capsys):
        chip = rrsim.new_chip(rrsim.ChipGeometry(4096))
        chip._units[:] = (chip.profile.endurance_max + 1) * UNITS_PER_PAIR
        chip.set_values(list(range(4096)), 0)
        (workdir / "worn.bin").write_bytes(chip.save_state())
        code = run(["hide", "--payload", "0xAB", "--chip", str(workdir / "worn.bin"),
                    "--key-out", str(workdir / "key.json"),
                    "--chip-out", str(workdir / "chip.bin"),
                    "--replica-size", "256", "--base", "0"])
        assert code == cli.EXIT_WEAR_OUT
        assert capsys.readouterr().err.startswith(
            "wear-out: cells wore out during encoding")
        assert not (workdir / "key.json").exists()
        assert not (workdir / "chip.bin").exists()

    @pytest.mark.filterwarnings("ignore::rrsim.AmbiguousDecodeWarning")
    def test_tampered_key_ambiguous_decode(self, workdir, capsys):
        # Point the key at untouched fresh cells: no signal to cluster.
        run(hide_args(workdir))
        key = json.loads((workdir / "key.json").read_text())
        key["base_address"] = 8192
        (workdir / "key.json").write_text(json.dumps(key))
        code = run(["retrieve", "--key", str(workdir / "key.json"),
                    "--chip", str(workdir / "chip.bin")])
        assert code == cli.EXIT_AMBIGUOUS
        assert "ambiguous" in capsys.readouterr().err


class TestCharacterize:
    def test_zero_pairs_single_row(self, workdir):
        code = run(["characterize", "--addresses", "512", "--max-pairs", "0",
                    "--interval", "1000", "--out", str(workdir / "rec.csv"),
                    "--seed", "3"])
        assert code == 0
        rows = [ln for ln in (workdir / "rec.csv").read_text().splitlines()
                if ln and not ln.startswith("#")]
        assert len(rows) == 2  # header + one record

    def test_fit_round_trip_through_csv(self, workdir):
        code = run(["characterize", "--addresses", "2048",
                    "--max-pairs", "1000000", "--interval", "100000",
                    "--out", str(workdir / "rec.csv"),
                    "--profile-out", str(workdir / "fit.json"), "--seed", "5"])
        assert code == 0
        fitted = rrsim.load_profile(workdir / "fit.json")
        records = cli.read_records_csv(workdir / "rec.csv")
        refit = rrsim.fit_profile(records, template=fitted)
        for op in ("set", "reset"):
            assert refit.curve(op).t0 == pytest.approx(fitted.curve(op).t0,
                                                       rel=1e-9)
            assert refit.curve(op).p == pytest.approx(fitted.curve(op).p,
                                                      rel=1e-9)

    def test_characterize_deterministic(self, workdir):
        args = ["characterize", "--addresses", "512", "--max-pairs", "5000",
                "--interval", "1000", "--out", str(workdir / "rec.csv"),
                "--seed", "9"]
        run(args)
        first = (workdir / "rec.csv").read_bytes()
        run(args)
        assert (workdir / "rec.csv").read_bytes() == first


class TestRecordsCsv:
    HEADER = ",".join(cli.RECORD_COLUMNS)

    @pytest.mark.parametrize("row", [
        "0,1e-4,1e-4,x,2e-4,2e-4,2e-4,256,8",   # non-numeric field
        "0,1e-4,1e-4,1e-4,2e-4,2e-4"])         # short row
    def test_malformed_row_is_format_error(self, workdir, row):
        (workdir / "rec.csv").write_text(f"# rrsim\n{self.HEADER}\n{row}\n")
        with pytest.raises(rrsim.FormatError):
            cli.read_records_csv(workdir / "rec.csv")

    def test_not_utf8_is_format_error(self, workdir):
        (workdir / "rec.csv").write_bytes(b"\xff\xfe" + self.HEADER.encode())
        with pytest.raises(rrsim.FormatError, match="cannot read records"):
            cli.read_records_csv(workdir / "rec.csv")

    def test_wrong_header_is_format_error(self, workdir):
        header = self.HEADER.replace("set_min", "set_low")
        (workdir / "rec.csv").write_text(f"{header}\n0,1,1,1,2,2,2,256,8\n")
        with pytest.raises(rrsim.FormatError, match="not a characterization"):
            cli.read_records_csv(workdir / "rec.csv")


class TestAttackAndSweep:
    def test_attack_wrong_base(self, workdir, capsys):
        run(hide_args(workdir))
        capsys.readouterr()
        code = run(["attack", "--kind", "wrong-base", "--case", "case3",
                    "--key", str(workdir / "key.json"),
                    "--chip", str(workdir / "chip.bin"),
                    "--payload", "0xECE3038B",
                    "--out", str(workdir / "attack.csv"), "--seed", "2"])
        assert code == 0
        out = capsys.readouterr().out
        assert "no clean separation" in out
        body = [ln for ln in (workdir / "attack.csv").read_text().splitlines()
                if not ln.startswith("#")]
        assert len(body) == 2
        assert "# rrsim" in (workdir / "attack.csv").read_text()

    def test_sweep_replica_size_csv(self, workdir):
        code = run(["sweep", "--kind", "replica-size",
                    "--sizes", "32,256", "--n-stress", "15000",
                    "--out", str(workdir / "sweep.csv"),
                    "--address-count", "16384", "--seed", "4"])
        assert code == 0
        lines = [ln for ln in (workdir / "sweep.csv").read_text().splitlines()
                 if not ln.startswith("#")]
        assert lines[0].startswith("sweep_id,")
        assert len(lines) == 3

    @pytest.mark.parametrize("kind, option, text", [
        ("post-hiding", "--grid", ","), ("post-hiding", "--n-list", ","),
        ("replica-size", "--sizes", ","), ("initial-stress", "--grid", ","),
        ("initial-stress", "--grid", "")])
    def test_list_with_no_value_is_usage_error(self, workdir, monkeypatch, capsys,
                                               kind, option, text):
        # Refused before any chip is built or file written; a post-hiding
        # sweep used to encode its chips first.
        built = []
        monkeypatch.setattr(cli, "new_chip", lambda *a: built.append(a) or rrsim.new_chip(*a))
        code = run(["sweep", "--kind", kind, option, text, "--out", "s.csv",
                    "--address-count", "16384"])
        assert code == cli.EXIT_USAGE
        assert capsys.readouterr().err.startswith(f"error: grid {text!r} lists no value")
        assert built == []
        assert os.listdir(workdir) == []

    @pytest.mark.parametrize("grid", ["1:2", "5:1:1", "a,b"])
    def test_bad_grid_is_usage_error(self, workdir, grid):
        code = run(["sweep", "--kind", "initial-stress", "--grid", grid,
                    "--out", str(workdir / "bad.csv"),
                    "--address-count", "16384", "--seed", "4"])
        assert code == cli.EXIT_USAGE

    def test_sweep_rerun_byte_identical(self, workdir):
        args = ["sweep", "--kind", "post-hiding", "--n-list", "15000",
                "--grid", "0:40000:20000", "--out", str(workdir / "s.csv"),
                "--address-count", "16384", "--seed", "11"]
        run(args)
        first = (workdir / "s.csv").read_bytes()
        run(args)
        assert (workdir / "s.csv").read_bytes() == first

    def test_profile_env_override(self, workdir, monkeypatch, profile):
        # A quiet profile through RRSIM_PROFILE changes the sweep numbers.
        quiet = rrsim.CalibrationProfile(**{
            **{k: getattr(profile, k) for k in profile.__dataclass_fields__},
            "set_sigma": 0.0, "reset_sigma": 0.0, "chip_variation": 0.0})
        rrsim.save_profile(quiet, workdir / "quiet.json")
        args = ["sweep", "--kind", "replica-size", "--sizes", "32",
                "--out", str(workdir / "a.csv"),
                "--address-count", "16384", "--seed", "4"]
        run(args)
        default_bytes = (workdir / "a.csv").read_bytes()
        monkeypatch.setenv(cli.PROFILE_ENV, str(workdir / "quiet.json"))
        run(args)
        assert (workdir / "a.csv").read_bytes() != default_bytes


class TestUsageErrors:
    def test_unknown_method(self, workdir):
        run(hide_args(workdir))
        code = run(["retrieve", "--key", str(workdir / "key.json"),
                    "--chip", str(workdir / "chip.bin"),
                    "--method", "magic"])
        assert code == cli.EXIT_USAGE

    def test_footprint_overflow(self, workdir):
        code = run(["hide", "--payload", "0xFFFF",
                    "--key-out", str(workdir / "k.json"),
                    "--chip-out", str(workdir / "c.bin"),
                    "--replica-size", "256", "--base", "16000",
                    "--address-count", "16384", "--seed", "1"])
        assert code == cli.EXIT_USAGE


def test_negative_payload_bits_is_usage_error(workdir, capsys):
    code = run(hide_args(workdir, payload="0x5", extra=("--payload-bits", "-1")))
    assert code == cli.EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "at least 1 bit" in err
    assert not (workdir / "key.json").exists()


@pytest.mark.parametrize("payload,bits,warns", [
    ("0x00000000", None, True),
    ("0xFFFFFFFF", None, True),
    ("0x1", "1", True),
    ("0xECE3038B", None, False),
])
def test_hide_warns_on_one_bit_value(workdir, payload, bits, warns):
    extra = ("--payload-bits", bits) if bits else ()
    code, out, err = captured(hide_args(workdir, payload=payload, extra=extra))
    assert code == cli.EXIT_OK
    assert "warning" not in out
    if warns:
        assert err.startswith("warning: every payload bit is ")
        assert "--method reference" in err and err.count("\n") == 1
    else:
        assert err == ""
    assert (workdir / "key.json").exists() and (workdir / "chip.bin").exists()


class TestUnwritableOutput:
    """An output path in a missing directory is a usage error, not a crash."""

    def assert_usage_error(self, args, capsys):
        assert run(args) == cli.EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "Traceback" not in err

    def test_hide_key_out(self, workdir, capsys):
        args = hide_args(workdir)
        args[args.index("--key-out") + 1] = str(workdir / "missing" / "k.json")
        self.assert_usage_error(args, capsys)

    def test_hide_chip_out(self, workdir, capsys):
        args = hide_args(workdir)
        args[args.index("--chip-out") + 1] = str(workdir / "missing" / "c.bin")
        self.assert_usage_error(args, capsys)

    def test_sweep_out(self, workdir, capsys):
        self.assert_usage_error(
            ["sweep", "--kind", "initial-stress", "--grid", "0",
             "--out", str(workdir / "missing" / "s.csv"),
             "--address-count", "16384", "--seed", "4"], capsys)

    def test_retrieve_chip_out(self, workdir, capsys):
        run(hide_args(workdir))
        capsys.readouterr()
        self.assert_usage_error(
            ["retrieve", "--key", str(workdir / "key.json"),
             "--chip", str(workdir / "chip.bin"),
             "--chip-out", str(workdir / "missing" / "c.bin")], capsys)


def test_main_reuses_one_parser(workdir):
    run(["sweep", "--kind", "initial-stress", "--grid", "0",
         "--out", str(workdir / "a.csv"), "--address-count", "16384"])
    parser = cli._parser()
    run(["sweep", "--kind", "initial-stress", "--grid", "0",
         "--out", str(workdir / "b.csv"), "--address-count", "16384"])
    assert cli._parser() is parser
    assert cli.build_parser() is not parser
    assert (workdir / "a.csv").read_bytes() == (workdir / "b.csv").read_bytes()


def test_reference_inside_footprint_is_usage_error(workdir, capsys):
    run(hide_args(workdir, seed=3))
    capsys.readouterr()
    code = run(["retrieve", "--key", str(workdir / "key.json"),
                "--chip", str(workdir / "chip.bin"),
                "--method", "reference", "--reference-base", "0"])
    assert code == cli.EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert "Traceback" not in err


# ---------------------------------------------------------------------------
# Pinned command output.  The digests below were recorded before the command
# plumbing was rewritten; every path is relative, so stdout does not depend
# on the temporary directory.
# ---------------------------------------------------------------------------

def captured(args):
    """(exit code, stdout, stderr) of one in-process run."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(args)
    return code, out.getvalue(), err.getvalue()


REL_HIDE = ["hide", "--payload", "0xECE3038B", "--key-out", "key.json",
            "--chip-out", "chip.bin", "--address-count", "16384", "--seed", "42"]

PINNED = {
    # name: (argv, output files, sha256 of stdout + every output file)
    "characterize": (
        ["characterize", "--addresses", "2048", "--max-pairs", "1000000",
         "--interval", "100000", "--out", "rec.csv", "--profile-out",
         "fit.json", "--seed", "5"], ("rec.csv", "fit.json"),
        "b6393a69b814188003d3930cc2d7b39e34ca88e72a742d721607877de2486470"),
    "hide": (
        REL_HIDE, ("key.json", "chip.bin"),
        "18804c8bcf5e94ed272cb157c421d4199a660490bca197d10570b5206b3702ce"),
    "hide-40C": (
        REL_HIDE + ["--temperature", "40"], ("key.json", "chip.bin"),
        "afa0d1c5ba8e81b821435048086a5cc02e06804ffb08540575aeef6f3ed1b78d"),
    "retrieve-40C": (
        ["retrieve", "--key", "key.json", "--chip", "chip.bin",
         "--temperature", "40", "--chip-out", "after.bin"], ("after.bin",),
        "3040ea3c85ab456f24fe8733979a9c533fdabd7e955f49c687082395b6c2858a"),
    "attack-wrong-base": (
        ["attack", "--kind", "wrong-base", "--case", "case2", "--key",
         "key.json", "--chip", "chip.bin", "--payload", "0xECE3038B",
         "--out", "attack.csv", "--seed", "2"], ("attack.csv",),
        "0a643df76f27cee2a2c97ab3710ebbeff9e5013e97c93d3b3379c7d229a7dc6e"),
    "attack-wrong-key": (
        ["attack", "--kind", "wrong-key", "--op", "reset", "--key",
         "key.json", "--chip", "chip.bin", "--payload", "0xECE3038B",
         "--out", "attack.csv", "--seed", "2"], ("attack.csv",),
        "8057f8076ff2a36565f4196e56fcf5ed3118c1de993602586a38d6581d9cafb7"),
    "sweep-post-hiding": (
        ["sweep", "--kind", "post-hiding", "--n-list", "15000,30000",
         "--grid", "0:40000:20000", "--out", "s.csv",
         "--address-count", "16384", "--seed", "11"], ("s.csv",),
        "91216661266cc389e7559dec97970e300947898c58347143da5e845266e637f5"),
}


@pytest.mark.parametrize("name", sorted(PINNED))
def test_pinned_output(name, workdir):
    argv, files, expected = PINNED[name]
    if "--chip" in argv:
        assert cli.main(REL_HIDE) == cli.EXIT_OK
    code, out, err = captured(argv)
    assert (code, err) == (cli.EXIT_OK, "")
    seed = argv[argv.index("--seed") + 1] if "--seed" in argv else "0"
    assert out.endswith(f"seed: {seed}\n")
    digest = hashlib.sha256(out.encode())
    for f in files:
        digest.update((workdir / f).read_bytes())
    assert digest.hexdigest() == expected, out


class TestOutDir:
    """--out-dir holds relative output paths; inputs and absolute paths are
    taken as given."""

    def test_hide_retrieve_into_new_directories(self, workdir):
        code, out, _ = captured([*REL_HIDE, "--out-dir", "a/b"])
        assert code == cli.EXIT_OK
        assert "key: a/b/key.json  chip: a/b/chip.bin\n" in out
        assert sorted(os.listdir(workdir / "a" / "b")) == ["chip.bin", "key.json"]
        code, out, _ = captured(["retrieve", "--key", "a/b/key.json",
                                 "--chip", "a/b/chip.bin", "--out-dir", "c",
                                 "--chip-out", "after.bin"])
        assert code == cli.EXIT_OK
        assert "payload: 0xECE3038B" in out
        assert os.listdir(workdir / "c") == ["after.bin"]

    def test_absolute_output_ignores_out_dir(self, workdir):
        target = str(workdir / "abs.csv")
        code, out, _ = captured(["sweep", "--kind", "initial-stress",
                                 "--grid", "0", "--out", target,
                                 "--out-dir", "d", "--address-count", "16384"])
        assert code == cli.EXIT_OK
        assert f"-> {target}\n" in out
        assert (workdir / "abs.csv").exists()
        assert os.listdir(workdir / "d") == []

    def test_characterize_and_attack_outputs(self, workdir):
        code, out, _ = captured(["characterize", "--addresses", "512",
                                 "--max-pairs", "0", "--interval", "1000",
                                 "--out", "rec.csv", "--out-dir", "e"])
        assert code == cli.EXIT_OK
        assert out.startswith("wrote 1 records to e/rec.csv\n")
        assert run(REL_HIDE) == cli.EXIT_OK
        code, out, _ = captured(["attack", "--kind", "wrong-key", "--key",
                                 "key.json", "--chip", "chip.bin",
                                 "--payload", "0xECE3038B", "--out", "a.csv",
                                 "--out-dir", "e"])
        assert code == cli.EXIT_OK
        assert "report: e/a.csv\n" in out
        assert sorted(os.listdir(workdir / "e")) == ["a.csv", "rec.csv"]


class TestTemperature:
    def test_fresh_and_loaded_chip_take_the_flag(self, workdir):
        for argv, state in ((REL_HIDE + ["--temperature", "40"], "chip.bin"),
                            (["retrieve", "--key", "key.json", "--chip",
                              "chip.bin", "--chip-out", "after.bin"],
                             "after.bin")):
            assert run(argv) == cli.EXIT_OK
            assert rrsim.load_state((workdir / state).read_bytes()
                                    ).temperature == 40.0

    def test_same_value_is_checked_on_a_fresh_chip_only(self, workdir, profile):
        # A chip starts at 25 C; under a profile rated from 30 C, asking for
        # 25 C is refused for a new chip but is no change for a loaded one.
        assert run(REL_HIDE) == cli.EXIT_OK
        warm = rrsim.CalibrationProfile(**{
            **{k: getattr(profile, k) for k in profile.__dataclass_fields__},
            "temp_rated_min": 30.0})
        rrsim.save_profile(warm, workdir / "warm.json")
        flags = ["--profile", "warm.json", "--temperature", "25"]
        assert run(["retrieve", "--key", "key.json", "--chip", "chip.bin",
                    *flags]) == cli.EXIT_OK
        code, _, err = captured([*REL_HIDE, *flags])
        assert code == cli.EXIT_USAGE
        assert err.startswith("error: 25.0 C outside rated range")

    def test_sweep_chips_take_the_flag(self, workdir, profile):
        argv = ["sweep", "--kind", "replica-size", "--sizes", "32",
                "--out", "s.csv", "--address-count", "16384", "--seed", "4"]
        assert run(argv) == cli.EXIT_OK
        cool = (workdir / "s.csv").read_bytes()
        assert run([*argv, "--temperature", "80"]) == cli.EXIT_OK
        warm = (workdir / "s.csv").read_bytes()
        assert warm != cool
        seeds = iter(range(4, 100))

        def factory():
            chip = rrsim.new_chip(rrsim.ChipGeometry(address_count=16384),
                                  profile, next(seeds))
            chip.set_temperature(80.0)
            return chip

        reports = harness.sweep_replica_size(factory, [32], rng_seed=4)
        harness.write_reports_csv("h.csv", "replica-size-set", reports, seed=4)
        assert (workdir / "h.csv").read_bytes() == warm

    def test_sweep_refuses_an_unrated_temperature(self, workdir):
        code, out, err = captured(
            ["sweep", "--kind", "replica-size", "--sizes", "32", "--out",
             "s.csv", "--address-count", "16384", "--temperature", "500"])
        assert code == cli.EXIT_USAGE
        assert out == ""
        assert err.startswith("error: 500.0 C outside rated range")

    def test_empty_sweep_refuses_an_unrated_temperature(self, workdir):
        # No chip is built for an empty grid; the flag is still checked.
        code, out, err = captured(
            ["sweep", "--kind", "initial-stress", "--grid", "", "--out",
             "e.csv", "--address-count", "16384", "--temperature", "500"])
        assert code == cli.EXIT_USAGE
        assert out == ""
        assert err.startswith("error: 500.0 C outside rated range")
        assert not (workdir / "e.csv").exists()


@pytest.mark.parametrize("command", ["retrieve", "attack"])
@pytest.mark.parametrize("missing", ["--key", "--chip"])
def test_missing_key_or_chip_is_usage_error(command, missing, workdir):
    assert run(REL_HIDE) == cli.EXIT_OK
    argv = [command, "--key", "key.json", "--chip", "chip.bin"]
    if command == "attack":
        argv += ["--kind", "wrong-key", "--payload", "0xECE3038B",
                 "--out", "a.csv"]
    i = argv.index(missing)
    del argv[i:i + 2]
    code, out, err = captured(argv)
    assert code == cli.EXIT_USAGE
    assert out == ""
    assert err == f"error: this command needs {missing}\n"


def test_module_entry_point(workdir):
    """`python -m rrsim.cli` in a child process: exit codes, no traceback."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [os.path.dirname(os.path.dirname(rrsim.__file__)),
         os.environ.get("PYTHONPATH", "")])}

    def child(*argv):
        return subprocess.run([sys.executable, "-m", "rrsim.cli", *argv],
                              cwd=workdir, env=env, capture_output=True,
                              text=True, timeout=120)

    hide = child(*REL_HIDE)
    assert (hide.returncode, hide.stderr) == (cli.EXIT_OK, "")
    ok = child("retrieve", "--key", "key.json", "--chip", "chip.bin")
    assert ok.returncode == cli.EXIT_OK
    assert "payload: 0xECE3038B\n" in ok.stdout
    (workdir / "chip.bin").write_bytes(b"garbage")
    bad = child("retrieve", "--key", "key.json", "--chip", "chip.bin")
    assert bad.returncode == cli.EXIT_FORMAT
    assert bad.stderr.startswith("format error: ")
    assert "Traceback" not in bad.stderr


# Arguments the library refuses through its argument rules.  PCG64 takes no
# seed below 0, and the chip-state header stores the chip seed as an int64.
PAST_INT64 = str(2**63)
WRONG_KEY = ["attack", "--kind", "wrong-key", "--key", "key.json",
             "--chip", "chip.bin", "--out", "a.csv"]
TINY_SWEEPS = {
    "post-hiding": ["sweep", "--kind", "post-hiding", "--n-list", "15000",
                    "--grid", "0", "--out", "s.csv", "--address-count", "8192"],
    "replica-size": ["sweep", "--kind", "replica-size", "--sizes", "32",
                     "--out", "s.csv", "--address-count", "8192"],
    "initial-stress": ["sweep", "--kind", "initial-stress", "--grid", "0",
                       "--out", "s.csv", "--address-count", "8192"],
}
TINY_CHARACTERIZE = ["characterize", "--addresses", "256", "--max-pairs", "0",
                     "--out", "r.csv"]
REFUSED_ARGUMENTS = {
    "hide-negative-seed": ([*REL_HIDE, "--seed", "-1"], "rng_seed"),
    "attack-wrong-key-negative-seed": (
        [*WRONG_KEY, "--payload", "0xECE3038B", "--seed", "-1"], "rng_seed"),
    "sweep-replica-size-negative-seed": (
        [*TINY_SWEEPS["replica-size"], "--seed", "-1"], "rng_seed"),
    "characterize-seed-past-int64": (
        [*TINY_CHARACTERIZE, "--seed", PAST_INT64], "seed"),
    "hide-seed-past-int64": ([*REL_HIDE, "--seed", PAST_INT64], "seed"),
    **{f"sweep-{kind}-seed-past-int64": ([*argv, "--seed", PAST_INT64], "seed")
       for kind, argv in TINY_SWEEPS.items()},
    "hide-negative-replicas": ([*REL_HIDE, "--replicas", "-1"], "replica_count"),
    # Past MAX_ADDRESS_COUNT: refused before a cell table is allocated.
    "hide-address-count-past-cap": (
        [*REL_HIDE, "--address-count", str(2**62)], "address_count"),
    "characterize-addresses-past-cap": (
        [*TINY_CHARACTERIZE, "--addresses", str(MAX_ADDRESS_COUNT + 1)], "address_count"),
    "sweep-address-count-past-cap": (
        [*TINY_SWEEPS["post-hiding"], "--address-count", str(MAX_ADDRESS_COUNT + 1)],
        "address_count"),
}


@pytest.mark.parametrize("argv, name", REFUSED_ARGUMENTS.values(),
                         ids=REFUSED_ARGUMENTS)
def test_refused_argument_is_usage_error(argv, name, workdir):
    if "--chip" in argv:
        assert cli.main(REL_HIDE) == cli.EXIT_OK
    files = sorted(os.listdir())
    code, out, err = captured(argv)
    assert (code, out) == (cli.EXIT_USAGE, "")
    assert err.startswith(f"error: {name} must be ")
    assert sorted(os.listdir()) == files


@pytest.mark.parametrize("argv", [TINY_CHARACTERIZE, TINY_SWEEPS["post-hiding"]],
                         ids=["characterize", "sweep-post-hiding"])
def test_negative_seed_still_seeds_chips(argv, workdir):
    # Only chips take these commands' seed, and a chip seed may be negative.
    code, out, err = captured([*argv, "--seed", "-1"])
    assert (code, err) == (cli.EXIT_OK, "")
    assert out.endswith("seed: -1\n")


def test_wrong_key_attack_on_one_bit_key_is_usage_error(workdir):
    # A 1-bit key has one rotation, so no wrong one can be drawn.
    hide = ["hide", "--payload", "0x1", "--payload-bits", "1", "--key-out",
            "key.json", "--chip-out", "chip.bin", "--address-count", "4096"]
    assert captured(hide)[0] == cli.EXIT_OK
    code, out, err = captured([*WRONG_KEY, "--payload", "0x1"])
    assert (code, out) == (cli.EXIT_USAGE, "")
    assert err.startswith("error: kmeans decoding needs at least two payload bits")
    assert not os.path.exists("a.csv")


def test_unknown_method_refused_before_measuring(workdir):
    assert cli.main(REL_HIDE) == cli.EXIT_OK
    code, out, err = captured(["retrieve", "--key", "key.json", "--chip", "chip.bin",
                               "--method", "magic", "--chip-out", "after.bin"])
    assert (code, out) == (cli.EXIT_USAGE, "")
    assert err == "error: unknown decode method 'magic'\n"
    assert not (workdir / "after.bin").exists()


def test_ambiguous_retrieve_warns_once(workdir):
    # The CLI reports ambiguity itself, so the library's warning stays unshown.
    assert cli.main([*REL_HIDE, "--n-stress", "200"]) == cli.EXIT_OK
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, _, err = captured(["retrieve", "--key", "key.json", "--chip", "chip.bin"])
    assert code == cli.EXIT_AMBIGUOUS
    assert caught == []
    assert err == "warning: cluster separation within noise floor; decode is ambiguous\n"


def test_overflowing_clock_is_usage_error(workdir, profile):
    # 15,000 pairs over 32 bits at 1e308 s a pair pass the largest float.
    slow = dataclasses.replace(profile, pair_time=1e308)
    rrsim.save_profile(slow, workdir / "slow.json")
    code, out, err = captured([*REL_HIDE, "--profile", "slow.json"])
    assert (code, out) == (cli.EXIT_USAGE, "")
    assert err.startswith("error: ") and "clock" in err and "Traceback" not in err
    assert sorted(os.listdir()) == ["slow.json"]


@pytest.mark.parametrize("changes, payload", [
    ({"pair_time": 10**400}, "0x5A5A5A5A"),
    # No 1-bit stresses nothing, so only the printed encode time overflows.
    ({"pair_time": 1e308}, "0x00000000"),
    ({"pair_time": 5e-324}, "0x5A5A5A5A"),  # the bit/min rate overflows
    # Every sampled time was 0.0 s, and retrieve then exited 4.
    ({"set_sigma": 800, "reset_sigma": 900}, "0x5A5A5A5A"),
    ({"chip_variation": 1000}, "0x5A5A5A5A"),
    # Squaring these once escaped as OverflowError.
    ({"set_sigma": 1e200, "reset_sigma": 1e200}, "0x5A5A5A5A"),
    ({"chip_variation": 1e200}, "0x5A5A5A5A"),
], ids=["huge-pair-time", "pair-time-1e308", "pair-time-5e-324", "wide-sigmas",
        "wide-chip-variation", "overflowing-sigmas", "overflowing-chip-variation"])
def test_profile_the_model_cannot_use_is_usage_error(workdir, profile, changes, payload):
    d = json.loads(profile.to_json())
    d.update(changes)
    (workdir / "bad.json").write_text(json.dumps(d))
    code, out, err = captured(["hide", "--payload", payload, "--key-out", "key.json",
                               "--chip-out", "chip.bin", "--address-count", "16384",
                               "--profile", "bad.json"])
    assert (code, out) == (cli.EXIT_USAGE, "")
    assert err.splitlines()[-1].startswith("error: ") and "Traceback" not in err
    assert os.listdir() == ["bad.json"]


def test_stress_count_past_endurance_is_wear_out(workdir):
    # With no 1-bit nothing would be stressed; the key itself is refused.
    code, out, err = captured(["hide", "--payload", "0x00000000", "--key-out", "key.json",
                               "--chip-out", "chip.bin", "--address-count", "16384",
                               "--n-stress", "1" + "0" * 310])
    assert (code, out) == (cli.EXIT_WEAR_OUT, "")
    assert err.splitlines()[-1].startswith("wear-out: ") and "Traceback" not in err
    assert os.listdir() == []
