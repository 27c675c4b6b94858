"""End-to-end command-line behaviour, exit codes, reproducibility."""

import json
import os

import pytest

import rrsim
from rrsim import cli


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

    def test_corrupt_chip_state_is_format_error(self, workdir):
        run(hide_args(workdir))
        (workdir / "chip.bin").write_bytes(b"garbage")
        code = run(["retrieve", "--key", str(workdir / "key.json"),
                    "--chip", str(workdir / "chip.bin")])
        assert code == cli.EXIT_FORMAT

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

    def test_empty_grid_header_only(self, workdir):
        code = run(["sweep", "--kind", "initial-stress", "--grid", "",
                    "--out", str(workdir / "empty.csv"),
                    "--address-count", "16384", "--seed", "4"])
        assert code == 0
        rows = [ln for ln in (workdir / "empty.csv").read_text().splitlines()
                if ln and not ln.startswith("#")]
        assert rows == \
            ["sweep_id,N,post_stress,op,replica_size,min_distance_s,ber,errors"]

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
            ["sweep", "--kind", "initial-stress", "--grid", "",
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
    run(["sweep", "--kind", "initial-stress", "--grid", "",
         "--out", str(workdir / "a.csv"), "--address-count", "16384"])
    parser = cli._parser()
    run(["sweep", "--kind", "initial-stress", "--grid", "",
         "--out", str(workdir / "b.csv"), "--address-count", "16384"])
    assert cli._parser() is parser
    assert cli.build_parser() is not parser
    assert (workdir / "a.csv").read_bytes() == (workdir / "b.csv").read_bytes()
