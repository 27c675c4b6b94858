"""Self-tests for the benchmark's checks: each must reject a wrong output.

    python3 -m pytest bench/test_checks.py -q
"""

import json
import os
import sys

import numpy as np
import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import checks  # noqa: E402
import workloads  # noqa: E402
from checks import CheckError  # noqa: E402

SECOND_SEED = 7


@pytest.fixture(scope="module")
def roundtrip():
    wl = workloads.Roundtrip(0, "")
    bits, chip_seed = wl.inputs(0)[0]
    chip, report, result = wl.op(bits, chip_seed)
    return dict(bits=bits, decoded=result.payload.bits, bit_means=result.bit_means,
                wear=chip.wear_units(wl.addresses), busy_s=report.chip_busy_seconds,
                n_stress=workloads.N_STRESS, replica_size=wl.replica_size)


@pytest.fixture(scope="module", params=[False, True], ids=["block", "rows"])
def cli_run(request, tmp_path_factory):
    wl = workloads.CliFullchip(0, str(tmp_path_factory.mktemp("cli")))
    bits, chip_seed, base, _ = wl.inputs(0)[0]
    outcome = wl.op(bits, chip_seed, base, request.param)
    with open(wl.key_path, encoding="utf-8") as fh:
        key = json.load(fh)
    with open(wl.state_path, "rb") as fh:
        state = fh.read()
    return dict(bits=bits, outcome=outcome, key=key, state=state,
                address_count=wl.address_count, n_stress=workloads.N_STRESS)


def run_cli_check(c, **changes):
    c = {**c, **changes}
    checks.check_cli(c["bits"], *c["outcome"], c["key"], c["state"],
                     c["address_count"], c["n_stress"])


def test_two_means_brute_force():
    assert checks.two_means_bits([1.0, 9.0, 1.2, 8.5, 0.9]) == (0, 1, 0, 1, 0)
    assert checks.two_means_bits([0.0, 0.0, 10.0]) == (0, 0, 1)


def test_roundtrip_accepts_real_output(roundtrip):
    checks.check_roundtrip(**roundtrip)


def test_roundtrip_rejects_flipped_payload_bit(roundtrip):
    decoded = list(roundtrip["decoded"])
    decoded[5] ^= 1
    with pytest.raises(CheckError):
        checks.check_roundtrip(**{**roundtrip, "decoded": tuple(decoded)})


def test_roundtrip_rejects_split_other_than_two_means(roundtrip):
    means = np.array(roundtrip["bit_means"])
    means[roundtrip["bits"].index(1)] = means.min() / 2
    with pytest.raises(CheckError, match="two-means"):
        checks.check_roundtrip(**{**roundtrip, "bit_means": means})


@pytest.mark.parametrize("bit", [0, 1])
def test_roundtrip_rejects_wear_off_by_one(roundtrip, bit):
    wear = roundtrip["wear"].copy()
    wear[roundtrip["bits"].index(bit) * roundtrip["replica_size"] + 3] += 1
    with pytest.raises(CheckError, match="wear"):
        checks.check_roundtrip(**{**roundtrip, "wear": wear})


def test_roundtrip_rejects_wear_outside_footprint(roundtrip):
    wear = roundtrip["wear"].copy()
    wear[-1] = 1
    with pytest.raises(CheckError, match="wear"):
        checks.check_roundtrip(**{**roundtrip, "wear": wear})


def test_roundtrip_rejects_busy_time(roundtrip):
    with pytest.raises(CheckError, match="busy"):
        checks.check_roundtrip(**{**roundtrip, "busy_s": roundtrip["busy_s"] + 0.005})


def test_busy_time_counts_buffered_commands():
    bits = (1, 1, 0, 1) + (0,) * 28
    # Bits 0-1 are one 512-address run (2 commands), bit 3 another (1).
    assert checks.encode_busy_s(32 * 256, bits, 0, 256, (0,), 15_000) == \
        pytest.approx(32 * 0.005 + 15_000 * 3 * 0.010)


def test_cli_accepts_real_output(cli_run):
    run_cli_check(cli_run)


def test_cli_rejects_truncated_state(cli_run):
    with pytest.raises(CheckError, match="bytes"):
        run_cli_check(cli_run, state=cli_run["state"][:-1])


def test_cli_rejects_wear_off_by_one(cli_run):
    cells = np.frombuffer(cli_run["state"], dtype=checks.STATE_CELL,
                          offset=checks.STATE_HEADER_BYTES).copy()
    key = cli_run["key"]
    cells["stress"][key["base_address"] + key["replica_size"] - 1] += 1
    state = cli_run["state"][:checks.STATE_HEADER_BYTES] + cells.tobytes()
    with pytest.raises(CheckError, match="wear"):
        run_cli_check(cli_run, state=state)


def test_cli_rejects_flipped_payload_bit(cli_run):
    bits = list(cli_run["bits"])
    bits[0] ^= 1
    with pytest.raises(CheckError):
        run_cli_check(cli_run, bits=tuple(bits))


def test_cli_rejects_exit_code_and_encode_time(cli_run):
    hide_code, retrieve_code, hide_out, retrieve_out = cli_run["outcome"]
    with pytest.raises(CheckError, match="exit"):
        run_cli_check(cli_run, outcome=(hide_code, 4, hide_out, retrieve_out))
    wrong = hide_out.replace("encode time: 4800 s", "encode time: 4810 s")
    with pytest.raises(CheckError, match="encode time"):
        run_cli_check(cli_run, outcome=(hide_code, retrieve_code, wrong, retrieve_out))


@pytest.mark.parametrize("set_p,reset_p,threshold", [
    (1.15 + 0.051, 1.40, 12_000),
    (1.15, 1.40 - 0.051, 12_000),
    (1.15, 1.40, 7_000),
    (1.15, 1.40, 17_000),
])
def test_fit_rejects_values_out_of_band(set_p, reset_p, threshold):
    with pytest.raises(CheckError):
        checks.check_fit(set_p, reset_p, threshold)


def test_fit_rejects_real_exponent_pushed_out():
    wl = workloads.Calibrate(0, "")
    _, fitted, threshold = wl.op(0, 0)
    checks.check_fit(fitted.set_curve.p, fitted.reset_curve.p, threshold)
    with pytest.raises(CheckError, match="set exponent"):
        checks.check_fit(fitted.set_curve.p + 0.06, fitted.reset_curve.p, threshold)


def test_fit_failure_predicted_from_means():
    assert checks.fit_should_fail([1, 2, 3], [1, 3, 3])
    assert not checks.fit_should_fail([1, 2, 3], [1, 2, 4])


def test_experiment_checks_reject_wrong_reports():
    with pytest.raises(CheckError):
        checks.check_post_hiding([(15_000, 0, 1), (15_000, 10_000, 0)], "set")
    with pytest.raises(CheckError):
        checks.check_post_hiding([(15_000, 0, 2), (15_000, 10_000, 0)], "reset")
    with pytest.raises(CheckError):
        checks.check_tolerance_order({("set", 15_000): [100_000],
                                      ("set", 30_000): [90_000]})
    with pytest.raises(CheckError):
        checks.check_replica_order([(32, -1.0), (64, 1.0)], [(32, 1.0), (64, 1.0)])
    with pytest.raises(CheckError):
        checks.check_honest(-1e-6)
    with pytest.raises(CheckError):
        checks.check_attacks([-1.0] * 98 + [1.0] * 2, [0.5] * 100)
    with pytest.raises(CheckError):
        checks.check_attacks([-1.0] * 100, [0.3] * 100)


def test_tolerance_stops_at_first_error():
    assert checks.zero_error_tolerance([(0, 0), (10, 0), (20, 1), (30, 0)]) == 10
    assert checks.zero_error_tolerance([(0, 1), (10, 0)]) == 0


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_second_seed_passes_every_check(name, tmp_path):
    wl = workloads.WORKLOADS[name](SECOND_SEED, str(tmp_path))
    try:
        rec = workloads.Recorder()
        wl.run_round(0, rec)
        wl.finish()
    finally:
        wl.close()
    assert rec.attempted > 0
