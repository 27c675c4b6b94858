"""Golden RNG streams: seeded chip state, traces and sweep CSVs are pinned.

A speed change to the chip or codec must leave every byte below
unchanged.  The digests were recorded before the chip's strictly
increasing fast path existed, so a pass here shows that the fast path and
the general one it replaced produce identical wear, clocks and draws.
"""

import hashlib
import warnings

import numpy as np

import rrsim
from rrsim import cli, harness
from conftest import fresh_chip

PAYLOAD = "0xECE3038B"

# 16 K chip, block layout: 8,000 addresses from base 100, so the erase is
# 31 full buffers plus 64 bytewise stragglers.
BLOCK_KEY = rrsim.HidingKey(base_address=100, replica_size=250, replica_count=1,
                            rotations=(0,), payload_length=32, stress_count=15_000)
# 4 K chip, four rotated rows of replica 8, with software jitter enabled.
ROWS_KEY = rrsim.HidingKey(base_address=3, replica_size=8, replica_count=4,
                           rotations=(5, 0, 31, 17), payload_length=32,
                           stress_count=20_000)

GOLDEN = {
    "block.busy": "2400.160775310958",
    "block.state": "83d6257f935b01b02dc742927924ef52d9be0d84d1f9ff86e856285ce03377a8",
    "block.set_times": "9628ad0c754cf6e73f9b662dc1d9975ab39f1df6783f6261f61cb90f888a15be",
    "block.reset_times": "fdfcf00aef2288a1ca00f91576cfd25d710abb63140d34cfe8755a53dcee2605",
    "rows.busy": "5000.02",
    "rows.state": "46e92e02961aa13c6a7570a238a1db83dd647141a11e61459bbfb133b537102c",
    "rows.set_times": "880ff17d95f1e03efdd9077dab526f10013634c9e1625b37ddfe9ab1da82c7c8",
    "rows.reset_times": "72da9536d2cac8236447cd55f746f4020b3a713a216f1ff675e5a29ae9ab243a",
    "erase.busy": "0.16581527035792423",
    "erase.clock": "1234.6658152703612",
    "erase.state": "20add58a4059a023a2be7f8d9b3814e6534c12b820a80d4b71ee0588a2a50e7e",
    "post_hiding.csv": "d0ea1c2dd32681ecd1231ce403d58fc11f3f35561f43cc33eedd62f6db638343",
    "replica_size.csv": "cb33b0d961f472990f365d20d748e873ff0536bbcb74f13b4a2b22605580dd42",
    "initial_stress.csv": "3308639cd82437177e8b4a9e43da76afa5cbd65dc758668b3586ba1d57f234ea",
    "attack_wrong_base.csv": "4615ffc8f78a31e64ebf9ecd86d74dbf4352a18806b3f08ab90bf9dcc411370d",
    "attack_wrong_key.csv": "77a693f5858fcd5be8153575ea0fb474e82a926461eb54f584b8771e42096b23",
    "key.json": "569c8c7528cebf789e3eff07dfb6137ee493d3af9611a50ccd558108bf23df0d",
    "default.profile.json": "322c66311928355f76061ba45bfc9e30a91c33ff7d3ee69917551f242a4437e2",
    "fitted.profile.json": "176c99167052678eb6382f038953584d0ea001f83de437ff865f454d1964df49",
    "records.csv": "f612d61298ce0cf0e98949fe0ac0739226c15d44f3cc10e08c59ff3223f94c3c",
}


def sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def round_trip_digests(chip, key, name):
    report = rrsim.encode(chip, key, rrsim.Payload.from_hex(PAYLOAD))
    digests = {f"{name}.busy": repr(report.chip_busy_seconds),
               f"{name}.state": sha(chip.save_state())}
    # decode keeps only bit means, so a twin makes the same measurement.
    plan = rrsim.AddressPlan(key, chip.geometry)
    trace = chip.clone().measure_trace(plan.addresses)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        result = rrsim.decode(chip, key)
    assert result.payload.to_hex() == PAYLOAD
    assert np.array_equal(result.bit_means, plan.bit_means(trace.set_times))
    digests[f"{name}.set_times"] = sha(trace.set_times.tobytes())
    digests[f"{name}.reset_times"] = sha(trace.reset_times.tobytes())
    return digests


def with_stored_data(chip, key, seed):
    """Fill the footprint with random bytes so the erase toggles bits."""
    addrs = rrsim.AddressPlan(key, chip.geometry).addresses
    rng = np.random.Generator(np.random.PCG64(seed))
    chip.set_values(addrs, rng.integers(0, 256, len(addrs), dtype=np.uint8))
    return chip


def test_block_layout_streams(profile):
    chip = with_stored_data(fresh_chip(profile, seed=101), BLOCK_KEY, 1)
    digests = round_trip_digests(chip, BLOCK_KEY, "block")
    assert digests == {k: v for k, v in GOLDEN.items() if k.startswith("block.")}


def test_rotated_rows_streams(profile):
    chip = rrsim.new_chip(rrsim.ChipGeometry(address_count=4096), profile,
                          seed=202, random_delay_enabled=True)
    digests = round_trip_digests(chip, ROWS_KEY, "rows")
    assert digests == {k: v for k, v in GOLDEN.items() if k.startswith("rows.")}


def test_erase_only_clock_and_wear(profile):
    # With no stress the clock holds the erase's command times alone, so
    # its last bits show the order in which they were added.
    key = rrsim.HidingKey(100, 250, 1, (0,), 32, 0)
    chip = with_stored_data(fresh_chip(profile, seed=505), key, 2)
    chip.simulated_clock = 1234.5
    report = rrsim.encode(chip, key, rrsim.Payload.from_hex(PAYLOAD))
    assert {"erase.busy": repr(report.chip_busy_seconds),
            "erase.clock": repr(chip.simulated_clock),
            "erase.state": sha(chip.save_state())} == \
        {k: v for k, v in GOLDEN.items() if k.startswith("erase.")}


def test_post_hiding_sweep_csv(profile, tmp_path):
    # Reset times at 100 K post-stress lose bits, so the error count is live.
    reports = harness.sweep_post_hiding(
        lambda: fresh_chip(profile, seed=303), [15_000], [0, 100_000], op="reset")
    out = tmp_path / "post.csv"
    harness.write_reports_csv(out, "post-hiding", reports, seed=303)
    assert sha(out.read_bytes()) == GOLDEN["post_hiding.csv"]


def csv_digest(tmp_path, sweep_id, reports, seed):
    out = tmp_path / f"{sweep_id}.csv"
    harness.write_reports_csv(out, sweep_id, reports, seed=seed)
    return sha(out.read_bytes())


def test_replica_size_sweep_csv(profile, tmp_path):
    seeds = iter(range(610, 620))
    reports = harness.sweep_replica_size(
        lambda: fresh_chip(profile, seed=next(seeds)), [8, 32, 128],
        op="set", rng_seed=6)
    assert csv_digest(tmp_path, "replica-size", reports, 6) == \
        GOLDEN["replica_size.csv"]


def test_initial_stress_sweep_csv(profile, tmp_path):
    seeds = iter(range(710, 720))
    reports = harness.sweep_initial_stress(
        lambda: fresh_chip(profile, seed=next(seeds)), [0, 60_000], 15_000,
        ops=("set", "reset"))
    assert [r.op for r in reports] == ["set", "reset"] * 2
    assert csv_digest(tmp_path, "initial-stress", reports, 7) == \
        GOLDEN["initial_stress.csv"]


def hidden_chip(profile, seed):
    chip = fresh_chip(profile, seed=seed)
    key = rrsim.HidingKey(512, 128, 1, (0,), 32, 15_000)
    truth = rrsim.Payload.from_hex(PAYLOAD)
    rrsim.encode(chip, key, truth)
    return chip, key, truth


def test_attack_wrong_base_csv(profile, tmp_path):
    # The attacks decode a clone, so the honest chip is left untouched.
    chip, key, truth = hidden_chip(profile, 808)
    state = sha(chip.save_state())
    reports = [harness.attack_wrong_base(chip, key, truth, offset_mode=case)
               for case in ("case1", "case2", "case3")]
    assert sha(chip.save_state()) == state
    assert csv_digest(tmp_path, "attack-wrong-base", reports, 808) == \
        GOLDEN["attack_wrong_base.csv"]


def test_attack_wrong_key_csv(profile, tmp_path):
    chip, key, truth = hidden_chip(profile, 909)
    state = sha(chip.save_state())
    reports = [harness.attack_wrong_key(chip, key, truth, rng_seed=9, op="reset")]
    assert sha(chip.save_state()) == state
    assert csv_digest(tmp_path, "attack-wrong-key", reports, 909) == \
        GOLDEN["attack_wrong_key.csv"]


def test_reencode_warning_text_reads_footprint_wear(profile):
    chip = fresh_chip(profile, seed=404)
    payload = rrsim.Payload.from_hex(PAYLOAD)
    rrsim.encode(chip, BLOCK_KEY, payload)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rrsim.encode(chip, BLOCK_KEY, payload)
    texts = [str(w.message) for w in caught
             if issubclass(w.category, rrsim.UsedCellsWarning)]
    ones = np.count_nonzero(np.array(payload.bits))
    mean = ones * 250 * 15_000 / 8000
    assert texts == [f"target cells already carry {mean:.1f} mean pairs of wear"]


# The text files: JSON with sorted keys and "\n" line ends, CSV rows with
# the csv module's "\r\n" under a "\n"-ended seed line.

def test_key_file_bytes(tmp_path):
    key = rrsim.generate_key(32, 100, 256, 4, 15_000, rng_seed=11)
    rrsim.save_key(key, tmp_path / "key.json")
    assert sha((tmp_path / "key.json").read_bytes()) == GOLDEN["key.json"]
    assert rrsim.load_key(tmp_path / "key.json") == key


def test_shipped_profile_file_bytes(profile, tmp_path):
    rrsim.save_profile(profile, tmp_path / "p.json")
    assert sha((tmp_path / "p.json").read_bytes()) == GOLDEN["default.profile.json"]
    assert rrsim.load_profile(tmp_path / "p.json") == profile


def fitted_records(profile):
    return rrsim.synthesize_records(profile, range(0, 1_000_001, 100_000), seed=12)


def test_fitted_profile_file_bytes(profile, tmp_path):
    fitted = rrsim.fit_profile(fitted_records(profile))
    rrsim.save_profile(fitted, tmp_path / "fit.json")
    assert sha((tmp_path / "fit.json").read_bytes()) == GOLDEN["fitted.profile.json"]
    assert rrsim.load_profile(tmp_path / "fit.json") == fitted


def test_records_csv_bytes(profile, tmp_path):
    records = fitted_records(profile)
    cli.write_records_csv(tmp_path / "rec.csv", records, seed=12)
    assert sha((tmp_path / "rec.csv").read_bytes()) == GOLDEN["records.csv"]
    assert cli.read_records_csv(tmp_path / "rec.csv") == records
