"""Codec behaviour: keys, layouts, encode wear, decode, clustering, ECC."""

import json
import warnings

import numpy as np
import pytest

import rrsim
from rrsim.chip import UNITS_PER_PAIR
from rrsim.codec import best_threshold, rotate_left
from conftest import fresh_chip, rng_for


class TestPayload:
    def test_hex_round_trip(self):
        p = rrsim.Payload.from_hex("0xECE3038B")
        assert len(p) == 32
        assert p.to_hex() == "0xECE3038B"

    def test_msb_first_bit_order(self):
        p = rrsim.Payload.from_hex("0x80", length=8)
        assert p.bits == (1, 0, 0, 0, 0, 0, 0, 0)

    def test_bad_hex_rejected(self):
        with pytest.raises(rrsim.ConfigurationError):
            rrsim.Payload.from_hex("0xZZ")
        with pytest.raises(rrsim.ConfigurationError):
            rrsim.Payload(())

    def test_explicit_length(self):
        p = rrsim.Payload.from_hex("0x5", length=3)
        assert p.bits == (1, 0, 1)

    @pytest.mark.parametrize("length", [0, -1, -64])
    def test_length_below_one_rejected(self, length):
        with pytest.raises(rrsim.ConfigurationError, match="at least 1 bit"):
            rrsim.Payload.from_hex("0x5", length=length)


class TestKeyGeneration:
    def test_sixteen_single_address_replicas(self):
        key = rrsim.generate_key(8, 0, 1, 16, 15_000, rng_seed=3)
        assert len(key.rotations) == 16
        assert all(0 <= k <= 7 for k in key.rotations)
        assert key.footprint == 128
        assert key.layout_mode == "rows"

    def test_single_replica_reproducible(self):
        a = rrsim.generate_key(32, 0, 256, 1, 15_000, rng_seed=9)
        b = rrsim.generate_key(32, 0, 256, 1, 15_000, rng_seed=9)
        assert a == b
        assert len(a.rotations) == 1

    def test_rotations_uniform_by_chi_square(self):
        # 10^5 displacement draws, eight bins, 1% critical value 18.475.
        key = rrsim.generate_key(8, 0, 1, 100_000, 15_000, rng_seed=11)
        counts = np.bincount(key.rotations, minlength=8)
        expected = 100_000 / 8
        chi2 = float(((counts - expected) ** 2 / expected).sum())
        assert chi2 < 18.475

    def test_footprint_overflow_rejected(self, small_geometry):
        with pytest.raises(rrsim.ConfigurationError):
            rrsim.generate_key(32, 0, 256, 4, 15_000, rng_seed=1,
                               geometry=small_geometry)

    def test_key_file_round_trip(self, tmp_path):
        key = rrsim.generate_key(8, 64, 4, 16, 15_000, rng_seed=5)
        path = tmp_path / "k.json"
        rrsim.save_key(key, path)
        assert rrsim.load_key(path) == key

    def test_corrupt_key_file(self, tmp_path):
        path = tmp_path / "k.json"
        path.write_text("{\"format\": \"rrsim-key\", \"version\": 1}")
        with pytest.raises(rrsim.FormatError):
            rrsim.load_key(path)
        with pytest.raises(rrsim.FormatError):
            rrsim.load_key(tmp_path / "missing.json")


class TestAddressPlan:
    def test_block_mode_layout(self, small_geometry):
        key = rrsim.HidingKey(0, 256, 1, (0,), 32, 15_000)
        plan = rrsim.AddressPlan(key, small_geometry)
        assert key.footprint == 8192
        assert np.array_equal(plan.addresses_for_bit(0), np.arange(256))
        assert np.array_equal(plan.addresses_for_bit(31),
                              np.arange(31 * 256, 32 * 256))

    def test_zero_rotation_row_is_identity(self, small_geometry):
        key = rrsim.HidingKey(0, 4, 1, (0,), 8, 15_000)
        plan = rrsim.AddressPlan(key, small_geometry)
        for b in range(8):
            assert np.array_equal(plan.addresses_for_bit(b),
                                  np.arange(b * 4, (b + 1) * 4))

    def test_rotated_row_pattern(self, small_geometry):
        # Payload 10000000 rotated by K=1 is stored as 00000001.
        payload = rrsim.Payload.from_hex("0x80", length=8)
        key = rrsim.HidingKey(0, 1, 1, (1,), 8, 15_000)
        plan = rrsim.AddressPlan(key, small_geometry)
        stored = payload.to_array()[plan.bit_of_address[:8]]
        assert list(stored) == [0, 0, 0, 0, 0, 0, 0, 1]

    def test_bits_are_disjoint_and_cover(self, small_geometry):
        key = rrsim.generate_key(8, 32, 4, 6, 15_000, rng_seed=21,
                                 geometry=small_geometry)
        plan = rrsim.AddressPlan(key, small_geometry)
        seen = np.concatenate([plan.addresses_for_bit(b) for b in range(8)])
        assert len(np.unique(seen)) == key.footprint
        assert seen.min() == 32 and seen.max() == 32 + key.footprint - 1

    def test_overflow_rejected(self, small_geometry):
        key = rrsim.HidingKey(16000, 256, 1, (0,), 32, 15_000)
        with pytest.raises(rrsim.ConfigurationError):
            rrsim.AddressPlan(key, small_geometry)


class TestRotation:
    def test_inverse(self):
        bits = (1, 0, 1, 1, 0, 0, 1, 0)
        for k in range(8):
            assert rotate_left(rotate_left(bits, k), (8 - k) % 8) == bits

    def test_composition(self):
        bits = (1, 1, 0, 1, 0, 0, 0, 1)
        for k1 in range(8):
            for k2 in range(8):
                assert rotate_left(rotate_left(bits, k1), k2) == \
                    rotate_left(bits, (k1 + k2) % 8)


class TestEncode:
    def test_encode_report_times(self, profile, chip):
        key = rrsim.HidingKey(0, 256, 1, (0,), 32, 15_000)
        payload = rrsim.Payload.from_hex("0xECE3038B")
        report = rrsim.encode(chip, key, payload)
        # The chip itself only stresses the sixteen 1-bit groups.
        ones = sum(payload.bits)
        assert report.chip_busy_seconds == pytest.approx(
            15_000 * ones * profile.pair_time, rel=1e-3)

    def test_all_zeros_payload_no_stress(self, chip):
        key = rrsim.HidingKey(0, 256, 1, (0,), 32, 15_000)
        rrsim.encode(chip, key, rrsim.Payload((0,) * 32))
        assert np.all(chip.stress_pairs[:8192] == 0)

    def test_wear_split_between_one_and_zero_bits(self, chip):
        key = rrsim.HidingKey(0, 256, 1, (0,), 32, 15_000)
        payload = rrsim.Payload.from_hex("0xECE3038B")
        plan = rrsim.AddressPlan(key, chip.geometry)
        rrsim.encode(chip, key, payload)
        for b, bit in enumerate(payload.bits):
            pairs = chip.stress_pairs[plan.addresses_for_bit(b)]
            assert np.all(pairs == (15_000 if bit else 0))

    def test_length_mismatch_rejected(self, chip):
        key = rrsim.HidingKey(0, 256, 1, (0,), 32, 15_000)
        with pytest.raises(rrsim.ConfigurationError):
            rrsim.encode(chip, key, rrsim.Payload((1, 0, 1)))

    def test_used_cells_warn(self, chip):
        chip.apply_stress_pairs(np.arange(8192), 100)
        key = rrsim.HidingKey(0, 256, 1, (0,), 32, 15_000)
        with pytest.warns(rrsim.UsedCellsWarning):
            rrsim.encode(chip, key, rrsim.Payload((1,) * 32))

    def test_wear_out_becomes_encode_error(self, profile):
        chip = fresh_chip(profile, seed=1, addresses=8192)
        chip.apply_stress_pairs(np.arange(8192), 995_000)
        key = rrsim.HidingKey(0, 256, 1, (0,), 32, 15_000)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            with pytest.raises(rrsim.EncodeError) as err:
                rrsim.encode(chip, key, rrsim.Payload((1,) * 32))
        assert len(err.value.addresses) > 0

    def test_erase_wear_out_becomes_encode_error(self, profile):
        # Cells past the limit holding 0x00: the erase would toggle them.
        chip = fresh_chip(profile, seed=1, addresses=8192)
        chip._units[:] = (profile.endurance_max + 1) * UNITS_PER_PAIR
        chip.set_values(np.arange(8192), 0)
        before = chip.clone()
        key = rrsim.HidingKey(0, 256, 1, (0,), 32, 15_000)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            with pytest.raises(rrsim.EncodeError) as err:
                rrsim.encode(chip, key, rrsim.Payload((1, 0) * 16))
        assert err.value.addresses == list(range(8192))
        assert chip == before


class TestDecode:
    def test_round_trip(self, profile):
        chip = fresh_chip(profile, seed=1234)
        key = rrsim.HidingKey(0, 256, 1, (0,), 32, 15_000)
        payload = rrsim.Payload.from_hex("0xECE3038B")
        rrsim.encode(chip, key, payload)
        result = rrsim.decode(chip, key)
        assert result.to_hex() == "0xECE3038B"
        assert not result.ambiguous

    def test_round_trip_with_reset_times(self, profile):
        chip = fresh_chip(profile, seed=1234)
        key = rrsim.HidingKey(0, 256, 1, (0,), 32, 15_000)
        payload = rrsim.Payload.from_hex("0xECE3038B")
        rrsim.encode(chip, key, payload)
        result = rrsim.decode(chip, key, op="reset")
        assert result.to_hex() == "0xECE3038B"

    def test_round_trip_rotated_rows(self, profile):
        chip = fresh_chip(profile, seed=77)
        key = rrsim.generate_key(32, 0, 8, 16, 15_000, rng_seed=5,
                                 geometry=chip.geometry)
        payload = rrsim.Payload.from_hex("0xDEADBEEF")
        rrsim.encode(chip, key, payload)
        assert rrsim.decode(chip, key).to_hex() == "0xDEADBEEF"

    def test_fresh_chip_decode_is_ambiguous(self, profile):
        chip = fresh_chip(profile, seed=15)
        key = rrsim.HidingKey(0, 256, 1, (0,), 32, 15_000)
        with pytest.warns(rrsim.AmbiguousDecodeWarning):
            result = rrsim.decode(chip, key)
        assert result.ambiguous

    def test_decode_wear_is_one_pair_per_address(self, profile):
        chip = fresh_chip(profile, seed=16)
        key = rrsim.HidingKey(0, 256, 1, (0,), 32, 15_000)
        rrsim.encode(chip, key, rrsim.Payload.from_hex("0xECE3038B"))
        before = chip.stress_pairs[:8192].copy()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            rrsim.decode(chip, key)
        assert np.all(chip.stress_pairs[:8192] - before == 1.0)

    def test_threshold_method(self, profile):
        chip = fresh_chip(profile, seed=17)
        key = rrsim.HidingKey(0, 256, 1, (0,), 32, 15_000)
        payload = rrsim.Payload.from_hex("0x0000FFFF")
        rrsim.encode(chip, key, payload)
        cut = 0.5 * (profile.mean_time("set", 0) + profile.mean_time("set", 15_000))
        result = rrsim.decode(chip, key, method="threshold", threshold=cut)
        assert result.to_hex() == "0x0000FFFF"

    def test_threshold_zero_decodes_all_ones(self, profile):
        chip = fresh_chip(profile, seed=18)
        key = rrsim.HidingKey(0, 256, 1, (0,), 32, 15_000)
        result = rrsim.decode(chip, key, method="threshold", threshold=0.0)
        assert result.payload.bits == (1,) * 32

    def test_reference_method(self, profile):
        chip = fresh_chip(profile, seed=19)
        key = rrsim.HidingKey(0, 256, 1, (0,), 32, 15_000)
        payload = rrsim.Payload.from_hex("0xECE3038B")
        rrsim.encode(chip, key, payload)
        spare = np.arange(8192, 8448)
        result = rrsim.decode(chip, key, method="reference",
                              reference_addresses=spare)
        assert result.to_hex() == "0xECE3038B"

    def test_single_perturbed_rotation_gives_chance_agreement(self, profile):
        # One replica: a wrong displacement misaligns every position.
        agree = 0
        trials, bits = 40, 16
        for t in range(trials):
            rng = rng_for(900 + t)
            payload = rrsim.Payload.random(bits, rng)
            chip = fresh_chip(profile, seed=900 + t, addresses=4096)
            key = rrsim.generate_key(bits, 0, 16, 1, 15_000, rng_seed=900 + t,
                                     geometry=chip.geometry)
            rrsim.encode(chip, key, payload)
            wrong_rot = ((key.rotations[0] + 1 + int(rng.integers(0, bits - 1)))
                         % bits,)
            wrong = rrsim.HidingKey(key.base_address, key.replica_size, 1,
                                    wrong_rot, bits, key.stress_count)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                got = rrsim.decode(chip, wrong)
            agree += sum(a == b for a, b in zip(got.payload.bits, payload.bits))
        rate = agree / (trials * bits)
        # Chance is 0.5; a binomial 4-sigma band around it.
        band = 4 * 0.5 / np.sqrt(trials * bits)
        assert abs(rate - 0.5) < band


class TestKMeans:
    def test_separated_clusters(self):
        labels, (c0, c1) = rrsim.kmeans2([1e-6, 1e-6, 1e-6, 9e-6, 9e-6, 9e-6])
        assert list(labels) == [0, 0, 0, 1, 1, 1]
        assert c0 == pytest.approx(1e-6)
        assert c1 == pytest.approx(9e-6)

    def test_identical_values_single_cluster(self):
        labels, (c0, c1) = rrsim.kmeans2([5.0, 5.0, 5.0, 5.0])
        assert c0 == c1 == 5.0
        assert not labels.any()

    def test_needs_two_values(self):
        with pytest.raises(rrsim.ConfigurationError):
            rrsim.kmeans2([1.0])

    def test_matches_brute_force_threshold(self):
        rng = rng_for(31)
        for _ in range(300):
            n0, n1 = rng.integers(2, 24, 2)
            gap = 1.0 + 3 * rng.random()
            vals = np.concatenate([
                rng.normal(0.0, 1.0, n0),
                rng.normal(gap + 4.0, 1.0, n1),
            ])
            rng.shuffle(vals)
            k_labels, _ = rrsim.kmeans2(vals)
            cut, t_labels = best_threshold(vals)
            assert np.array_equal(k_labels, t_labels)


class TestEcc:
    def test_majority_corrects_single_flip(self):
        payload = rrsim.Payload((1, 0, 1, 1))
        coded = rrsim.apply_ecc(payload, 3)
        assert len(coded) == 12
        bits = list(coded.bits)
        bits[4] ^= 1
        assert rrsim.strip_ecc(rrsim.Payload(tuple(bits)), 3) == payload

    def test_k1_is_identity(self):
        payload = rrsim.Payload((0, 1, 1))
        assert rrsim.apply_ecc(payload, 1) == payload
        assert rrsim.strip_ecc(payload, 1) == payload

    def test_even_k_rejected(self):
        with pytest.raises(rrsim.ConfigurationError):
            rrsim.apply_ecc(rrsim.Payload((1,)), 2)

    def test_two_random_flips_match_binomial_oracle(self):
        # Two flips across 96 coded bits fail only when they share a
        # 3-bit block: 32 * C(3,2) / C(96,2) of the placements.
        rng = rng_for(32)
        payload = rrsim.Payload(tuple(int(b) for b in rng.integers(0, 2, 32)))
        coded = rrsim.apply_ecc(payload, 3)
        fails = 0
        trials = 4000
        for _ in range(trials):
            i, j = rng.choice(96, size=2, replace=False)
            bits = list(coded.bits)
            bits[i] ^= 1
            bits[j] ^= 1
            if rrsim.strip_ecc(rrsim.Payload(tuple(bits)), 3) != payload:
                fails += 1
        expected = 32 * 3 / (96 * 95 / 2)
        sd = np.sqrt(expected * (1 - expected) / trials)
        assert abs(fails / trials - expected) < 4 * sd


class TestKeyFieldTypes:
    def _text(self, **changes):
        d = json.loads(rrsim.HidingKey(64, 4, 2, (1, 3), 8, 15_000).to_json())
        d.update(changes)
        return json.dumps(d)

    def test_valid_key_still_loads(self):
        key = rrsim.HidingKey.from_json(self._text())
        assert key == rrsim.HidingKey(64, 4, 2, (1, 3), 8, 15_000)

    @pytest.mark.parametrize("field", ["base_address", "replica_size",
                                       "replica_count", "payload_length",
                                       "stress_count"])
    @pytest.mark.parametrize("value", [1.5, 2.0, True, "2", None, float("nan")])
    def test_non_integer_field_rejected(self, field, value):
        with pytest.raises(rrsim.FormatError, match=field):
            rrsim.HidingKey.from_json(self._text(**{field: value}))

    @pytest.mark.parametrize("rotations", [[1, 3.0], [True, 0], [1, "3"],
                                           "13", {"0": 1}, [1, float("nan")]])
    def test_non_integer_rotations_rejected(self, rotations):
        with pytest.raises(rrsim.FormatError, match="rotations"):
            rrsim.HidingKey.from_json(self._text(rotations=rotations))

    @pytest.mark.parametrize("text", ["[1, 2]", "\"rrsim-key\"", "7", "{not json"])
    def test_non_object_json_rejected(self, text):
        with pytest.raises(rrsim.FormatError):
            rrsim.HidingKey.from_json(text)

    @pytest.mark.parametrize("changes, match", [
        ({"version": 2}, "version"),
        # replica_count 2 makes a rows key.
        ({"layout_mode": "block"}, "layout_mode")])
    def test_header_disagreement_rejected(self, changes, match):
        with pytest.raises(rrsim.FormatError, match=match):
            rrsim.HidingKey.from_json(self._text(**changes))


class TestReferenceOverlap:
    """Reference cells must be fresh, so none may lie in the footprint."""

    def hidden(self, profile, base):
        chip = fresh_chip(profile, seed=3)
        key = rrsim.HidingKey(base, 256, 1, (0,), 32, 15_000)
        rrsim.encode(chip, key, rrsim.Payload.from_hex("0xECE3038B"))
        return chip, key

    @pytest.mark.parametrize("first", [1, 255, 8192 + 255])
    def test_overlap_rejected_before_measuring(self, profile, first):
        chip, key = self.hidden(profile, 256)
        before = chip.clone()
        with pytest.raises(rrsim.ConfigurationError):
            rrsim.decode(chip, key, method="reference",
                         reference_addresses=np.arange(first, first + 256))
        assert chip == before

    # Lists that leave the chip, decrease, repeat, or are empty (whose mean
    # reference time was NaN).
    @pytest.mark.parametrize("refs, error", [
        (np.arange(16_300, 16_556), rrsim.BoundsError),
        (np.arange(-10, 246), rrsim.BoundsError),
        (np.arange(9000, 8744, -1), rrsim.ConfigurationError),
        (np.repeat(np.arange(9000, 9128), 2), rrsim.ConfigurationError),
        (np.arange(0), rrsim.ConfigurationError),
        (np.arange(9000, 9256) + 0.5, rrsim.ConfigurationError)])
    def test_bad_list_refused_before_measuring(self, profile, refs, error):
        chip, key = self.hidden(profile, 256)
        before = chip.clone()
        with pytest.raises(error):
            rrsim.decode(chip, key, method="reference", reference_addresses=refs)
        assert chip == before

    @pytest.mark.parametrize("first", [0, 256 + 8192])
    def test_cells_next_to_footprint_accepted(self, profile, first):
        chip, key = self.hidden(profile, 256)
        result = rrsim.decode(chip, key, method="reference",
                              reference_addresses=np.arange(first, first + 256))
        assert result.to_hex() == "0xECE3038B"


class TestDecodeArgumentsCheckedFirst:
    """A refused decode leaves the chip as it was: no wear, no clock."""

    @pytest.mark.parametrize("kwargs", [
        {"method": "magic"}, {"method": "threshold"},
        {"method": "reference"}, {"op": "both"},
        {"method": "threshold", "threshold": float("nan")},
        {"method": "threshold", "threshold": float("inf")}])
    def test_refused_before_measuring(self, profile, kwargs):
        chip = fresh_chip(profile, seed=3)
        key = rrsim.HidingKey(0, 256, 1, (0,), 32, 15_000)
        rrsim.encode(chip, key, rrsim.Payload.from_hex("0xECE3038B"))
        before = chip.clone()
        with pytest.raises(rrsim.ConfigurationError):
            rrsim.decode(chip, key, **kwargs)
        assert chip == before

    def test_kmeans_refuses_a_one_bit_key(self, profile):
        # Two clusters need two bit means; the refusal names the method that
        # decodes a single bit and comes before the footprint is measured.
        chip = fresh_chip(profile, seed=3)
        key = rrsim.HidingKey(0, 256, 1, (0,), 1, 15_000)
        rrsim.encode(chip, key, rrsim.Payload((1,)))
        before = chip.clone()
        with pytest.raises(rrsim.ConfigurationError, match="reference"):
            rrsim.decode(chip, key)
        assert chip == before
        result = rrsim.decode(chip, key, method="reference",
                              reference_addresses=np.arange(256, 512))
        assert result.payload.bits == (1,)
