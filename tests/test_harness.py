"""Aging, attacks, sweeps and the pure performance calculators."""

import warnings
from fractions import Fraction

import numpy as np
import pytest

import rrsim
from rrsim import harness
from conftest import fresh_chip, rng_for


def report_invariants_ok(report):
    """Zero-error criterion equivalence, checked on every report we make."""
    if report.min_distance == float("inf"):   # one class is empty
        return True
    return (report.bit_error_count == 0) == (report.min_distance > 0)


class TestSimulateUsage:
    def test_worst_case_accounting(self, chip):
        harness.simulate_usage(chip, harness.WORST_CASE, 50_000, (100, 300))
        assert np.all(chip.stress_pairs[100:400] == 50_000)
        assert np.all(chip.stress_pairs[:100] == 0)
        assert np.all(chip.stress_pairs[400:] == 0)

    def test_zero_cycles_is_identity(self, chip):
        harness.simulate_usage(chip, harness.REALISTIC, 0, (0, 1024))
        assert np.all(chip.stress_pairs == 0)
        assert chip.simulated_clock == 0.0

    def test_realistic_mean_wear_tracks_cycles(self, chip):
        harness.simulate_usage(chip, harness.REALISTIC, 20_000, (0, 2048))
        mean_pairs = chip.stress_pairs[:2048].mean()
        assert mean_pairs == pytest.approx(20_000, rel=0.02)

    def test_realistic_pattern_is_lsb_heavy(self):
        # Low bit positions toggle more often than high ones.
        probs = harness.REALISTIC.toggle_probs
        assert all(a > b for a, b in zip(probs, probs[1:]))

    def test_region_bounds_checked(self, chip):
        with pytest.raises(rrsim.BoundsError):
            harness.simulate_usage(chip, harness.WORST_CASE, 10,
                                   (chip.geometry.address_count - 5, 10))

    def test_unknown_pattern_rejected(self):
        with pytest.raises(rrsim.ConfigurationError):
            harness.UsagePattern("sequential")


class TestRetentionAndBake:
    def _hidden_chip(self, profile, seed, n=15_000):
        chip = fresh_chip(profile, seed)
        key = rrsim.HidingKey(0, 256, 1, (0,), 32, n)
        payload = rrsim.Payload.from_hex("0xECE3038B")
        rrsim.encode(chip, key, payload)
        return chip, key, payload

    def test_two_month_retention_decodes_clean(self, profile):
        chip, key, payload = self._hidden_chip(profile, seed=61)
        harness.age_retention(chip, 62 * 86400.0)
        assert rrsim.decode(chip, key).payload == payload

    def test_zero_retention_identity(self, profile):
        a, key, _ = self._hidden_chip(profile, seed=62)
        b = a.clone()
        harness.age_retention(b, 0.0)
        assert np.array_equal(rrsim.decode(a, key).bit_means,
                              rrsim.decode(b, key).bit_means)

    def test_configured_drift_shifts_means(self, profile):
        drifty = rrsim.CalibrationProfile(**{
            **{k: getattr(profile, k) for k in profile.__dataclass_fields__},
            "retention_drift": 0.001})
        fresh = fresh_chip(drifty, seed=63)
        aged = fresh.clone()
        harness.age_retention(aged, 100 * 86400.0)
        # Same wear state and seed means identical noise draws, so the
        # ratio isolates the configured 0.1%/day drift exactly.
        t_fresh = fresh.measure_trace(np.arange(256)).set_times
        t_aged = aged.measure_trace(np.arange(256)).set_times
        assert np.allclose(t_aged / t_fresh, 1.10, rtol=1e-6)

    def test_bake_is_identity_by_default(self, profile):
        a, key, _ = self._hidden_chip(profile, seed=64)
        b = a.clone()
        harness.bake(b, 80.0, 86400.0)
        assert len(b.bake_log) == 1
        assert np.array_equal(rrsim.decode(a, key).bit_means,
                              rrsim.decode(b, key).bit_means)

    def test_bake_then_hot_decode_clean(self, profile):
        chip, key, payload = self._hidden_chip(profile, seed=65)
        harness.bake(chip, 80.0, 86400.0)
        chip.set_temperature(80.0)
        assert rrsim.decode(chip, key).payload == payload

    def test_bake_above_rating_rejected(self, chip):
        with pytest.raises(rrsim.ConfigurationError):
            harness.bake(chip, 120.0, 3600.0)

    @pytest.mark.parametrize("refused", [
        lambda chip: chip.bake(80.0, -1.0),
        lambda chip: chip.bake(chip.profile.temp_rated_max + 1, 3600.0),
        lambda chip: chip.age_retention(-1),
        lambda chip: chip.age_retention(float("nan")),
        lambda chip: chip.bake(80.0, float("inf")),
        lambda chip: chip.bake(-300.0, 3600.0),
        lambda chip: chip.bake(float("nan"), 3600.0),
        lambda chip: chip.age_retention(True),
        lambda chip: chip.age_retention("5"),
        lambda chip: chip.bake(80.0, True)])
    def test_refused_aging_changes_nothing(self, chip, refused):
        chip.bake(60.0, 3600.0)
        before = chip.clone()
        with pytest.raises(rrsim.ConfigurationError):
            refused(chip)
        assert chip == before
        assert chip.bake_log == before.bake_log == [(60.0, 3600.0)]

    def test_harness_names_are_the_chip_methods(self):
        assert harness.bake is rrsim.ChipModel.bake
        assert harness.age_retention is rrsim.ChipModel.age_retention

    def test_configured_bake_drift_shifts_means(self, profile):
        baked_profile = rrsim.CalibrationProfile(**{
            **{k: getattr(profile, k) for k in profile.__dataclass_fields__},
            "bake_drift": 0.02})
        fresh = fresh_chip(baked_profile, seed=66)
        soaked = fresh.clone()
        harness.bake(soaked, 80.0, 86400.0)
        t_fresh = fresh.measure_trace(np.arange(128)).set_times
        t_soaked = soaked.measure_trace(np.arange(128)).set_times
        assert np.allclose(t_soaked / t_fresh, 1.02, rtol=1e-6)


class TestAttacks:
    def _victim(self, profile, seed, rows=False):
        rng = rng_for(seed)
        payload = rrsim.Payload.random(32, rng)
        chip = fresh_chip(profile, seed)
        if rows:
            key = rrsim.generate_key(32, 256, 8, 16, 15_000, rng_seed=seed,
                                     geometry=chip.geometry)
        else:
            key = rrsim.generate_key(32, 256, 256, 1, 15_000, rng_seed=seed,
                                     geometry=chip.geometry)
        rrsim.encode(chip, key, payload)
        return chip, key, payload

    def test_unperturbed_decode_equals_honest(self, profile):
        chip, key, payload = self._victim(profile, seed=71)
        a = rrsim.decode(chip.clone(), key)
        b = rrsim.decode(chip.clone(), key)
        assert np.array_equal(a.bit_means, b.bit_means)
        assert a.payload == payload

    def test_wrong_base_cases_break_separation(self, profile):
        for i, case in enumerate(("case1", "case2", "case3")):
            chip, key, payload = self._victim(profile, seed=72 + i)
            rep = harness.attack_wrong_base(chip, key, payload, case)
            assert rep.min_distance < 0
            assert report_invariants_ok(rep)
            honest = rrsim.decode(chip.clone(), key)
            assert honest.payload == payload

    def test_wrong_base_ber_near_chance(self, profile):
        bers = []
        for t in range(40):
            chip, key, payload = self._victim(profile, seed=300 + t)
            rep = harness.attack_wrong_base(chip, key, payload,
                                            ("case1", "case2", "case3")[t % 3])
            bers.append(rep.decode_ber)
        assert 0.35 <= np.mean(bers) <= 0.65

    def test_wrong_key_breaks_separation(self, profile):
        neg = 0
        for t in range(30):
            chip, key, payload = self._victim(profile, seed=400 + t, rows=True)
            rep = harness.attack_wrong_key(chip, key, payload, rng_seed=t)
            neg += rep.min_distance < 0
            assert report_invariants_ok(rep)
        assert neg >= 29

    def test_wrong_key_refuses_one_bit_key(self, profile):
        # A 1-bit key has one rotation, so no wrong one can be drawn.
        chip = fresh_chip(profile, seed=96, addresses=4096)
        key = rrsim.HidingKey(0, 256, 1, (0,), 1, 15_000)
        rrsim.encode(chip, key, rrsim.Payload((1,)))
        before = chip.clone()
        with pytest.raises(rrsim.ConfigurationError, match="kmeans"):
            harness.attack_wrong_key(chip, key, rrsim.Payload((1,)))
        assert chip == before

    def test_attack_leaves_original_chip_unworn(self, profile):
        chip, key, payload = self._victim(profile, seed=95)
        wear = chip.stress_pairs.copy()
        harness.attack_wrong_base(chip, key, payload, "case3")
        assert np.array_equal(chip.stress_pairs, wear)


class TestSweeps:
    def test_post_hiding_tolerances_and_table(self, profile):
        seeds = iter(range(7, 100))
        grid = range(0, 300_001, 20_000)
        reps = harness.sweep_post_hiding(
            lambda: fresh_chip(profile, next(seeds)),
            (15_000, 30_000, 45_000), grid, op="set")
        for r in reps:
            assert report_invariants_ok(r)
        tol = {n: harness.stress_tolerance(reps, n)
               for n in (15_000, 30_000, 45_000)}
        assert tol[15_000] <= tol[30_000] <= tol[45_000]
        # Error-budget analogue: allowed errors never shrink the tolerance.
        for n in (15_000, 30_000, 45_000):
            t0 = harness.stress_tolerance(reps, n, max_errors=0)
            t1 = harness.stress_tolerance(reps, n, max_errors=1)
            t2 = harness.stress_tolerance(reps, n, max_errors=2)
            assert t0 <= t1 <= t2

    def test_replica_sweep_anchors(self, profile):
        seeds = iter(range(500, 600))
        sizes = (32, 64, 96, 128, 160, 192, 224, 256)
        set_reps = harness.sweep_replica_size(
            lambda: fresh_chip(profile, next(seeds)), sizes, op="set",
            rng_seed=1)
        reset_reps = harness.sweep_replica_size(
            lambda: fresh_chip(profile, next(seeds)), sizes, op="reset",
            rng_seed=1)
        by_size = {r.replica_size: r for r in set_reps}
        assert by_size[32].separable
        assert {r.replica_size: r for r in reset_reps}[224].separable
        assert harness.min_separable_replica(set_reps) == 32
        assert harness.min_separable_replica(set_reps) < \
            harness.min_separable_replica(reset_reps)

    def test_replica_separation_improves_with_size(self, profile):
        # Monte-Carlo oracle: the mean worst-case gap widens with replica
        # size as per-sample noise averages out.
        sizes = (32, 64, 96, 128, 160, 192, 224, 256)
        sums = {s: 0.0 for s in sizes}
        trials = 100
        for t in range(trials):
            seeds = iter(range(1000 + t * 50, 1000 + t * 50 + 20))
            reps = harness.sweep_replica_size(
                lambda: fresh_chip(profile, next(seeds)), sizes, op="set",
                rng_seed=t)
            for r in reps:
                sums[r.replica_size] += r.min_distance
        means = [sums[s] / trials for s in sizes]
        assert all(a < b for a, b in zip(means, means[1:]))

    def test_error_budget_tolerance_anchor_45k(self, profile):
        # With two bit errors allowed, 45K-pair hidden data survives a few
        # hundred thousand more usage pairs; calibrated band +/-30% around
        # the 430K reference.
        seeds = iter(range(7, 40))
        grid = range(0, 600_001, 10_000)
        reps = harness.sweep_post_hiding(
            lambda: fresh_chip(profile, next(seeds)), (45_000,), grid,
            op="set")
        t2 = harness.stress_tolerance(reps, 45_000, max_errors=2)
        assert 301_000 <= t2 <= 559_000
        t0 = harness.stress_tolerance(reps, 45_000, max_errors=0)
        t1 = harness.stress_tolerance(reps, 45_000, max_errors=1)
        assert t0 <= t1 <= t2

    def test_initial_stress_set_tolerates_more_at_every_point(self, profile):
        grid = [0, 20_000, 50_000]
        sums = {op: {s: 0.0 for s in grid} for op in ("set", "reset")}
        trials = 12
        for t in range(trials):
            seeds = iter(range(2000 + t * 50, 2000 + t * 50 + 20))
            reps = harness.sweep_initial_stress(
                lambda: fresh_chip(profile, next(seeds)), grid, 15_000)
            for r in reps:
                sums[r.op][r.post_stress] += r.ber
        for s in grid:
            assert sums["set"][s] <= sums["reset"][s]

    def test_initial_stress_baseline_and_50k(self, profile):
        seeds = iter(range(700, 800))
        reps = harness.sweep_initial_stress(
            lambda: fresh_chip(profile, next(seeds)), [0, 50_000], 15_000)
        zero = [r for r in reps if r.post_stress == 0]
        assert all(r.ber == 0 for r in zero)
        by_op = {r.op: r for r in reps if r.post_stress == 50_000}
        assert by_op["set"].ber <= by_op["reset"].ber
        assert by_op["reset"].ber <= 0.0625

    def test_tolerance_needs_matching_rows(self, profile):
        with pytest.raises(rrsim.ConfigurationError):
            harness.stress_tolerance([], 15_000)


class TestCalculators:
    def test_encode_time_anchor(self):
        t = harness.encode_time(15_000, 32, Fraction(1, 100))
        assert t == 4800
        assert isinstance(t, Fraction)
        # 32 bits in 4800 s is 0.4 bit/min.
        assert Fraction(32, 1) / t * 60 == Fraction(2, 5)

    def test_encode_time_trivials(self):
        assert harness.encode_time(0, 32, Fraction(1, 100)) == 0
        assert harness.encode_time(45_000, 32, Fraction(1, 100)) == 14_400

    def test_retrieve_time_anchor(self):
        t = harness.retrieve_time(Fraction(1, 4000), 32, 256)
        assert t == Fraction(256, 125)
        assert float(t) == 2.048
        assert Fraction(32) / t == Fraction(15625, 1000)

    def test_retrieve_time_trivials(self):
        assert harness.retrieve_time(Fraction(1, 4000), 32, 1) == \
            Fraction(8, 1000)
        t64 = harness.retrieve_time(Fraction(1, 4000), 32, 64)
        t128 = harness.retrieve_time(Fraction(1, 4000), 32, 128)
        assert t128 == 2 * t64

    def test_endurance_cost(self):
        assert harness.endurance_cost(15_000, 500_000) == Fraction(3, 100)
        assert harness.endurance_cost(0, 500_000) == 0
        assert harness.endurance_cost(45_000, 500_000) == Fraction(9, 100)

    def test_float_inputs_go_through_decimal_repr(self):
        assert harness.encode_time(15_000, 32, 0.01) == 4800

    @pytest.mark.parametrize("value, exact", [
        (3, Fraction(3)), ("1/100", Fraction(1, 100)),
        (Fraction(2, 3), Fraction(2, 3)), (0.01, Fraction(1, 100))])
    def test_exact_number_kinds(self, value, exact):
        assert harness.endurance_cost(value, 1) == exact

    @pytest.mark.parametrize("value", [np.int64(3), None, 1j])
    def test_other_number_kinds_refused(self, value):
        with pytest.raises(rrsim.ConfigurationError):
            harness.endurance_cost(value, 1)

    def test_separation_report_fields(self):
        means = np.array([1.0, 1.1, 2.0, 2.2])
        truth = (0, 0, 1, 1)
        rep = harness.separation_report(means, truth, "set", 15_000)
        assert rep.min_distance == pytest.approx(0.9)
        assert rep.bit_error_count == 0 and rep.ber == 0
        assert rep.separable

    def test_min_threshold_errors_counts_best_case(self):
        means = [1.0, 3.0, 2.0, 4.0]
        truth = [0, 0, 1, 1]   # interleaved: one bit must always err
        assert harness.min_threshold_errors(means, truth) == 1


class TestCsv:
    def test_csv_layout_and_determinism(self, tmp_path, profile):
        seeds = iter(range(900, 950))
        reps = harness.sweep_replica_size(
            lambda: fresh_chip(profile, next(seeds)), (32, 256), rng_seed=2)
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        harness.write_reports_csv(p1, "replica", reps)
        harness.write_reports_csv(p2, "replica", reps)
        assert p1.read_bytes() == p2.read_bytes()
        header = p1.read_text().splitlines()[0]
        assert header == "sweep_id,N,post_stress,op,replica_size,min_distance_s,ber,errors"

    def test_numpy_grid_writes_the_same_csv(self, tmp_path, profile):
        # Grid points reach the reports as given; whole numbers print alike.
        def csv_bytes(grid, sizes, name):
            reps = harness.sweep_post_hiding(
                lambda: fresh_chip(profile, 7), [15_000], grid)
            reps += harness.sweep_replica_size(
                lambda: fresh_chip(profile, 8), sizes, rng_seed=2)
            harness.write_reports_csv(tmp_path / name, "grid", reps)
            return (tmp_path / name).read_bytes()

        assert csv_bytes(range(0, 20_001, 10_000), (32, 64), "a.csv") == \
            csv_bytes(np.arange(0, 20_001, 10_000), np.array([32, 64]), "b.csv")

    def test_empty_reports_header_only(self, tmp_path):
        path = tmp_path / "empty.csv"
        harness.write_reports_csv(path, "none", [])
        assert path.read_text().strip() == \
            "sweep_id,N,post_stress,op,replica_size,min_distance_s,ber,errors"


def min_distance_oracle(means, truth):
    """The full pairwise gap matrix, as separation reports once stored it."""
    zeros, ones = means[truth == 0], means[truth == 1]
    if not (len(zeros) and len(ones)):
        return float("inf")
    return float((ones[None, :] - zeros[:, None]).min())


@pytest.mark.parametrize("case", ["random", "tied", "all_negative",
                                  "only_zeros", "only_ones"])
def test_min_distance_matches_pairwise_oracle(case):
    rng = rng_for(23)
    for trial in range(200):
        n = int(rng.integers(2, 40))
        truth = rng.integers(0, 2, n)
        if case == "random":
            # Switch times over several binades, where subtraction rounds.
            means = 2.5e-4 * np.exp(rng.normal(0.0, 1.0, n))
        elif case == "tied":
            means = rng.integers(0, 4, n) * 0.1
        elif case == "all_negative":
            # Every 1-bit mean below every 0-bit mean, all of them negative.
            means = np.where(truth == 1, -2.0, -1.0) + rng.random(n) * 0.5
        else:
            truth = np.full(n, int(case == "only_ones"))
            means = rng.normal(1e-4, 1e-5, n)
        rep = harness.separation_report(means, truth, "set", 15_000)
        expected = min_distance_oracle(means, truth)
        assert rep.min_distance == expected
        if case == "all_negative" and 0 < truth.sum() < n:
            assert rep.min_distance < 0
