"""Vehicle-impact statistics: deltas, Gaussian fit, CDF comparison."""

import math

import numpy as np
import pytest
from scansets import Scan, grid, scan_set

from portcanyon.angular import VehicleState
from portcanyon.errors import DomainError, GridError, IngestError, InsufficientDataError
from portcanyon.stats import CHUNK_ROWS, gaussian_cdf, sorted_ks_gap
from portcanyon.vehicle import (
    delta_angle_stats,
    delta_cdf_report,
    fit_gaussian,
    vehicle_delta,
)

GRID = grid(8)


def scan(gains_db, state=VehicleState.ABSENT, tx="TX1_63", x=13.5, y=3.5):
    """One scan of the given dB gains."""
    return Scan(tx=tx, x=x, y=y, angles=GRID, gains=np.asarray(gains_db, dtype=float),
                vehicle_state=state)


def pair_delta(base, with_vehicle):
    """vehicle_delta of two scans of one set: a baseline and a vehicle scan."""
    return vehicle_delta(scan_set([base, with_vehicle]), with_vehicle.vehicle_state)


class TestVehicleDelta:
    def test_identical_scans_give_zero(self):
        db = np.full(8, -60.0)
        delta = pair_delta(scan(db), scan(db, VehicleState.POSITION1))
        assert delta.shape == (1, 8)
        assert np.allclose(delta, 0.0, atol=1e-9)

    def test_uniform_shift(self):
        db = np.linspace(-70.0, -63.0, 8)
        delta = pair_delta(scan(db), scan(db - 3.0, VehicleState.POSITION2))
        assert np.allclose(delta, 3.0, atol=1e-9)

    def test_hand_differences(self):
        base_db = np.array([-60.0, -61.0, -59.0, -64.0, -58.0, -62.0, -60.5, -63.0])
        veh_db = np.array([-61.0, -60.0, -62.0, -63.0, -59.5, -61.0, -60.5, -66.0])
        delta = pair_delta(scan(base_db), scan(veh_db, VehicleState.POSITION1))
        assert np.allclose(delta, base_db - veh_db, atol=1e-9)

    def test_antisymmetric_in_arguments(self):
        rng = np.random.default_rng(0)
        base_db = -60.0 + rng.standard_normal(8)
        veh_db = -60.0 + rng.standard_normal(8)
        forward = pair_delta(scan(base_db), scan(veh_db, VehicleState.POSITION1))
        backward = pair_delta(scan(veh_db), scan(base_db, VehicleState.POSITION1))
        assert np.allclose(forward, -backward, atol=1e-9)

    @pytest.mark.parametrize("state", ["absent", VehicleState.ABSENT, "parked"],
                             ids=["absent-text", "absent-state", "parked"])
    def test_state_must_be_a_vehicle_position(self, state):
        db = np.full(8, -60.0)
        scans = scan_set([scan(db), scan(db, VehicleState.POSITION1)])
        with pytest.raises(DomainError, match="vehicle position"):
            vehicle_delta(scans, state)

    def test_no_scan_at_state_is_a_domain_error_naming_the_position(self):
        with pytest.raises(DomainError, match="^no scan has the vehicle at position1$"):
            vehicle_delta(scan_set([]), VehicleState.POSITION1)
        db = np.full(8, -60.0)
        scans = scan_set([scan(db), scan(db, VehicleState.POSITION1)])
        with pytest.raises(DomainError, match="^no scan has the vehicle at position2$"):
            vehicle_delta(scans, "position2")

    def test_unpaired_vehicle_scan_is_an_ingest_error(self):
        db = np.full(8, -60.0)
        scans = scan_set([scan(db), scan(db, VehicleState.POSITION1),
                          scan(db, VehicleState.POSITION1, x=14.5)])
        with pytest.raises(IngestError, match=r"^no baseline scan for vehicle scan at "
                           r"\('TX1_63', 14.5, 3.5, <Stacking.UNIFORM: 'uniform'>\); "
                           r"cannot pair$"):
            vehicle_delta(scans, VehicleState.POSITION1)

    def test_pairs_by_key_in_any_order(self):
        # Vehicle scans first, then their baselines, the whole set shuffled:
        # row k is the k-th position1 scan in set order, less its own baseline.
        rng = np.random.default_rng(3)
        links = [dict(tx=tx, x=x) for tx in ("TX1_63", "TX2") for x in (1.0, 5.0, 9.0)]
        moved = [scan(-60.0 + rng.standard_normal(8), VehicleState.POSITION1, **link)
                 for link in links]
        other = [scan(-60.0 + rng.standard_normal(8), VehicleState.POSITION2, **link)
                 for link in links]
        base = [scan(-60.0 + rng.standard_normal(8), **link) for link in links]
        order = rng.permutation(3 * len(links))
        scans = scan_set([(moved + other + base)[i] for i in order])
        base_of = {(s.tx, s.x): s for s in base}
        want = np.stack([base_of[(s.tx, s.x)].gains - s.gains
                         for s in ((moved + other + base)[i] for i in order)
                         if s.vehicle_state == VehicleState.POSITION1])
        got = vehicle_delta(scans, VehicleState.POSITION1)
        assert got.shape == (len(links), 8)
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("n_links", [CHUNK_ROWS, CHUNK_ROWS + 1, 2 * CHUNK_ROWS + 3])
    def test_chunked_pairing_equals_the_whole_matrix_formula(self, n_links):
        # Baselines in reverse order after the vehicle scans, so no chunk of
        # vehicle rows pairs with a chunk of baseline rows at the same offset.
        rng = np.random.default_rng(n_links)
        links = [dict(x=float(k)) for k in range(n_links)]
        moved = [scan(-60.0 + 5 * rng.standard_normal(8), VehicleState.POSITION2, **link)
                 for link in links]
        base = [scan(-60.0 + 5 * rng.standard_normal(8), **link) for link in links[::-1]]
        scans = scan_set(moved + base)
        gains = scans.gains
        want = gains[np.arange(2 * n_links - 1, n_links - 1, -1)] - gains[:n_links]
        got = vehicle_delta(scans, VehicleState.POSITION2)
        assert got.shape == (n_links, 8)
        assert got.tobytes() == want.tobytes()

    def test_rejects_mismatched_grid(self):
        base = scan(np.full(8, -60.0))
        other = Scan(tx="TX1_63", x=13.5, y=3.5, angles=grid(16), gains=np.full(16, -60.0),
                     vehicle_state=VehicleState.POSITION1)
        with pytest.raises(GridError):
            pair_delta(base, other)

    def test_baselines_off_the_vehicle_grid_name_the_first_scan(self):
        # Both baselines are on a shifted grid, the vehicle scans on scan 0's:
        # the set is never built, and its first vehicle scan is named.
        base = [scan(np.full(8, -60.0), x=x)._replace(angles=GRID + math.degrees(1e-3))
                for x in (5.0, 1.0)]
        moved = [scan(np.full(8, -63.0), VehicleState.POSITION1, x=x) for x in (1.0, 5.0)]
        with pytest.raises(GridError, match=r"^scan \('TX1_63', 1.0, 3.5, 'position1', "
                                            r"'uniform'\): angles differ by up to 1.000e-03 rad "
                                            r"from those of scan \('TX1_63', 5.0, "):
            scan_set([*base, *moved])
        on_grid = base[1]._replace(angles=GRID)
        assert np.allclose(pair_delta(on_grid, moved[0]), 3.0)


class TestFitGaussian:
    def test_constant_samples(self):
        fit = fit_gaussian(np.full(10, 2.5))
        assert fit.mu_db == pytest.approx(2.5)
        assert fit.sigma_db == 0.0
        assert fit.sample_count == 10

    def test_symmetric_pair(self):
        fit = fit_gaussian([-1.0, 1.0])
        assert fit.mu_db == pytest.approx(0.0, abs=1e-15)
        assert fit.sigma_db == pytest.approx(1.0, rel=1e-12)

    def test_population_normalization(self):
        samples = np.array([0.0, 0.0, 3.0])
        fit = fit_gaussian(samples)
        assert fit.sigma_db == pytest.approx(np.sqrt(2.0), rel=1e-12)

    def test_recovers_reference_parameters_monte_carlo(self):
        rng = np.random.default_rng(42)
        draws = rng.normal(1.13, 6.91, 1_000_000)
        fit = fit_gaussian(draws)
        assert fit.mu_db == pytest.approx(1.13, abs=0.03)
        assert fit.sigma_db == pytest.approx(6.91, abs=0.03)

    def test_order_invariance_and_shift(self):
        rng = np.random.default_rng(1)
        samples = rng.normal(0.0, 2.0, 500)
        fit = fit_gaussian(samples)
        shuffled = fit_gaussian(rng.permutation(samples))
        assert shuffled.mu_db == pytest.approx(fit.mu_db, abs=1e-12)
        assert shuffled.sigma_db == pytest.approx(fit.sigma_db, abs=1e-12)
        shifted = fit_gaussian(samples + 7.0)
        assert shifted.mu_db == pytest.approx(fit.mu_db + 7.0, abs=1e-12)
        assert shifted.sigma_db == pytest.approx(fit.sigma_db, abs=1e-12)

    def test_insufficient_data(self):
        with pytest.raises(InsufficientDataError):
            fit_gaussian([1.0])


def brute_force_sup_gap(samples, mu, sigma):
    """Oracle: scan a fine value grid bracketing the samples for the sup gap."""
    samples = np.sort(np.asarray(samples, dtype=float))
    lo, hi = samples[0] - 5 * sigma - 1.0, samples[-1] + 5 * sigma + 1.0
    grid = np.linspace(lo, hi, 200_001)
    emp = np.searchsorted(samples, grid, side="right") / samples.size
    ref = gaussian_cdf(grid, mu, sigma)
    return float(np.max(np.abs(emp - ref)))


class TestDeltaCdfReport:
    def test_gap_shrinks_for_gaussian_pool(self):
        rng = np.random.default_rng(2)
        small = delta_cdf_report(rng.normal(0.5, 3.0, 200))
        large = delta_cdf_report(rng.normal(0.5, 3.0, 200_000))
        assert large.sup_gap < small.sup_gap
        assert large.sup_gap < 0.01

    def test_two_point_pool_matches_brute_force(self):
        samples = np.array([-2.0] * 6 + [2.0] * 2)
        report = delta_cdf_report(samples)
        oracle = brute_force_sup_gap(samples, report.fit.mu_db, report.fit.sigma_db)
        assert report.sup_gap == pytest.approx(oracle, abs=1e-4)

    def test_random_pools_match_brute_force(self):
        rng = np.random.default_rng(3)
        for _ in range(5):
            samples = rng.normal(0.0, 5.0, 300)
            report = delta_cdf_report(samples)
            oracle = brute_force_sup_gap(samples, report.fit.mu_db, report.fit.sigma_db)
            assert report.sup_gap == pytest.approx(oracle, abs=1e-4)

    def test_gap_within_unit_interval(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            report = delta_cdf_report(rng.standard_t(3, 100))
            assert 0.0 <= report.sup_gap <= 1.0

    def test_cdf_grids_aligned(self):
        rng = np.random.default_rng(5)
        report = delta_cdf_report(rng.normal(0, 1, 64))
        values, empirical, gaussian = report.columns()
        assert values is report.values_db
        assert values.shape == empirical.shape == gaussian.shape == (64,)
        assert np.all(np.diff(values) >= 0.0)
        assert empirical.tobytes() == (np.arange(1, 65) / 64).tobytes()
        assert gaussian.tobytes() == gaussian_cdf(
            values, report.fit.mu_db, report.fit.sigma_db).tobytes()
        assert report.sup_gap == sorted_ks_gap(gaussian)


class TestDeltaAngleStats:
    def test_mean_is_angle_independent_for_gaussian_noise(self):
        rng = np.random.default_rng(6)
        matrix = rng.normal(1.13, 6.91, size=(4000, 8))
        mean_db, _, counts = delta_angle_stats(matrix, db_bin_width=1.0)
        # Per-angle means fluctuate by sigma/sqrt(n) ~ 0.11 dB; 5 sigma bound.
        assert np.all(np.abs(mean_db - 1.13) < 0.55)
        assert np.all(counts.sum(axis=1) == 4000)

    def test_histogram_counts_per_angle(self):
        matrix = np.array([[0.1, 1.4], [0.2, 1.6], [2.5, -0.7]])
        mean_db, edges, counts = delta_angle_stats(matrix, db_bin_width=1.0)
        assert counts.shape[0] == 2
        assert np.all(counts.sum(axis=1) == 3)
        assert mean_db == pytest.approx(matrix.mean(axis=0), abs=1e-12)

    def test_bin_count_is_bounded(self):
        matrix = np.array([[-15.0, 0.0], [15.0, 2.0]])
        with pytest.raises(DomainError, match="bins"):
            delta_angle_stats(matrix, db_bin_width=1e-9)
