"""Angular-spectrum statistics: hand-checked values and invariances."""

import math

import numpy as np
import pytest

from portcanyon.angular import (
    AngularScan,
    Stacking,
    VehicleState,
    azimuth_gain,
    circular_mean_gain,
    ensemble_stats,
    from_db,
    gain_cdfs,
    normalized_spectrum,
    to_db,
    tx_bearing,
)
from portcanyon.errors import DomainError, GridError


def grid(n):
    return np.radians(360.0 * np.arange(n) / n)


def make_scan(gains, tx="TX1_63", x=5.0, y=3.5, **kwargs):
    gains = np.asarray(gains, dtype=float)
    return AngularScan(tx=tx, x=x, y=y, angles=grid(gains.size), gains=gains, **kwargs)


class TestScanValidation:
    def test_minimum_sample_count(self):
        with pytest.raises(GridError):
            make_scan(np.ones(7))

    def test_rejects_non_positive_gain(self):
        gains = np.ones(16)
        gains[3] = 0.0
        with pytest.raises(DomainError):
            make_scan(gains)

    @pytest.mark.parametrize("bad", [math.inf, math.nan])
    def test_rejects_non_finite_gain(self, bad):
        gains = np.ones(16)
        gains[3] = bad
        with pytest.raises(DomainError, match="finite"):
            make_scan(gains)

    def test_rejects_non_uniform_grid(self):
        angles = grid(16)
        angles[5] += 1e-6
        with pytest.raises(GridError):
            AngularScan(tx="TX2", x=1.0, y=3.5, angles=angles, gains=np.ones(16))

    def test_rejects_partial_rotation(self):
        angles = np.linspace(0.0, math.pi, 16, endpoint=False)
        with pytest.raises(GridError):
            AngularScan(tx="TX2", x=1.0, y=3.5, angles=angles, gains=np.ones(16))

    def test_accepts_offset_grid(self):
        n = 36
        make_scan_angles = grid(n) + math.pi / n
        AngularScan(tx="TX2", x=1.0, y=3.5, angles=make_scan_angles, gains=np.ones(n))

    def test_enum_coercion_from_tokens(self):
        scan = make_scan(np.ones(8), vehicle_state="position1", stacking="nonuniform")
        assert scan.vehicle_state is VehicleState.POSITION1
        assert scan.stacking is Stacking.NONUNIFORM


class TestDbConversion:
    def test_identity_points(self):
        assert to_db(1.0) == 0.0
        assert to_db(100.0) == pytest.approx(20.0, abs=1e-12)

    def test_frozen_value(self):
        assert to_db(3.162277e-7) == pytest.approx(-65.000000906648767, rel=1e-12)

    def test_rejects_non_positive(self):
        with pytest.raises(DomainError):
            to_db(0.0)
        with pytest.raises(DomainError):
            to_db(np.array([1.0, -2.0]))

    def test_from_db_inverts(self):
        values = np.array([-80.0, -3.0, 0.0, 12.5])
        assert np.allclose(to_db(from_db(values)), values, atol=1e-12)


class TestCircularMean:
    def test_constant_spectrum(self):
        assert circular_mean_gain(make_scan(np.full(12, 2.5e-7))) == pytest.approx(
            to_db(2.5e-7), rel=1e-12
        )

    def test_two_level_alternation(self):
        # Alternating 1.0 / 3.0 has linear mean 2.0 regardless of grid size.
        scan = make_scan(np.tile([1.0, 3.0], 8))
        assert circular_mean_gain(scan) == pytest.approx(3.0102999566398120, rel=1e-12)

    def test_cyclic_rotation_invariance(self):
        rng = np.random.default_rng(3)
        gains = rng.lognormal(mean=-14.0, sigma=1.0, size=24)
        scan = make_scan(gains)
        rotated = make_scan(np.roll(gains, 7))
        assert circular_mean_gain(rotated) == pytest.approx(
            circular_mean_gain(scan), rel=1e-12
        )


class TestNormalizedSpectrum:
    def test_constant_maps_to_zeros(self):
        out = normalized_spectrum(make_scan(np.full(10, 7.7e-6)))
        assert np.allclose(out, 0.0, atol=1e-12)

    def test_two_level_hand_values(self):
        out = normalized_spectrum(make_scan(np.tile([1.0, 3.0], 8)))
        assert np.allclose(out[0::2], -3.0102999566398120, atol=1e-12)
        assert np.allclose(out[1::2], 1.7609125905568124, atol=1e-12)

    def test_offset_invariance(self):
        rng = np.random.default_rng(4)
        gains = rng.lognormal(mean=-14.0, sigma=1.5, size=32)
        base = normalized_spectrum(make_scan(gains))
        shifted = normalized_spectrum(make_scan(gains * from_db(17.0)))
        assert np.allclose(shifted, base, atol=1e-9)

    def test_unit_linear_mean(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            gains = rng.lognormal(mean=-14.0, sigma=2.0, size=36)
            out = normalized_spectrum(make_scan(gains))
            assert np.mean(from_db(out)) == pytest.approx(1.0, rel=1e-12)


class TestEnsembleStats:
    def test_single_scan_mean_is_scan(self):
        rng = np.random.default_rng(6)
        gains = rng.lognormal(mean=-14.0, sigma=1.0, size=16)
        scan = make_scan(gains)
        stats = ensemble_stats([scan])
        assert np.allclose(stats.mean_db, to_db(gains), atol=1e-12)
        assert set(np.unique(stats.counts)) <= {0, 1}

    def test_two_scan_linear_mean(self):
        gains = np.full(16, 4.0e-7)
        stats = ensemble_stats([make_scan(gains), make_scan(3.0 * gains)])
        assert np.allclose(stats.mean_db, to_db(2.0 * gains), atol=1e-12)

    def test_histogram_mass_per_angle(self):
        rng = np.random.default_rng(7)
        scans = [
            make_scan(rng.lognormal(mean=-14.0, sigma=1.0, size=16)) for _ in range(9)
        ]
        stats = ensemble_stats(scans, db_bin_width=2.0)
        assert np.all(stats.counts.sum(axis=1) == 9)
        assert stats.n_scans == 9

    def test_mean_bounded_by_scan_extremes(self):
        rng = np.random.default_rng(8)
        scans = [
            make_scan(rng.lognormal(mean=-14.0, sigma=1.0, size=16)) for _ in range(5)
        ]
        stats = ensemble_stats(scans)
        gains_db = np.stack([to_db(s.gains) for s in scans])
        assert np.all(stats.mean_db >= gains_db.min(axis=0) - 1e-12)
        assert np.all(stats.mean_db <= gains_db.max(axis=0) + 1e-12)

    def test_rejects_mismatched_grids(self):
        with pytest.raises(GridError):
            ensemble_stats([make_scan(np.ones(16)), make_scan(np.ones(18))])

    def test_bin_edges_aligned_to_width(self):
        rng = np.random.default_rng(9)
        scans = [make_scan(rng.lognormal(-14.0, 1.0, 16)) for _ in range(4)]
        stats = ensemble_stats(scans, db_bin_width=1.0)
        assert np.allclose(stats.bin_edges_db, np.round(stats.bin_edges_db), atol=1e-9)


    def test_bin_count_is_bounded(self):
        scans = [make_scan(np.ones(16)), make_scan(np.full(16, 1e-3))]
        with pytest.raises(DomainError, match="bins"):
            ensemble_stats(scans, db_bin_width=1e-9)


class TestTxBearing:
    def test_rx_below_tx_on_same_x(self):
        bearing = tx_bearing((18.8, 63.0), (18.8, 3.5))
        assert bearing == pytest.approx(3.0 * math.pi / 2.0, rel=1e-12)

    def test_on_axis(self):
        assert tx_bearing((1.0, 0.0), (0.0, 0.0)) == 0.0

    def test_quarter_turn(self):
        assert tx_bearing((0.0, -1.0), (0.0, 0.0)) == pytest.approx(
            math.pi / 2.0, rel=1e-12
        )

    def test_always_wrapped(self):
        rng = np.random.default_rng(10)
        for _ in range(100):
            tx = tuple(rng.uniform(-50, 50, 2))
            rx = tuple(rng.uniform(-50, 50, 2))
            if tx == rx:
                continue
            assert 0.0 <= tx_bearing(tx, rx) < 2.0 * math.pi

    def test_coincident_positions_rejected(self):
        with pytest.raises(DomainError):
            tx_bearing((1.0, 2.0), (1.0, 2.0))


class TestAzimuthGain:
    def test_constant_scan_zero(self):
        assert azimuth_gain(make_scan(np.full(12, 3.3e-7))) == pytest.approx(0.0, abs=1e-12)

    def test_two_level_value(self):
        assert azimuth_gain(make_scan(np.tile([1.0, 3.0], 8))) == pytest.approx(
            1.7609125905568124, rel=1e-12
        )

    def test_never_negative(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            gains = rng.lognormal(mean=-14.0, sigma=1.5, size=24)
            assert azimuth_gain(make_scan(gains)) >= 0.0


class TestGainCdfs:
    POSITIONS = {"TX1_63": (18.8, 63.0), "TX2": (18.85, 60.5)}

    def test_constant_scans_step_at_zero(self):
        scans = [make_scan(np.full(16, 1e-6), x=float(x)) for x in range(1, 6)]
        cdf_all, cdf_tx = gain_cdfs(scans, self.POSITIONS)
        assert np.allclose(cdf_all.values, 0.0, atol=1e-12)
        assert np.allclose(cdf_tx.values, 0.0, atol=1e-12)
        assert cdf_tx.n == len(scans)
        assert cdf_all.n == 16 * len(scans)

    def test_missing_tx_position_is_domain_error(self):
        with pytest.raises(DomainError, match="'TX9'"):
            gain_cdfs([make_scan(np.ones(8), tx="TX9")], self.POSITIONS)

    def test_probabilities_reach_one(self):
        rng = np.random.default_rng(12)
        scans = [make_scan(rng.lognormal(-14, 1.0, 16), x=float(x)) for x in range(4)]
        cdf_all, cdf_tx = gain_cdfs(scans, self.POSITIONS)
        assert cdf_all.probs[-1] == 1.0
        assert cdf_tx.probs[-1] == 1.0
        assert np.all(np.diff(cdf_all.values) >= 0.0)


def test_statistics_invariant_under_joint_rotation():
    """Rotating every scan's samples together with the grid labels changes nothing."""
    rng = np.random.default_rng(13)
    gains = [rng.lognormal(-14.0, 1.0, 24) for _ in range(6)]
    scans = [make_scan(g) for g in gains]
    rolled = [make_scan(np.roll(g, 5)) for g in gains]

    base = ensemble_stats(scans)
    moved = ensemble_stats(rolled)
    assert np.allclose(np.roll(base.mean_db, 5), moved.mean_db, atol=1e-12)
    assert np.array_equal(np.roll(base.counts, 5, axis=0), moved.counts)
    for orig, roll in zip(scans, rolled):
        assert azimuth_gain(orig) == pytest.approx(azimuth_gain(roll), rel=1e-12)
