"""Spatial autocorrelation: brute-force oracle and averaging properties."""

import numpy as np
import pytest
from scansets import Scan, grid, scan_set

from portcanyon.errors import DomainError, GridError, PairingError
from portcanyon.spatialcorr import DenseLine, averaged_correlation

N_ANGLES = 8
GRID = grid(N_ANGLES)
POSITIONS = 13.5 + 0.1 * np.arange(15)


def brute_force_autocorr(db_values):
    """Independent oracle: per-lag autocovariance by explicit double loop."""
    z = [v - sum(db_values) / len(db_values) for v in db_values]
    n = len(z)
    raw = []
    for k in range(n):
        raw.append(sum(z[j] * z[j + k] for j in range(n - k)))
    if raw[0] == 0.0:
        return [1.0] + [0.0] * (n - 1)
    return [r / raw[0] for r in raw]


def per_angle_curves(line):
    """Reference for the batched path: one np.correlate curve per grid angle,
    normalized by lag 0; a constant line's curve is [1, 0, ..., 0]."""
    curves = []
    for gains in line.scans.gains.T:
        db = 10 * np.log10(gains)
        z = db - np.mean(db)
        raw = np.correlate(z, z, "full")[z.size - 1:]
        curves.append(np.eye(1, z.size)[0] if raw[0] == 0.0 else raw / raw[0])
    return np.stack(curves)


def line_correlation(db_values):
    """averaged_correlation of one line whose every angle carries db_values."""
    return averaged_correlation([line_from_db(db_values)])[1]


def make_line(gains, positions=POSITIONS, tx="TX1_63", y=3.5):
    """A dense line of one scan per row of linear gains, on the uniform grid."""
    scans = scan_set(Scan(tx=tx, x=float(x), y=y, angles=grid(len(row)), gains=row)
                     for x, row in zip(positions, gains))
    return DenseLine(positions=np.asarray(positions[:len(gains)], dtype=float), scans=scans)


def line_from_db(db_values, positions=POSITIONS, tx="TX1_63", y=3.5):
    """Build a dense line whose gain at EVERY angle equals the given dB value."""
    gains = [np.full(N_ANGLES, 10.0 ** (db / 10.0)) for db in db_values]
    return make_line(gains, positions, tx, y)


class TestDenseLineValidation:
    def test_nominal_15_point_line(self):
        line = line_from_db([-60.0] * 15)
        assert line.spacing_m == pytest.approx(0.1, abs=1e-12)
        assert line.positions[-1] == pytest.approx(14.9, abs=1e-12)

    def test_rejects_non_uniform_positions(self):
        with pytest.raises(DomainError):
            line_from_db([-60.0] * 4, positions=[13.5, 13.6, 13.8, 13.9])

    def test_rejects_scan_position_mismatch(self):
        scans = line_from_db([-60.0] * 4).scans
        with pytest.raises(DomainError):
            DenseLine(positions=np.array([1.0, 1.1, 1.2, 1.3]), scans=scans)

    def test_rejects_mixed_transmitters(self):
        scans = scan_set([Scan("TX1_63", 13.5, 3.5, GRID, np.ones(N_ANGLES)),
                          Scan("TX2", 13.6, 3.5, GRID, np.ones(N_ANGLES))])
        with pytest.raises(PairingError, match=r"scan \('TX2', 13.6, 3.5, <VehicleState"):
            DenseLine(positions=np.array([13.5, 13.6]), scans=scans)

    def test_angles_are_the_scan_grid(self):
        assert line_from_db([-60.0] * 4).angles.tobytes() == GRID.tobytes()

    def test_rejects_a_scan_off_the_line_grid(self):
        scans = scan_set([Scan("TX2", 13.5, 3.5, GRID, np.ones(N_ANGLES)),
                          Scan("TX2", 13.6, 3.5, GRID + 0.01, np.ones(N_ANGLES))])
        with pytest.raises(GridError, match=r"scan \('TX2', 13.6, 3.5, <VehicleState"):
            DenseLine(positions=np.array([13.5, 13.6]), scans=scans)


class TestAutocorrelation:
    def test_matches_brute_force_on_random_lines(self):
        rng = np.random.default_rng(1)
        for _ in range(25):
            values = list(-60.0 + 6.0 * rng.standard_normal(15))
            assert np.allclose(line_correlation(values), brute_force_autocorr(values), atol=1e-9)

    def test_alternating_signs(self):
        values = [-60.0 + s for s in (1.0, -1.0) * 7 + (1.0,)]
        result = line_correlation(values)
        assert np.allclose(result, brute_force_autocorr(values), atol=1e-9)
        assert result[1] < 0.0

    def test_single_spike(self):
        values = [-60.0] * 15
        values[7] = -50.0
        assert np.allclose(line_correlation(values), brute_force_autocorr(values), atol=1e-9)

    def test_lag_zero_is_one(self):
        rng = np.random.default_rng(2)
        values = list(-60.0 + rng.standard_normal(15))
        assert line_correlation(values)[0] == 1.0

    def test_degenerate_constant_line(self):
        result = line_correlation([-60.0] * 15)
        assert result[0] == 1.0
        assert np.all(result[1:] == 0.0)

    def test_bounded_in_unit_interval(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            values = list(-60.0 + 8.0 * rng.standard_normal(15))
            assert np.all(np.abs(line_correlation(values)) <= 1.0 + 1e-12)


class TestAveragedCorrelation:
    def _random_line(self, rng, tx="TX1_63", y=3.5):
        return make_line(rng.exponential(1e-6, size=(15, N_ANGLES)), tx=tx, y=y)

    def test_single_line_passthrough(self):
        rng = np.random.default_rng(4)
        line = self._random_line(rng)
        lag_m, avg = averaged_correlation([line])
        assert np.allclose(avg, per_angle_curves(line).mean(axis=0), atol=1e-12)
        assert np.allclose(lag_m, 0.1 * np.arange(15), atol=1e-9)

    def test_averaging_order_is_irrelevant(self):
        rng = np.random.default_rng(5)
        lines = [self._random_line(rng, y=y) for y in (3.5, 5.5, 7.5)]
        _, avg = averaged_correlation(lines)
        curves = np.stack([per_angle_curves(line) for line in lines])  # lines, angles, lags
        # angles first, then lines
        assert np.allclose(avg, curves.mean(axis=1).mean(axis=0), atol=1e-12)
        # lines first, then angles
        assert np.allclose(avg, curves.mean(axis=0).mean(axis=0), atol=1e-12)

    def test_iid_fading_decorrelates_at_first_lag(self):
        # Scaled-down Monte Carlo; the acceptance suite runs the full one.
        rng = np.random.default_rng(6)
        lines = [self._random_line(rng) for _ in range(500)]
        _, avg = averaged_correlation(lines)
        assert avg[0] == pytest.approx(1.0, abs=1e-12)
        assert np.all(np.abs(avg[1:]) < 0.2)

    def test_global_offset_invariance(self):
        rng = np.random.default_rng(7)
        line = self._random_line(rng)
        shifted = make_line(line.scans.gains * 10.0 ** (23.0 / 10.0))
        _, base = averaged_correlation([line])
        _, moved = averaged_correlation([shifted])
        assert np.allclose(base, moved, atol=1e-9)

    def test_each_angle_loses_its_own_mean(self):
        # A different dB offset at every angle leaves every per-angle curve,
        # and so the average, unchanged.
        rng = np.random.default_rng(11)
        line = self._random_line(rng)
        offsets_db = np.linspace(-30.0, 30.0, N_ANGLES)
        shifted = make_line(line.scans.gains * 10.0 ** (offsets_db / 10.0))
        _, base = averaged_correlation([line])
        _, moved = averaged_correlation([shifted])
        assert np.allclose(base, moved, atol=1e-9)

    def test_rejects_no_lines(self):
        with pytest.raises(DomainError, match="at least one line"):
            averaged_correlation([])

    def test_equals_the_per_angle_loop_bit_for_bit(self):
        rng = np.random.default_rng(9)
        lines = [self._random_line(rng, y=float(y)) for y in range(6)]
        lines.append(line_from_db([-60.0] * 15))  # every angle degenerate
        gains = rng.exponential(1e-6, size=(15, N_ANGLES))
        gains[:, 3] = 2e-6  # one degenerate angle
        lines.append(make_line(gains, tx="TX2"))
        reference = np.mean([per_angle_curves(line).mean(axis=0) for line in lines], axis=0)
        _, avg = averaged_correlation(lines)
        assert avg.tobytes() == reference.tobytes()

    @pytest.mark.parametrize("n_pos", [3, 4])
    def test_short_lines_equal_the_per_angle_loop_to_an_ulp(self, n_pos):
        # np.correlate sums short lines in another order than the matmul,
        # so only the 15-position case above is bit for bit.
        rng = np.random.default_rng(10)
        positions = 13.5 + 0.1 * np.arange(n_pos)
        for _ in range(50):
            gains = rng.exponential(1e-6, size=(n_pos, N_ANGLES))
            line = make_line(gains, positions, tx="TX2")
            reference = per_angle_curves(line)
            _, avg = averaged_correlation([line])
            np.testing.assert_allclose(avg, reference.mean(axis=0), rtol=0,
                                       atol=4 * np.finfo(float).eps)

    def test_requires_one_angle_count(self):
        # Lines from separate sets may differ in angle count; their curves
        # are not averaged.
        rng = np.random.default_rng(9)
        line = self._random_line(rng)
        other = make_line([rng.exponential(1e-6, 16) for _ in POSITIONS], tx="TX2", y=5.5)
        for lines in ([line, other], [other, line]):
            with pytest.raises(DomainError, match="angle count"):
                averaged_correlation(lines)

    def test_requires_shared_lag_structure(self):
        rng = np.random.default_rng(8)
        a = self._random_line(rng)
        short = DenseLine(positions=a.positions[:10], scans=a.scans[:10])
        with pytest.raises(DomainError):
            averaged_correlation([a, short])
