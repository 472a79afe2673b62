"""Spatial autocorrelation: brute-force oracle and averaging properties."""

import numpy as np
import pytest

from portcanyon.angular import AngularScan
from portcanyon.errors import DomainError, GridError, PairingError
from portcanyon.spatialcorr import (
    DenseLine,
    autocorrelation,
    averaged_correlation,
    line_mean,
    zero_mean,
)

N_ANGLES = 8
GRID = np.radians(360.0 * np.arange(N_ANGLES) / N_ANGLES)


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


def line_from_db(db_values, positions=None, tx="TX1_63", y=3.5):
    """Build a dense line whose gain at EVERY angle equals the given dB value."""
    db_values = list(db_values)
    if positions is None:
        positions = 13.5 + 0.1 * np.arange(len(db_values))
    scans = tuple(
        AngularScan(
            tx=tx, x=float(x), y=y, angles=GRID,
            gains=np.full(N_ANGLES, 10.0 ** (db / 10.0)),
        )
        for x, db in zip(positions, db_values)
    )
    return DenseLine(positions=np.asarray(positions, dtype=float), scans=scans)


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
        a = line_from_db([-60.0, -61.0], positions=[13.5, 13.6]).scans
        b = line_from_db([-60.0, -61.0], positions=[13.5, 13.6], tx="TX2").scans
        with pytest.raises(PairingError):
            DenseLine(positions=np.array([13.5, 13.6]), scans=(a[0], b[1]))

    def test_off_grid_angle_lookup(self):
        line = line_from_db([-60.0] * 4)
        with pytest.raises(GridError):
            line_mean(line, 0.1234)


class TestLineMeanAndZeroMean:
    def test_constant_line(self):
        line = line_from_db([-60.0] * 15)
        assert line_mean(line, GRID[0]) == pytest.approx(-60.0, abs=1e-9)
        assert np.allclose(zero_mean(line, GRID[3]), 0.0, atol=1e-9)

    def test_hand_mean(self):
        values = [-60.0, -70.0, -55.0, -65.0, -50.0]
        line = line_from_db(values)
        assert line_mean(line, GRID[1]) == pytest.approx(np.mean(values), abs=1e-9)
        assert min(values) <= line_mean(line, GRID[1]) <= max(values)

    def test_alternating_pattern(self):
        line = line_from_db([-58.0, -62.0] * 4)
        out = zero_mean(line, GRID[0])
        assert np.allclose(out, np.tile([2.0, -2.0], 4), atol=1e-9)

    def test_zero_mean_sums_to_zero_and_ignores_offset(self):
        rng = np.random.default_rng(0)
        values = list(-60.0 + 5.0 * rng.standard_normal(15))
        base = zero_mean(line_from_db(values), GRID[2])
        shifted = zero_mean(line_from_db([v + 13.0 for v in values]), GRID[2])
        assert abs(np.sum(base)) < 1e-9
        assert np.allclose(base, shifted, atol=1e-9)


class TestAutocorrelation:
    def test_matches_brute_force_on_random_lines(self):
        rng = np.random.default_rng(1)
        for _ in range(25):
            values = list(-60.0 + 6.0 * rng.standard_normal(15))
            result = autocorrelation(line_from_db(values), GRID[0])
            assert not result.degenerate
            assert np.allclose(result.values, brute_force_autocorr(values), atol=1e-9)

    def test_alternating_signs(self):
        values = [-60.0 + s for s in (1.0, -1.0) * 7 + (1.0,)]
        result = autocorrelation(line_from_db(values), GRID[0])
        assert np.allclose(result.values, brute_force_autocorr(values), atol=1e-9)
        assert result.values[1] < 0.0

    def test_single_spike(self):
        values = [-60.0] * 15
        values[7] = -50.0
        result = autocorrelation(line_from_db(values), GRID[0])
        assert np.allclose(result.values, brute_force_autocorr(values), atol=1e-9)

    def test_lag_zero_is_one(self):
        rng = np.random.default_rng(2)
        values = list(-60.0 + rng.standard_normal(15))
        assert autocorrelation(line_from_db(values), GRID[0]).values[0] == 1.0

    def test_degenerate_constant_line(self):
        result = autocorrelation(line_from_db([-60.0] * 15), GRID[0])
        assert result.degenerate
        assert result.values[0] == 1.0
        assert np.all(result.values[1:] == 0.0)

    def test_bounded_in_unit_interval(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            values = list(-60.0 + 8.0 * rng.standard_normal(15))
            result = autocorrelation(line_from_db(values), GRID[0])
            assert np.all(np.abs(result.values) <= 1.0 + 1e-12)


class TestAveragedCorrelation:
    def _random_line(self, rng, tx="TX1_63", y=3.5):
        gains = rng.exponential(1e-6, size=(15, N_ANGLES))
        positions = 13.5 + 0.1 * np.arange(15)
        scans = tuple(
            AngularScan(tx=tx, x=float(x), y=y, angles=GRID, gains=gains[i])
            for i, x in enumerate(positions)
        )
        return DenseLine(positions=positions, scans=scans)

    def test_single_line_passthrough(self):
        rng = np.random.default_rng(4)
        line = self._random_line(rng)
        lag_m, avg = averaged_correlation([line])
        direct = np.mean(
            [autocorrelation(line, phi).values for phi in GRID], axis=0
        )
        assert np.allclose(avg, direct, atol=1e-12)
        assert np.allclose(lag_m, 0.1 * np.arange(15), atol=1e-9)

    def test_averaging_order_is_irrelevant(self):
        rng = np.random.default_rng(5)
        lines = [self._random_line(rng, y=y) for y in (3.5, 5.5, 7.5)]
        _, avg = averaged_correlation(lines)
        # angles first, then lines
        per_line = [
            np.mean([autocorrelation(line, phi).values for phi in GRID], axis=0)
            for line in lines
        ]
        assert np.allclose(avg, np.mean(per_line, axis=0), atol=1e-12)
        # lines first, then angles
        per_angle = [
            np.mean([autocorrelation(line, phi).values for line in lines], axis=0)
            for phi in GRID
        ]
        assert np.allclose(avg, np.mean(per_angle, axis=0), atol=1e-12)

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
        shifted = DenseLine(
            positions=line.positions,
            scans=tuple(
                AngularScan(
                    tx=s.tx, x=s.x, y=s.y, angles=s.angles,
                    gains=s.gains * 10.0 ** (23.0 / 10.0),
                )
                for s in line.scans
            ),
        )
        _, base = averaged_correlation([line])
        _, moved = averaged_correlation([shifted])
        assert np.allclose(base, moved, atol=1e-9)

    def test_equals_the_per_angle_loop_bit_for_bit(self):
        rng = np.random.default_rng(9)
        lines = [self._random_line(rng, y=float(y)) for y in range(6)]
        lines.append(line_from_db([-60.0] * 15))  # every angle degenerate
        gains = rng.exponential(1e-6, size=(15, N_ANGLES))
        gains[:, 3] = 2e-6  # one degenerate angle
        positions = 13.5 + 0.1 * np.arange(15)
        lines.append(DenseLine(positions=positions, scans=tuple(
            AngularScan(tx="TX2", x=float(x), y=3.5, angles=GRID, gains=gains[i])
            for i, x in enumerate(positions))))
        grid16 = np.radians(360.0 * np.arange(16) / 16)  # a second angle count
        lines.append(DenseLine(positions=positions, scans=tuple(
            AngularScan(tx="TX2", x=float(x), y=5.5, angles=grid16,
                        gains=rng.exponential(1e-6, 16))
            for x in positions)))
        reference = np.mean([
            np.stack([autocorrelation(line, phi).values for phi in line.angles]).mean(axis=0)
            for line in lines
        ], axis=0)
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
            line = DenseLine(positions=positions, scans=tuple(
                AngularScan(tx="TX2", x=float(x), y=3.5, angles=GRID, gains=gains[i])
                for i, x in enumerate(positions)))
            reference = np.stack([autocorrelation(line, phi).values for phi in GRID])
            _, avg = averaged_correlation([line])
            np.testing.assert_allclose(avg, reference.mean(axis=0), rtol=0,
                                       atol=4 * np.finfo(float).eps)

    def test_requires_shared_lag_structure(self):
        rng = np.random.default_rng(8)
        a = self._random_line(rng)
        short = DenseLine(positions=a.positions[:10], scans=a.scans[:10])
        with pytest.raises(DomainError):
            averaged_correlation([a, short])
