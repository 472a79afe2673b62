"""Spatial autocorrelation: dense-line finding, brute-force oracle and
averaging properties."""

import math

import numpy as np
import pytest
from scansets import Scan, grid, scan_set

from portcanyon.angular import VehicleState, to_db
from portcanyon.errors import DomainError, GridError
from portcanyon.spatialcorr import averaged_correlation, dense_lines

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


def per_angle_curves(gains):
    """Reference for the batched path: one np.correlate curve per grid angle
    of a line's (positions x angles) dB gains, normalized by lag 0; a
    constant line's curve is [1, 0, ..., 0]."""
    curves = []
    for db in np.asarray(gains).T:
        z = db - np.mean(db)
        raw = np.correlate(z, z, "full")[z.size - 1:]
        curves.append(np.eye(1, z.size)[0] if raw[0] == 0.0 else raw / raw[0])
    return np.stack(curves)


def line_scans(gains, positions=POSITIONS, tx="TX1_63", y=3.5):
    """One scan per row of dB gains, at the positions in order."""
    return [Scan(tx=tx, x=float(x), y=y, angles=GRID, gains=np.asarray(row, dtype=float))
            for x, row in zip(positions, gains)]


def correlation(*lines, positions=POSITIONS):
    """averaged_correlation of the lines, each a (positions x angles) matrix of
    dB gains: one set of their scans, line after line, and the index
    matrix that takes the lines in that order."""
    scans = scan_set(s for gains in lines for s in line_scans(gains, positions))
    return averaged_correlation(scans, np.arange(len(scans)).reshape(len(lines), -1), positions)


def db_line(db_values):
    """A line whose gain at EVERY angle equals the given dB value."""
    return [np.full(N_ANGLES, db) for db in db_values]


def line_correlation(db_values):
    """averaged_correlation of one line whose every angle carries db_values."""
    return correlation(db_line(db_values))[1]


def flat(n=len(POSITIONS)):
    """n rows of one flat dB gain."""
    return np.full((n, N_ANGLES), -60.0)


class TestDenseLines:
    def test_nominal_15_point_line(self):
        scans = scan_set(line_scans(flat()))
        lines = dense_lines(scans, POSITIONS)
        assert lines.tolist() == [list(range(15))]
        lag_m, _ = averaged_correlation(scans, lines, POSITIONS)
        assert lag_m[1] == pytest.approx(0.1, abs=1e-12)
        assert lag_m[-1] == pytest.approx(1.4, abs=1e-12)

    def test_lines_are_ordered_by_their_key_text(self):
        # "('TX1_63', 10.5, ..." sorts before "('TX1_63', 3.5, ...", and TX1_63 before TX2.
        positions = POSITIONS[:3]
        scans = scan_set(line_scans(flat(3), positions, tx="TX2")
                         + line_scans(flat(3), positions, y=3.5)
                         + line_scans(flat(3), positions, y=10.5))
        assert dense_lines(scans, positions).tolist() == [[6, 7, 8], [3, 4, 5], [0, 1, 2]]
        # A line sorts by the y its first scan spells: "-0.0" before "-0.5",
        # "0.0" after it, whatever its later scans spell.
        for first, later, want in ((-0.0, 0.0, [[3, 4, 5], [0, 1, 2]]),
                                   (0.0, -0.0, [[0, 1, 2], [3, 4, 5]])):
            zero = line_scans(flat(3), positions, y=later)
            zero[0] = zero[0]._replace(y=first)
            scans = scan_set(line_scans(flat(3), positions, y=-0.5) + zero)
            assert dense_lines(scans, positions).tolist() == want

    def test_scans_match_positions_within_the_tolerance(self):
        positions = np.array([13.5, 13.6, 13.7])
        near = scan_set(line_scans(flat(3), positions + [5e-10, -5e-10, 0.0]))
        assert dense_lines(near, positions).tolist() == [[0, 1, 2]]
        off = scan_set(line_scans(flat(3), positions + [5e-7, 0.0, 0.0]))
        assert dense_lines(off, positions).shape == (0, 3)

    def test_a_later_scan_replaces_an_earlier_one_in_a_slot(self):
        positions = np.array([13.5, 13.6])
        scans = scan_set(line_scans(flat(3), [13.5, 13.6, 13.5]))
        assert dense_lines(scans, positions).tolist() == [[2, 1]]

    def test_a_scan_takes_the_first_position_it_matches(self):
        # The first scan is within the tolerance of both positions, the second of the last only.
        positions = np.array([13.5, 13.5 + 8e-10])
        scans = scan_set(line_scans(flat(2), positions + [4e-10, 8e-10]))
        assert dense_lines(scans, positions).tolist() == [[0, 1]]
        # Of two equal neighbours only the first slot fills: no line is complete.
        scans = scan_set(line_scans(flat(3), [13.5, 13.5, 13.6]))
        assert dense_lines(scans, np.array([13.5, 13.5, 13.6])).shape == (0, 3)

    def test_scans_off_every_position_make_no_line(self):
        scans = scan_set(line_scans(flat(4)))
        assert dense_lines(scans, np.array([1.0, 1.1, 1.2, 1.3])).shape == (0, 4)

    @pytest.mark.parametrize("field, value", [("tx", "TX2"), ("y", 5.5),
                                              ("stacking", "nonuniform")])
    def test_scans_of_other_links_make_no_line(self, field, value):
        first, second = line_scans(flat(2), POSITIONS[:2])
        scans = scan_set([first, second._replace(**{field: value})])
        assert dense_lines(scans, POSITIONS[:2]).shape == (0, 2)

    def test_lines_take_the_baseline_scans_of_a_whole_set(self):
        # Vehicle scans at every line position, each after its baseline scan
        # as `synth` orders them: the lines are the baseline scans alone, as
        # indices into the whole set, and their curve is that of the
        # baseline subset's lines, bit for bit.
        rng = np.random.default_rng(13)
        scans = []
        for tx in ("TX1_63", "TX2"):
            for x in POSITIONS:
                scans += [Scan(tx, float(x), 3.5, GRID, to_db(rng.exponential(1e-6, N_ANGLES)),
                               state)
                          for state in ("absent", "position1", "position2")]
        whole = scan_set(scans)
        base_at = np.flatnonzero(whole.state_code == VehicleState.ABSENT.code)
        base = scan_set(s for s in scans if s.vehicle_state == "absent")
        lines, base_lines = dense_lines(whole, POSITIONS), dense_lines(base, POSITIONS)
        assert lines.shape == (2, 15)
        assert (whole.state_code[lines] == VehicleState.ABSENT.code).all()
        assert lines.tolist() == base_at[base_lines].tolist()
        lag_m, curve = averaged_correlation(whole, lines, POSITIONS)
        base_lag_m, base_curve = averaged_correlation(base, base_lines, POSITIONS)
        assert (lag_m.tobytes(), curve.tobytes()) == (base_lag_m.tobytes(), base_curve.tobytes())
        reference = np.mean([per_angle_curves(base.gains[row]).mean(axis=0) for row in base_lines],
                            axis=0)
        assert curve.tobytes() == reference.tobytes()

    def test_vehicle_scans_make_no_line(self):
        scans = scan_set(s._replace(vehicle_state="position1") for s in line_scans(flat()))
        assert dense_lines(scans, POSITIONS).shape == (0, 15)

    def test_rejects_non_uniform_positions(self):
        positions = np.array([13.5, 13.6, 13.8, 13.9])
        scans = scan_set(line_scans(flat(4), positions))
        lines = dense_lines(scans, positions)
        assert lines.tolist() == [[0, 1, 2, 3]]
        with pytest.raises(DomainError, match="positions must be uniformly spaced"):
            averaged_correlation(scans, lines, positions)

    def test_no_line_is_checked_before_the_spacing(self):
        positions = np.array([13.5, 13.6, 13.8, 13.9])
        with pytest.raises(DomainError, match="at least one line"):
            averaged_correlation(scan_set(line_scans(flat(4), positions)),
                                 np.empty((0, 4), dtype=int), positions)

    def test_rejects_a_scan_off_the_line_grid(self):
        # The set is never built: its scans share scan 0's grid.
        with pytest.raises(GridError, match=r"^scan \('TX2', 13.6, 3.5, 'absent', 'uniform'\): "
                                            r"angles differ by up to 1.000e-02 rad from those "
                                            r"of scan \('TX2', 13.5, "):
            scan_set([Scan("TX2", 13.5, 3.5, GRID, np.zeros(N_ANGLES)),
                      Scan("TX2", 13.6, 3.5, GRID + math.degrees(0.01), np.zeros(N_ANGLES))])

    def test_the_first_scan_off_the_grid_is_named_in_set_order(self):
        # Both lines have a scan off scan 0's grid; the one first in the set
        # is named, not the one of the first line.
        positions = POSITIONS[:2]
        moved = [s._replace(angles=GRID + math.degrees(0.01)) if s.x == positions[1] else s
                 for s in line_scans(flat(2), positions, tx="TX2")
                 + line_scans(flat(2), positions)]
        with pytest.raises(GridError, match=r"^scan \('TX2', 13.6, 3.5, 'absent', "):
            scan_set(moved)


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
    def _random_line(self, rng):
        return to_db(rng.exponential(1e-6, size=(15, N_ANGLES)))

    def test_single_line_passthrough(self):
        rng = np.random.default_rng(4)
        line = self._random_line(rng)
        lag_m, avg = correlation(line)
        assert np.allclose(avg, per_angle_curves(line).mean(axis=0), atol=1e-12)
        assert np.allclose(lag_m, 0.1 * np.arange(15), atol=1e-9)

    def test_averaging_order_is_irrelevant(self):
        rng = np.random.default_rng(5)
        lines = [self._random_line(rng) for _ in range(3)]
        _, avg = correlation(*lines)
        curves = np.stack([per_angle_curves(line) for line in lines])  # lines, angles, lags
        # angles first, then lines
        assert np.allclose(avg, curves.mean(axis=1).mean(axis=0), atol=1e-12)
        # lines first, then angles
        assert np.allclose(avg, curves.mean(axis=0).mean(axis=0), atol=1e-12)

    def test_iid_fading_decorrelates_at_first_lag(self):
        # Scaled-down Monte Carlo; the acceptance suite runs the full one.
        rng = np.random.default_rng(6)
        lines = [self._random_line(rng) for _ in range(500)]
        _, avg = correlation(*lines)
        assert avg[0] == pytest.approx(1.0, abs=1e-12)
        assert np.all(np.abs(avg[1:]) < 0.2)

    def test_global_offset_invariance(self):
        rng = np.random.default_rng(7)
        line = self._random_line(rng)
        _, base = correlation(line)
        _, moved = correlation(line + 23.0)
        assert np.allclose(base, moved, atol=1e-9)

    def test_each_angle_loses_its_own_mean(self):
        # A different dB offset at every angle leaves every per-angle curve,
        # and so the average, unchanged.
        rng = np.random.default_rng(11)
        line = self._random_line(rng)
        offsets_db = np.linspace(-30.0, 30.0, N_ANGLES)
        _, base = correlation(line)
        _, moved = correlation(line + offsets_db)
        assert np.allclose(base, moved, atol=1e-9)

    def test_rejects_no_lines(self):
        scans = scan_set(line_scans(flat()))
        with pytest.raises(DomainError, match="at least one line"):
            averaged_correlation(scans, np.empty((0, 15), dtype=int), POSITIONS)

    def test_takes_the_lines_the_matrix_picks(self):
        # Rows pick scans anywhere in the set, in any order: the curve is that
        # of the lines the rows name, in row order.
        rng = np.random.default_rng(12)
        lines = [self._random_line(rng) for _ in range(3)]
        scans = scan_set(s for line in lines for s in line_scans(line))
        picked = np.arange(45).reshape(3, 15)[[2, 0]]
        _, avg = averaged_correlation(scans, picked, POSITIONS)
        assert avg.tobytes() == correlation(lines[2], lines[0])[1].tobytes()

    def test_equals_the_per_angle_loop_bit_for_bit(self):
        rng = np.random.default_rng(9)
        lines = [self._random_line(rng) for _ in range(6)]
        lines.append(db_line([-60.0] * 15))  # every angle degenerate
        gains = to_db(rng.exponential(1e-6, size=(15, N_ANGLES)))
        gains[:, 3] = -57.0  # one degenerate angle
        lines.append(gains)
        reference = np.mean([per_angle_curves(line).mean(axis=0) for line in lines], axis=0)
        _, avg = correlation(*lines)
        assert avg.tobytes() == reference.tobytes()

    @pytest.mark.parametrize("n_pos", [3, 4])
    def test_short_lines_equal_the_per_angle_loop_to_an_ulp(self, n_pos):
        # np.correlate sums short lines in another order than the matmul,
        # so only the 15-position case above is bit for bit.
        rng = np.random.default_rng(10)
        positions = 13.5 + 0.1 * np.arange(n_pos)
        for _ in range(50):
            gains = to_db(rng.exponential(1e-6, size=(n_pos, N_ANGLES)))
            reference = per_angle_curves(gains)
            _, avg = correlation(gains, positions=positions)
            np.testing.assert_allclose(avg, reference.mean(axis=0), rtol=0,
                                       atol=4 * np.finfo(float).eps)
