"""Angular-spectrum statistics: hand-checked values and invariances."""

import ast
import math
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scansets import Scan, grid, scan_set, whole

from portcanyon import angular
from portcanyon.angular import (
    Stacking,
    VehicleState,
    circular_mean_gain,
    ensemble_stats,
    first_invalid,
    from_db,
    gain_cdfs,
    normalized_spectrum,
    to_db,
    tx_bearing,
)
from portcanyon.errors import DomainError, GridError
from portcanyon.stats import CHUNK_ROWS, aligned_histograms


def make_scan(gains_db, tx="TX1_63", x=5.0, y=3.5, **kwargs):
    gains_db = np.asarray(gains_db, dtype=float)
    return Scan(tx=tx, x=x, y=y, angles=grid(gains_db.size), gains=gains_db, **kwargs)


def make_set(*gains, **kwargs):
    """The ScanSet of one scan per dB gains array, all with the same key."""
    return scan_set(make_scan(g, **kwargs) for g in gains)


class TestScanValidation:
    def test_minimum_sample_count(self):
        with pytest.raises(GridError):
            make_set(np.ones(7))

    @pytest.mark.parametrize("bad", [-4000.0, -math.inf])
    def test_rejects_gain_whose_linear_value_is_zero(self, bad):
        gains = np.zeros(16)
        gains[3] = bad
        with pytest.raises(DomainError, match="> 0"):
            make_set(gains)

    @pytest.mark.parametrize("bad", [4000.0, math.inf, math.nan])
    def test_rejects_non_finite_gain(self, bad):
        gains = np.zeros(16)
        gains[3] = bad
        with pytest.raises(DomainError, match="finite"):
            make_set(gains)

    def test_rejects_non_uniform_grid(self):
        angles = grid(16)
        angles[5] += math.degrees(1e-6)
        with pytest.raises(GridError):
            scan_set([Scan(tx="TX2", x=1.0, y=3.5, angles=angles, gains=np.ones(16))])

    def test_rejects_partial_rotation(self):
        angles = np.linspace(0.0, 180.0, 16, endpoint=False)
        with pytest.raises(GridError):
            scan_set([Scan(tx="TX2", x=1.0, y=3.5, angles=angles, gains=np.ones(16))])

    def test_accepts_offset_grid(self):
        n = 36
        make_scan_angles = grid(n) + 180.0 / n
        scan_set([Scan(tx="TX2", x=1.0, y=3.5, angles=make_scan_angles, gains=np.ones(n))])

    def test_enum_coercion_from_tokens(self):
        scans = make_set(np.ones(8), vehicle_state="position1", stacking="nonuniform")
        assert tuple(VehicleState)[scans.state_code[0]] is VehicleState.POSITION1
        assert tuple(Stacking)[scans.stacking_code[0]] is Stacking.NONUNIFORM


def whole_first_invalid(grid, gains, angles=None):
    """The check over the whole (scans x angles) matrices at once, the angles
    in degrees: the oracle of `first_invalid`'s chunked check."""
    grid = np.radians(grid)
    angles = None if angles is None else np.radians(angles)
    n = grid.size
    if n < 8:
        return 0, GridError(f"need at least 8 azimuth samples, got {n}")
    spacing = angular.TWO_PI / n
    steps = grid[1:] - grid[:-1]
    deviation = np.abs(steps - spacing).max()
    grid_errors = [
        GridError(why) for bad, why in (
            (not (steps > 0.0).all(), "angles must be strictly increasing"),
            (deviation > angular.GRID_SPACING_TOL, "angle grid must be uniform with spacing "
                                                   f"2*pi/N (max deviation {deviation:.3e} rad)"),
            (not 0.0 <= grid[0] < spacing + angular.GRID_SPACING_TOL,
             f"grid must start within the first spacing interval, got {grid[0]}"))
        if bad]
    with np.errstate(over="ignore"):
        linear = 10.0 ** (gains / 10.0)
    bad_gains = ~((linear > 0.0) & (linear < np.inf)).all(axis=1)
    gap = np.zeros(len(gains)) if angles is None else np.abs(angles - grid).max(axis=1)
    off = ~(gap <= angular.GRID_MATCH_TOL)
    off[0] |= bool(grid_errors)  # scan 0's angles are the grid
    rows = np.flatnonzero(bad_gains | off)
    if not rows.size:
        return None
    row = int(rows[0])
    if bad_gains[row]:
        return row, DomainError("all linear gains must be finite and > 0")
    if row == 0 and grid_errors:
        return 0, grid_errors[0]
    return row, GridError(f"angles differ by up to {gap[row]:.3e} rad from those of scan 0; "
                          "the scans of a set share one angle grid")


def _verdict(found):
    return None if found is None else (found[0], type(found[1]), str(found[1]))


_CHUNK = CHUNK_ROWS


@st.composite
def _bad_rows(draw, n_rows):
    """A row index: a chunk's edges and the last row are drawn explicitly."""
    edges = [r for r in (_CHUNK - 1, _CHUNK, _CHUNK + 1, 2 * _CHUNK, n_rows - 1) if r < n_rows]
    return draw(st.one_of(st.sampled_from(edges), st.integers(0, n_rows - 1)))


def _plant(draw, grid, angles, gains, kind):
    """Make one row invalid in one of the five ways the check tells apart: a
    bad gain or an angle off the grid in any row, or a bad grid, which is
    scan 0's angles.  The angles are in degrees, the distances drawn in rad."""
    n = grid.size
    spacing = 360.0 / n
    at = draw(st.integers(1, n - 1))
    if kind == "gain":
        gains[draw(_bad_rows(len(gains))), at] = draw(
            st.sampled_from([-4000.0, 3100.0, math.inf, -math.inf, math.nan]))
    elif kind == "off grid":
        if len(angles) > 1:
            row = max(1, draw(_bad_rows(len(angles))))
            angles[row, at] += draw(st.sampled_from([-1.0, 1.0])) * draw(
                st.floats(math.degrees(2 * angular.GRID_MATCH_TOL), spacing / 3))
    else:
        if kind == "order":
            grid[at] = grid[at - 1]
        elif kind == "spacing":  # one step longer, the next (if any) shorter
            grid[at] += draw(st.floats(math.degrees(1e-8), spacing / 3))
        else:
            grid += math.degrees(draw(st.sampled_from([-1e-3, math.radians(spacing) + 1e-6,
                                                       2.0]))) - grid[0]
        angles[0] = grid


class TestChunkedGridCheck:
    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_chunks_give_the_whole_matrix_verdict(self, data):
        # Each scan's angles (deg) within GRID_MATCH_TOL (rad) of the grid,
        # scan 0's equal to it; then one or two defects.  The grid alone
        # (angles not given) is checked as the matrix of that grid repeated.
        n_rows = data.draw(st.one_of(st.sampled_from([1, _CHUNK, _CHUNK + 1, 700]),
                                     st.integers(1, 700)), label="rows")
        n = data.draw(st.integers(8, 12), label="angles")
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        grid_ = grid(n) + rng.uniform(0.0, 0.5 * 360.0 / n)
        tol = math.degrees(angular.GRID_MATCH_TOL)
        angles = grid_ + rng.uniform(-tol / 2, tol / 2, (n_rows, n))
        angles[0] = grid_
        gains = rng.normal(-60.0, 4.3, (n_rows, n))
        assert first_invalid(grid_, gains, angles) is None
        kinds = ("gain", "off grid", "order", "spacing", "start")
        for _ in range(data.draw(st.integers(1, 2))):
            _plant(data.draw, grid_, angles, gains,
                   data.draw(st.sampled_from(kinds), label="kind"))
        for held in (angles, None):
            want = _verdict(whole_first_invalid(grid_, gains, held))
            assert _verdict(first_invalid(grid_, gains, held)) == want

    @pytest.mark.parametrize("bad, changed", [(2 * _CHUNK + 1, 2 * _CHUNK + 4),
                                              (2 * _CHUNK + 4, 2 * _CHUNK + 1)],
                             ids=["bad grid before count change", "count change before bad grid"])
    def test_earliest_of_a_bad_grid_and_a_count_change_is_named(self, bad, changed):
        # Both past the first chunk: an off-grid scan and a 12-angle scan
        # among 8-angle ones; the one earlier in set order is named.
        scans = [Scan("TX2", float(i), 3.5, grid(8), np.ones(8)) for i in range(3 * _CHUNK)]
        angles = grid(8)
        angles[3] += math.degrees(1e-6)
        scans[bad] = scans[bad]._replace(angles=angles)
        scans[changed] = scans[changed]._replace(angles=grid(12), gains=np.ones(12))
        why = (r"angles differ by up to 1.000e-06 rad from those of scan \('TX2', 0.0, .*\); "
               if bad < changed else r"12 angles where scan \('TX2', 0.0, .*\) has 8; ")
        with pytest.raises(GridError, match=rf"^scan \('TX2', {min(bad, changed)}.0, .*" + why):
            scan_set(scans)


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

    @settings(max_examples=100, deadline=None)
    @given(gains=st.lists(st.floats(min_value=5e-324, max_value=1e308), min_size=1, max_size=50))
    def test_bits_of_ten_times_log10(self, gains):
        arr = np.array(gains)
        assert to_db(arr).tobytes() == (10.0 * np.log10(arr)).tobytes()
        assert to_db(gains[0]) == float(10.0 * np.log10(gains[0]))

    def test_normalized_bits_of_the_difference(self):
        gains = np.random.default_rng(4).normal(-60.0, 8.7, (30, 24))
        mean = np.mean(10.0 ** (gains / 10.0), axis=-1)
        want = gains - 10.0 * np.log10(mean)[:, None]
        scans = make_set(*gains)
        assert normalized_spectrum(scans, whole(scans)).tobytes() == want.tobytes()

    def test_from_db_inverts(self):
        values = np.array([-80.0, -3.0, 0.0, 12.5])
        assert np.allclose(to_db(from_db(values)), values, atol=1e-12)

    def test_out_is_returned_with_the_bits_of_the_expression(self):
        rng = np.random.default_rng(11)
        gains = rng.lognormal(-14.0, 3.0, (130, 24))
        db = rng.uniform(-300.0, 300.0, (130, 24))
        want_db, want_lin = 10.0 * np.log10(gains), 10.0 ** (db / 10.0)
        for rows in (slice(None), slice(64, 128)):  # the whole matrix; a chunk's view
            out = gains.copy()[rows]
            assert to_db(out, out=out) is out
            assert out.tobytes() == want_db[rows].tobytes()
            out = db.copy()[rows]
            assert from_db(out, out=out) is out
            assert out.tobytes() == want_lin[rows].tobytes()
            into = np.empty_like(out)
            assert to_db(gains[rows], out=into) is into
            assert into.tobytes() == want_db[rows].tobytes()

    @settings(max_examples=100, deadline=None)
    @given(db=st.lists(st.floats(min_value=-3300.0, max_value=3300.0), min_size=1, max_size=50))
    def test_from_db_bits_of_ten_to_the_tenth(self, db):
        arr = np.array(db)
        with np.errstate(over="ignore"):  # over 3082 dB the reference is inf too
            want, want_0 = 10.0 ** (arr / 10.0), 10.0 ** (np.float64(db[0]) / 10.0)
        assert from_db(arr).tobytes() == want.tobytes()
        # A scalar goes through Python's **, as the expression on a float does.
        assert from_db(db[0]) == float(want_0)

    def test_from_db_overflow_is_inf_without_a_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert from_db(4000.0) == math.inf
            assert from_db(np.array([0.0, 4000.0])).tolist() == [1.0, math.inf]
            out = np.array([4000.0, -10.0])
            assert from_db(out, out=out).tolist() == [math.inf, 0.1]

    def test_out_keeps_the_positive_check(self):
        out = np.array([1.0, 0.0, 2.0])
        with pytest.raises(DomainError, match="gain must be > 0"):
            to_db(out, out=out)
        assert out.tolist() == [1.0, 0.0, 2.0]  # rejected before any write


def _module_calls(node, modules, names):
    """"<module>.<name>" if node calls one of names of one of modules, else None."""
    if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and isinstance(node.func.value, ast.Name) and node.func.value.id in modules
            and node.func.attr in names):
        return f"{node.func.value.id}.{node.func.attr}"
    return None


def _sites(spelling):
    """(module, function, spelling) of each node of the package that spelling
    names (not None), function the innermost def or class around it."""
    sites = []
    for path in sorted(Path(angular.__file__).parent.glob("*.py")):
        def walk(node, where):
            for child in ast.iter_child_nodes(node):
                inner = (child.name if isinstance(child, (ast.FunctionDef, ast.ClassDef))
                         else where)
                if (name := spelling(child)) is not None:
                    sites.append((path.stem, where, name))
                walk(child, inner)
        walk(ast.parse(path.read_text(encoding="utf-8")), None)
    return sites


def _conversion_sites():
    """The `_sites` of each dB<->linear conversion in the package: a call of
    np.log10 or np.power, or 10.0 ** <expr>."""
    def spelling(node):
        if (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow)
                and isinstance(node.left, ast.Constant) and node.left.value == 10.0):
            return "10.0 **"
        return _module_calls(node, ("np",), ("log10", "power"))
    return _sites(spelling)


def test_every_db_conversion_is_the_pair():
    allowed = {
        ("angular", "to_db", "np.log10"),
        ("angular", "from_db", "np.power"),
        ("angular", "from_db", "10.0 **"),
        # A scalar of the planner, in Python floats: C pow() on purpose, as
        # pathloss and linkbudget keep their per-value math (see pathloss._xy).
        ("linkbudget", "coverage_range_m", "10.0 **"),
    }
    sites = _conversion_sites()
    assert [site for site in sites if site not in allowed] == []
    assert set(sites) == allowed


_ANGLE_UNITS = ("radians", "degrees", "deg2rad", "rad2deg")


def test_every_scan_angle_conversion_is_at_the_unit_boundary():
    # The set holds the file's degrees.  Radians are taken only where the
    # math needs them: the grid check (its tolerances are in rad), the
    # nearest-bearing index and synth's grid, which goes through radians to
    # keep the CSV bytes.  The horn's beamwidth and `geometry`'s elevation
    # angles are not scan angles.
    allowed = {
        ("angular", "first_invalid", "np.radians"),
        ("angular", "gain_cdfs", "np.radians"),
        ("synth", "angles_rad", "np.radians"),
        ("synth", "generate_campaign", "np.degrees"),
        ("synth", "__post_init__", "math.radians"),
        ("synth", "power", "math.radians"),
        ("cli", "_cmd_geometry", "math.degrees"),
    }
    sites = _sites(lambda node: _module_calls(node, ("np", "math"), _ANGLE_UNITS))
    assert [site for site in sites if site not in allowed] == []
    assert set(sites) == allowed


def _reads_grid(node):
    """Does node read a `.grid` as its value, not only as a call's argument?"""
    if isinstance(node, ast.Attribute) and node.attr == "grid":
        return True
    return not isinstance(node, ast.Call) and any(map(_reads_grid, ast.iter_child_nodes(node)))


@pytest.mark.parametrize("module", ["dataio", "sidecar", "csvtext", "cli"])
def test_modules_that_read_or_write_the_sets_angles_do_not_convert_the_grid(module):
    # The readers, the writers and the tables take the grid as it is: no
    # arithmetic takes it as an operand and no conversion as its argument.
    path = Path(angular.__file__).parent / f"{module}.py"
    touched = [ast.unparse(node) for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
               if isinstance(node, ast.BinOp) and (_reads_grid(node.left)
                                                   or _reads_grid(node.right))
               or isinstance(node, ast.UnaryOp) and _reads_grid(node.operand)
               or isinstance(node, ast.AugAssign) and _reads_grid(node.value)
               or _module_calls(node, ("np", "math"), _ANGLE_UNITS)
               and any(map(_reads_grid, node.args))]
    assert touched == []


@pytest.mark.parametrize("module", ["dataio", "sidecar", "vehicle", "spatialcorr"])
def test_modules_that_read_the_sets_db_gains_do_not_convert(module):
    # The set holds dB: reading, writing, vehicle deltas and correlations
    # take its values as they are, so none of these names the dB pair.
    path = Path(angular.__file__).parent / f"{module}.py"
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.Name):
            names.add(node.id)
    assert names & {"to_db", "from_db"} == set()


class TestCircularMean:
    def test_constant_spectrum(self):
        scans = make_set(np.full(12, -66.0))
        assert circular_mean_gain(scans, whole(scans))[0] == pytest.approx(-66.0, rel=1e-12)

    def test_two_level_alternation(self):
        # Alternating 1.0 / 3.0 has linear mean 2.0 regardless of grid size.
        scans = make_set(to_db(np.tile([1.0, 3.0], 8)))
        assert circular_mean_gain(scans, whole(scans))[0] == pytest.approx(
            3.0102999566398120, rel=1e-12)

    def test_cyclic_rotation_invariance(self):
        rng = np.random.default_rng(3)
        gains = rng.lognormal(mean=-14.0, sigma=1.0, size=24)
        scans = make_set(np.roll(gains, 7), gains)
        rotated, scan = circular_mean_gain(scans, whole(scans))
        assert rotated == pytest.approx(scan, rel=1e-12)


class TestNormalizedSpectrum:
    def test_constant_maps_to_zeros(self):
        scans = make_set(np.full(10, 7.7e-6))
        out = normalized_spectrum(scans, whole(scans))
        assert np.allclose(out, 0.0, atol=1e-12)

    def test_two_level_hand_values(self):
        scans = make_set(to_db(np.tile([1.0, 3.0], 8)))
        out = normalized_spectrum(scans, whole(scans))
        assert out.shape == (1, 16)
        assert np.allclose(out[0, 0::2], -3.0102999566398120, atol=1e-12)
        assert np.allclose(out[0, 1::2], 1.7609125905568124, atol=1e-12)

    def test_offset_invariance(self):
        rng = np.random.default_rng(4)
        gains = rng.normal(-60.0, 6.5, size=32)
        scans = make_set(gains, gains + 17.0)
        base, shifted = normalized_spectrum(scans, whole(scans))
        assert np.allclose(shifted, base, atol=1e-9)

    def test_unit_linear_mean(self):
        rng = np.random.default_rng(5)
        scans = make_set(*(rng.lognormal(mean=-14.0, sigma=2.0, size=36) for _ in range(50)))
        out = normalized_spectrum(scans, whole(scans))
        assert out.shape == (50, 36)
        assert np.mean(from_db(out), axis=1) == pytest.approx(np.ones(50), rel=1e-12)

    def test_rejects_mixed_grids(self):
        shifted = make_scan(np.ones(16), x=6.0)._replace(angles=grid(16) + math.degrees(1e-3))
        with pytest.raises(GridError, match=r"^scan \('TX1_63', 6.0, .*\): angles differ by up "
                                            r"to 1.000e-03 rad from those of scan \('TX1_63', 5.0"):
            scan_set([make_scan(np.ones(16)), shifted])
        with pytest.raises(GridError, match="one angle count"):
            make_set(np.ones(16), np.ones(18))


class TestEnsembleStats:
    def test_single_scan_mean_is_scan(self):
        rng = np.random.default_rng(6)
        gains = rng.normal(-60.0, 4.3, size=16)
        scans = make_set(gains)
        mean_db, _, counts = ensemble_stats(scans, whole(scans), db_bin_width=1.0)
        assert np.allclose(mean_db, gains, atol=1e-12)
        assert set(np.unique(counts)) <= {0, 1}

    def test_two_scan_linear_mean(self):
        gains = np.full(16, 4.0e-7)
        scans = make_set(to_db(gains), to_db(3.0 * gains))
        mean_db, _, _ = ensemble_stats(scans, whole(scans), db_bin_width=1.0)
        assert np.allclose(mean_db, to_db(2.0 * gains), atol=1e-12)

    def test_histogram_mass_per_angle(self):
        rng = np.random.default_rng(7)
        scans = make_set(*(rng.lognormal(mean=-14.0, sigma=1.0, size=16) for _ in range(9)))
        mean_db, _, counts = ensemble_stats(scans, whole(scans), db_bin_width=2.0)
        assert counts.shape[0] == mean_db.size == 16
        assert np.all(counts.sum(axis=1) == 9)

    def test_mean_bounded_by_scan_extremes(self):
        rng = np.random.default_rng(8)
        gains = [rng.normal(-60.0, 4.3, size=16) for _ in range(5)]
        scans = make_set(*gains)
        mean_db, _, _ = ensemble_stats(scans, whole(scans), db_bin_width=1.0)
        gains_db = np.stack(gains)
        assert np.all(mean_db >= gains_db.min(axis=0) - 1e-12)
        assert np.all(mean_db <= gains_db.max(axis=0) + 1e-12)

    def test_rejects_mismatched_grids(self):
        with pytest.raises(GridError):
            make_set(np.ones(16), np.ones(18))

    def test_bin_edges_aligned_to_width(self):
        rng = np.random.default_rng(9)
        scans = make_set(*(rng.lognormal(-14.0, 1.0, 16) for _ in range(4)))
        _, edges, _ = ensemble_stats(scans, whole(scans), db_bin_width=1.0)
        assert np.allclose(edges, np.round(edges), atol=1e-9)


    def test_bin_count_is_bounded(self):
        scans = make_set(np.ones(16), np.full(16, 1e-3))
        with pytest.raises(DomainError, match="bins"):
            ensemble_stats(scans, whole(scans), db_bin_width=1e-9)


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


POSITIONS = {"TX1_63": (18.8, 63.0), "TX2": (18.85, 60.5)}


def azimuth_gains(scans):
    """Each scan's azimuth gain, sorted: the values of gain_cdfs' third CDF."""
    return gain_cdfs(scans, whole(scans), POSITIONS)[2].values


class TestAzimuthGain:
    def test_constant_scan_zero(self):
        assert azimuth_gains(make_set(np.full(12, 3.3e-7)))[0] == pytest.approx(0.0, abs=1e-12)

    def test_two_level_value(self):
        assert azimuth_gains(make_set(to_db(np.tile([1.0, 3.0], 8))))[0] == pytest.approx(
            1.7609125905568124, rel=1e-12
        )

    def test_never_negative(self):
        rng = np.random.default_rng(11)
        gains = [rng.lognormal(mean=-14.0, sigma=1.5, size=24) for _ in range(200)]
        assert (azimuth_gains(make_set(*gains)) >= 0.0).all()


class TestGainCdfs:
    def test_constant_scans_step_at_zero(self):
        scans = scan_set(make_scan(np.full(16, 1e-6), x=float(x)) for x in range(1, 6))
        cdf_all, cdf_tx, cdf_az = gain_cdfs(scans, whole(scans), POSITIONS)
        assert np.allclose(cdf_all.values, 0.0, atol=1e-12)
        assert np.allclose(cdf_tx.values, 0.0, atol=1e-12)
        assert np.allclose(cdf_az.values, 0.0, atol=1e-12)
        assert cdf_tx.n == cdf_az.n == len(scans)
        assert cdf_all.n == 16 * len(scans)

    def test_missing_tx_position_is_domain_error(self):
        with pytest.raises(DomainError, match="'TX9'"):
            scans = make_set(np.ones(8), tx="TX9")
            gain_cdfs(scans, whole(scans), POSITIONS)
        # In index order, the first scan of an unknown transmitter or one at
        # its TX's position ends the call, whichever comes first.
        scans = scan_set([make_scan(np.ones(8), tx="TX2"),
                          make_scan(np.ones(8), tx="TX2", x=18.85, y=60.5),
                          make_scan(np.ones(8), tx="TX8")])
        for picked, match in (([0, 2, 1], "'TX8'"), ([1, 2, 0], "coincide")):
            with pytest.raises(DomainError, match=match):
                gain_cdfs(scans, np.array(picked), POSITIONS)

    def test_probabilities_reach_one(self):
        rng = np.random.default_rng(12)
        scans = scan_set(make_scan(rng.lognormal(-14, 1.0, 16), x=float(x)) for x in range(4))
        for cdf in gain_cdfs(scans, whole(scans), POSITIONS):
            assert cdf.probs[-1] == 1.0
            assert np.all(np.diff(cdf.values) >= 0.0)

    def test_pooled_and_azimuth_cdfs_equal_the_unsorted_spectra(self):
        # More scans than a chunk of rows: the one normalized matrix gives the
        # per-scan maxima before it is sorted in place.
        rng = np.random.default_rng(14)
        gains = rng.lognormal(-14.0, 1.0, (2 * CHUNK_ROWS + 1, 16))
        scans = scan_set(make_scan(row, x=float(x)) for x, row in enumerate(gains))
        spectra = normalized_spectrum(scans, whole(scans))
        cdf_all, _, cdf_az = gain_cdfs(scans, whole(scans), POSITIONS)
        assert cdf_az.values.tobytes() == np.sort(spectra.max(axis=1)).tobytes()
        assert cdf_all.values.tobytes() == np.sort(spectra.ravel()).tobytes()
        assert cdf_az.probs.tobytes() == (np.arange(1, len(gains) + 1) / len(gains)).tobytes()


def test_statistics_invariant_under_joint_rotation():
    """Rotating every scan's samples together with the grid labels changes nothing."""
    rng = np.random.default_rng(13)
    gains = [rng.lognormal(-14.0, 1.0, 24) for _ in range(6)]
    scans = make_set(*gains)
    rolled = make_set(*(np.roll(g, 5) for g in gains))

    base_mean, _, base_counts = ensemble_stats(scans, whole(scans), db_bin_width=1.0)
    moved_mean, _, moved_counts = ensemble_stats(rolled, whole(rolled), db_bin_width=1.0)
    assert np.allclose(np.roll(base_mean, 5), moved_mean, atol=1e-12)
    assert np.array_equal(np.roll(base_counts, 5, axis=0), moved_counts)
    assert azimuth_gains(scans) == pytest.approx(azimuth_gains(rolled), rel=1e-12)


def _chunked_set():
    """A set of more scans than two chunks of rows, and an index into it that
    repeats scans and runs backwards across the chunk boundaries."""
    rng = np.random.default_rng(15)
    scans = scan_set(make_scan(rng.lognormal(-14.0, 2.0, 16), tx=tx, x=float(x))
                     for x in range(2 * CHUNK_ROWS + 7) for tx in ("TX1_63", "TX2"))
    index = np.concatenate([np.arange(len(scans))[::-3], [0, 0, len(scans) - 1]])
    return scans, index


STATISTICS = {
    "circular_mean_gain": lambda scans, index: circular_mean_gain(scans, index),
    "normalized_spectrum": lambda scans, index: normalized_spectrum(scans, index),
    "ensemble_stats": lambda scans, index: ensemble_stats(scans, index, db_bin_width=0.5),
    "gain_cdfs": lambda scans, index: gain_cdfs(scans, index, POSITIONS),
}


@pytest.mark.parametrize("name", sorted(STATISTICS))
def test_statistics_leave_the_set_unchanged(name):
    # Each converts to linear in place, but only in rows it gathered for itself.
    scans, index = _chunked_set()
    gains, grid_bytes = scans.gains.copy(), scans.grid.tobytes()
    STATISTICS[name](scans, index)
    assert scans.gains.tobytes() == gains.tobytes()
    assert scans.grid.tobytes() == grid_bytes


def test_chunked_statistics_equal_the_whole_matrix_forms():
    # Gathered CHUNK_ROWS rows at a time, the statistics equal the same
    # arithmetic on the picked rows as one matrix, bit for bit.
    scans, index = _chunked_set()
    picked = scans.gains[index]
    mean_db = to_db(np.mean(from_db(picked), axis=1))
    assert circular_mean_gain(scans, index).tobytes() == mean_db.tobytes()
    spectra = picked - mean_db[:, None]
    assert normalized_spectrum(scans, index).tobytes() == spectra.tobytes()
    got = ensemble_stats(scans, index, db_bin_width=0.5)
    want = (to_db(np.mean(from_db(picked), axis=0)), *aligned_histograms(picked, 0.5))
    for g, w in zip(got, want):
        assert g.tobytes() == w.tobytes()


@pytest.mark.parametrize("index", [
    slice(0, 2), np.ones(3, dtype=bool), np.array([0.0, 1.0]), np.array([[0, 1]]), [],
], ids=["slice", "mask", "floats", "2-d", "empty list"])
@pytest.mark.parametrize("name", sorted(STATISTICS))
def test_an_index_that_is_not_an_integer_array_is_a_type_error(name, index):
    # A slice would pick a view of the set, which a conversion in place
    # would overwrite; a mask has no order of its own.
    scans = make_set(np.ones(8), np.full(8, 2.0), np.full(8, 3.0))
    with pytest.raises(TypeError, match="1-D integer array"):
        STATISTICS[name](scans, index)
