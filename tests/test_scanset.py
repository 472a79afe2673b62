"""ScanSet: the columnar scans `ingest` returns, against per-scan oracles.

The oracles below are per-scan computations: one record per measurement,
statistics in Python loops over them.  Every statistic the CLI writes must
equal them bit for bit.
"""

import ast
import csv
import json
import math
import os
import subprocess
import sys
import warnings
from collections import defaultdict
from pathlib import Path

import numpy as np
import pytest
from scansets import Scan, gain_samples, key_columns, records, scan_set, whole

import portcanyon
from portcanyon import synth
from portcanyon.angular import (
    ScanSet,
    Stacking,
    VehicleState,
    circular_mean_gain,
    ensemble_stats,
    gain_cdfs,
    normalized_spectrum,
    tx_bearing,
)
from portcanyon.cli import main
from portcanyon.dataio import CANONICAL_HEADER, ingest, provenance_line
from portcanyon.errors import DomainError, GridError
from portcanyon.pathloss import fit_loglinear
from portcanyon.stats import aligned_histograms, empirical_cdf
from portcanyon.vehicle import delta_angle_stats, delta_cdf_report, vehicle_delta

LINE_XS = tuple(f"{13.5 + 0.1 * k:.1f}" for k in range(15))  # the paper's dense line


def _scan_rows(rng, tx, x_texts, y, n, state="absent"):
    """Rows of one scan; x_texts gives each row's spelling of x (cycled)."""
    gains_db = rng.normal(-70.0, 6.0, n)
    return [
        (tx, x_texts[k % len(x_texts)], y, repr(k * 360.0 / n), repr(float(g)), state,
         "uniform")
        for k, g in enumerate(gains_db)
    ]


def _campaign_rows():
    """Rows of 12-angle scans with a signed-zero key, a split scan and
    shuffled angles, plus vehicle variants of both transmitters' scans."""
    rng = np.random.default_rng(21)
    line = [_scan_rows(rng, "TX1_63", (x,), "3.5", 12) for x in LINE_XS]
    moved = [_scan_rows(rng, "TX1_63", (x,), "3.5", 12, "position1") for x in LINE_XS[:3]]
    signed_zero = _scan_rows(rng, "TX2", ("-0.0", "0.0", "0.0"), "5.5", 12)
    split = _scan_rows(rng, "TX2", ("5.0",), "7.5", 12)
    moved_zero = _scan_rows(rng, "TX2", ("0.0",), "5.5", 12, "position2")
    moved_split = _scan_rows(rng, "TX2", ("5.0",), "7.5", 12, "position2")
    for scan in (line[1], split, moved[2]):
        rng.shuffle(scan)
    return (line[0] + split[:7] + line[1] + signed_zero + sum(line[2:], []) + split[7:]
            + sum(moved, []) + moved_split + moved_zero)


@pytest.fixture(scope="module")
def campaign(tmp_path_factory):
    path = tmp_path_factory.mktemp("scanset") / "campaign.csv"
    lines = [provenance_line(), CANONICAL_HEADER]
    lines += [",".join(row) for row in _campaign_rows()]
    path.write_text("\n".join(lines) + "\n", encoding="ascii")
    return path


def _oracle_scans(path):
    """The scans a per-scan reader builds: grouped and angle-sorted, one scan
    at a time, the file's dB gains as they are."""
    groups = defaultdict(dict)
    with open(path, newline="") as fh:
        rows = [r for r in csv.reader(fh) if not r[0].startswith("#")][1:]
    for tx, x, y, phi, gain, state, stacking in rows:
        key = (tx, float(x), float(y), state, stacking)
        groups[key][float(phi)] = float(gain)
    scans = []
    for (tx, x, y, state, stacking), by_angle in groups.items():
        phis = np.array(sorted(by_angle))
        gains_db = np.array([by_angle[p] for p in phis])
        scans.append(Scan(tx=tx, x=x, y=y, angles=phis, gains=gains_db,
                          vehicle_state=state, stacking=stacking))
    return scans


def _oracle_mean_db(scan):
    return float(10.0 * np.log10(np.mean(10.0 ** (scan.gains / 10.0))))


def _oracle_normalized(scan):
    return scan.gains - _oracle_mean_db(scan)


def _oracle_ensemble(scans, width):
    gains = np.stack([s.gains for s in scans])
    edges, counts = aligned_histograms(gains, width)
    return 10.0 * np.log10(np.mean(10.0 ** (gains / 10.0), axis=0)), edges, counts


def _oracle_gain_cdfs(scans, positions):
    pooled, at_tx = [], []
    for scan in scans:
        spectrum = _oracle_normalized(scan)
        pooled.append(spectrum)
        bearing = tx_bearing(positions[scan.tx], (scan.x, scan.y))
        spacing = 2.0 * math.pi / scan.angles.size
        index = int(round((bearing - math.radians(scan.angles[0])) / spacing)) % scan.angles.size
        at_tx.append(spectrum[index])
    return (empirical_cdf(np.concatenate(pooled)), empirical_cdf(np.array(at_tx)),
            empirical_cdf([float(np.max(spectrum)) for spectrum in pooled]))


def _baseline(scans):
    return [s for s in scans if s.vehicle_state == VehicleState.ABSENT.value]


def _keys(scans):
    return [scan.key for scan in records(scans)]


def _column(path, index):
    with open(path, newline="") as fh:
        rows = [r for r in csv.reader(fh) if not r[0].startswith("#")][1:]
    return [r[index] for r in rows]


def _reprs(values):
    return [repr(v) if isinstance(v, float) else str(v) for v in np.asarray(values).tolist()]


class TestIngestedSet:
    def test_columns_and_views_match_the_per_scan_reader(self, campaign):
        scans, oracle = ingest(campaign), _oracle_scans(campaign)
        assert isinstance(scans, ScanSet) and len(scans) == len(oracle) == 22
        for got, want in zip(records(scans), oracle):
            assert got.key == want.key
            assert (repr(got.x), repr(got.y)) == (repr(want.x), repr(want.y))
            assert got.angles.tobytes() == want.angles.tobytes()
            assert got.gains.tobytes() == want.gains.tobytes()
        assert repr(_keys(scans)[3][1]) == "-0.0"  # the first spelling of the key wins

    def test_key_names_a_scan_with_enum_values(self, campaign):
        key = _keys(ingest(campaign))[17]
        assert key == ("TX1_63", 13.5, 3.5, VehicleState.POSITION1, Stacking.UNIFORM)
        assert type(key[1]) is float and type(key[2]) is float
        assert key[3] is VehicleState.POSITION1 and key[4] is Stacking.UNIFORM

    @pytest.mark.parametrize("which", [0, np.int64(0), -1, slice(2, 4), [5, 0, 3]])
    def test_a_set_is_not_subscriptable(self, campaign, which):
        # A statistic picks scans by an index array into the one set; a set
        # never copies a subset of itself.
        with pytest.raises(TypeError, match="not subscriptable"):
            ingest(campaign)[which]

    def test_iterating_is_a_type_error_even_when_empty(self, campaign):
        for scans in (ingest(campaign), scan_set([])):
            with pytest.raises(TypeError):
                list(scans)
            with pytest.raises(TypeError):
                for _ in scans:
                    pass


class TestStatisticsOracle:
    def test_per_scan_statistics(self, campaign):
        scans, oracle = ingest(campaign), _oracle_scans(campaign)
        assert circular_mean_gain(scans, whole(scans)).tolist() == [
            _oracle_mean_db(s) for s in oracle]
        positions = {tx: synth.tx_position(tx)[:2] for tx in ("TX1_63", "TX2")}
        assert gain_cdfs(scans, whole(scans), positions)[2].values.tolist() == sorted(
            float(np.max(_oracle_normalized(s))) for s in oracle)

    def test_gain_cdfs(self, campaign):
        scans = ingest(campaign)
        base = np.flatnonzero(scans.state_code == VehicleState.ABSENT.code)
        positions = {tx: synth.tx_position(tx)[:2] for tx in ("TX1_63", "TX2")}
        got = gain_cdfs(scans, base, positions)
        want = _oracle_gain_cdfs(_baseline(_oracle_scans(campaign)), positions)
        assert len(got) == len(want) == 3
        for g, w in zip(got, want):
            assert g.values.tobytes() == w.values.tobytes()
            assert g.probs.tobytes() == w.probs.tobytes()

    def test_ensemble_stats(self, campaign):
        scans = ingest(campaign)
        oracle = [s for s in _baseline(_oracle_scans(campaign)) if s.tx == "TX1_63"]
        got = ensemble_stats(
            scans, np.flatnonzero((scans.tx_code == scans.tx_ids.index("TX1_63"))
                                  & (scans.state_code == VehicleState.ABSENT.code)),
            db_bin_width=0.5)
        want = _oracle_ensemble(oracle, 0.5)
        assert len(got) == len(want) == 3
        for g, w in zip(got, want):
            assert g.dtype == w.dtype and g.tobytes() == w.tobytes()

    def test_statistics_follow_the_index_order(self, campaign):
        scans, oracle = ingest(campaign), _oracle_scans(campaign)
        picked = [5, 0, 3, 5]
        index = np.array(picked)
        assert circular_mean_gain(scans, index).tolist() == [
            _oracle_mean_db(oracle[i]) for i in picked]
        assert normalized_spectrum(scans, index).tobytes() == np.stack(
            [_oracle_normalized(oracle[i]) for i in picked]).tobytes()
        got = ensemble_stats(scans, index, db_bin_width=0.5)
        for g, w in zip(got, _oracle_ensemble([oracle[i] for i in picked], 0.5)):
            assert g.tobytes() == w.tobytes()

    def test_vehicle_delta_pairs_row_by_row(self, campaign):
        scans = ingest(campaign)
        oracle = _oracle_scans(campaign)
        moved_at = np.flatnonzero(scans.state_code == VehicleState.POSITION2.code)  # TX2, x=5.0
        # then x=0.0
        base_at = [1, 3]  # TX2 at x=5.0, then x=-0.0: found by key, -0.0 == 0.0
        got = vehicle_delta(scans, VehicleState.POSITION2)
        want = np.stack([oracle[b].gains - oracle[v].gains
                         for b, v in zip(base_at, moved_at)])
        assert got.tobytes() == want.tobytes()


class TestCliOutputsOracle:
    """Each CLI table equals the per-scan computation, value for value."""

    def test_angular(self, campaign, tmp_path):
        assert main(["angular", "--input", str(campaign), "--out-dir", str(tmp_path)]) == 0
        base = _baseline(_oracle_scans(campaign))
        positions = {tx: synth.tx_position(tx)[:2] for tx in ("TX1_63", "TX2")}
        for tx in ("TX1_63", "TX2"):
            mean_db, _, counts = _oracle_ensemble([s for s in base if s.tx == tx], 1.0)
            assert _column(tmp_path / f"angular_mean_{tx}.csv", 1) == _reprs(mean_db)
            assert _column(tmp_path / f"angular_hist_{tx}.csv", 3) == _reprs(counts.ravel())
        cdf_all, cdf_tx, az = _oracle_gain_cdfs(base, positions)
        for name, cdf in (("gain_cdf_all_directions", cdf_all),
                          ("gain_cdf_tx_direction", cdf_tx), ("azimuth_gain_cdf", az)):
            assert _column(tmp_path / f"{name}.csv", 0) == _reprs(cdf.values)

    def test_vehicle(self, campaign, tmp_path):
        assert main(["vehicle", "--input", str(campaign), "--out-dir", str(tmp_path)]) == 0
        oracle = _oracle_scans(campaign)
        base = {(s.tx, s.x, s.y, s.stacking): s for s in _baseline(oracle)}
        for state in (VehicleState.POSITION1, VehicleState.POSITION2):
            moved = [s for s in oracle if s.vehicle_state == state.value]
            matrix = np.stack([base[(s.tx, s.x, s.y, s.stacking)].gains - s.gains
                               for s in moved])
            mean_db, _, _ = delta_angle_stats(matrix, db_bin_width=1.0)
            report = delta_cdf_report(matrix)  # sorts the matrix in place
            out = tmp_path / f"vehicle_delta_cdf_{state.value}.csv"
            assert _column(out, 0) == _reprs(report.values_db)
            assert _column(out, 2) == _reprs(report.columns()[2])
            mean_out = tmp_path / f"vehicle_delta_mean_{state.value}.csv"
            assert _column(mean_out, 1) == _reprs(mean_db)

    def test_spatial(self, campaign, tmp_path):
        out = tmp_path / "correlation.csv"
        assert main(["spatial", "--input", str(campaign), "--out", str(out)]) == 0
        line = [s for s in _baseline(_oracle_scans(campaign)) if s.tx == "TX1_63"]
        curves = []
        for i in range(12):
            db = np.array([s.gains[i] for s in line])
            z = db - np.mean(db)
            raw = np.correlate(z, z, mode="full")[z.size - 1:]
            curves.append(raw / raw[0])
        want = np.mean([np.stack(curves).mean(axis=0)], axis=0)
        assert _column(out, 1) == _reprs(want)

    def test_fit(self, campaign, tmp_path):
        out = tmp_path / "fit.csv"
        assert main(["fit", "--input", str(campaign), "--out", str(out)]) == 0
        distances, gains = [], []
        for s in _baseline(_oracle_scans(campaign)):
            tx_x, tx_y, tx_z = synth.tx_position(s.tx)
            distances.append(
                math.sqrt((tx_x - s.x) ** 2 + (tx_y - s.y) ** 2 + (tx_z - 1.5) ** 2))
            gains.append(_oracle_mean_db(s))
        fit = fit_loglinear(gain_samples(distances, gains))
        row = [_column(out, k)[0] for k in range(1, 7)]
        assert row == _reprs([fit.n, fit.ci_n, fit.r0_db, fit.ci_r0, fit.rmse_db])[:5] + [
            str(fit.sample_count)]


def _three_decimal_rows():
    """(x, y, state, gains) of two dense lines of 16-angle scans, baseline and
    both vehicle positions at each x, each gain_db written with 3 decimals as
    a sounder export writes it."""
    rng = np.random.default_rng(31)
    return [(x, y, state, [f"{g:.3f}" for g in rng.uniform(-95.0, -45.0, 16)])
            for y in ("3.5", "5.5") for x in LINE_XS
            for state in ("absent", "position1", "position2")]


def _write_three_decimal_csv(path):
    lines = [provenance_line(), CANONICAL_HEADER] + [
        f"TX1_63,{x},{y},{22.5 * i!r},{gain},{state},uniform"
        for x, y, state, gains in _three_decimal_rows() for i, gain in enumerate(gains)]
    path.write_text("\n".join(lines) + "\n", encoding="ascii")


# Runs each CLI argv given as JSON in the working directory.
_RUN_COMMANDS = """
import json, sys
from portcanyon.cli import main
sys.exit(max(main(argv) for argv in json.loads(sys.argv[1])))
"""


class TestTheFilesValues:
    """The dB statistics read the gains a file holds, not their round trip
    through linear power, which moves 3-decimal values in the last bit."""

    def test_vehicle_deltas_are_the_differences_of_the_files_numbers(self, tmp_path):
        data = tmp_path / "export.csv"
        _write_three_decimal_csv(data)
        assert main(["vehicle", "--input", str(data), "--out-dir", str(tmp_path)]) == 0
        rows = _three_decimal_rows()
        base = {(x, y): gains for x, y, state, gains in rows if state == "absent"}
        for position in ("position1", "position2"):
            deltas = sorted(float(b) - float(v) for x, y, state, gains in rows
                            if state == position for b, v in zip(base[x, y], gains))
            out = tmp_path / f"vehicle_delta_cdf_{position}.csv"
            assert _column(out, 0) == _reprs(deltas)

    def test_spatial_correlates_the_files_numbers(self, tmp_path):
        data, out = tmp_path / "export.csv", tmp_path / "correlation.csv"
        _write_three_decimal_csv(data)
        assert main(["spatial", "--input", str(data), "--out", str(out)]) == 0
        lines = []
        for line_y in ("3.5", "5.5"):
            db = np.array([[float(g) for g in gains] for x, y, state, gains
                           in _three_decimal_rows() if y == line_y and state == "absent"])
            curves = []
            for column in db.T:
                z = column - np.mean(column)
                raw = np.correlate(z, z, mode="full")[z.size - 1:]
                curves.append(raw / raw[0])
            lines.append(np.stack(curves).mean(axis=0))
        assert _column(out, 1) == _reprs(np.mean(lines, axis=0))

    def test_vehicle_and_spatial_tables_do_not_depend_on_numpys_simd_loops(self, tmp_path):
        # With numpy's AVX-512 loops off, as an AVX2-only CPU runs them, the
        # tables of one file are byte-identical: neither command converts the
        # file's dB gains, whose log10/power loops differ in the last bit.
        src = str(Path(portcanyon.__file__).resolve().parent.parent)
        tables = {}
        for name, extra in (("default", {}), ("avx2", {
                "NPY_DISABLE_CPU_FEATURES": "X86_V4 AVX512_ICL AVX512_SPR"})):
            run = tmp_path / name
            run.mkdir()
            _write_three_decimal_csv(run / "export.csv")
            argv = [["vehicle", "--input", "export.csv", "--out-dir", "vehicle"],
                    ["spatial", "--input", "export.csv", "--out", "correlation.csv"]]
            env = {key: value for key, value in os.environ.items()
                   if key != "NPY_DISABLE_CPU_FEATURES"}
            env.update(extra, PYTHONPATH=os.pathsep.join(
                filter(None, [src, os.environ.get("PYTHONPATH")])))
            child = subprocess.run([sys.executable, "-c", _RUN_COMMANDS, json.dumps(argv)],
                                   cwd=run, env=env, capture_output=True, text=True, timeout=120)
            assert child.returncode == 0, child.stderr
            tables[name] = {str(p.relative_to(run)): p.read_bytes()
                            for p in sorted(run.rglob("*.csv")) if p.name != "export.csv"}
        assert len(tables["default"]) == 8
        assert tables["avx2"] == tables["default"]


class TestChecks:
    def test_grid_check_names_the_first_scan_that_differs(self):
        grid12 = 30.0 * np.arange(12)
        scans = [Scan("TX2", float(x), 3.5, grid12, np.ones(12)) for x in range(3)]
        scans.append(Scan("TX2", 7.0, 3.5, grid12 + math.degrees(0.01), np.ones(12)))
        assert scan_set(scans[:3]).grid.tobytes() == grid12.tobytes()
        with pytest.raises(GridError, match=r"^scan \('TX2', 7.0, 3.5, 'absent', 'uniform'\): "
                                            r"angles differ by up to 1.000e-02 rad from those "
                                            r"of scan \('TX2', 0.0, .*\); "):
            scan_set(scans)
        # A 16-angle scan after the 12-angle ones: the set is never built.
        keys = key_columns(("TX2", x, 3.5, "absent", "uniform") for x in (0.0, 1.0, 9.0))
        angles = np.concatenate([grid12, grid12, 22.5 * np.arange(16)])
        with pytest.raises(GridError, match=r"^scan \('TX2', 9.0, 3.5, 'absent', 'uniform'\): "
                                            r"16 angles where scan \('TX2', 0.0, .*\) has 12; "):
            ScanSet.from_rows(keys, [12, 12, 16], angles, np.ones(angles.size))

    def test_from_rows_modifies_none_of_its_inputs(self):
        # The set keeps a copy of the grid in degrees and a view of the
        # gains; the check converts its own scratch, so rows come out as they
        # went in, whether the set builds or not.
        keys = key_columns(("TX2", x, 3.5, "absent", "uniform") for x in range(3))
        for off in (0.0, 1.0):
            angles = np.tile(30.0 * np.arange(12), 3)
            angles[-1] += off
            gains = np.linspace(-80.0, -60.0, angles.size)
            before = angles.tobytes(), gains.tobytes()
            if off:
                with pytest.raises(GridError, match=r"^scan \('TX2', 2.0, "):
                    ScanSet.from_rows(keys, [12] * 3, angles, gains)
            else:
                scans = ScanSet.from_rows(keys, [12] * 3, angles, gains)
                assert scans.grid.tobytes() == angles[:12].tobytes()
            assert (angles.tobytes(), gains.tobytes()) == before

    def test_empty_set_statistics_are_domain_errors(self):
        empty = scan_set([])
        assert len(empty) == 0 and empty.gains.size == empty.grid.size == 0
        none = whole(empty)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert circular_mean_gain(empty, none).size == 0
        for call in (lambda: gain_cdfs(empty, none, {}),
                     lambda: normalized_spectrum(empty, none),
                     lambda: ensemble_stats(empty, none, db_bin_width=1.0)):
            with pytest.raises(DomainError, match="needs at least one scan"):
                call()


def _identifier(node):
    """The name a node binds or reads, if it is one."""
    for field in ("id", "attr", "name"):
        if isinstance(getattr(node, field, None), str):
            return getattr(node, field)
    return None


def _constructions(tree):
    """(function, class) around each call that builds a ScanSet: ScanSet(...)
    anywhere, and cls(...), self.__class__(...) or type(self)(...) inside the
    ScanSet class."""
    found = []

    def builds(call, cls):
        name = _identifier(call.func)
        if name == "ScanSet":
            return True
        if cls != "ScanSet":
            return False
        return name in ("cls", "__class__") or (
            isinstance(call.func, ast.Call) and _identifier(call.func.func) == "type"
            and [_identifier(arg) for arg in call.func.args] == ["self"])

    def visit(node, function=None, cls=None):
        if isinstance(node, ast.ClassDef):
            cls = node.name
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if isinstance(node, ast.Call) and builds(node, cls):
            found.append((function, cls))
        for child in ast.iter_child_nodes(node):
            visit(child, function, cls)

    visit(tree)
    return found


def test_every_scan_set_is_built_by_from_rows():
    # Only `ScanSet.from_rows`, the checked constructor, builds a set, so
    # every set in the program has passed its checks; no module names an
    # unchecked way round it, and none calls broadcast_to: a set holds one
    # grid, not a view of it per scan.
    constructs, names_from_keys, broadcasts = {}, set(), set()
    for path in sorted(Path(portcanyon.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        if sites := _constructions(tree):
            constructs[path.name] = sites
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and _identifier(node.func) == "broadcast_to":
                broadcasts.add(path.name)
            if _identifier(node) == "from_keys":
                names_from_keys.add(path.name)
    assert constructs == {"angular.py": [("from_rows", "ScanSet")]}
    assert names_from_keys == set()
    assert broadcasts == set()


def test_the_construction_walk_sees_each_spelling():
    tree = ast.parse(
        "class ScanSet:\n"
        "    def pick(self, i):\n"
        "        return cls(i), type(self)(i), self.__class__(i), type(i)(i)\n"
        "def select(scans):\n"
        "    return ScanSet(scans)\n"
        "class Other:\n"
        "    def of(cls):\n"
        "        return cls()\n")
    assert _constructions(tree) == [("pick", "ScanSet")] * 3 + [("select", None)]
