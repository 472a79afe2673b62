"""ScanSet: the columnar scans `ingest` returns, against per-scan oracles.

The oracles below are the per-`AngularScan` computations the CLI made before
scans were columns: one scan object per measurement, statistics in Python
loops over them.  Every statistic the CLI writes must equal them bit for bit.
"""

import csv
import math
from collections import defaultdict

import numpy as np
import pytest

from portcanyon import spatialcorr, synth
from portcanyon.angular import (
    AngularScan,
    ScanSet,
    Stacking,
    VehicleState,
    azimuth_gain,
    circular_mean_gain,
    ensemble_stats,
    gain_cdfs,
    require_common_grid,
    to_db,
    tx_bearing,
)
from portcanyon.cli import main
from portcanyon.dataio import CANONICAL_HEADER, ingest, provenance_line
from portcanyon.errors import DomainError, GridError, PairingError
from portcanyon.pathloss import GainSample, fit_loglinear
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
    """Rows with two angle counts, a signed-zero key, a split scan and
    shuffled angles, plus vehicle variants of both grids."""
    rng = np.random.default_rng(21)
    line = [_scan_rows(rng, "TX1_63", (x,), "3.5", 12) for x in LINE_XS]
    moved = [_scan_rows(rng, "TX1_63", (x,), "3.5", 12, "position1") for x in LINE_XS[:3]]
    signed_zero = _scan_rows(rng, "TX2", ("-0.0", "0.0", "0.0"), "5.5", 16)
    split = _scan_rows(rng, "TX2", ("5.0",), "7.5", 16)
    moved_zero = _scan_rows(rng, "TX2", ("0.0",), "5.5", 16, "position2")
    moved_split = _scan_rows(rng, "TX2", ("5.0",), "7.5", 16, "position2")
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
    """The scans the per-scan reader built: grouped, angle-sorted, converted
    one scan at a time."""
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
        scans.append(AngularScan(tx=tx, x=x, y=y, angles=np.radians(phis),
                                 gains=10.0 ** (gains_db / 10.0),
                                 vehicle_state=state, stacking=stacking))
    return scans


def _oracle_mean_db(scan):
    return float(10.0 * np.log10(np.mean(scan.gains)))


def _oracle_normalized(scan):
    return to_db(scan.gains) - _oracle_mean_db(scan)


def _oracle_ensemble(scans, width):
    gains = np.stack([s.gains for s in scans])
    edges, counts = aligned_histograms(10.0 * np.log10(gains), width)
    return 10.0 * np.log10(np.mean(gains, axis=0)), edges, counts


def _oracle_gain_cdfs(scans, positions):
    pooled, at_tx = [], []
    for scan in scans:
        spectrum = _oracle_normalized(scan)
        pooled.append(spectrum)
        bearing = tx_bearing(positions[scan.tx], (scan.x, scan.y))
        spacing = 2.0 * math.pi / scan.angles.size
        index = int(round((bearing - scan.angles[0]) / spacing)) % scan.angles.size
        at_tx.append(spectrum[index])
    return empirical_cdf(np.concatenate(pooled)), empirical_cdf(np.array(at_tx))


def _baseline(scans):
    return [s for s in scans if s.vehicle_state is VehicleState.ABSENT]


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
        assert {block.angles.shape[1] for block in scans.blocks} == {12, 16}
        for got, want in zip(scans, oracle):
            assert got.key == want.key
            assert (repr(got.x), repr(got.y)) == (repr(want.x), repr(want.y))
            assert got.angles.tobytes() == want.angles.tobytes()
            assert got.gains.tobytes() == want.gains.tobytes()
        assert repr(scans[3].x) == "-0.0"  # the first spelling of the key wins

    def test_select_keeps_the_order_it_is_given(self, campaign):
        scans = ingest(campaign)
        picked = scans[[5, 0, 3]]
        assert [s.key for s in picked] == [scans[i].key for i in (5, 0, 3)]
        assert picked.sha256 == scans.sha256
        assert [s.key for s in scans[2:4]] == [scans[2].key, scans[3].key]
        mask = scans.vehicle_state == "absent"
        assert len(scans[mask]) == int(mask.sum()) == 17
        assert len(scans[np.zeros(len(scans), dtype=bool)]) == 0

    def test_of_round_trips_scan_lists(self, campaign):
        oracle = _oracle_scans(campaign)
        rebuilt = ScanSet.of(oracle)
        assert ScanSet.of(rebuilt) is rebuilt
        assert [s.key for s in rebuilt] == [s.key for s in oracle]
        assert all(a.gains.tobytes() == b.gains.tobytes() for a, b in zip(rebuilt, oracle))


class TestStatisticsOracle:
    def test_per_scan_statistics(self, campaign):
        scans, oracle = ingest(campaign), _oracle_scans(campaign)
        assert circular_mean_gain(scans).tolist() == [_oracle_mean_db(s) for s in oracle]
        assert azimuth_gain(scans).tolist() == [
            float(np.max(_oracle_normalized(s))) for s in oracle]

    def test_gain_cdfs(self, campaign):
        scans = ingest(campaign)
        base = scans[scans.vehicle_state == "absent"]
        positions = {tx: synth.tx_position(tx)[:2] for tx in ("TX1_63", "TX2")}
        got = gain_cdfs(base, positions)
        want = _oracle_gain_cdfs(_baseline(_oracle_scans(campaign)), positions)
        for g, w in zip(got, want):
            assert g.values.tobytes() == w.values.tobytes()
            assert g.probs.tobytes() == w.probs.tobytes()

    def test_ensemble_stats(self, campaign):
        scans = ingest(campaign)
        oracle = [s for s in _baseline(_oracle_scans(campaign)) if s.tx == "TX1_63"]
        stats = ensemble_stats(scans[(scans.tx == "TX1_63") & (scans.vehicle_state == "absent")],
                               db_bin_width=0.5)
        mean_db, edges, counts = _oracle_ensemble(oracle, 0.5)
        assert stats.mean_db.tobytes() == mean_db.tobytes()
        assert stats.bin_edges_db.tobytes() == edges.tobytes()
        assert np.array_equal(stats.counts, counts)

    def test_vehicle_delta_pairs_row_by_row(self, campaign):
        scans = ingest(campaign)
        moved = scans[scans.vehicle_state == "position2"]  # TX2 at x=5.0, then x=0.0
        base = scans[[1, 3]]  # TX2 at x=5.0, then x=-0.0
        got = vehicle_delta(base, moved)
        want = np.stack([to_db(b.gains) - to_db(v.gains) for b, v in zip(base, moved)])
        assert got.tobytes() == want.tobytes()
        assert vehicle_delta(base[0], moved[0]).tobytes() == want[0].tobytes()
        with pytest.raises(PairingError, match="different links"):
            vehicle_delta(scans[[3, 1]], moved)


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
        cdf_all, cdf_tx = _oracle_gain_cdfs(base, positions)
        az = empirical_cdf([float(np.max(_oracle_normalized(s))) for s in base])
        for name, cdf in (("gain_cdf_all_directions", cdf_all),
                          ("gain_cdf_tx_direction", cdf_tx), ("azimuth_gain_cdf", az)):
            assert _column(tmp_path / f"{name}.csv", 0) == _reprs(cdf.values)

    def test_vehicle(self, campaign, tmp_path):
        assert main(["vehicle", "--input", str(campaign), "--out-dir", str(tmp_path)]) == 0
        oracle = _oracle_scans(campaign)
        base = {(s.tx, s.x, s.y, s.stacking): s for s in _baseline(oracle)}
        for state in (VehicleState.POSITION1, VehicleState.POSITION2):
            moved = [s for s in oracle if s.vehicle_state is state]
            matrix = np.stack([to_db(base[(s.tx, s.x, s.y, s.stacking)].gains) - to_db(s.gains)
                               for s in moved])
            report = delta_cdf_report(matrix.ravel())
            mean_db, _, _ = delta_angle_stats(matrix)
            out = tmp_path / f"vehicle_delta_cdf_{state.value}.csv"
            assert _column(out, 0) == _reprs(report.values_db)
            assert _column(out, 2) == _reprs(report.gaussian)
            mean_out = tmp_path / f"vehicle_delta_mean_{state.value}.csv"
            assert _column(mean_out, 1) == _reprs(mean_db)

    def test_spatial(self, campaign, tmp_path):
        out = tmp_path / "correlation.csv"
        assert main(["spatial", "--input", str(campaign), "--out", str(out)]) == 0
        line = [s for s in _baseline(_oracle_scans(campaign)) if s.tx == "TX1_63"]
        curves = []
        for i in range(12):
            db = np.array([to_db(s.gains[i]) for s in line])
            z = db - np.mean(db)
            raw = np.correlate(z, z, mode="full")[z.size - 1:]
            curves.append(raw / raw[0])
        want = np.mean([np.stack(curves).mean(axis=0)], axis=0)
        assert _column(out, 1) == _reprs(want)

    def test_fit(self, campaign, tmp_path):
        out = tmp_path / "fit.csv"
        assert main(["fit", "--input", str(campaign), "--out", str(out)]) == 0
        samples = []
        for s in _baseline(_oracle_scans(campaign)):
            tx_x, tx_y, tx_z = synth.tx_position(s.tx)
            distance = math.sqrt((tx_x - s.x) ** 2 + (tx_y - s.y) ** 2 + (tx_z - 1.5) ** 2)
            samples.append(GainSample(distance_m=distance, gain_db=_oracle_mean_db(s)))
        fit = fit_loglinear(samples)
        row = [_column(out, k)[0] for k in range(1, 7)]
        assert row == _reprs([fit.n, fit.ci_n, fit.r0_db, fit.ci_r0, fit.rmse_db])[:5] + [
            str(fit.sample_count)]


class TestChecks:
    def test_grid_check_names_the_first_scan_that_differs(self):
        grid12 = np.radians(30.0 * np.arange(12))
        scans = [AngularScan("TX2", float(x), 3.5, grid12, np.ones(12)) for x in range(3)]
        scans.append(AngularScan("TX2", 9.0, 3.5, np.radians(22.5 * np.arange(16)),
                                 np.ones(16)))
        scans.append(AngularScan("TX2", 7.0, 3.5, grid12 + 0.01, np.ones(12)))
        assert require_common_grid(scans[:3]).tobytes() == grid12.tobytes()
        with pytest.raises(GridError, match=r"scan \('TX2', 9.0"):
            require_common_grid(scans)
        with pytest.raises(GridError, match=r"scan \('TX2', 7.0"):
            require_common_grid(scans[:3] + scans[4:])

    def test_empty_set_statistics_are_domain_errors(self):
        empty = ScanSet.of([])
        assert len(empty) == 0 and list(empty) == []
        with pytest.raises(DomainError):
            ensemble_stats(empty)
        with pytest.raises(DomainError):
            gain_cdfs(empty, {})

    def test_dense_line_from_a_set_equals_one_from_scans(self, campaign):
        scans = ingest(campaign)
        picked = scans[[0, 2, 4]]
        positions = np.array([13.5, 13.6, 13.7])  # the first three of the dense line
        a = spatialcorr.DenseLine(positions=positions, scans=picked)
        b = spatialcorr.DenseLine(positions=positions, scans=tuple(picked))
        for phi in a.angles:
            assert a.gains_db(phi).tobytes() == b.gains_db(phi).tobytes()
        assert [s.key for s in a.scans] == [s.key for s in b.scans]
        assert Stacking(a.scans.stacking[0]) is Stacking.UNIFORM
