"""CLI surface: subcommands, outputs, exit codes, determinism."""

import codecs
import csv
import hashlib
import importlib.util
import itertools
import json
import math
import os
import shutil
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from peaks import HAS_VMHWM, command_peak_kib
from scansets import Scan, column, gain_samples, grid, plant_sidecar, records, scan_set, whole

from portcanyon.angular import ScanSet, Stacking, circular_mean_gain, to_db
from portcanyon.cli import main
from portcanyon.dataio import CANONICAL_HEADER, ingest, provenance_line, write_scans
from portcanyon.pathloss import fit_fixed_slope, fit_loglinear
from portcanyon import sidecar as sidecars
from portcanyon.synth import tx_position

N_ANGLES = 24
GRID = grid(N_ANGLES)


@pytest.fixture
def small_config(tmp_path):
    path = tmp_path / "small.ini"
    path.write_text("[synth]\nn_angles = 24\nseed = 9\n", encoding="utf-8")
    return str(path)


def read_table(path):
    with open(path, encoding="utf-8") as fh:
        rows = [r for r in csv.reader(fh) if r and not r[0].startswith("#")]
    return rows[0], rows[1:]


class TestSynth:
    def test_writes_dataset(self, tmp_path, small_config, capsys):
        out = tmp_path / "data.csv"
        rc = main(["--config", small_config, "synth", "--layout", "uniform",
                   "--out", str(out)])
        assert rc == 0
        assert "wrote" in capsys.readouterr().out
        lines = out.read_text().splitlines()
        # 7 TX x 124 points x 24 angles + provenance + header
        assert len(lines) == 2 + 7 * 124 * N_ANGLES

    def test_same_seed_byte_identical(self, tmp_path, small_config):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["--config", small_config, "synth", "--layout", "nonuniform",
                     "--out", str(a)]) == 0
        assert main(["--config", small_config, "synth", "--layout", "nonuniform",
                     "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_seed_flag_overrides_config(self, tmp_path, small_config):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        main(["--config", small_config, "synth", "--layout", "uniform",
              "--out", str(a), "--seed", "1"])
        main(["--config", small_config, "synth", "--layout", "uniform",
              "--out", str(b), "--seed", "2"])
        assert a.read_bytes() != b.read_bytes()

    def test_no_fading_gives_flat_spectra(self, tmp_path, small_config):
        from portcanyon.dataio import ingest

        out = tmp_path / "flat.csv"
        rc = main(["--config", small_config, "synth", "--layout", "uniform",
                   "--out", str(out), "--no-fading", "--n-angles", "12"])
        assert rc == 0
        scans = ingest(out)
        assert scans.grid.size == 12
        for scan in records(scans)[:5]:
            assert np.ptp(scan.gains) < 1e-9


class TestPipeline:
    @pytest.fixture
    def dataset(self, tmp_path, small_config):
        out = tmp_path / "data.csv"
        rc = main(["--config", small_config, "synth", "--layout", "uniform",
                   "--out", str(out), "--vehicle-mode", "dense"])
        assert rc == 0
        return out

    def test_angular_outputs(self, tmp_path, dataset):
        out_dir = tmp_path / "angular"
        rc = main(["angular", "--input", str(dataset), "--out-dir", str(out_dir)])
        assert rc == 0
        header, rows = read_table(out_dir / "angular_mean_TX1_63.csv")
        assert header == ["angle_deg", "mean_db"]
        assert len(rows) == N_ANGLES
        header, rows = read_table(out_dir / "gain_cdf_all_directions.csv")
        assert header == ["normalized_gain_db", "probability"]
        assert float(rows[-1][1]) == 1.0
        assert (out_dir / "azimuth_gain_cdf.csv").exists()

    def test_angular_deterministic_reports(self, tmp_path, dataset):
        d1, d2 = tmp_path / "r1", tmp_path / "r2"
        main(["angular", "--input", str(dataset), "--out-dir", str(d1)])
        main(["angular", "--input", str(dataset), "--out-dir", str(d2)])
        for name in ("angular_mean_TX2.csv", "gain_cdf_tx_direction.csv"):
            assert (d1 / name).read_bytes() == (d2 / name).read_bytes()

    def test_spatial_output(self, tmp_path, dataset, capsys):
        out = tmp_path / "corr.csv"
        rc = main(["spatial", "--input", str(dataset), "--out", str(out)])
        assert rc == 0
        header, rows = read_table(out)
        assert header == ["lag_m", "correlation"]
        assert len(rows) == 15
        assert float(rows[0][1]) == pytest.approx(1.0, abs=1e-9)
        assert abs(float(rows[1][1])) < 0.2

    def test_vehicle_outputs(self, tmp_path, dataset, capsys):
        out_dir = tmp_path / "vehicle"
        rc = main(["vehicle", "--input", str(dataset), "--out-dir", str(out_dir)])
        assert rc == 0
        header, rows = read_table(out_dir / "vehicle_fit_params.csv")
        assert header[0] == "vehicle_position"
        assert [r[0] for r in rows] == ["position1", "position2"]
        # Defaults of the generator; dense grid at 24 angles gives ~85k deltas.
        assert float(rows[0][1]) == pytest.approx(1.13, abs=0.2)
        assert float(rows[0][2]) == pytest.approx(6.91, abs=0.2)
        assert (out_dir / "vehicle_delta_cdf_position1.csv").exists()
        assert (out_dir / "vehicle_delta_hist_position2.csv").exists()

    def test_fit_output(self, tmp_path, dataset):
        out = tmp_path / "fit.csv"
        rc = main(["fit", "--input", str(dataset), "--out", str(out)])
        assert rc == 0
        header, rows = read_table(out)
        assert header[0] == "configuration"
        assert rows[0][0] == "uniform"
        n = float(rows[0][1])
        assert -6.0 < n < -2.0

    def test_fit_fixed_slope(self, tmp_path, dataset):
        out = tmp_path / "fit4.csv"
        rc = main(["fit", "--input", str(dataset), "--out", str(out),
                   "--fixed-slope", "-4"])
        assert rc == 0
        _, rows = read_table(out)
        assert float(rows[0][1]) == -4.0
        assert float(rows[0][2]) == 0.0  # pinned slope has no CI


class TestFitExactLine:
    def test_noiseless_line_zero_rmse(self, tmp_path):
        scans = []
        for x in (1.0, 5.0, 9.0, 13.0, 17.0):
            dist = math.sqrt((18.8 - x) ** 2 + (63.0 - 3.5) ** 2 + (23.0 - 1.5) ** 2)
            gain_db = -20.0 * math.log10(dist) - 60.0
            scans.append(
                Scan(
                    tx="TX1_63", x=x, y=3.5, angles=GRID,
                    gains=np.full(N_ANGLES, gain_db),
                )
            )
        data = tmp_path / "line.csv"
        write_scans(data, scan_set(scans))
        out = tmp_path / "fit.csv"
        assert main(["fit", "--input", str(data), "--out", str(out)]) == 0
        _, rows = read_table(out)
        label, n, ci_n, r0, ci_r0, rmse, count = rows[0]
        assert float(n) == pytest.approx(-2.0, abs=1e-9)
        assert float(r0) == pytest.approx(-60.0, abs=1e-7)
        assert float(rmse) == pytest.approx(0.0, abs=1e-9)
        assert int(count) == 5


class TestCoverage:
    def test_reference_numbers_in_report(self, tmp_path, capsys):
        out = tmp_path / "coverage.csv"
        rc = main(["coverage", "--out", str(out)])
        assert rc == 0
        text = capsys.readouterr().out
        assert "110.8 dB" in text
        assert "-77.8 dBm" in text
        assert "137" in text
        assert "1.6 Gbps" in text
        _, rows = read_table(out)
        values = {r[0]: float(r[1]) for r in rows}
        assert values["max_allowable_pathloss"] == pytest.approx(110.8, abs=0.05)
        assert values["coverage_range"] == pytest.approx(137.0, abs=2.0)


class TestGeometry:
    def test_evaluation_output(self, capsys):
        rc = main(["geometry", "--height", "17.4", "--width", "8",
                   "--distance", "63", "--rx-depth", "5"])
        assert rc == 0
        text = capsys.readouterr().out
        assert "15.440" in text
        assert "acceptance length" in text

    def test_domain_error_exit_code(self, capsys):
        rc = main(["geometry", "--height", "-1", "--width", "8",
                   "--distance", "63", "--rx-depth", "5"])
        assert rc == 4
        assert "error[domain]" in capsys.readouterr().err


class TestErrors:
    def test_missing_input_file(self, tmp_path, capsys):
        rc = main(["angular", "--input", str(tmp_path / "nope.csv"),
                   "--out-dir", str(tmp_path)])
        assert rc != 0

    def test_malformed_csv_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("tx_id,x_m\n", encoding="utf-8")
        rc = main(["angular", "--input", str(bad), "--out-dir", str(tmp_path)])
        assert rc == 3
        assert "error[ingest]" in capsys.readouterr().err

    def test_unknown_config_key(self, tmp_path, capsys):
        cfg = tmp_path / "bad.ini"
        cfg.write_text("[synth]\nwarp_speed = 9\n", encoding="utf-8")
        rc = main(["--config", str(cfg), "coverage"])
        assert rc == 2
        assert "error[config]" in capsys.readouterr().err

    def test_no_command_prints_the_help(self, capsys):
        assert main([]) == 2
        out = capsys.readouterr().out
        assert out.startswith("usage: portcanyon ") and "--print-default-config" in out

    def test_missing_config_file(self, tmp_path, capsys):
        missing = str(tmp_path / "missing.ini")
        assert main(["--config", missing, "coverage"]) == 2
        assert capsys.readouterr().err == f"error[config]: cannot read config file {missing!r}\n"

    def test_negative_vehicle_sigma_is_domain_error(self, tmp_path, capsys):
        cfg = tmp_path / "sigma.ini"
        cfg.write_text("[synth]\nvehicle_sigma_db = -1\n", encoding="utf-8")
        assert main(["--config", str(cfg), "coverage"]) == 4
        assert capsys.readouterr().err == "error[domain]: vehicle sigma must be >= 0\n"

    def test_spatial_without_dense_line(self, tmp_path, small_config, capsys):
        scans = [
            Scan(tx="TX2", x=1.0, y=3.5, angles=GRID,
                 gains=np.full(N_ANGLES, -60.0))
        ]
        data = tmp_path / "sparse.csv"
        write_scans(data, scan_set(scans))
        rc = main(["spatial", "--input", str(data), "--out", str(tmp_path / "o.csv")])
        assert rc == 3

    def test_spatial_x_count_beyond_the_scan_count(self, tmp_path, capsys):
        # A complete line takes x_count distinct baseline scans: three scans
        # make a line of 3, and a line of 4 fails before any slot is searched.
        data = _write_scans(tmp_path, _line_scans((13.5, 13.6, 13.7))
                            + _line_scans((13.8,), vehicle_state="position1"))
        out = tmp_path / "corr.csv"
        assert main(["spatial", "--input", data, "--out", str(out), "--x-count", "3"]) == 0
        capsys.readouterr()
        out.unlink()
        assert main(["spatial", "--input", data, "--out", str(out), "--x-count", "4"]) == 3
        assert capsys.readouterr().err == (
            "error[ingest]: no complete dense line found (need x = 13.5..13.8 step 0.1)\n")
        assert not out.exists()


# Each command that checks the [synth] section, with its arguments.
_SYNTH_CHECKERS = {
    "synth": ["synth", "--layout", "uniform", "--vehicle-mode", "dense", "--out", "d.csv"],
    "coverage": ["coverage", "--out", "coverage.csv"],
    "geometry": ["geometry", "--height", "17.4", "--width", "8", "--distance", "63",
                 "--rx-depth", "5"],
}


class TestBoundaryValues:
    """Bad option values end in a categorized error, never a traceback or NaN."""

    @pytest.fixture
    def line_data(self, tmp_path):
        scans = [
            Scan(tx="TX1_63", x=x, y=3.5, angles=GRID,
                 gains=np.full(N_ANGLES, to_db(1e-6 / x)))
            for x in (1.0, 5.0, 9.0)
        ]
        data = tmp_path / "line.csv"
        write_scans(data, scan_set(scans))
        return data

    @pytest.mark.parametrize("flags", [
        ["--x-count", "0"],
        ["--x-count", "1"],
        ["--x-step", "0"],
        ["--x-step", "-0.1"],
        ["--x-step", "nan"],
        ["--x-step", "inf"],
        ["--x-start", "nan"],
    ])
    def test_spatial_line_options_are_config_errors(self, tmp_path, line_data,
                                                    capsys, flags):
        out = tmp_path / "corr.csv"
        rc = main(["spatial", "--input", str(line_data), "--out", str(out), *flags])
        assert rc == 2
        assert "error[config]" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flags, message", [
        (["--fit-n", "nan"], "n must be finite, got n=nan"),
        (["--fit-n", "-inf"], "n must be finite, got n=-inf"),
        (["--fit-n", "-4", "--fit-r0", "inf"], "r0_db must be finite, got r0_db=inf"),
    ])
    def test_coverage_non_finite_model_messages(self, capsys, flags, message):
        assert main(["coverage", *flags]) == 4
        assert capsys.readouterr().err == f"error[domain]: {message}\n"

    def test_coverage_nan_slope_is_domain_error(self, capsys):
        rc = main(["coverage", "--fit-n", "nan"])
        captured = capsys.readouterr()
        assert rc == 4
        assert "error[domain]" in captured.err
        assert "nan" not in captured.out

    def test_fit_nan_fixed_slope_is_domain_error(self, tmp_path, line_data, capsys):
        out = tmp_path / "fit.csv"
        rc = main(["fit", "--input", str(line_data), "--out", str(out),
                   "--fixed-slope", "nan"])
        assert rc == 4
        assert "error[domain]" in capsys.readouterr().err
        assert not out.exists()

    def test_fit_huge_fixed_slope_gives_a_non_finite_intercept(self, tmp_path, line_data,
                                                                capsys):
        out = tmp_path / "fit.csv"
        assert main(["fit", "--input", str(line_data), "--out", str(out),
                     "--fixed-slope", "1e308"]) == 4
        assert capsys.readouterr().err == ("error[domain]: r0_db must be finite, "
                                           "got r0_db=-inf\n")
        assert not out.exists()

    @pytest.mark.parametrize("flag", ["--height", "--width", "--distance", "--rx-depth"])
    @pytest.mark.parametrize("value", ["inf", "nan"])
    def test_geometry_non_finite_is_domain_error(self, capsys, flag, value):
        argv = {"--height": "17.4", "--width": "8", "--distance": "63",
                "--rx-depth": "5"}
        argv[flag] = value
        rc = main(["geometry", *(t for kv in argv.items() for t in kv)])
        captured = capsys.readouterr()
        assert rc == 4
        assert "error[domain]" in captured.err
        assert "nan" not in captured.out

    def test_overflowing_gain_is_domain_error(self, tmp_path, capsys):
        data = tmp_path / "huge.csv"
        rows = [f"TX2,1.0,3.5,{45.0 * i},{4000.0 if i == 0 else -60.0},absent,uniform"
                for i in range(8)]
        data.write_text("\n".join(["tx_id,x_m,y_m,phi_deg,gain_db,vehicle_state,stacking",
                                   *rows]) + "\n", encoding="utf-8")
        rc = main(["angular", "--input", str(data), "--out-dir", str(tmp_path / "o")])
        captured = capsys.readouterr()
        assert rc == 4
        assert captured.err.startswith("error[domain]: ")
        assert "finite" in captured.err

    @pytest.mark.parametrize("command, flags, ini, message", [
        ("synth", ["--gain-offset-db", "-4000"], "",
         "gain_offset_db must be within +/-1000 dB, got -4000.0"),
        ("synth", ["--gain-offset-db", "nan"], "", "gain_offset_db must be finite, got nan"),
        ("synth", ["--gain-offset-db", "1e308"], "",
         "gain_offset_db must be within +/-1000 dB, got 1e+308"),
        ("synth", [], "vehicle_sigma_db = inf\n", "vehicle_sigma_db must be finite, got inf"),
        ("synth", [], "vehicle_mu_db = -1e308\n",
         "vehicle_mu_db must be within +/-1000 dB, got -1e+308"),
        *((command, [], ini, message) for command in _SYNTH_CHECKERS for ini, message in (
            ("gain_offset_db = 4000\n", "gain_offset_db must be within +/-1000 dB, got 4000.0"),
            ("vehicle_mu_db = 1e308\n", "vehicle_mu_db must be within +/-1000 dB, got 1e+308"),
            ("vehicle_sigma_db = 101\n", "vehicle_sigma_db must be within +/-100 dB, got 101.0"),
        )),
        # A psi far below the model's would drive the vehicle gains under the
        # float range: psi is bounded too, so every command gives one verdict.
        *((command, [], "vehicle_mu_db = 1000\n[model]\npsi_rad = 1e-300\n",
           "psi must be >= 0.025 rad for the synthetic gains to fit a float, got psi=1e-300")
          for command in _SYNTH_CHECKERS),
    ])
    def test_synth_gains_out_of_range_are_domain_errors(self, tmp_path, capsys, command, flags,
                                                        ini, message):
        config = tmp_path / "synth.ini"
        config.write_text(f"[synth]\nn_angles = 16\n{ini}", encoding="utf-8")
        argv = [str(tmp_path / arg) if arg.endswith(".csv") else arg
                for arg in _SYNTH_CHECKERS[command]]
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a numpy warning would be noise on stderr
            rc = main(["--config", str(config), *argv, *flags])
        captured = capsys.readouterr()
        assert rc == 4
        assert captured.err == f"error[domain]: {message}\n"
        assert captured.out == ""
        assert list(tmp_path.iterdir()) == [config]

    def test_non_utf8_csv_is_ingest_error(self, tmp_path, line_data, capsys):
        data = tmp_path / "latin1.csv"
        data.write_bytes(line_data.read_bytes().replace(b"TX1_63", b"TX1_\xff3"))
        rc = main(["angular", "--input", str(data), "--out-dir", str(tmp_path / "o")])
        captured = capsys.readouterr()
        assert rc == 3
        assert captured.err.startswith("error[ingest]: ")
        assert "UTF-8" in captured.err

    def test_ingest_error_names_the_physical_line(self, tmp_path, capsys):
        # Eight rows whose quoted tx_id "TX\n2" spans two lines each (lines
        # 3-18), two plain rows, then a bad gain_db on line 21, which is the
        # file's 13th csv record.
        rows = [f'"TX\n2",1.0,3.5,{k * 45.0},-60.0,absent,uniform' for k in range(8)]
        rows += [f"TX2,1.0,3.5,{k * 45.0},-60.0,absent,uniform" for k in range(2)]
        rows.append("TX2,1.0,3.5,90.0,abc,absent,uniform")
        data = tmp_path / "multiline.csv"
        data.write_text("\n".join([provenance_line(), CANONICAL_HEADER, *rows]) + "\n",
                        encoding="ascii")
        rc = main(["spatial", "--input", str(data), "--out", str(tmp_path / "corr.csv")])
        captured = capsys.readouterr()
        assert rc == 3
        assert captured.err == "error[ingest]: line 21: gain_db is not a number: 'abc'\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["multiline.csv"]

    def test_field_over_the_csv_limit_is_ingest_error(self, tmp_path, line_data, capsys):
        lines = line_data.read_text(encoding="utf-8").splitlines(keepends=True)
        first = next(i for i, line in enumerate(lines) if line.startswith("TX"))
        tx, x, rest = lines[first].split(",", 2)
        lines[first] = ",".join([tx, "1" + "0" * 199_999, rest])
        data = tmp_path / "long.csv"
        data.write_text("".join(lines), encoding="utf-8")
        rc = main(["angular", "--input", str(data), "--out-dir", str(tmp_path / "o")])
        captured = capsys.readouterr()
        assert rc == 3
        assert captured.err == (f"error[ingest]: line {first + 1}: "
                                "field larger than field limit (131072)\n")
        assert captured.out == ""

    @pytest.mark.parametrize("flag,value", [("--distance", "1e200"),
                                            ("--height", "1e-300"),
                                            ("--width", "0")])
    def test_geometry_extreme_finite_is_domain_error(self, capsys, flag, value):
        argv = {"--height": "17.4", "--width": "8", "--distance": "63",
                "--rx-depth": "5"}
        argv[flag] = value
        rc = main(["geometry", *(t for kv in argv.items() for t in kv)])
        captured = capsys.readouterr()
        assert rc == 4
        assert captured.err.startswith("error[domain]: ")
        assert captured.out == ""

    def test_angular_bin_count_is_bounded(self, tmp_path, line_data, capsys):
        # The gains span about 9.5 dB, so 5e-4 dB bins would be about 19,000.
        out_dir = tmp_path / "o"
        rc = main(["angular", "--input", str(line_data), "--out-dir", str(out_dir),
                   "--bin-db", "5e-4"])
        captured = capsys.readouterr()
        assert rc == 4
        assert captured.err.startswith("error[domain]: ")
        assert "bins" in captured.err
        assert not list(out_dir.glob("angular_hist_*.csv"))


def test_fit_does_not_import_scipy_stats(tmp_path):
    script = """
import sys
import numpy as np
from portcanyon.angular import ScanSet
from portcanyon.cli import main
from portcanyon.dataio import write_scans

xs = (1.0, 5.0, 9.0)
keys = ("TX1_63",), [0] * 3, xs, [3.5] * 3, [0] * 3, [0] * 3  # TX1_63, absent, uniform
scans = ScanSet.from_rows(keys, [8] * 3, np.tile(45.0 * np.arange(8), 3),
                          np.repeat([-60.0 - x for x in xs], 8))
write_scans(sys.argv[1], scans)
assert main(["fit", "--input", sys.argv[1], "--out", sys.argv[2]]) == 0
assert "scipy.stats" not in sys.modules, "scipy.stats was imported"
"""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run(
        [sys.executable, "-c", script, str(tmp_path / "line.csv"),
         str(tmp_path / "fit.csv")],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert (tmp_path / "fit.csv").exists()


def test_default_config_round_trips(tmp_path, capsys):
    assert main(["--print-default-config"]) == 0
    text = capsys.readouterr().out
    path = tmp_path / "default.ini"
    path.write_text(text, encoding="utf-8")
    from portcanyon.config import ToolConfig, load_config

    assert load_config(str(path)) == ToolConfig()


# The documented reference file, verbatim.  `test_default_config_round_trips`
# checks only the values it parses to; a changed comment, key order or value
# spelling (`400e6`) fails here.
REFERENCE_INI = """\
# portcanyon configuration file (INI). Every key is optional; the values
# below are the built-in defaults.

[model]
# Maximum azimuthal acceptance angle of the canyon model (rad).
psi_rad = 0.1
# RX antenna height above ground (m).
rx_height_m = 1.5

[angular]
# Histogram bin width for ensemble spectrum statistics (dB).
histogram_bin_db = 1.0

[synth]
# Master seed; a fixed seed makes datasets and reports byte-identical.
seed = 0
# Azimuth samples per rotation.
n_angles = 360
# RX horn half-power beamwidth (deg).
hpbw_deg = 10.0
# Per-bin Rayleigh fading on/off.
fading = true
# Monte Carlo realizations for the full-spread reference distribution.
n_realizations = 10000
# Calibration offset added to the proportional model gain (dB).
gain_offset_db = 0.0
# Vehicle perturbation: Gaussian mean/std of the gain difference (dB).
vehicle_mu_db = 1.13
vehicle_sigma_db = 6.91

[linkbudget]
# Transmit power per polarization (dBm) and antenna gain (dBi).
tx_power_dbm_per_pol = 28.0
tx_antenna_gain_dbi = 23.0
shadow_margin_db = 10.0
bandwidth_hz = 400e6
temperature_k = 300.0
noise_figure_db = 10.0
required_snr_db = 8.0
# Informational only: single-polarization spectral efficiency (bit/s/Hz).
spectral_efficiency_bps_hz = 2.0
"""


def test_default_config_text_is_pinned(capsys):
    assert main(["--print-default-config"]) == 0
    assert capsys.readouterr().out == REFERENCE_INI


def _write_ini(tmp_path, text):
    path = tmp_path / "cfg.ini"
    path.write_text(text, encoding="utf-8")
    return str(path)


def _write_scans(tmp_path, scans):
    data = tmp_path / "data.csv"
    write_scans(data, scan_set(scans))
    return str(data)


def _write_rows(tmp_path, scans):
    """The canonical CSV of Scan records, written row by row without a
    ScanSet, so their grids may differ."""
    data = tmp_path / "data.csv"
    lines = [provenance_line(), CANONICAL_HEADER] + [
        f"{s.tx},{s.x!r},{s.y!r},{phi!r},{gain!r},{s.vehicle_state},{s.stacking}"
        for s in scans for phi, gain in zip(s.angles.tolist(), s.gains.tolist())]
    data.write_text("\n".join(lines) + "\n", encoding="ascii")
    return str(data)


class TestOneCheckPerValue:
    """A value ends the same way from the config file and from its flag."""

    @pytest.mark.parametrize("route", ["ini", "flag"])
    @pytest.mark.parametrize("section,key,flag,value", [
        ("synth", "seed", "--seed", "-3"),
        ("angular", "histogram_bin_db", "--bin-db", "0"),
    ])
    def test_bad_value_exits_4_by_either_route(self, tmp_path, capsys, route, section,
                                               key, flag, value):
        out = str(tmp_path / "out")
        if section == "synth":
            command = ["synth", "--layout", "uniform", "--out", out]
        else:
            data = _write_scans(tmp_path, [
                Scan(tx="TX2", x=x, y=3.5, angles=GRID, gains=np.full(N_ANGLES, x))
                for x in (1.0, 5.0)
            ])
            command = ["angular", "--input", data, "--out-dir", out]
        if route == "ini":
            argv = ["--config", _write_ini(tmp_path, f"[{section}]\n{key} = {value}\n"),
                    *command]
        else:
            argv = [*command, flag, value]
        rc = main(argv)
        captured = capsys.readouterr()
        assert rc == 4
        assert captured.err.startswith("error[domain]: ")
        assert captured.out == ""

    @pytest.mark.parametrize("line", [
        "bandwidth_hz = nan", "temperature_k = inf", "tx_power_dbm_per_pol = nan",
    ])
    def test_non_finite_link_budget_is_domain_error(self, tmp_path, capsys, line):
        rc = main(["--config", _write_ini(tmp_path, f"[linkbudget]\n{line}\n"), "coverage"])
        captured = capsys.readouterr()
        assert rc == 4
        assert captured.err.startswith("error[domain]: ")
        assert captured.out == ""

    def test_unknown_config_section(self, tmp_path, capsys):
        rc = main(["--config", _write_ini(tmp_path, "[warp]\nspeed = 9\n"), "coverage"])
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.err == "error[config]: unknown section [warp]\n"

    def test_psi_flag_overrides_config(self, tmp_path, capsys):
        argv = ["geometry", "--height", "17.4", "--width", "8", "--distance", "63",
                "--rx-depth", "5"]
        assert main(argv) == 0
        default = capsys.readouterr().out
        assert main(["--config", _write_ini(tmp_path, "[model]\npsi_rad = 0.2\n"), *argv]) == 0
        from_file = capsys.readouterr().out
        assert main([*argv, "--psi", "0.2"]) == 0
        assert capsys.readouterr().out == from_file != default

    def test_config_with_a_byte_order_mark_reads_as_without(self, tmp_path, capsys):
        # Windows Notepad starts a UTF-8 file with a BOM; the CSV reader skips one too.
        text = "[linkbudget]\nbandwidth_hz = 2e8\n\n[model]\npsi_rad = 0.2\n"
        plain = _write_ini(tmp_path, text)
        marked = tmp_path / "bom.ini"
        marked.write_bytes(codecs.BOM_UTF8 + text.encode("utf-8"))
        for argv in (["coverage"], ["geometry", "--height", "17.4", "--width", "8",
                                    "--distance", "63", "--rx-depth", "5"]):
            assert main(["--config", plain, *argv]) == 0
            expected = capsys.readouterr().out
            assert main(["--config", str(marked), *argv]) == 0
            assert capsys.readouterr().out == expected


@pytest.mark.parametrize("tx_id", ["TX3", "TX1_abc", "TX1_nan"])
@pytest.mark.parametrize("command", ["angular", "fit"])
def test_tx_without_a_position_is_ingest_error(tmp_path, capsys, tx_id, command):
    data = _write_scans(tmp_path, [
        Scan(tx=tx_id, x=x, y=3.5, angles=GRID, gains=np.full(N_ANGLES, to_db(1e-6 / x)))
        for x in (1.0, 5.0, 9.0)
    ])
    out_dir = tmp_path / "out"
    target = ["--out-dir", str(out_dir)] if command == "angular" else [
        "--out", str(out_dir / "fit.csv")]
    rc = main([command, "--input", data, *target])
    captured = capsys.readouterr()
    assert rc == 3
    assert captured.err.startswith("error[ingest]: ")
    assert tx_id in captured.err
    assert list(out_dir.glob("*")) == []


@pytest.mark.parametrize("tx_id", [
    "TX1_ 7\n",          # float() forgives the space and the newline
    "TX1_7 ",
    "TX1_1_000",         # and the underscore
    "TX1_7." + "0" * 300,  # a y of 305 characters: no file name that long
], ids=["space and newline", "trailing space", "underscore", "305 characters"])
@pytest.mark.parametrize("command", ["angular", "fit"])
def test_tx_id_that_is_not_a_plain_number_is_ingest_error(tmp_path, capsys, tx_id, command):
    # The id names angular's table files, so only a plain number spelling of
    # at most 32 characters, as dataio reads x and y, is a crane position.
    data = Path(_write_rows(tmp_path, [Scan(tx="TX1_63", x=x, y=3.5, angles=GRID,
                                            gains=np.full(N_ANGLES, to_db(1e-6 / x)))
                                       for x in (1.0, 5.0, 9.0)]))
    quoted = '"' + tx_id.replace('"', '""') + '",'
    data.write_text(data.read_text(encoding="ascii").replace("TX1_63,", quoted),
                    encoding="ascii")
    out_dir = tmp_path / "out"
    target = ["--out-dir", str(out_dir)] if command == "angular" else [
        "--out", str(out_dir / "fit.csv")]
    rc = main([command, "--input", str(data), *target])
    captured = capsys.readouterr()
    assert (rc, captured.out) == (3, "")
    assert captured.err.startswith(f"error[ingest]: no position for transmitter id {tx_id!r}; ")
    assert not out_dir.exists()


@pytest.mark.parametrize("tx_id,xs", [
    ("TX1_1e200", (1.0, 5.0, 9.0)),       # squaring the y offset overflows
    ("TX1_1e154", (-1e154, 5.0, 9.0)),    # each square is finite, their sum is not
])
def test_fit_distance_beyond_float_range_is_domain_error(tmp_path, capsys, tx_id, xs):
    data = _write_scans(tmp_path, [
        Scan(tx=tx_id, x=x, y=3.5, angles=GRID, gains=np.full(N_ANGLES, -60.0))
        for x in xs
    ])
    out = tmp_path / "out" / "fit.csv"
    rc = main(["fit", "--input", data, "--out", str(out)])
    captured = capsys.readouterr()
    assert rc == 4
    assert captured.err == (f"error[domain]: transmitter {tx_id!r} is too far from the RX at "
                            f"x={xs[0]}, y=3.5 for a finite distance\n")
    assert captured.out == ""
    assert not out.parent.exists()


def test_tables_print_the_angles_the_file_holds(tmp_path, capsys):
    # A sounder export in 1-degree steps with 3-decimal gains, baseline and
    # vehicle scans.  `angular` parses it and `vehicle` takes the sidecar;
    # every angle_deg cell of their mean and histogram tables is the file's
    # angle, by repr.  Through radians and back, 38 of the 360 were not
    # (3.0000000000000004, 6.000000000000001, 14.999999999999998, ...).
    rng = np.random.default_rng(35)
    angles = [repr(float(k)) for k in range(360)]
    rows = [f"TX2,{x},3.5,{phi},{gain:.3f},{state},uniform"
            for x in ("1.0", "5.0") for state in ("absent", "position1")
            for phi, gain in zip(angles, rng.normal(-70.0, 6.0, 360))]
    data = tmp_path / "export.csv"
    data.write_text("\n".join([CANONICAL_HEADER, *rows]) + "\n", encoding="ascii")
    out = tmp_path / "out"
    for command in ("angular", "vehicle"):
        assert main([command, "--input", str(data), "--out-dir", str(out)]) == 0
    capsys.readouterr()
    tables = sorted(out.glob("*_mean_*.csv")) + sorted(out.glob("*_hist_*.csv"))
    assert [p.name for p in tables] == [
        "angular_mean_TX2.csv", "vehicle_delta_mean_position1.csv",
        "angular_hist_TX2.csv", "vehicle_delta_hist_position1.csv"]
    for table in tables:
        with open(table, newline="", encoding="ascii") as fh:
            cells = [row[0] for row in csv.reader(fh)][2:]
        rows_per_angle = len(cells) // len(angles)
        assert cells == [phi for phi in angles for _ in range(rows_per_angle)], table.name


@pytest.mark.parametrize("command", ["angular", "spatial", "vehicle", "fit"])
def test_offset_grids_are_grid_errors(tmp_path, capsys, command):
    # Two baseline + vehicle pairs of one TX; the second pair's 8-angle grid
    # is offset by half a step (22.5 deg), so no per-angle pooling exists.
    # Every analysis command names the first scan off scan 0's grid.
    grids = [45.0 * np.arange(8) + offset for offset in (0.0, 22.5)]
    scans = [
        Scan(tx="TX2", x=x, y=3.5, angles=grid, gains=np.full(8, gain),
             vehicle_state=state)
        for x, grid in zip((1.0, 5.0), grids)
        for state, gain in (("absent", -60.0), ("position1", -57.0))
    ]
    data = _write_rows(tmp_path, scans)
    out = tmp_path / "out"
    rc = main([command, "--input", data,
               "--out" if command in ("spatial", "fit") else "--out-dir", str(out)])
    captured = capsys.readouterr()
    assert rc == 3
    assert captured.err == (
        "error[grid]: scan ('TX2', 5.0, 3.5, 'absent', 'uniform'): angles differ by up to "
        "3.927e-01 rad from those of scan ('TX2', 1.0, 3.5, 'absent', 'uniform'); "
        "the scans of a set share one angle grid\n")
    assert captured.out == "" and not out.exists()


def _line_scans(xs, tx="TX1_63", **kwargs):
    rng = np.random.default_rng(11)
    return [
        Scan(tx=tx, x=x, y=3.5, angles=GRID,
             gains=to_db(rng.lognormal(-14.0, 1.0, N_ANGLES)), **kwargs)
        for x in xs
    ]


class TestRegressions:
    def test_vehicle_mode_all_is_not_a_choice(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["synth", "--layout", "uniform", "--out", str(tmp_path / "d.csv"),
                  "--vehicle-mode", "all"])
        assert exc.value.code == 2
        assert not (tmp_path / "d.csv").exists()

    def test_spatial_matches_positions_with_the_line_tolerance(self, tmp_path, capsys):
        # The first x sits 5e-7 m off the nominal 13.5 m: outside the dense
        # line's tolerance, so the line is incomplete rather than rejected.
        xs = [13.5 + 0.1 * k for k in range(15)]
        xs[0] = 13.5000005
        data = _write_scans(tmp_path, _line_scans(xs))
        out = tmp_path / "corr.csv"
        rc = main(["spatial", "--input", data, "--out", str(out)])
        captured = capsys.readouterr()
        assert rc == 3
        assert captured.err.startswith("error[ingest]: no complete dense line found")
        assert not out.exists()

    def test_angular_error_in_a_later_tx_leaves_no_table(self, tmp_path, capsys):
        flat = [Scan(tx="TX1_63", x=x, y=3.5, angles=GRID,
                     gains=np.full(N_ANGLES, -60.0)) for x in (1.0, 5.0)]
        spread = [Scan(tx="TX2", x=x, y=3.5, angles=GRID,
                       gains=np.linspace(-60.0, -88.0, N_ANGLES))
                  for x in (1.0, 5.0)]
        data = _write_scans(tmp_path, flat + spread)
        out_dir = tmp_path / "out"
        rc = main(["angular", "--input", data, "--out-dir", str(out_dir),
                   "--bin-db", "0.001"])
        captured = capsys.readouterr()
        assert rc == 4
        assert captured.err.startswith("error[domain]: ")
        assert list(out_dir.glob("angular_*_TX1_63.csv")) == []

    def test_angular_takes_transmitters_in_baseline_order(self, tmp_path, capsys, monkeypatch):
        # The file starts with a TX2 vehicle scan, but TX1_63 comes first
        # among the baseline scans, which `angular` analyses: its tables
        # come first.
        from portcanyon import dataio

        data = _write_scans(tmp_path, _line_scans((1.0,), tx="TX2", vehicle_state="position1")
                            + _line_scans((1.0, 5.0)) + _line_scans((1.0, 5.0), tx="TX2"))
        assert ingest(data).tx_ids == ("TX2", "TX1_63")
        written, real = [], dataio.write_table
        monkeypatch.setattr(dataio, "write_table", lambda path, *args, **kwargs: (
            written.append(os.path.basename(path)) or real(path, *args, **kwargs)))
        out_dir = tmp_path / "out"
        assert main(["angular", "--input", data, "--out-dir", str(out_dir)]) == 0
        assert written == [f"angular_{table}_{tx}.csv" for tx in ("TX1_63", "TX2")
                           for table in ("mean", "hist")] + [
            "gain_cdf_all_directions.csv", "gain_cdf_tx_direction.csv", "azimuth_gain_cdf.csv"]
        out = capsys.readouterr().out.splitlines()
        assert out[0] == f"angular: 4 scans, 2 transmitters -> {out_dir}"
        assert out[1].startswith("angular: median azimuth gain ") and len(out) == 2

    @pytest.mark.parametrize("command", ["angular", "fit"])
    def test_unknown_transmitter_is_named_in_baseline_order(self, tmp_path, capsys, command):
        # TX8 comes first in the file, in a vehicle scan; TX9 first among the
        # baseline scans, which both commands analyse.
        data = _write_scans(tmp_path, _line_scans((1.0,), tx="TX8", vehicle_state="position1")
                            + _line_scans((1.0,), tx="TX9") + _line_scans((1.0,), tx="TX8"))
        out = (["--out-dir", str(tmp_path / "out")] if command == "angular"
               else ["--out", str(tmp_path / "fit.csv")])
        assert main([command, "--input", data, *out]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error[ingest]: no position for transmitter id 'TX9'; ")

    @pytest.mark.parametrize("provenance", [True, False])
    def test_csv_with_a_leading_bom_reads_as_without_it(self, tmp_path, capsys, provenance):
        plain = Path(_write_scans(tmp_path, [
            Scan(tx="TX2", x=x, y=3.5, angles=GRID, gains=np.linspace(-60.0, -70.0, N_ANGLES))
            for x in (1.0, 5.0)]))
        if not provenance:
            plain.write_bytes(plain.read_bytes().split(b"\n", 1)[1])
        marked = tmp_path / "marked.csv"
        marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
        for data in (plain, marked):
            assert main(["angular", "--input", str(data), "--out-dir",
                         str(tmp_path / data.stem)]) == 0
        capsys.readouterr()
        tables = sorted(p.name for p in (tmp_path / plain.stem).iterdir())
        assert tables == sorted(p.name for p in (tmp_path / marked.stem).iterdir())
        sha256 = hashlib.sha256(marked.read_bytes()).hexdigest()
        for name in tables:
            first, rest = (tmp_path / marked.stem / name).read_text().split("\n", 1)
            assert f"input_sha256={sha256}" in first
            assert rest == (tmp_path / plain.stem / name).read_text().split("\n", 1)[1]

    # The last two ranges underflow to 0 m rather than overflow.
    @pytest.mark.parametrize("n,r0", [("-1e-300", "-23"), ("-4", "1e308"),
                                      ("-1e-320", "-23"), ("-4.09", "-1e308"),
                                      ("-1e-300", "-1000")])
    def test_coverage_range_overflow_is_domain_error(self, capsys, n, r0):
        rc = main(["coverage", f"--fit-n={n}", f"--fit-r0={r0}"])
        captured = capsys.readouterr()
        assert rc == 4
        assert captured.err.startswith("error[domain]: ")
        assert captured.out == ""

    def test_coverage_range_of_a_slope_whose_tenfold_overflows(self, capsys):
        # 10*n overflows to -inf; the model still gives 10^0.1 m, not 10^0 m.
        assert main(["coverage", "--fit-n=-1e308", "--fit-r0=1e308"]) == 0
        assert "coverage range:               1.3 m\n" in capsys.readouterr().out

    @pytest.mark.parametrize("command", ["angular", "fit"])
    def test_overflowing_linear_mean_is_domain_error(self, tmp_path, capsys, command):
        # Each 3079 dB gain is a finite 7.9e307, but 16 of them sum past the
        # largest float, so their linear mean would be inf.
        data = tmp_path / "huge.csv"
        rows = [f"TX2,{x},3.5,{22.5 * i},3079.0,absent,uniform"
                for x in (1.0, 5.0, 9.0) for i in range(16)]
        data.write_text("\n".join(["tx_id,x_m,y_m,phi_deg,gain_db,vehicle_state,stacking",
                                   *rows]) + "\n", encoding="utf-8")
        out_dir = tmp_path / "out"
        target = (["--out-dir", str(out_dir)] if command == "angular"
                  else ["--out", str(out_dir / "fit.csv")])
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a numpy warning would be noise on stderr
            rc = main([command, "--input", str(data), *target])
        captured = capsys.readouterr()
        assert rc == 4
        assert captured.err == "error[domain]: the linear mean of the gains overflows\n"
        assert captured.out == ""
        assert not out_dir.exists()

    def test_spatial_line_too_far_out_for_uniform_steps(self, tmp_path, capsys):
        # At x = 1e12 the float steps of 0.1 m differ by about 1.2e-4 m, far
        # beyond the dense line's 1e-9 m tolerance: the line is found, then rejected.
        xs = [1e12 + 0.1 * k for k in range(15)]
        data = _write_scans(tmp_path, _line_scans(xs))
        out = tmp_path / "corr.csv"
        rc = main(["spatial", "--input", data, "--out", str(out),
                   "--x-start", "1e12", "--x-step", "0.1"])
        captured = capsys.readouterr()
        assert rc == 4
        assert captured.err == "error[domain]: positions must be uniformly spaced\n"
        assert captured.out == "" and not out.exists()

    def test_spatial_far_line_with_no_scans_on_it_is_no_line(self, tmp_path, capsys):
        # The positions from x = 1e12 are not uniform, but no scan lies on
        # them: the spacing is checked only once a line is complete.
        data = _write_scans(tmp_path, _line_scans([13.5 + 0.1 * k for k in range(15)]))
        out = tmp_path / "corr.csv"
        rc = main(["spatial", "--input", data, "--out", str(out), "--x-start", "1e12"])
        captured = capsys.readouterr()
        assert rc == 3
        assert captured.err.startswith("error[ingest]: no complete dense line found")
        assert captured.out == "" and not out.exists()

    def test_spatial_names_the_first_off_grid_scan_in_the_file(self, tmp_path, capsys):
        # Two complete lines, TX2's first in the file, each with one scan off
        # scan 0's grid: TX1_63's line sorts first, but TX2's scan is named.
        xs = [13.5 + 0.1 * k for k in range(15)]
        scans = [s._replace(angles=GRID + math.degrees(0.01)) if s.x == xs[off] else s
                 for tx, off in (("TX2", 3), ("TX1_63", 9)) for s in _line_scans(xs, tx=tx)]
        data = _write_rows(tmp_path, scans)
        out = tmp_path / "corr.csv"
        rc = main(["spatial", "--input", data, "--out", str(out)])
        captured = capsys.readouterr()
        assert rc == 3
        assert captured.err == (
            f"error[grid]: scan ('TX2', {xs[3]!r}, 3.5, 'absent', 'uniform'): angles differ by "
            f"up to 1.000e-02 rad from those of scan ('TX2', {xs[0]!r}, 3.5, 'absent', "
            "'uniform'); the scans of a set share one angle grid\n")
        assert captured.out == "" and not out.exists()


class TestBranches:
    """Command branches that the pipeline tests above do not reach."""

    @pytest.mark.parametrize("flags,fit", [
        ((), fit_loglinear),
        (("--fixed-slope", "-4"), lambda samples: fit_fixed_slope(samples, -4.0)),
    ], ids=["free", "fixed-slope"])
    def test_fit_both_stackings_writes_aggregated_row(self, tmp_path, capsys, flags, fit):
        # The stackings interleave in the file; each group keeps set order, and
        # the aggregated row fits the nonuniform scans, then the uniform ones.
        # Over these 11 samples numpy's sums depend on the order, so a fit in
        # set order, or with the uniform scans first, differs in the last bit.
        uniform = _line_scans((1.0, 5.0, 9.0, 13.0), stacking="uniform")
        nonuniform = _line_scans((3.0, 7.0, 11.0, 15.0, 19.0, 23.0, 27.0), tx="TX2",
                                 stacking="nonuniform")
        data = _write_scans(tmp_path, [s for pair in itertools.zip_longest(nonuniform, uniform)
                                       for s in pair if s is not None])
        out = tmp_path / "fit.csv"
        assert main(["fit", "--input", data, "--out", str(out), *flags]) == 0
        scans = ingest(data)
        distance_m = np.array([
            math.sqrt((tx_x - x) ** 2 + (tx_y - y) ** 2 + (tx_z - 1.5) ** 2)
            for (tx_x, tx_y, tx_z), x, y in zip(map(tx_position, column(scans, "tx")),
                                                scans.x.tolist(), scans.y.tolist())])
        gain_db = circular_mean_gain(scans, whole(scans))
        groups = {label: np.flatnonzero(np.array(column(scans, "stacking")) == label)
                  for label in ("nonuniform", "uniform")}
        groups["aggregated"] = np.concatenate([groups["nonuniform"], groups["uniform"]])
        assert [g.size for g in groups.values()] == [7, 4, 11]
        expected = []
        for label, index in groups.items():
            f = fit(gain_samples(distance_m[index], gain_db[index]))
            expected.append([label, *map(repr, (f.n, f.ci_n, f.r0_db, f.ci_r0, f.rmse_db)),
                             str(f.sample_count)])
        assert read_table(out)[1] == expected

    @pytest.mark.parametrize("first", ["huge", "unknown"])
    def test_fit_linear_mean_comes_before_any_tx_position(self, tmp_path, capsys, first):
        # One scan's 16 gains of 3079 dB sum past the largest float; another's
        # tx_id names no transmitter. The means are taken over the whole set
        # first, so the overflow is the error wherever that scan lies.
        scans = {"huge": [f"TX2,1.0,3.5,{22.5 * i},3079.0,absent,uniform" for i in range(16)],
                 "unknown": [f"TX9,5.0,3.5,{22.5 * i},-60.0,absent,uniform"
                             for i in range(16)]}
        rows = scans.pop(first) + [row for rest in scans.values() for row in rest]
        data = tmp_path / "data.csv"
        data.write_text("\n".join([CANONICAL_HEADER, *rows]) + "\n", encoding="ascii")
        out = tmp_path / "out" / "fit.csv"
        rc = main(["fit", "--input", str(data), "--out", str(out)])
        captured = capsys.readouterr()
        assert (rc, captured.out) == (4, "")
        assert captured.err == "error[domain]: the linear mean of the gains overflows\n"
        assert not out.parent.exists()

    @pytest.mark.parametrize("first,rc,err", [
        ("TX1_1e200", 4, "error[domain]: transmitter 'TX1_1e200' is too far from the RX at "
                         "x=1.0, y=3.5 for a finite distance\n"),
        ("TX9", 3, "error[ingest]: no position for transmitter id 'TX9'; "),
    ], ids=["too-far-first", "unknown-first"])
    def test_fit_takes_tx_positions_in_set_order(self, tmp_path, capsys, first, rc, err):
        # A scan too far for a finite distance and one with an unknown tx_id:
        # whichever comes first in the file ends the run.
        txs = [first] + [tx for tx in ("TX1_1e200", "TX9") if tx != first]
        data = _write_scans(tmp_path, [
            Scan(tx=tx, x=x, y=3.5, angles=GRID, gains=np.full(N_ANGLES, -60.0))
            for tx, x in zip(txs + ["TX2"], (1.0, 5.0, 9.0))])
        out = tmp_path / "out" / "fit.csv"
        assert main(["fit", "--input", data, "--out", str(out)]) == rc
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith(err)
        assert not out.parent.exists()

    def test_fit_too_small_group_names_it(self, tmp_path, capsys):
        data = _write_scans(tmp_path, _line_scans((1.0, 5.0, 9.0), stacking="uniform")
                            + _line_scans((1.0,), stacking="nonuniform"))
        out = tmp_path / "fit.csv"
        rc = main(["fit", "--input", data, "--out", str(out)])
        captured = capsys.readouterr()
        assert rc == 4
        assert captured.err.startswith("error[fit]: group 'nonuniform': ")
        assert not out.exists()

    def test_vehicle_scan_without_baseline(self, tmp_path, capsys):
        data = _write_scans(tmp_path, _line_scans((1.0,))
                            + _line_scans((5.0,), vehicle_state="position1"))
        rc = main(["vehicle", "--input", data, "--out-dir", str(tmp_path / "out")])
        captured = capsys.readouterr()
        assert rc == 3
        assert captured.err.startswith("error[ingest]: no baseline scan for vehicle scan")

    def test_vehicle_pairs_both_positions_before_any_statistic(self, tmp_path, capsys):
        # position1's histogram would need more than MAX_HISTOGRAM_BINS bins,
        # and position2's scan has no baseline: every pairing comes first.
        rng = np.random.default_rng(2)
        moved = [scan._replace(gains=to_db(rng.lognormal(-14.0, 1.0, N_ANGLES)),
                               vehicle_state="position1") for scan in _line_scans((1.0, 5.0))]
        data = _write_scans(tmp_path, _line_scans((1.0, 5.0)) + moved
                            + _line_scans((9.0,), vehicle_state="position2"))
        config = _write_ini(tmp_path, "[angular]\nhistogram_bin_db = 1e-4\n")
        rc = main(["--config", config, "vehicle", "--input", data,
                   "--out-dir", str(tmp_path / "out")])
        captured = capsys.readouterr()
        assert rc == 3
        assert captured.err.startswith("error[ingest]: no baseline scan for vehicle scan at "
                                       "('TX1_63', 9.0, 3.5, ")
        assert captured.out == "" and not (tmp_path / "out").exists()

    def test_vehicle_on_file_without_vehicle_scans(self, tmp_path, capsys):
        data = _write_scans(tmp_path, _line_scans((1.0, 5.0)))
        rc = main(["vehicle", "--input", data, "--out-dir", str(tmp_path / "out")])
        captured = capsys.readouterr()
        assert rc == 3
        assert captured.err == "error[ingest]: dataset has no vehicle scans\n"

    def test_vehicle_position1_only_writes_one_row(self, tmp_path, capsys):
        xs = (1.0, 5.0, 9.0)
        base = _line_scans(xs)
        moved = [Scan(tx=s.tx, x=s.x, y=s.y, angles=s.angles, gains=s.gains + to_db(2.0),
                      vehicle_state="position1") for s in base]
        data = _write_scans(tmp_path, base + moved)
        out_dir = tmp_path / "out"
        assert main(["vehicle", "--input", data, "--out-dir", str(out_dir)]) == 0
        _, rows = read_table(out_dir / "vehicle_fit_params.csv")
        assert [r[0] for r in rows] == ["position1"]
        assert int(rows[0][3]) == len(xs) * N_ANGLES
        assert not list(out_dir.glob("*position2*"))

    @pytest.mark.parametrize("command", ["angular", "fit"])
    def test_vehicle_only_file_has_no_baseline(self, tmp_path, capsys, command):
        data = _write_scans(tmp_path, _line_scans((1.0, 5.0, 9.0),
                                                  vehicle_state="position2"))
        out_dir = tmp_path / "out"
        target = ["--out-dir", str(out_dir)] if command == "angular" else [
            "--out", str(out_dir / "fit.csv")]
        rc = main([command, "--input", data, *target])
        captured = capsys.readouterr()
        assert rc == 3
        assert captured.err == (
            "error[ingest]: dataset has no baseline (vehicle absent) scans\n")
        assert not out_dir.exists()


ROOT = Path(__file__).resolve().parents[1]
SPANS_PY = ROOT / "perfbench" / "spans.py"


def _perfbench_spans():
    """The bench's span recorder, imported by path: perfbench is no package."""
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PY)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


def test_package_import_stays_light_and_cli_loads_every_layer():
    spans = _perfbench_spans()
    script = """
import sys

def heavy():
    return sorted(m for m in sys.modules if m.split(".")[0] in ("numpy", "scipy"))

import portcanyon
assert not heavy(), ("import portcanyon", heavy())
import portcanyon.geometry
assert not heavy(), ("import portcanyon.geometry", heavy())
import portcanyon.linkbudget
assert not heavy(), ("import portcanyon.linkbudget", heavy())
import portcanyon.cli
missing = [name for name in sys.argv[1:] if "portcanyon." + name not in sys.modules]
assert not missing, ("import portcanyon.cli", missing)
"""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(
        [sys.executable, "-c", script, *spans.LAYERS],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr


def test_planner_commands_do_not_load_the_table_formatters(tmp_path):
    # Every child compiles what it imports: a command that writes no table
    # loads neither formatter, and `coverage --out`, whose table holds no
    # float array, only the one for its text.
    script = """
import contextlib
import sys
from portcanyon import cli
for argv, loaded in (
        (["geometry", "--height", "17.4", "--width", "8", "--distance", "63",
          "--rx-depth", "5"], set()),
        (["--print-default-config"], set()),
        (["coverage", "--out", sys.argv[1]], {"portcanyon.csvtext"})):
    with contextlib.redirect_stdout(sys.stderr):
        assert cli.main(argv) == 0, argv
    formatters = {"portcanyon.csvtext", "portcanyon.floatrepr"} & set(sys.modules)
    assert formatters == loaded, (argv, formatters)
"""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, "-c", script, str(tmp_path / "coverage.csv")],
                          env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert (tmp_path / "coverage.csv").exists()


def test_traced_child_runs_every_command(tmp_path):
    # The traced bench run binds parameters by name (spans.WORK); a renamed
    # one crashes the traced child, and only there.
    spans = _perfbench_spans()
    data = str(tmp_path / "data.csv")
    calls = {
        "synth": ["synth", "--layout", "uniform", "--vehicle-mode", "dense", "--seed", "5",
                  "--n-angles", "16", "--out", data],
        "angular": ["angular", "--input", data, "--out-dir", str(tmp_path / "angular")],
        "spatial": ["spatial", "--input", data, "--out", str(tmp_path / "correlation.csv")],
        "vehicle": ["vehicle", "--input", data, "--out-dir", str(tmp_path / "vehicle")],
        "fit": ["fit", "--input", data, "--out", str(tmp_path / "fit.csv")],
        "coverage": ["coverage", "--out", str(tmp_path / "coverage.csv")],
        "geometry": ["geometry", "--height", "17.4", "--width", "8", "--distance", "63",
                     "--rx-depth", "5"],
    }
    assert tuple(calls) == spans.COMMANDS
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    for command, argv in calls.items():
        out = tmp_path / f"{command}.spans.json"
        done = subprocess.run(
            [sys.executable, str(SPANS_PY), "--out", str(out), "--trace-id", command,
             "--command", command, "--", *argv],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert done.returncode == 0, (command, done.stderr)
        recorded = json.loads(out.read_text(encoding="utf-8"))["spans"]
        assert recorded[0][:2] == [f"cli.{command}", "cli"], command
        _, _, residual = spans.command_balance(recorded)
        assert abs(residual) <= 1e-6, (command, residual)


def test_every_export_exists():
    import pkgutil

    import portcanyon

    for info in pkgutil.iter_modules(portcanyon.__path__):
        module = importlib.import_module(f"portcanyon.{info.name}")
        names = getattr(module, "__all__", [])
        assert [name for name in names if not hasattr(module, name)] == [], info.name
        namespace = {}
        exec(f"from portcanyon.{info.name} import *", namespace)
        assert set(names) <= set(namespace), info.name


def _moved(scans, state, factor=2.0):
    return [Scan(tx=s.tx, x=s.x, y=s.y, angles=s.angles, gains=s.gains + to_db(factor),
                 vehicle_state=state) for s in scans]


class TestScanSetPipeline:
    """Regressions and provenance around the columnar scan set."""

    def test_vehicle_unpaired_position2_leaves_nothing(self, tmp_path, capsys):
        base = _line_scans((1.0, 5.0, 9.0))
        unpaired = _line_scans((13.0,), vehicle_state="position2")
        data = _write_scans(tmp_path, base + _moved(base, "position1") + unpaired)
        out_dir = tmp_path / "out"
        rc = main(["vehicle", "--input", data, "--out-dir", str(out_dir)])
        captured = capsys.readouterr()
        assert rc == 3
        assert captured.err.startswith("error[ingest]: no baseline scan for vehicle scan at "
                                       "('TX1_63', 13.0, 3.5, <Stacking.UNIFORM: 'uniform'>)")
        assert captured.out == ""
        assert not list(out_dir.glob("vehicle_delta_*_position1.csv"))
        assert not out_dir.exists()

    @pytest.mark.parametrize("line", ["temperature_k = 1e300\nbandwidth_hz = 1e300",
                                      "temperature_k = 1e-300\nbandwidth_hz = 1e-300"])
    def test_noise_floor_out_of_range_is_domain_error(self, tmp_path, capsys, line):
        ini = _write_ini(tmp_path, f"[linkbudget]\n{line}\n")
        rc = main(["--config", ini, "coverage"])
        captured = capsys.readouterr()
        assert rc == 4
        assert captured.err.startswith("error[domain]: noise power")
        assert captured.out == ""

    @pytest.mark.parametrize("newline", ["\n", "\r\n"])
    def test_input_hash_is_the_file_sha256(self, tmp_path, newline):
        data = tmp_path / "data.csv"
        write_scans(data, scan_set(_line_scans((1.0, 5.0, 9.0, 13.0))))
        text = data.read_bytes().replace(b"\n", newline.encode())
        data.write_bytes(text)
        out = tmp_path / "fit.csv"
        assert main(["fit", "--input", str(data), "--out", str(out)]) == 0
        first = out.read_text().splitlines()[0]
        assert first.endswith(f"input_sha256={hashlib.sha256(text).hexdigest()}")


def _failing_case(tmp_path, command):
    """argv and exit code of a run of command that fails after part of its
    work; every table path lies in tmp_path / "out"."""
    out = tmp_path / "out"
    if command == "angular":
        # TX1_63 is computed first; TX2's 28 dB span needs too many 0.001 dB bins.
        flat = [Scan(tx="TX1_63", x=x, y=3.5, angles=GRID,
                     gains=np.full(N_ANGLES, -60.0)) for x in (1.0, 5.0)]
        spread = [Scan(tx="TX2", x=x, y=3.5, angles=GRID,
                       gains=np.linspace(-60.0, -88.0, N_ANGLES))
                  for x in (1.0, 5.0)]
        return ["angular", "--input", _write_scans(tmp_path, flat + spread),
                "--out-dir", str(out), "--bin-db", "0.001"], 4
    if command == "spatial":
        data = _write_scans(tmp_path, _line_scans([13.5 + 0.1 * k for k in range(14)]))
        return ["spatial", "--input", data, "--out", str(out / "corr.csv")], 3
    if command == "vehicle":
        # position1 pairs; the position2 scan has no baseline.
        base = _line_scans((1.0, 5.0, 9.0))
        data = _write_scans(tmp_path, base + _moved(base, "position1")
                            + _line_scans((13.0,), vehicle_state="position2"))
        return ["vehicle", "--input", data, "--out-dir", str(out)], 3
    if command == "fit":
        # 'nonuniform' fits; the later 'uniform' group has one distance.
        data = _write_scans(tmp_path, _line_scans((1.0, 5.0, 9.0), stacking="nonuniform")
                            + _line_scans((1.0,), stacking="uniform"))
        return ["fit", "--input", data, "--out", str(out / "fit.csv")], 4
    if command == "coverage":
        return ["coverage", "--out", str(out / "missing" / "c.csv")], 3
    return ["geometry", "--height", "17.4", "--width", "0", "--distance", "63",
            "--rx-depth", "5"], 4


@pytest.mark.parametrize("command", ["angular", "spatial", "vehicle", "fit", "coverage",
                                     "geometry"])
def test_failing_command_writes_and_prints_nothing(tmp_path, capsys, command):
    argv, code = _failing_case(tmp_path, command)
    if "--out" in argv:
        (tmp_path / "out").mkdir()
    rc = main(argv)
    captured = capsys.readouterr()
    assert rc == code
    assert captured.err.startswith("error[")
    assert captured.out == ""
    assert not (tmp_path / "out").exists() or not list((tmp_path / "out").iterdir())
    assert not list(tmp_path.rglob("*.tmp"))


def test_io_error_names_the_output_path(tmp_path, capsys):
    out = tmp_path / "nodir" / "c.csv"
    rc = main(["coverage", "--out", str(out)])
    captured = capsys.readouterr()
    assert rc == 3
    assert captured.err.startswith("error[io]: ")
    assert str(out) in captured.err
    assert ".tmp" not in captured.err
    assert captured.out == ""


def test_tiny_beamwidth_synth_is_silent(tmp_path):
    src = str(Path(__file__).resolve().parents[1] / "src")
    done = subprocess.run(
        [sys.executable, "-m", "portcanyon.cli", "synth", "--layout", "nonuniform",
         "--out", str(tmp_path / "d.csv"), "--hpbw-deg", "1e-300", "--n-angles", "8"],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stderr == ""
    assert done.stdout.startswith("synth: wrote ")


def test_beamwidth_that_is_zero_radians_is_one_domain_error(tmp_path):
    # 5e-324 deg is 0.0 rad: the lobe's offset/HPBW was 0/0, and the run
    # printed two RuntimeWarnings before an error about the scans' gains.
    src = str(Path(__file__).resolve().parents[1] / "src")
    done = subprocess.run(
        [sys.executable, "-m", "portcanyon.cli", "synth", "--layout", "nonuniform",
         "--out", str(tmp_path / "d.csv"), "--hpbw-deg", "5e-324", "--n-angles", "8"],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 4
    assert done.stderr == "error[domain]: HPBW of 5e-324 deg is 0 rad in floating point\n"
    assert done.stdout == "" and not list(tmp_path.iterdir())


@pytest.mark.parametrize("slope", ["1e155", "1e300", "1e308", "-1e308"])
def test_huge_fixed_slope_prints_only_its_error(tmp_path, slope):
    # Distances of 64 to 288 m: the residuals of a 1e155 slope square past the largest float.
    data = _write_scans(tmp_path, _line_scans((1.0, 60.0, 300.0)))
    src = str(Path(__file__).resolve().parents[1] / "src")
    done = subprocess.run(
        [sys.executable, "-m", "portcanyon.cli", "fit", "--input", data,
         "--out", str(tmp_path / "fit.csv"), f"--fixed-slope={slope}"],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 4
    assert done.stderr.startswith("error[domain]: ")
    assert done.stderr.count("\n") == 1
    assert done.stdout == "" and not (tmp_path / "fit.csv").exists()


# ------------------------------------------------- partial output, config, flags

def test_failed_table_write_removes_the_tables_before_it(tmp_path, capsys):
    data = tmp_path / "data.csv"
    write_scans(data, scan_set(_line_scans((1.0, 5.0, 9.0))
                               + _line_scans((1.0, 5.0), tx="TX2")))
    out_dir = tmp_path / "out"
    (out_dir / "gain_cdf_all_directions.csv").mkdir(parents=True)
    rc = main(["angular", "--input", str(data), "--out-dir", str(out_dir)])
    captured = capsys.readouterr()
    assert rc == 3
    assert captured.err.startswith("error[io]: [Errno 21] Is a directory: ")
    assert captured.out == ""
    assert [p.name for p in out_dir.iterdir()] == ["gain_cdf_all_directions.csv"]
    assert not list(tmp_path.rglob("*.tmp"))


def test_failed_table_write_removes_the_out_dirs_it_made(tmp_path, capsys, monkeypatch):
    from portcanyon import dataio

    data = tmp_path / "data.csv"
    write_scans(data, scan_set(_line_scans((1.0, 5.0, 9.0))))
    real, calls = dataio.write_table, []

    def second_write_fails(path, *args, **kwargs):
        calls.append(path)
        if len(calls) == 2:
            raise OSError(28, "No space left on device", path)
        return real(path, *args, **kwargs)

    monkeypatch.setattr(dataio, "write_table", second_write_fails)
    rc = main(["angular", "--input", str(data), "--out-dir", str(tmp_path / "a" / "b")])
    assert rc == 3
    assert capsys.readouterr().out == ""
    assert len(calls) == 2
    assert not (tmp_path / "a").exists()


# Each key's value out of range, with the error every command gives for it.
@pytest.mark.parametrize("line, message", [
    ("[synth]\nseed = -3", "seed must be >= 0, got -3"),
    ("[synth]\nhpbw_deg = -5", "HPBW must be in (0, 360] deg, got -5.0"),
    ("[model]\npsi_rad = 7", "psi must lie in (0, pi/2), got psi=7.0"),
    ("[synth]\ngain_offset_db = nan", "gain_offset_db must be finite, got nan"),
    ("[synth]\nvehicle_mu_db = nan", "vehicle_mu_db must be finite, got nan"),
    ("[model]\nrx_height_m = 5",
     "RX antenna height must be in (0, 5) m, below the TX-side canyon top, got 5.0"),
])
def test_one_config_file_gets_one_verdict(tmp_path, capsys, line, message):
    ini = _write_ini(tmp_path, line + "\n")
    for argv in (["coverage"], ["synth", "--layout", "uniform", "--vehicle-mode", "dense",
                                "--out", str(tmp_path / "d.csv")],
                 ["geometry", "--height", "17.4", "--width", "8", "--distance", "63",
                  "--rx-depth", "5"]):
        rc = main(["--config", ini, *argv])
        captured = capsys.readouterr()
        assert rc == 4
        assert captured.err == f"error[domain]: {message}\n"
        assert captured.out == ""
    assert not (tmp_path / "d.csv").exists()


@pytest.mark.parametrize("line", [
    "[model]\nrx_height_m = 0", "[angular]\nhistogram_bin_db = nan",
    "[linkbudget]\nbandwidth_hz = -1", "[linkbudget]\ntemperature_k = 1e300\nbandwidth_hz = 1e300",
])
def test_every_section_is_checked_at_load(tmp_path, capsys, line):
    rc = main(["--config", _write_ini(tmp_path, line + "\n"), "geometry", "--height", "17.4",
               "--width", "8", "--distance", "63", "--rx-depth", "5"])
    captured = capsys.readouterr()
    assert rc == 4
    assert captured.err.startswith("error[domain]: ")
    assert captured.out == ""


# Arguments each subcommand needs besides the option under test.
_REQUIRED = {
    "synth": ["--layout", "uniform", "--out", "d.csv"],
    "angular": ["--input", "d.csv", "--out-dir", "out"],
    "spatial": ["--input", "d.csv", "--out", "c.csv"],
    "vehicle": ["--input", "d.csv", "--out-dir", "out"],
    "fit": ["--input", "d.csv", "--out", "f.csv"],
    "coverage": [],
    "geometry": ["--height", "17.4", "--width", "8", "--distance", "63", "--rx-depth", "5"],
}


def _float_options():
    """(subcommand, option string, dest) of every float-valued option."""
    from portcanyon.cli import build_parser

    parser = build_parser()
    commands = next(a for a in parser._actions if a.dest == "command").choices
    assert sorted(commands) == sorted(_REQUIRED)
    return [(command, option, action.dest) for command, sub in commands.items()
            for action in sub._actions if action.type is float
            for option in action.option_strings]


@pytest.mark.parametrize("value", ["-1e-300", "-4E2", "-inf", "-2.5e+3", "-23"])
@pytest.mark.parametrize("command,option,dest", _float_options())
def test_float_value_binds_after_a_space_as_after_equals(command, option, dest, value):
    from portcanyon.cli import bind_option_values, build_parser

    required = list(_REQUIRED[command])
    if option in required:  # one of geometry's required floats
        del required[required.index(option):required.index(option) + 2]
    spaced = build_parser().parse_args(bind_option_values([command, *required, option, value]))
    joined = build_parser().parse_args([command, *required, f"{option}={value}"])
    assert vars(spaced) == vars(joined)
    assert getattr(spaced, dest) == float(value)


def test_negative_exponent_slope_runs_as_with_equals(capsys):
    rc = main(["coverage", "--fit-n", "-4E0", "--fit-r0", "-23"])
    spaced = (rc, capsys.readouterr())
    rc = main(["coverage", "--fit-n=-4E0", "--fit-r0=-23"])
    assert spaced == (rc, capsys.readouterr())
    assert spaced[0] == 0
    rc = main(["coverage", "--fit-n", "-1e-300", "--fit-r0", "-23"])
    captured = capsys.readouterr()
    assert rc == 4
    assert captured.err.startswith("error[domain]: coverage range overflows for n=-1e-300")


# ------------------------------------------------------------ ScanSet sidecar

class TestSidecar:
    @pytest.fixture
    def dataset(self, tmp_path, small_config):
        out = tmp_path / "data" / "campaign.csv"
        out.parent.mkdir()
        assert main(["--config", small_config, "synth", "--layout", "uniform",
                     "--out", str(out), "--vehicle-mode", "dense"]) == 0
        return out

    @staticmethod
    def commands(data, out):
        return [
            ["angular", "--input", data, "--out-dir", f"{out}/angular"],
            ["spatial", "--input", data, "--out", f"{out}/correlation.csv"],
            ["vehicle", "--input", data, "--out-dir", f"{out}/vehicle"],
            ["fit", "--input", data, "--out", f"{out}/fit.csv"],
            ["fit", "--input", data, "--out", f"{out}/fit4.csv", "--fixed-slope", "-4"],
        ]

    def run_all(self, data, out, capsys, before=None):
        stdout = []
        for argv in self.commands(str(data), str(out)):
            if before:
                before()
            assert main(argv) == 0
            stdout.append(capsys.readouterr().out)
        files = {p.relative_to(out).as_posix(): p.read_bytes()
                 for p in sorted(out.rglob("*")) if p.is_file()}
        return stdout, files

    def test_cold_and_warm_runs_are_byte_identical(self, tmp_path, dataset, capsys,
                                                   monkeypatch):
        from portcanyon import dataio

        sidecar = Path(str(dataset) + ".scanset.npz")
        out = tmp_path / "out"
        cold = self.run_all(dataset, out, capsys, before=lambda: sidecar.unlink(missing_ok=True))
        assert sidecar.exists()
        shutil.rmtree(out)

        def no_parse(*args):
            raise AssertionError("a warm run parsed the CSV")

        monkeypatch.setattr(dataio, "_ingest_columnar", no_parse)
        warm = self.run_all(dataset, out, capsys)
        assert warm == cold
        assert len(cold[1]) == 27  # 17 angular, 7 vehicle, 3 single tables
        assert sorted(p.name for p in dataset.parent.iterdir()) == [
            "campaign.csv", "campaign.csv.scanset.npz"]

    def test_synth_sidecar_spares_every_command_the_parse(self, tmp_path, dataset, capsys,
                                                          monkeypatch):
        from portcanyon import dataio

        sidecar = Path(str(dataset) + ".scanset.npz")
        capsys.readouterr()

        def no_parse(*args):
            raise AssertionError("a command parsed the CSV synth wrote")

        with monkeypatch.context() as patched:
            patched.setattr(dataio, "_ingest_columnar", no_parse)
            warm = self.run_all(dataset, tmp_path / "out", capsys)
        shutil.rmtree(tmp_path / "out")
        cold = self.run_all(dataset, tmp_path / "out", capsys,
                            before=lambda: sidecar.unlink(missing_ok=True))
        assert warm == cold
        assert len(warm[1]) == 27

    def test_synth_into_a_missing_directory_leaves_nothing(self, tmp_path, small_config,
                                                           capsys):
        out = tmp_path / "missing" / "campaign.csv"
        rc = main(["--config", small_config, "synth", "--layout", "uniform", "--out", str(out)])
        captured = capsys.readouterr()
        assert rc == 3
        assert captured.err.startswith("error[io]: ") and str(out) in captured.err
        assert captured.out == ""
        assert list(tmp_path.iterdir()) == [Path(small_config)]

    @staticmethod
    def old_sidecar(scans, version):
        """The sidecar of scans in format 1 (one block of per-block matrices)
        or 2 (rows back to back, the grid once), each key field a column."""
        keys = dict(zip(("tx", "x", "y", "vehicle_state", "stacking"),
                        map(np.array, zip(*map(scans.key, range(len(scans)))))))
        if version == 1:
            return {"version": np.array(1, dtype=np.int64), "sha256": np.array(scans.sha256),
                    "blocks": np.array([scans.gains.shape], dtype=np.int64),
                    "index0": np.arange(len(scans)),
                    "angles0": np.tile(scans.grid, (len(scans), 1)),
                    "gains0": scans.gains, **keys}
        return {"version": np.array(2, dtype=np.int64), "sha256": np.array(scans.sha256),
                "sizes": np.full(len(scans), scans.grid.size, dtype=np.int64), **keys,
                "phi_deg": scans.grid, "gain_db": scans.gains.ravel()}

    @pytest.mark.parametrize("version", [1, 2])
    def test_old_format_sidecar_is_replaced(self, tmp_path, dataset, capsys, monkeypatch,
                                            version):
        from portcanyon import dataio

        sidecar = Path(str(dataset) + ".scanset.npz")
        out = tmp_path / "out"
        cold = self.run_all(dataset, out, capsys, before=lambda: sidecar.unlink(missing_ok=True))
        shutil.rmtree(out)
        old = self.old_sidecar(dataio.ingest(dataset), version)
        parses, real = [], dataio._ingest_columnar
        monkeypatch.setattr(dataio, "_ingest_columnar",
                            lambda path: parses.append(path) or real(path))
        upgraded = self.run_all(dataset, out, capsys,
                                before=lambda: np.savez(sidecar, allow_pickle=False, **old))
        assert upgraded == cold
        assert len(parses) == 5
        with np.load(sidecar, allow_pickle=False) as npz:
            assert int(npz["version"]) == 3
            assert sorted(npz.files) == sorted([
                "version", "sha256", "sizes", "tx_ids", "tx_code", "x", "y", "state_code",
                "stacking_code", "phi_deg", "gain_db"])

    def test_own_hash_sidecar_with_bogus_stacking_is_a_miss(self, tmp_path, dataset, capsys):
        sidecar = Path(str(dataset) + ".scanset.npz")
        out = tmp_path / "out"
        cold = self.run_all(dataset, out, capsys, before=lambda: sidecar.unlink(missing_ok=True))
        shutil.rmtree(out)
        with np.load(sidecar, allow_pickle=False) as npz:
            members = {name: npz[name] for name in npz.files}
        members["stacking_code"] = np.full(members["stacking_code"].size, len(Stacking))
        bogus = self.run_all(dataset, out, capsys,
                             before=lambda: np.savez(sidecar, allow_pickle=False, **members))
        assert bogus == cold

    def test_a_scan_short_of_one_angle_is_a_grid_error(self, tmp_path, dataset, capsys,
                                                       monkeypatch):
        # One vehicle scan is a uniform rotation of one angle fewer: the
        # campaign has two angle counts, so every analysis command exits 3
        # naming that scan, both cold and with a sidecar of the parse's
        # mixed-count rows planted beside the file (ingest saves none, its
        # build fails first); the loader takes no sidecar of mixed counts,
        # and the failing build removes it.
        from portcanyon import dataio

        lines = dataset.read_text(encoding="ascii").splitlines(keepends=True)
        at = next(i for i in range(2, len(lines), N_ANGLES) if ",position2," in lines[i])
        tx, x, y, _, _, state, stacking = lines[at].rstrip("\n").split(",")
        lines[at:at + N_ANGLES] = [f"{tx},{x},{y},{k * 360.0 / (N_ANGLES - 1)!r},-70.0,"
                                   f"{state},{stacking}\n" for k in range(N_ANGLES - 1)]
        dataset.write_text("".join(lines), encoding="ascii")
        want = (f"error[grid]: scan {(tx, float(x), float(y), state, stacking)}: "
                f"{N_ANGLES - 1} angles where scan (")
        sidecar = Path(str(dataset) + dataio.SIDECAR_SUFFIX)
        sha256, real = dataio.file_sha256(dataset), dataio._ingest_columnar
        plant_sidecar(dataset, real(dataset), sha256)
        assert sidecars.load(str(sidecar), sha256, dataset.stat().st_size) is None
        planted = sidecar.read_bytes()
        sidecar.unlink()
        parses = []
        monkeypatch.setattr(dataio, "_ingest_columnar",
                            lambda path: parses.append(path) or real(path))
        out = tmp_path / "out"
        for argv in self.commands(str(dataset), str(out)):
            for plant in (False, True):
                if plant:
                    sidecar.write_bytes(planted)
                parses.clear()
                assert main(argv) == 3, argv
                captured = capsys.readouterr()
                assert captured.err.startswith(want) and captured.err.count("\n") == 1
                assert captured.out == ""
                assert len(parses) == 1  # planted or not, the sidecar is a miss
                assert sorted(p.name for p in dataset.parent.iterdir()) == ["campaign.csv"]
                assert not out.exists() or not [p for p in out.rglob("*") if p.is_file()]
                assert not list(tmp_path.rglob("*.tmp"))

    def test_failing_ingest_writes_no_sidecar(self, tmp_path, capsys):
        data = tmp_path / "bad.csv"
        write_scans(data, scan_set(_line_scans((1.0, 5.0))))
        data.write_text(data.read_text().replace(",absent,", ",parked,", 1))
        rc = main(["fit", "--input", str(data), "--out", str(tmp_path / "fit.csv")])
        assert rc == 3
        assert capsys.readouterr().err.startswith("error[ingest]: line 3: unknown vehicle_state")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["bad.csv"]

    @pytest.mark.parametrize("field, value, rc, message", [
        (3, "16.0", 3, "error[grid]: scan ('TX1_63', 1.0, 3.5, "),
        (4, "4000.0", 4, "error[domain]: scan ('TX1_63', 1.0, 3.5, "),
        (4, "3083.0", 4, "error[domain]: scan ('TX1_63', 1.0, 3.5, "),
        (4, "-3237.0", 4, "error[domain]: scan ('TX1_63', 1.0, 3.5, "),
    ])
    def test_parse_whose_build_fails_leaves_no_sidecar(self, tmp_path, capsys, field, value, rc,
                                                       message):
        # The rows parse, and are saved before the build checks them; the
        # build's error removes that sidecar, and the stale one it replaced.
        from portcanyon import dataio

        stale = tmp_path / "other.csv"
        write_scans(stale, scan_set(_line_scans((1.0, 5.0))))
        dataio.ingest(stale)
        lines = stale.read_text().splitlines()
        row = lines[3].split(",")  # the second angle of the first scan
        row[field] = value
        data = tmp_path / "bad.csv"
        data.write_text("\n".join(lines[:3] + [",".join(row)] + lines[4:]) + "\n")
        assert dataio._ingest_columnar(data)  # parsed columnar, then refused by the build
        shutil.move(str(stale) + ".scanset.npz", str(data) + ".scanset.npz")
        stale.unlink()
        assert main(["fit", "--input", str(data), "--out", str(tmp_path / "fit.csv")]) == rc
        assert capsys.readouterr().err.startswith(message)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["bad.csv"]

    def test_parse_error_after_a_saved_sidecar_leaves_none(self, tmp_path, capsys):
        data = tmp_path / "data.csv"
        write_scans(data, scan_set(_line_scans((1.0, 5.0, 9.0))))
        argv = ["fit", "--input", str(data), "--out", str(tmp_path / "fit.csv")]
        assert main(argv) == 0
        assert Path(str(data) + ".scanset.npz").exists()
        (tmp_path / "fit.csv").unlink()
        with open(data, "a", encoding="utf-8") as fh:
            fh.write("TX2,1.0,3.5,notanumber,0.0,absent,uniform\n")
        assert main(argv) == 3
        assert capsys.readouterr().err.startswith(
            f"error[ingest]: line {3 + 3 * N_ANGLES}: phi_deg is not a number")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["data.csv"]

    def test_file_rewritten_while_it_is_read_writes_no_table(self, tmp_path, capsys,
                                                             monkeypatch):
        # The hash is of the bytes before a same-size rewrite, the parse of
        # those after it: no table may name that hash.
        from portcanyon import dataio

        data = tmp_path / "data.csv"
        write_scans(data, scan_set(_line_scans((1.0, 5.0, 9.0))))
        real = dataio._texts

        def rewritten(path):
            before = os.stat(path)
            lines = Path(path).read_bytes().split(b"\n")
            fields = lines[-2].split(b",")
            fields[4] = b"-60." + b"0" * (len(fields[4]) - 4)  # the last gain, respelled
            Path(path).write_bytes(b"\n".join(lines[:-2] + [b",".join(fields), b""]))
            # A rewrite within the clock tick of the write may keep the mtime.
            os.utime(path, ns=(before.st_atime_ns, before.st_mtime_ns + 10**9))
            assert os.stat(path).st_size == before.st_size
            yield from real(path)

        monkeypatch.setattr(dataio, "_texts", rewritten)
        assert main(["fit", "--input", str(data), "--out", str(tmp_path / "fit.csv")]) == 3
        assert capsys.readouterr().err == "error[ingest]: file changed while it was read\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["data.csv"]

    @pytest.mark.parametrize("umask", [0o022, 0o077, 0o002])
    def test_sidecar_mode_follows_the_umask(self, tmp_path, umask):
        from portcanyon.dataio import ingest

        data = tmp_path / "data.csv"
        write_scans(data, scan_set(_line_scans((1.0, 5.0))))
        old = os.umask(umask)
        try:
            ingest(data)
        finally:
            os.umask(old)
        mode = os.stat(str(data) + ".scanset.npz").st_mode & 0o777
        assert mode == 0o666 & ~umask

    def test_read_only_input_dir_still_succeeds(self, tmp_path, capsys, monkeypatch):
        import tempfile

        data_dir = tmp_path / "ro"
        data_dir.mkdir()
        data = data_dir / "data.csv"
        write_scans(data, scan_set(_line_scans((1.0, 5.0, 9.0))))
        argv = ["fit", "--input", str(data), "--out", str(tmp_path / "fit.csv")]
        assert main(argv) == 0
        want = (capsys.readouterr(), (tmp_path / "fit.csv").read_bytes())
        os.unlink(str(data) + ".scanset.npz")
        real = tempfile.mkstemp

        def refuse_in_data_dir(*args, dir=None, **kwargs):
            # What a directory without write permission gives a non-root user.
            if dir == str(data_dir):
                raise PermissionError(13, "Permission denied", dir)
            return real(*args, dir=dir, **kwargs)

        monkeypatch.setattr(tempfile, "mkstemp", refuse_in_data_dir)
        data_dir.chmod(0o555)
        try:
            assert main(argv) == 0
            assert (capsys.readouterr(), (tmp_path / "fit.csv").read_bytes()) == want
        finally:
            data_dir.chmod(0o755)
        assert sorted(p.name for p in data_dir.iterdir()) == ["data.csv"]

    def test_unwritable_sidecar_path_still_succeeds(self, tmp_path, capsys):
        data = tmp_path / "data.csv"
        write_scans(data, scan_set(_line_scans((1.0, 5.0, 9.0))))
        Path(str(data) + ".scanset.npz").mkdir()
        argv = ["fit", "--input", str(data), "--out", str(tmp_path / "fit.csv")]
        assert main(argv) == 0
        assert capsys.readouterr().err == ""
        assert not list(tmp_path.rglob("*.tmp"))


@pytest.mark.skipif(not HAS_VMHWM, reason="needs VmHWM")
def test_vehicle_peak_is_its_matrices_and_tables(tmp_path):
    # 400 baseline/position1/position2 triples of 360 angles.  The set goes
    # before the statistics and the deltas are taken by index, so the peak is
    # the set's matrices, or the delta CDF tables the command writes, not both
    # beside copies of the set's subsets: about 22,900 KiB for this file with
    # those copies and the set kept through the statistics, 16,200 with the
    # grid held per scan and both positions' CDF tables held to the end.
    from portcanyon.dataio import ingest

    rng = np.random.default_rng(5)
    data = tmp_path / "dense.csv"
    write_scans(data, scan_set(
        Scan(tx="TX1_63", x=float(i), y=3.5, angles=grid(360),
             gains=to_db(rng.lognormal(-14.0, 1.0, 360)), vehicle_state=state)
        for i in range(400) for state in ("absent", "position1", "position2")))
    scans = ingest(data)  # cold: writes the sidecar
    # The gains and the grid the set holds; the delta, empirical and
    # Gaussian CDF columns of one position, formed as its table is written.
    matrices_kib = (scans.gains.nbytes + scans.grid.nbytes) // 1024
    tables_kib = 3 * 400 * 360 * 8 // 1024
    peak = command_peak_kib("vehicle", "--input", data, "--out-dir", tmp_path / "out")
    assert peak <= matrices_kib + tables_kib + 4096, (peak, matrices_kib, tables_kib)
