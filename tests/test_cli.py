"""CLI surface: subcommands, outputs, exit codes, determinism."""

import csv
import hashlib
import importlib.util
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from portcanyon.angular import AngularScan
from portcanyon.cli import main
from portcanyon.dataio import write_scans

N_ANGLES = 24
GRID = np.radians(360.0 * np.arange(N_ANGLES) / N_ANGLES)


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
        assert scans[0].angles.size == 12
        for scan in scans[:5]:
            assert np.ptp(10.0 * np.log10(scan.gains)) < 1e-9


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
                AngularScan(
                    tx="TX1_63", x=x, y=3.5, angles=GRID,
                    gains=np.full(N_ANGLES, 10.0 ** (gain_db / 10.0)),
                )
            )
        data = tmp_path / "line.csv"
        write_scans(data, scans)
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

    def test_spatial_without_dense_line(self, tmp_path, small_config, capsys):
        scans = [
            AngularScan(tx="TX2", x=1.0, y=3.5, angles=GRID,
                        gains=np.full(N_ANGLES, 1e-6))
        ]
        data = tmp_path / "sparse.csv"
        write_scans(data, scans)
        rc = main(["spatial", "--input", str(data), "--out", str(tmp_path / "o.csv")])
        assert rc == 3


class TestBoundaryValues:
    """Bad option values end in a categorized error, never a traceback or NaN."""

    @pytest.fixture
    def line_data(self, tmp_path):
        scans = [
            AngularScan(tx="TX1_63", x=x, y=3.5, angles=GRID,
                        gains=np.full(N_ANGLES, 1e-6 / x))
            for x in (1.0, 5.0, 9.0)
        ]
        data = tmp_path / "line.csv"
        write_scans(data, scans)
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

    def test_non_utf8_csv_is_ingest_error(self, tmp_path, line_data, capsys):
        data = tmp_path / "latin1.csv"
        data.write_bytes(line_data.read_bytes().replace(b"TX1_63", b"TX1_\xff3"))
        rc = main(["angular", "--input", str(data), "--out-dir", str(tmp_path / "o")])
        captured = capsys.readouterr()
        assert rc == 3
        assert captured.err.startswith("error[ingest]: ")
        assert "UTF-8" in captured.err

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
from portcanyon.angular import AngularScan
from portcanyon.cli import main
from portcanyon.dataio import write_scans

grid = np.radians(360.0 * np.arange(8) / 8)
scans = [AngularScan(tx="TX1_63", x=x, y=3.5, angles=grid,
                     gains=np.full(8, 1e-6 / x)) for x in (1.0, 5.0, 9.0)]
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
    write_scans(data, scans)
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
                AngularScan(tx="TX2", x=x, y=3.5, angles=GRID, gains=np.full(N_ANGLES, x))
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


@pytest.mark.parametrize("tx_id", ["TX3", "TX1_abc", "TX1_nan"])
@pytest.mark.parametrize("command", ["angular", "fit"])
def test_tx_without_a_position_is_ingest_error(tmp_path, capsys, tx_id, command):
    data = _write_scans(tmp_path, [
        AngularScan(tx=tx_id, x=x, y=3.5, angles=GRID, gains=np.full(N_ANGLES, 1e-6 / x))
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


@pytest.mark.parametrize("command", ["angular", "vehicle"])
def test_offset_grids_are_grid_errors(tmp_path, capsys, command):
    # Two baseline + vehicle pairs of one TX; the second pair's 8-angle grid
    # is offset by half a step (22.5 deg), so no per-angle pooling exists.
    grids = [np.radians(45.0 * np.arange(8) + offset) for offset in (0.0, 22.5)]
    scans = [
        AngularScan(tx="TX2", x=x, y=3.5, angles=grid, gains=np.full(8, gain),
                    vehicle_state=state)
        for x, grid in zip((1.0, 5.0), grids)
        for state, gain in (("absent", 1e-6), ("position1", 2e-6))
    ]
    data = _write_scans(tmp_path, scans)
    out_dir = tmp_path / "out"
    rc = main([command, "--input", data, "--out-dir", str(out_dir)])
    captured = capsys.readouterr()
    assert rc == 3
    assert captured.err.startswith("error[grid]: ")
    assert captured.out == ""


def _line_scans(xs, tx="TX1_63", **kwargs):
    rng = np.random.default_rng(11)
    return [
        AngularScan(tx=tx, x=x, y=3.5, angles=GRID,
                    gains=rng.lognormal(-14.0, 1.0, N_ANGLES), **kwargs)
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
        flat = [AngularScan(tx="TX1_63", x=x, y=3.5, angles=GRID,
                            gains=np.full(N_ANGLES, 1e-6)) for x in (1.0, 5.0)]
        spread = [AngularScan(tx="TX2", x=x, y=3.5, angles=GRID,
                              gains=np.geomspace(1e-6, 10 ** -8.8, N_ANGLES))
                  for x in (1.0, 5.0)]
        data = _write_scans(tmp_path, flat + spread)
        out_dir = tmp_path / "out"
        rc = main(["angular", "--input", data, "--out-dir", str(out_dir),
                   "--bin-db", "0.001"])
        captured = capsys.readouterr()
        assert rc == 4
        assert captured.err.startswith("error[domain]: ")
        assert list(out_dir.glob("angular_*_TX1_63.csv")) == []

    @pytest.mark.parametrize("n,r0", [("-1e-300", "-23"), ("-4", "1e308"),
                                      ("-1e-320", "-23")])
    def test_coverage_range_overflow_is_domain_error(self, capsys, n, r0):
        rc = main(["coverage", f"--fit-n={n}", f"--fit-r0={r0}"])
        captured = capsys.readouterr()
        assert rc == 4
        assert captured.err.startswith("error[domain]: ")
        assert captured.out == ""


class TestBranches:
    """Command branches that the pipeline tests above do not reach."""

    def test_fit_both_stackings_writes_aggregated_row(self, tmp_path, capsys):
        xs = (1.0, 5.0, 9.0, 13.0)
        data = _write_scans(tmp_path, _line_scans(xs, stacking="uniform")
                            + _line_scans(xs, stacking="nonuniform"))
        out = tmp_path / "fit.csv"
        assert main(["fit", "--input", data, "--out", str(out)]) == 0
        _, rows = read_table(out)
        assert [r[0] for r in rows] == ["nonuniform", "uniform", "aggregated"]
        assert [int(r[-1]) for r in rows] == [4, 4, 8]

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

    def test_vehicle_on_file_without_vehicle_scans(self, tmp_path, capsys):
        data = _write_scans(tmp_path, _line_scans((1.0, 5.0)))
        rc = main(["vehicle", "--input", data, "--out-dir", str(tmp_path / "out")])
        captured = capsys.readouterr()
        assert rc == 3
        assert captured.err == "error[ingest]: dataset has no vehicle scans\n"

    def test_vehicle_position1_only_writes_one_row(self, tmp_path, capsys):
        xs = (1.0, 5.0, 9.0)
        base = _line_scans(xs)
        moved = [AngularScan(tx=s.tx, x=s.x, y=s.y, angles=s.angles, gains=s.gains * 2.0,
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


def test_package_import_stays_light_and_cli_loads_every_layer():
    spec = importlib.util.spec_from_file_location(
        "perfbench_spans", Path(__file__).resolve().parents[1] / "perfbench" / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    script = """
import sys

def heavy():
    return sorted(m for m in sys.modules if m.split(".")[0] in ("numpy", "scipy"))

import portcanyon
assert not heavy(), ("import portcanyon", heavy())
import portcanyon.geometry
assert not heavy(), ("import portcanyon.geometry", heavy())
import portcanyon.cli
missing = [name for name in sys.argv[1:] if "portcanyon." + name not in sys.modules]
assert not missing, ("import portcanyon.cli", missing)
"""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run(
        [sys.executable, "-c", script, *spans.LAYERS],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr


def _moved(scans, state, factor=2.0):
    return [AngularScan(tx=s.tx, x=s.x, y=s.y, angles=s.angles, gains=s.gains * factor,
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
        write_scans(data, _line_scans((1.0, 5.0, 9.0, 13.0)))
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
        flat = [AngularScan(tx="TX1_63", x=x, y=3.5, angles=GRID,
                            gains=np.full(N_ANGLES, 1e-6)) for x in (1.0, 5.0)]
        spread = [AngularScan(tx="TX2", x=x, y=3.5, angles=GRID,
                              gains=np.geomspace(1e-6, 10 ** -8.8, N_ANGLES))
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
