"""Command-line surface: dataset generation, statistics, fits, reports.

Subcommands mirror the analysis pipeline: `synth` writes a synthetic
campaign CSV, `angular` / `spatial` / `vehicle` compute the statistics of a
dataset, `fit` runs the log-distance regressions, `coverage` evaluates the
link budget, and `geometry` evaluates the canyon model for one geometry.
Outputs are plot-ready CSV tables plus a plain-text summary on stdout; every
table carries a '#' provenance line (tool version, seed, input hash).
"""

from __future__ import annotations

import argparse
import contextlib
import math
import os
import sys
from dataclasses import fields
from typing import NamedTuple

import numpy as np

from . import __version__, angular, dataio, geometry, linkbudget, spatialcorr, synth, vehicle
from .config import DEFAULT_INI, ToolConfig, load_config
from .errors import ConfigError, DegenerateFitError, DomainError, IngestError, ToolkitError
from .pathloss import fit_fixed_slope, fit_loglinear

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3


class Report(NamedTuple):
    """What a command computed, for `main` to emit: the tables as (path, header,
    columns), the stdout lines, and the input hash the tables' provenance names.
    A table's columns may be a function that makes them as the table is
    written; it must not fail."""

    tables: list
    lines: list
    input_hash: str | None = None


def _baseline(scans):
    """Index of the set's vehicle-absent scans, which `angular` and `fit` analyse."""
    index = np.flatnonzero(scans.state_code == angular.VehicleState.ABSENT.code)
    if not index.size:
        raise IngestError("dataset has no baseline (vehicle absent) scans")
    return index


def _angle_stats_tables(out_dir, prefix, key, mean_name, angles_deg, mean, edges, counts):
    """The per-angle mean table, and the histogram table with one row per
    (angle, bin), formed as it is written: the angle, the bin's edges, its count."""
    n_angles, n_bins = counts.shape
    return [
        (os.path.join(out_dir, f"{prefix}_mean_{key}.csv"), ("angle_deg", mean_name),
         (angles_deg, mean)),
        (os.path.join(out_dir, f"{prefix}_hist_{key}.csv"),
         ("angle_deg", "bin_lo_db", "bin_hi_db", "count"),
         lambda: (np.repeat(angles_deg, n_bins), np.tile(edges[:-1], n_angles),
                  np.tile(edges[1:], n_angles), counts.ravel())),
    ]


# ----------------------------------------------------------------- synth ---

def _cmd_synth(args, cfg: ToolConfig) -> Report:
    from . import sidecar

    scfg = cfg.synth_config()
    layout = synth.build_layout(args.layout)
    scans = synth.generate_campaign(layout, scfg, vehicle_mode=args.vehicle_mode)
    sha256 = dataio.write_scans(args.out, scans, seed=scfg.seed)
    sidecar.save(args.out, scans, sha256)
    rows = scans.gains.size
    return Report([], [
        f"synth: wrote {len(scans)} scans ({rows} rows) to {args.out}",
        f"synth: layout={args.layout} seed={scfg.seed} vehicle_mode={args.vehicle_mode}",
    ])


# --------------------------------------------------------------- angular ---

def _cmd_angular(args, cfg: ToolConfig) -> Report:
    scans = dataio.ingest(args.input)
    base = _baseline(scans)
    tx = scans.tx_code[base]
    codes = tx[np.sort(np.unique(tx, return_index=True)[1])]  # first seen among the baselines
    positions = {scans.tx_ids[code]: synth.tx_position(scans.tx_ids[code])[:2] for code in codes}
    angles_deg, tables = scans.grid, []
    for code, tx_id in zip(codes, positions):
        stats = angular.ensemble_stats(scans, base[tx == code], db_bin_width=cfg.histogram_bin_db)
        tables += _angle_stats_tables(args.out_dir, "angular", tx_id, "mean_db", angles_deg, *stats)
    cdf_all, cdf_tx, az_cdf = angular.gain_cdfs(scans, base, positions)
    for name, value_name, cdf in (
        ("gain_cdf_all_directions", "normalized_gain_db", cdf_all),
        ("gain_cdf_tx_direction", "normalized_gain_db", cdf_tx),
        ("azimuth_gain_cdf", "azimuth_gain_db", az_cdf),
    ):
        # The k/n column is formed as the table is written.
        tables.append((os.path.join(args.out_dir, f"{name}.csv"), (value_name, "probability"),
                       cdf.columns))
    return Report(tables, [
        f"angular: {base.size} scans, {len(positions)} transmitters -> {args.out_dir}",
        f"angular: median azimuth gain {az_cdf.median():.2f} dB over {az_cdf.n} scans",
    ], scans.sha256)


# --------------------------------------------------------------- spatial ---

def _cmd_spatial(args, cfg: ToolConfig) -> Report:
    if args.x_count < 2:
        raise ConfigError(f"--x-count must be >= 2, got {args.x_count}")
    if not math.isfinite(args.x_start):
        raise ConfigError(f"--x-start must be finite, got {args.x_start}")
    if not (math.isfinite(args.x_step) and args.x_step > 0.0):
        raise ConfigError(f"--x-step must be finite and > 0, got {args.x_step}")
    scans = dataio.ingest(args.input)
    first, last = (args.x_start + args.x_step * k for k in (0, args.x_count - 1))
    no_line = IngestError(f"no complete dense line found (need x = {first:g}..{last:g} "
                          f"step {args.x_step:g})")
    # A complete line takes x_count distinct baseline scans, so with fewer there is none.
    if args.x_count > np.count_nonzero(scans.state_code == angular.VehicleState.ABSENT.code):
        raise no_line
    positions = np.array([args.x_start + args.x_step * k for k in range(args.x_count)])
    lines = spatialcorr.dense_lines(scans, positions)
    if not len(lines):
        raise no_line
    lag_m, corr = spatialcorr.averaged_correlation(scans, lines, positions)
    return Report([(args.out, ("lag_m", "correlation"), (np.round(lag_m, 9), corr))], [
        f"spatial: averaged {len(lines)} dense lines -> {args.out}",
        f"spatial: correlation at first lag ({lag_m[1]:.1f} m) = {corr[1]:+.3f}",
    ], scans.sha256)


# --------------------------------------------------------------- vehicle ---

def _cmd_vehicle(args, cfg: ToolConfig) -> Report:
    scans = dataio.ingest(args.input)

    # Each position's delta matrix, paired by `vehicle_delta` from index
    # arrays into the one set; then the set goes before any statistic.
    deltas = [(state.value, vehicle.vehicle_delta(scans, state))
              for state in (angular.VehicleState.POSITION1, angular.VehicleState.POSITION2)
              if (scans.state_code == state.code).any()]
    if not deltas:
        raise IngestError("dataset has no vehicle scans")
    input_hash, angles_deg = scans.sha256, scans.grid
    del scans

    tables, lines, fits = [], [], []
    for label, matrix in deltas:
        stats = vehicle.delta_angle_stats(matrix, db_bin_width=cfg.histogram_bin_db)
        cdf = vehicle.delta_cdf_report(matrix)  # sorts the matrix in place, its last use
        # The report holds the sorted deltas and the fit; its CDF columns
        # are formed as the table is written.
        tables.append((os.path.join(args.out_dir, f"vehicle_delta_cdf_{label}.csv"),
                       ("delta_db", "empirical_cdf", "gaussian_cdf"), cdf.columns))
        tables += _angle_stats_tables(args.out_dir, "vehicle_delta", label, "mean_delta_db",
                                      angles_deg, *stats)
        lines.append(f"vehicle[{label}]: mu={cdf.fit.mu_db:+.2f} dB sigma={cdf.fit.sigma_db:.2f}"
                     f" dB over {cdf.fit.sample_count} deltas (CDF sup-gap {cdf.sup_gap:.4f})")
        fits.append((label, cdf.fit.mu_db, cdf.fit.sigma_db, cdf.fit.sample_count, cdf.sup_gap))
    tables.append((os.path.join(args.out_dir, "vehicle_fit_params.csv"),
                   ("vehicle_position", "mu_db", "sigma_db", "sample_count", "cdf_sup_gap"),
                   list(zip(*fits))))
    return Report(tables, lines, input_hash)


# ------------------------------------------------------------------- fit ---

def _cmd_fit(args, cfg: ToolConfig) -> Report:
    scans = dataio.ingest(args.input)
    base = _baseline(scans)
    gain_db = angular.circular_mean_gain(scans, base)
    distance_m, positions = [], {}  # each transmitter's position, taken once
    for code, x, y in zip(*(getattr(scans, key)[base].tolist() for key in ("tx_code", "x", "y"))):
        if code not in positions:  # first seen: an unknown id fails in set order
            positions[code] = synth.tx_position(scans.tx_ids[code])
        tx_x, tx_y, tx_z = positions[code]
        # Per-sample math, not arrays: Python's v ** 2 calls C pow(), which
        # differs from numpy's v * v square in the last bit for about 0.09 %
        # of doubles (1,704 of 2,000,000 uniform draws in [-150, 150] on an
        # AVX-512 Xeon), and the distance feeds pathloss's per-sample log10
        # (see `pathloss._xy`); an array form would change the fit tables.
        try:
            distance = math.sqrt((tx_x - x) ** 2 + (tx_y - y) ** 2 + (tx_z - cfg.rx_height_m) ** 2)
        except OverflowError:
            distance = math.inf
        if distance == math.inf:
            raise DomainError(f"transmitter {scans.tx_ids[code]!r} is too far from the RX at "
                              f"x={x}, y={y} for a finite distance")
        distance_m.append(distance)
    samples = np.rec.fromarrays((distance_m, gain_db), names="distance_m,gain_db")

    stacking = scans.stacking_code[base]
    groups = sorted(((tuple(angular.Stacking)[code].value, np.flatnonzero(stacking == code))
                     for code in np.unique(stacking)), key=lambda group: group[0])
    if len(groups) > 1:
        groups.append(("aggregated", np.concatenate([index for _, index in groups])))

    rows, lines = [], []
    for label, index in groups:
        try:
            fit = (fit_loglinear(samples[index]) if args.fixed_slope is None
                   else fit_fixed_slope(samples[index], args.fixed_slope))
        except DegenerateFitError as exc:
            raise DegenerateFitError(f"group {label!r}: {exc}") from exc
        rows.append((label, fit.n, fit.ci_n, fit.r0_db, fit.ci_r0, fit.rmse_db, fit.sample_count))
        lines.append(
            f"fit[{label}]: n = {fit.n:+.3f} +/- {fit.ci_n:.3f}, "
            f"R0 = {fit.r0_db:+.2f} +/- {fit.ci_r0:.2f} dB, "
            f"RMSE = {fit.rmse_db:.2f} dB ({fit.sample_count} samples)"
        )
    lines.append(f"fit: wrote {args.out}")
    return Report([(
        args.out,
        ("configuration", "n", "ci95_n", "r0_db", "ci95_r0_db", "rmse_db",
         "sample_count"),
        list(zip(*rows)),
    )], lines, scans.sha256)


# -------------------------------------------------------------- coverage ---

def _cmd_coverage(args, cfg: ToolConfig) -> Report:
    lb = cfg.linkbudget_config()
    floor = linkbudget.noise_floor_dbm(lb)
    eirp = linkbudget.eirp_dbm(lb)
    mapl = linkbudget.max_allowable_pathloss_db(lb)
    range_m = linkbudget.coverage_range_m(args.fit_n, args.fit_r0, mapl)
    throughput_gbps = linkbudget.dual_pol_throughput_bps(lb) / 1e9

    lines = [
        "coverage estimate",
        "-----------------",
        f"EIRP:                    {eirp:8.1f} dBm "
        f"({lb.tx_power_dbm_per_pol:g} dBm/pol + {lb.tx_antenna_gain_dbi:g} dBi)",
        f"noise floor:             {floor:8.1f} dBm "
        f"({lb.bandwidth_hz / 1e6:g} MHz, {lb.temperature_k:g} K, "
        f"NF {lb.noise_figure_db:g} dB)",
        f"required SNR:            {lb.required_snr_db:8.1f} dB",
        f"shadow-fading margin:    {lb.shadow_margin_db:8.1f} dB",
        f"max allowable path loss: {mapl:8.1f} dB",
        f"gain model:              gain = 10*({args.fit_n:g})*log10(D) + ({args.fit_r0:g}) dB",
        f"coverage range:          {range_m:8.1f} m",
        f"throughput note:         {2 * lb.spectral_efficiency_bps_hz:g} bit/s/Hz "
        f"dual-pol -> {throughput_gbps:.1f} Gbps in {lb.bandwidth_hz / 1e6:g} MHz",
    ]
    if not args.out:
        return Report([], lines)
    return Report([(
        args.out,
        ("quantity", "value", "unit"),
        list(zip(*[
            ("eirp", eirp, "dBm"),
            ("noise_floor", floor, "dBm"),
            ("required_snr", lb.required_snr_db, "dB"),
            ("shadow_margin", lb.shadow_margin_db, "dB"),
            ("max_allowable_pathloss", mapl, "dB"),
            ("fit_n", args.fit_n, ""),
            ("fit_r0", args.fit_r0, "dB"),
            ("coverage_range", range_m, "m"),
            ("dual_pol_throughput", throughput_gbps, "Gbps"),
        ])),
    )], lines + [f"coverage: wrote {args.out}"])


# -------------------------------------------------------------- geometry ---

def _cmd_geometry(args, cfg: ToolConfig) -> Report:
    geom = geometry.CanyonGeometry(
        h=args.height, d=args.width, D=args.distance,
        h_prime=args.rx_depth, psi=cfg.psi_rad,
    )
    phi1, phi2, theta = geometry.elevation_angles(geom)
    p_exact = geometry.received_power_exact(geom)
    p_approx = geometry.received_power_approx(geom)
    return Report([], [
        "canyon model evaluation",
        "-----------------------",
        f"phi1 / phi2 / theta:      {math.degrees(phi1):.3f} / "
        f"{math.degrees(phi2):.3f} / {math.degrees(theta):.4f} deg",
        f"free-space spreading:     {geometry.poynting_fspl(geom):.6e} (prop., 1/m^2)",
        f"projected aperture:       {geometry.projected_aperture_exact(geom):.4f} m",
        f"acceptance length:        {geometry.acceptance_length(geom):.4f} m",
        f"vertical fraction:        {geometry.vertical_fraction(geom):.6e} (prop.)",
        f"received power (exact):   {p_exact:.6e} (prop.) = "
        f"{angular.to_db(p_exact):+.2f} dB + const",
        f"received power (approx):  {p_approx:.6e} (prop.) = "
        f"{angular.to_db(p_approx):+.2f} dB + const",
    ])


# ------------------------------------------------------------ entry point --

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="portcanyon",
        description="28 GHz container-canyon propagation toolkit",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    parser.add_argument("--config", help="INI configuration file")
    parser.add_argument(
        "--print-default-config", action="store_true",
        help="print the documented default configuration and exit",
    )
    sub = parser.add_subparsers(dest="command")

    p = sub.add_parser("synth", help="generate a synthetic campaign dataset")
    p.add_argument("--layout", required=True, choices=("uniform", "nonuniform"))
    p.add_argument("--out", required=True, help="output CSV path")
    # A flag that overrides a config key has that key's name as its dest.
    p.add_argument("--seed", type=int, help="override the configured seed")
    p.add_argument(
        "--vehicle-mode", default="none", choices=("none", "dense"),
        help="add vehicle variants: nowhere, or on the dense grid",
    )
    p.add_argument("--n-angles", type=int, help="azimuth samples per rotation")
    p.add_argument("--hpbw-deg", type=float, help="horn half-power beamwidth (deg)")
    p.add_argument("--gain-offset-db", type=float, help="calibration offset (dB)")
    p.add_argument("--no-fading", dest="fading", action="store_false", default=None,
                   help="disable per-bin Rayleigh fading")
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("angular", help="angular-spectrum statistics of a dataset")
    p.add_argument("--input", required=True)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--bin-db", dest="histogram_bin_db", type=float,
                   help="histogram bin width override (dB)")
    p.set_defaults(func=_cmd_angular)

    p = sub.add_parser("spatial", help="spatial autocorrelation along dense lines")
    p.add_argument("--input", required=True)
    p.add_argument("--out", required=True)
    line = synth.DENSE_LINE_TENTHS  # the refined line of the dense grid, by default
    p.add_argument("--x-start", type=float, default=line.start / 10.0)
    p.add_argument("--x-step", type=float, default=line.step / 10.0)
    p.add_argument("--x-count", type=int, default=len(line))
    p.set_defaults(func=_cmd_spatial)

    p = sub.add_parser("vehicle", help="vehicle-impact delta statistics")
    p.add_argument("--input", required=True)
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=_cmd_vehicle)

    p = sub.add_parser("fit", help="log-distance regression of angle-averaged gains")
    p.add_argument("--input", required=True)
    p.add_argument("--out", required=True)
    p.add_argument(
        "--fixed-slope", type=float, default=None,
        help="pin the slope (signed, e.g. -4) instead of fitting it",
    )
    p.set_defaults(func=_cmd_fit)

    p = sub.add_parser("coverage", help="link-budget coverage report")
    p.add_argument("--fit-n", type=float, default=-4.09, help="gain model slope")
    p.add_argument("--fit-r0", type=float, default=-23.4, help="gain model intercept (dB)")
    p.add_argument("--out", help="also write the report as a CSV table")
    p.set_defaults(func=_cmd_coverage)

    p = sub.add_parser("geometry", help="evaluate the canyon model for one geometry")
    p.add_argument("--height", type=float, required=True, help="TX height above canyon top (m)")
    p.add_argument("--width", type=float, required=True, help="canyon internal width (m)")
    p.add_argument("--distance", type=float, required=True, help="TX to near edge (m)")
    p.add_argument("--rx-depth", type=float, required=True, help="RX depth below canyon top (m)")
    p.add_argument("--psi", dest="psi_rad", type=float, help="acceptance angle override (rad)")
    p.set_defaults(func=_cmd_geometry)

    return parser


def _apply_overrides(args, cfg: ToolConfig) -> None:
    """Each flag given overrides the config key its dest names; the values are
    checked where they are used, as file values are."""
    for f in fields(cfg):
        value = getattr(args, f.name, None)
        if value is not None:
            setattr(cfg, f.name, value)


def _write_tables(report: Report, out_dir) -> None:
    """Create out_dir (if given) and write the report's tables; if a write
    fails, remove the tables written so far and the directories this call
    made, then re-raise."""
    made = []  # the directories of out_dir that do not exist yet, deepest first
    if out_dir:
        path = os.path.abspath(out_dir)
        while not os.path.exists(path):
            made.append(path)
            path = os.path.dirname(path)
    written = []
    try:
        if out_dir:
            os.makedirs(out_dir, exist_ok=True)
        for path, header, columns in report.tables:
            columns = columns() if callable(columns) else columns
            dataio.write_table(path, header, columns, input_hash=report.input_hash)
            written.append(path)
    except BaseException:
        for remove, paths in ((os.unlink, written), (os.rmdir, made)):
            for path in paths:
                with contextlib.suppress(OSError):
                    remove(path)
        raise


def _is_float(token: str) -> bool:
    try:
        float(token)
    except ValueError:
        return False
    return True


def bind_option_values(argv):
    """argv with each value that starts with '-' and that float() accepts
    joined to the --option before it, as --option=value.

    argparse reads only -N and -N.N as negative numbers; it takes -1e-300,
    -4E2 or -inf for an option and reports "expected one argument".  Joined,
    such a value binds the same way after a space as after '='.
    """
    out = []
    for token in argv:
        if (out and out[-1].startswith("--") and "=" not in out[-1] and out[-1] != "--"
                and token.startswith("-") and _is_float(token)):
            out[-1] += "=" + token
        else:
            out.append(token)
    return out


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(bind_option_values(sys.argv[1:] if argv is None else argv))
    if args.print_default_config:
        print(DEFAULT_INI, end="")
        return EXIT_OK
    if args.command is None:
        parser.print_help()
        return EXIT_CONFIG
    try:
        cfg = load_config(args.config)
        _apply_overrides(args, cfg)
        # The command computes everything first and a failed write is rolled
        # back, so a failing run leaves no out-dir, table or stdout behind.
        report = args.func(args, cfg)
        _write_tables(report, getattr(args, "out_dir", None))
    except ToolkitError as exc:
        print(f"error[{exc.category}]: {exc}", file=sys.stderr)
        return exc.exit_code
    except OSError as exc:
        print(f"error[io]: {exc}", file=sys.stderr)
        return EXIT_DATA
    for line in report.lines:
        print(line)
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
