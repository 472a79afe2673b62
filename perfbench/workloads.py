"""The two workloads: what each sets up, warms and runs in one pass.

Every workload is a closed loop: one driver process runs one CLI child at a
time.  The workload seed picks the program's inputs and nothing else.

campaign-analyze  read-heavy.  Set-up writes the paper-scale CSV
                  (uniform layout, vehicle on the dense grid: 2100 scans,
                  756,000 rows); a pass runs angular, spatial, vehicle, fit
                  and fit --fixed-slope -4 on it.  It ingests the same CSV
                  five times and writes the three big CDF tables, so ingest,
                  table writing and the statistics show here.  It writes no
                  scans in a pass; generating and writing the campaign is its
                  set-up, so a change that moves work from reading to writing
                  shows in `setup_s`.
planner-queries   start-up-bound.  A pass is a fixed sweep of eight short
                  commands (coverage, geometry, one --config call, one
                  request that must fail with a categorized error); import
                  and argument/config handling are most of each call.
"""

from __future__ import annotations

import configparser
import random
from dataclasses import dataclass, field
from typing import Callable

from checks import campaign_problems, table_problems

# Paper-scale sizes of the default configuration (360 angles per scan).
CAMPAIGN_ROWS = 756_000
BASELINE_SCANS = 868
GAIN_CDF_ALL_ROWS = 312_480
VEHICLE_DELTA_ROWS = 221_760
UNIFORM_TXS = ("TX1_63", "TX1_73", "TX1_83", "TX1_93", "TX1_103", "TX1_113", "TX2")
VEHICLE_TOLERANCE_DB = 0.15
# A warm-up needs the code paths and the .pyc files, not the data volume.
WARMUP_ANGLES = "36"

HIST_COLUMNS = ("angle_deg", "bin_lo_db", "bin_hi_db", "count")
FIT_COLUMNS = ("configuration", "n", "ci95_n", "r0_db", "ci95_r0_db", "rmse_db",
               "sample_count")


@dataclass
class Invocation:
    """One CLI call and what its outputs must look like."""

    label: str
    args: list
    expect_exit: int = 0
    category: str | None = None
    # digest key -> (path, checker(bytes) -> problems)
    outputs: dict = field(default_factory=dict)
    # stdout checker(str) -> problems; stdout_key also digests stdout
    check_stdout: Callable | None = None
    stdout_key: str | None = None


def _table(columns, **spec):
    return lambda data: table_problems(data, columns, **spec)[0]


def _cdf(columns, rows):
    return _table(columns, rows=rows, monotone=columns, ends_at_one=(columns[1],))


class Workload:
    name = ""
    why = ""

    def __init__(self, ctx):
        self.ctx = ctx
        self.seed = ctx.seed

    def defaults(self) -> Invocation:
        return Invocation("defaults", ["--print-default-config"],
                          check_stdout=self.ctx.read_defaults, stdout_key="defaults.ini")

    def setup(self) -> list:
        return [self.defaults()]

    def after_setup(self, done) -> None:
        """Write any input files from the finished set-up children `done`;
        part of the timed set-up."""

    def warmup(self) -> list:
        raise NotImplementedError

    def one_pass(self) -> list:
        raise NotImplementedError

    def traced_setup(self) -> list:
        """Set-up steps the traced run records as well as a pass."""
        return []


class CampaignAnalyze(Workload):
    name = "campaign-analyze"
    why = ("read-heavy: five analysis commands ingest one 756k-row CSV and write "
           "the big CDF tables; writing the CSV is the set-up")

    def _synth(self, out, *extra):
        return ["synth", "--layout", "uniform", "--vehicle-mode", "dense",
                "--seed", str(self.seed), "--out", out, *extra]

    def setup(self):
        csv = self.ctx.path("campaign.csv")
        return [Invocation(
            "synth", self._synth(csv),
            outputs={"campaign.csv": (csv, lambda d: campaign_problems(d, CAMPAIGN_ROWS))},
        )]

    def _analysis(self, csv, out):
        return [
            ["angular", "--input", csv, "--out-dir", f"{out}/angular"],
            ["spatial", "--input", csv, "--out", f"{out}/correlation.csv"],
            ["vehicle", "--input", csv, "--out-dir", f"{out}/vehicle"],
            ["fit", "--input", csv, "--out", f"{out}/fit.csv"],
            ["fit", "--input", csv, "--out", f"{out}/fit_slope4.csv", "--fixed-slope", "-4"],
        ]

    def warmup(self):
        csv = self.ctx.path("warmup.csv")
        calls = [self._synth(csv, "--n-angles", WARMUP_ANGLES)]
        calls += self._analysis(csv, self.ctx.path("warmup"))[:4]  # each command once
        # The defaults give the vehicle check its configured values.
        return [self.defaults()] + [Invocation(args[0], args) for args in calls]

    def traced_setup(self):
        return self.setup()

    def one_pass(self):
        out = self.ctx.path("out")
        angular, spatial, vehicle, fit, fit4 = self._analysis(self.ctx.path("campaign.csv"), out)
        return [
            Invocation("angular", angular, outputs=self._angular_outputs(f"{out}/angular")),
            Invocation("spatial", spatial, outputs={
                "correlation.csv": (f"{out}/correlation.csv", _correlation_problems)}),
            Invocation("vehicle", vehicle, outputs=self._vehicle_outputs(f"{out}/vehicle")),
            Invocation("fit", fit, outputs={
                "fit.csv": (f"{out}/fit.csv", lambda d: _fit_problems(d, None))}),
            Invocation("fit", fit4, outputs={
                "fit_slope4.csv": (f"{out}/fit_slope4.csv", lambda d: _fit_problems(d, -4.0))}),
        ]

    @staticmethod
    def _angular_outputs(out):
        outputs = {}
        for tx in UNIFORM_TXS:
            outputs[f"angular/angular_mean_{tx}.csv"] = (
                f"{out}/angular_mean_{tx}.csv", _table(("angle_deg", "mean_db"), rows=360))
            outputs[f"angular/angular_hist_{tx}.csv"] = (
                f"{out}/angular_hist_{tx}.csv", _table(HIST_COLUMNS))
        for name, columns, rows in (
            ("gain_cdf_all_directions", ("normalized_gain_db", "probability"), GAIN_CDF_ALL_ROWS),
            ("gain_cdf_tx_direction", ("normalized_gain_db", "probability"), BASELINE_SCANS),
            ("azimuth_gain_cdf", ("azimuth_gain_db", "probability"), BASELINE_SCANS),
        ):
            outputs[f"angular/{name}.csv"] = (f"{out}/{name}.csv", _cdf(columns, rows))
        return outputs

    def _vehicle_outputs(self, out):
        outputs = {}
        for pos in ("position1", "position2"):
            outputs[f"vehicle/vehicle_delta_cdf_{pos}.csv"] = (
                f"{out}/vehicle_delta_cdf_{pos}.csv",
                _cdf(("delta_db", "empirical_cdf", "gaussian_cdf"), VEHICLE_DELTA_ROWS))
            outputs[f"vehicle/vehicle_delta_mean_{pos}.csv"] = (
                f"{out}/vehicle_delta_mean_{pos}.csv",
                _table(("angle_deg", "mean_delta_db"), rows=360))
            outputs[f"vehicle/vehicle_delta_hist_{pos}.csv"] = (
                f"{out}/vehicle_delta_hist_{pos}.csv", _table(HIST_COLUMNS))
        outputs["vehicle/vehicle_fit_params.csv"] = (
            f"{out}/vehicle_fit_params.csv", self._vehicle_params_problems)
        return outputs

    def _vehicle_params_problems(self, data):
        columns = ("vehicle_position", "mu_db", "sigma_db", "sample_count", "cdf_sup_gap")
        problems, cols = table_problems(data, columns, rows=2, text_cols=columns[:1])
        if problems:
            return problems
        mu = self.ctx.defaults.getfloat("synth", "vehicle_mu_db")
        sigma = self.ctx.defaults.getfloat("synth", "vehicle_sigma_db")
        for got_mu, got_sigma, count in zip(cols["mu_db"], cols["sigma_db"],
                                            cols["sample_count"]):
            if abs(got_mu - mu) > VEHICLE_TOLERANCE_DB:
                problems.append(f"vehicle mu {got_mu:.3f} dB, configured {mu}")
            if abs(got_sigma - sigma) > VEHICLE_TOLERANCE_DB:
                problems.append(f"vehicle sigma {got_sigma:.3f} dB, configured {sigma}")
            if count != VEHICLE_DELTA_ROWS:
                problems.append(f"vehicle sample_count {count:g}")
        return problems


def _correlation_problems(data):
    problems, cols = table_problems(data, ("lag_m", "correlation"), rows=15,
                                    monotone=("lag_m",))
    if problems:
        return problems
    corr = cols["correlation"]
    if abs(corr[0] - 1.0) > 1e-12 or cols["lag_m"][0] != 0.0:
        problems.append(f"correlation at lag 0 is {corr[0]!r}, expected 1")
    if any(abs(c) > 1.0 + 1e-12 for c in corr):
        problems.append("correlation outside [-1, 1]")
    return problems


def _fit_problems(data, fixed_slope):
    problems, cols = table_problems(data, FIT_COLUMNS, rows=1, text_cols=FIT_COLUMNS[:1])
    if problems:
        return problems
    n, count = cols["n"][0], cols["sample_count"][0]
    if fixed_slope is None and not n < 0.0:
        problems.append(f"fitted slope {n} does not decay")
    if fixed_slope is not None and n != fixed_slope:
        problems.append(f"pinned slope reads {n}, expected {fixed_slope}")
    if count != BASELINE_SCANS:
        problems.append(f"fit over {count:g} samples, expected {BASELINE_SCANS}")
    return problems


class PlannerQueries(Workload):
    name = "planner-queries"
    why = ("start-up-bound: a sweep of short coverage/geometry/config calls, one in "
           "eight an expected error; the data layer does almost nothing")

    TX_POWER_DBM = 30.0

    def after_setup(self, done):
        ini = configparser.ConfigParser()
        ini.read_string(done[0].stdout)
        ini.set("linkbudget", "tx_power_dbm_per_pol", str(self.TX_POWER_DBM))
        with open(self.ctx.path("planner.ini"), "w", encoding="utf-8") as fh:
            ini.write(fh)
        with open(self.ctx.path("bad_key.ini"), "w", encoding="utf-8") as fh:
            fh.write("[linkbudget]\nantenna_count = 4\n")
        with open(self.ctx.path("bad_header.csv"), "w", encoding="utf-8") as fh:
            fh.write("tx,x,y,phi,gain,vehicle,stacking\nTX2,1.0,1.0,0.0,-60.0,absent,uniform\n")

    def warmup(self):
        return [
            Invocation("coverage", ["coverage"]),
            Invocation("geometry", ["geometry", "--height", "17.4", "--width", "8",
                                    "--distance", "63", "--rx-depth", "5"]),
        ]

    def _errors(self):
        return [
            (["coverage", "--fit-n", "0.5"], 4, "fit"),
            (["angular", "--input", self.ctx.path("bad_header.csv"),
              "--out-dir", self.ctx.path("bad_out")], 3, "ingest"),
            (["--config", self.ctx.path("bad_key.ini"), "coverage"], 2, "config"),
            (["geometry", "--height", "17.4", "--width", "-1", "--distance", "63",
              "--rx-depth", "5"], 4, "domain"),
        ]

    def one_pass(self):
        rng = random.Random(self.seed)
        fits = [(f"{rng.uniform(-4.6, -2.0):.2f}", f"{rng.uniform(-30.0, -10.0):.1f}")
                for _ in range(4)]
        geoms = [(f"{rng.uniform(5, 25):.1f}", f"{rng.uniform(4, 12):.1f}",
                  f"{rng.uniform(20, 160):.1f}", f"{rng.uniform(1, 6):.1f}")
                 for _ in range(3)]
        error_args, error_exit, error_category = rng.choice(self._errors())
        eirp = self.TX_POWER_DBM + self.ctx.defaults.getfloat("linkbudget", "tx_antenna_gain_dbi")
        table = self.ctx.path("coverage.csv")

        def coverage(i, n, r0, *extra, eirp_dbm=None):
            return Invocation(
                "coverage", [*extra, "coverage", "--fit-n", n, "--fit-r0", r0],
                check_stdout=lambda out: _coverage_problems(out, eirp_dbm),
                stdout_key=f"stdout/{i}-coverage")

        def geometry(i, h, w, d, depth):
            return Invocation(
                "geometry", ["geometry", "--height", h, "--width", w, "--distance", d,
                             "--rx-depth", depth],
                check_stdout=_geometry_problems, stdout_key=f"stdout/{i}-geometry")

        with_table = coverage(2, *fits[1])
        with_table.args += ["--out", table]
        with_table.outputs = {"coverage.csv": (table, _table(
            ("quantity", "value", "unit"), rows=9, text_cols=("quantity", "unit")))}
        return [
            coverage(0, *fits[0]),
            geometry(1, *geoms[0]),
            with_table,
            geometry(3, *geoms[1]),
            coverage(4, *fits[3], "--config", self.ctx.path("planner.ini"), eirp_dbm=eirp),
            geometry(5, *geoms[2]),
            coverage(6, *fits[2]),
            Invocation("error", error_args, expect_exit=error_exit, category=error_category),
        ]


def _number_after(text, label):
    for line in text.splitlines():
        if line.startswith(label):
            try:
                return float(line[len(label):].split()[0])
            except (IndexError, ValueError):
                return None
    return None


def _coverage_problems(out, eirp_dbm):
    problems = []
    range_m = _number_after(out, "coverage range:")
    if range_m is None or not range_m > 0.0:
        problems.append(f"coverage range reads {range_m}")
    if eirp_dbm is not None:
        got = _number_after(out, "EIRP:")
        if got is None or abs(got - eirp_dbm) > 0.05:
            problems.append(f"EIRP reads {got} dBm, config gives {eirp_dbm}")
    return problems


def _geometry_problems(out):
    labels = ("free-space spreading:", "projected aperture:", "acceptance length:",
              "vertical fraction:", "received power (exact):", "received power (approx):")
    return [f"no value for {label!r}" for label in labels if _number_after(out, label) is None]


WORKLOADS = {w.name: w for w in (CampaignAnalyze, PlannerQueries)}
