"""Paper-scale benchmark of the portcanyon CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root.  It runs the CLI from `src/`, one child
process per command so that interpreter start-up counts, and keeps every
file it writes under `.perfbench/`.  Every child runs on one CPU, which the
speed probe in `speedometer.py` samples throughout the run; each timed step
is reported in seconds at the probe's reference speed.

--trace 0  sets up (several times; `setup_s` is the median), runs one
           untimed warm-up invocation per command, then runs passes of the
           workload until S seconds of passes have been measured.  Prints
           the end-to-end metrics.
--trace 1  sets up once, warms up, runs one pass plain and one pass under
           the span recorder in `spans.py`, and prints the per-layer metrics
           and `trace.overhead_s`, the traced minus the untraced pass time.

Every output table and generated CSV is checked against invariants, and for
the reference seed its provenance-free digest is compared with
`reference_digests.json`.  The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}.  A full record of the run,
environment included, goes to `.perfbench/results/`.
"""

from __future__ import annotations

import argparse
import configparser
import json
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field
from importlib import metadata
from pathlib import Path

from checks import digest, tail_percentile
from spans import COMMANDS, LAYERS, command_balance, inclusive_time
from speedometer import read_samples, speed_scaled
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
WORK_DIR = Path(".perfbench")
REFERENCE_FILE = HERE / "reference_digests.json"
REFERENCE_SEED = 0
SETUP_REPS = 3
IMPORT_REPS = 3
# Every CLI child runs on this CPU, and the speed probe samples it.
BENCH_CPU = max(os.sched_getaffinity(0))
PROBE_FILE = "speed-probe.txt"
THREAD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
NONFINITE = re.compile(r"\b(?:nan|inf)\b", re.IGNORECASE)

# Per-function inclusive times reported by the traced run.
FUNCTION_METRICS = {
    "config.load_config_s": ("config.load_config",),
    "dataio.ingest_s": ("dataio.ingest",),
    "dataio.file_sha256_s": ("dataio.file_sha256",),
    "dataio.write_scans_s": ("dataio.write_scans",),
    "dataio.write_table_s": ("dataio.write_table",),
    "synth.generate_campaign_s": ("synth.generate_campaign",),
    "angular.ensemble_stats_s": ("angular.ensemble_stats",),
    "angular.gain_cdfs_s": ("angular.gain_cdfs",),
    "angular.azimuth_gain_s": ("angular.azimuth_gain",),
    "stats.empirical_cdf_s": ("stats.empirical_cdf",),
    "spatialcorr.averaged_correlation_s": ("spatialcorr.averaged_correlation",),
    "vehicle.vehicle_delta_s": ("vehicle.vehicle_delta",),
    "vehicle.delta_cdf_report_s": ("vehicle.delta_cdf_report",),
    "vehicle.delta_angle_stats_s": ("vehicle.delta_angle_stats",),
    "pathloss.fit_s": ("pathloss.fit_loglinear", "pathloss.fit_fixed_slope"),
}
# Work counts: metric -> span names whose work values are summed.
WORK_METRICS = {
    "dataio.ingest.rows": ("dataio.ingest",),
    "dataio.write_scans.rows": ("dataio.write_scans",),
    "synth.scans": ("synth.generate_campaign",),
    "angular.scans": ("angular.ensemble_stats", "angular.gain_cdfs", "angular.azimuth_gain"),
    "stats.samples": ("stats.empirical_cdf",),
    "spatialcorr.curves": ("spatialcorr.averaged_correlation",),
    "vehicle.deltas": ("vehicle.vehicle_delta",),
    "pathloss.samples": ("pathloss.fit_loglinear", "pathloss.fit_fixed_slope"),
}


@dataclass
class Completed:
    """One finished CLI child: its timing, resources and check results."""

    inv: object
    start: float  # time.perf_counter
    end: float
    exit_code: int
    rss_kb: int
    stdout: str
    stderr: str
    problems: list = field(default_factory=list)
    digests: dict = field(default_factory=dict)
    scaled_s: float | None = None  # at the reference speed; timed passes only

    @property
    def wall_s(self) -> float:
        return self.end - self.start


class Run:
    """State of one benchmark run: paths, child environment, checks."""

    def __init__(self, workload_name, seed, references):
        self.seed = seed
        self.dir = WORK_DIR / workload_name
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)
        self.references = references
        self.seen: dict[str, str] = {}
        self.defaults = configparser.ConfigParser()
        self.completed: list[Completed] = []
        pythonpath = os.pathsep.join(
            p for p in ("src", os.environ.get("PYTHONPATH", "")) if p)
        self.env = dict(os.environ, PYTHONPATH=pythonpath, **THREAD_ENV)

    def path(self, name: str) -> str:
        return str(self.dir / name)

    def read_defaults(self, text: str):
        self.defaults = configparser.ConfigParser()
        try:
            self.defaults.read_string(text)
        except configparser.Error as exc:
            return [f"default config does not parse: {exc}"]
        return []

    def start(self) -> None:
        self.launcher = subprocess.Popen(
            [sys.executable, str(HERE / "launcher.py"), str(BENCH_CPU)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=self.env, text=True)
        self.probe = subprocess.Popen(
            [sys.executable, str(HERE / "speedometer.py"), str(BENCH_CPU),
             self.path(PROBE_FILE)])

    def stop(self) -> None:
        try:
            self.launcher.stdin.close()
        finally:
            self.launcher.wait()
            self.probe.terminate()
            self.probe.wait()

    def spawn(self, argv) -> tuple:
        """Run one child; returns (start, end, exit code, max RSS KB, out, err)."""
        out_path, err_path = self.dir / "child.out", self.dir / "child.err"
        request = {"argv": argv, "stdout": str(out_path), "stderr": str(err_path)}
        self.launcher.stdin.write(json.dumps(request) + "\n")
        self.launcher.stdin.flush()
        reply = json.loads(self.launcher.stdout.readline())
        return (reply["start"], reply["end"], reply["exit_code"], reply["max_rss_kb"],
                out_path.read_text(errors="replace"), err_path.read_text(errors="replace"))

    def wall(self, argv) -> float:
        start, end, *_ = self.spawn(argv)
        return end - start

    def execute(self, inv, spans_path=None, trace_id=None) -> Completed:
        """Time one invocation; checks come later, outside the timed region."""
        if spans_path is None:
            argv = [sys.executable, "-m", "portcanyon.cli", *inv.args]
        else:
            argv = [sys.executable, str(HERE / "spans.py"), "--out", spans_path,
                    "--trace-id", trace_id, "--command", _command_of(inv.args), "--",
                    *inv.args]
        done = Completed(inv, *self.spawn(argv))
        self.completed.append(done)
        return done

    def verify(self, done: Completed) -> None:
        inv, problems = done.inv, done.problems
        if done.exit_code != inv.expect_exit:
            problems.append(f"exit {done.exit_code}, expected {inv.expect_exit}")
        if inv.category and not done.stderr.startswith(f"error[{inv.category}]"):
            problems.append(f"stderr lacks error[{inv.category}]: {done.stderr[:200]!r}")
        if "Traceback" in done.stderr:
            problems.append("traceback on stderr")
        if NONFINITE.search(done.stdout):
            problems.append("non-finite number on stdout")
        if inv.check_stdout:
            problems.extend(inv.check_stdout(done.stdout))
        files = {}
        if inv.stdout_key:
            files[inv.stdout_key] = (done.stdout.encode(), None)
        for key, (path, check) in inv.outputs.items():
            try:
                files[key] = (Path(path).read_bytes(), check)
            except OSError as exc:
                problems.append(f"{key}: {exc}")
        for key, (data, check) in files.items():
            done.digests[key] = value = digest(data)
            if key not in self.seen:
                self.seen[key] = value
                if check is not None:
                    problems.extend(f"{key}: {p}" for p in check(data))
            elif self.seen[key] != value:
                problems.append(f"{key}: output differs from the same run's earlier one")
            if self.references is not None and self.references.get(key) != value:
                problems.append(f"{key}: digest does not match the reference")

    def flush(self) -> None:
        """fsync every file the run wrote, so that no command pays for the
        write-back of an earlier one's output."""
        for path in self.dir.rglob("*"):
            if path.is_file():
                fd = os.open(path, os.O_RDONLY)
                try:
                    os.fsync(fd)
                finally:
                    os.close(fd)


def _command_of(args) -> str:
    return next(a for a in args if a in COMMANDS)


def environment(seed) -> dict:
    model = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            model = next((line.split(":", 1)[1].strip() for line in fh
                          if line.startswith("model name")), "")
    except OSError:
        pass
    versions = {}
    for package in ("numpy", "scipy"):
        try:
            versions[package] = metadata.version(package)
        except metadata.PackageNotFoundError:
            versions[package] = None
    return {
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "cpu_model": model or platform.processor(),
        "python": platform.python_version(),
        **versions,
        "seed": seed,
        "child_thread_env": THREAD_ENV,
    }


def setup_and_warm(run, workload, reps):
    """Set up `reps` times, then warm up once, untimed.  Returns the
    (start, end) of each set-up."""
    windows = []
    for _ in range(reps):
        start = time.perf_counter()
        done = [run.execute(inv) for inv in workload.setup()]
        workload.after_setup(done)
        windows.append((start, time.perf_counter()))
        for d in done:
            run.verify(d)
        run.flush()
    for d in [run.execute(inv) for inv in workload.warmup()]:
        run.verify(d)
    run.flush()
    return windows


def timed_pass(run, workload, traced=False):
    """One pass; its time is the sum of its commands' times."""
    return run_invocations(run, workload.name, workload.one_pass(), traced)


def run_invocations(run, name, invocations, traced, first=0):
    """Under `traced` child i records spans to spans-{first + i}.json."""
    done = [
        run.execute(inv, *((run.path(f"spans-{i}.json"), f"{name}/{i}-{inv.label}")
                           if traced else ()))
        for i, inv in enumerate(invocations, start=first)
    ]
    for d in done:
        run.verify(d)
    run.flush()
    return sum(d.wall_s for d in done), done


def end_to_end(run, workload, seconds):
    """End-to-end metrics, times at the reference speed (`speed_scaled`), and
    the same times unscaled."""
    windows = setup_and_warm(run, workload, SETUP_REPS)
    passes, timed = [], []
    while sum(d.wall_s for d in timed) < seconds:
        passes.append(timed_pass(run, workload)[1])
        timed.extend(passes[-1])
    samples = read_samples(run.path(PROBE_FILE))
    for d in timed:
        d.scaled_s = speed_scaled(samples, d.start, d.end)
    setup = [speed_scaled(samples, start, end) for start, end in windows]
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "iteration_s": (statistics.median(sum(d.scaled_s for d in p) for p in passes), "s"),
        "command_s": (statistics.fmean(d.scaled_s for d in timed), "s"),
        "peak_rss_mb": (max(d.rss_kb for d in timed) / 1024.0, "MB"),
    }
    counts = {"setup_s": len(setup), "iteration_s": len(passes), "command_s": len(timed),
              "peak_rss_mb": len(timed)}
    raw = {
        "setup_s": statistics.median(end - start for start, end in windows),
        "iteration_s": statistics.median(sum(d.wall_s for d in p) for p in passes),
        "command_s": statistics.fmean(d.wall_s for d in timed),
        "probe_unit_s": statistics.median(duration for _, duration in samples),
    }
    counts["probe_unit_s"] = len(samples)
    return metrics, counts, timed, raw


def traced(run, workload, seed):
    setup_and_warm(run, workload, 1)
    plain = timed_pass(run, workload)[1]
    done = timed_pass(run, workload, traced=True)[1]
    samples = read_samples(run.path(PROBE_FILE))
    overhead = sum(speed_scaled(samples, d.start, d.end) for d in done) - sum(
        speed_scaled(samples, d.start, d.end) for d in plain)
    # Set-up steps that a pass does not repeat are traced too, for the layers
    # only they exercise; they are not part of the overhead comparison.
    done += run_invocations(run, workload.name, workload.traced_setup(), True,
                            first=len(done))[1]
    traces = [json.loads(Path(run.path(f"spans-{i}.json")).read_text())
              for i in range(len(done))]

    metrics = layer_metrics(traces, done)
    metrics["trace.overhead_s"] = overhead  # at the reference speed, like end-to-end times
    metrics["import.interpreter_s"] = statistics.median(
        [run.wall([sys.executable, "-c", "pass"]) for _ in range(IMPORT_REPS)])
    metrics["import.cli_s"] = statistics.median(
        [run.wall([sys.executable, "-c", "import portcanyon.cli"])
         for _ in range(IMPORT_REPS)])
    # No command calls it, so it is timed on its own, on the workload whose
    # set-up exercises the synth layer.
    metrics["synth.fullspread_gain_distribution_s"] = 0.0
    if workload.traced_setup():
        path = run.path("spans-fullspread.json")
        _, _, code, _, _, err = run.spawn(
            [sys.executable, str(HERE / "spans.py"), "--out", path,
             "--trace-id", "fullspread", "--fullspread", str(seed)])
        if code == 0:
            fullspread = json.loads(Path(path).read_text())
            traces.append(fullspread)
            metrics["synth.fullspread_gain_distribution_s"] = inclusive_time(
                fullspread["spans"], "synth.fullspread_gain_distribution")
        else:
            done[0].problems.append(f"full-spread reference run failed: {err[-300:]!r}")
    units = {name: ("s" if name.endswith("_s") else "count") for name in metrics}
    return {name: (value, units[name]) for name, value in metrics.items()}, plain, traces


def layer_metrics(traces, done):
    """Per-layer metrics of one traced pass, and the self-time balance check."""
    spans = [s for t in traces for s in t["spans"]]
    metrics = {name: sum((inclusive_time(t["spans"], f) for t in traces for f in funcs), 0.0)
               for name, funcs in FUNCTION_METRICS.items()}
    for name, funcs in WORK_METRICS.items():
        metrics[name] = sum(s[5] for s in spans if s[0] in funcs)
    metrics["dataio.ingest.calls"] = sum(1 for s in spans if s[0] == "dataio.ingest")
    for layer in ("linkbudget", "geometry"):
        metrics[f"{layer}.calls_s"] = sum(
            (inclusive_time(t["spans"], name) for t in traces
             for name in {s[0] for s in t["spans"] if s[1] == layer}), 0.0)
    rows = size = 0
    for path in {p for t in traces for p in t["files"]}:
        data = Path(path).read_bytes()
        size += len(data)
        rows += sum(1 for line in data.splitlines() if not line.startswith(b"#")) - 1
    metrics["dataio.write_table.rows"] = rows
    metrics["dataio.write_table.bytes"] = size

    layer_self = defaultdict(float)
    cli_self = {f"cli.{c}.self_s": 0.0 for c in COMMANDS}
    errors = defaultdict(int)
    for trace, d in zip(traces, done):
        owners, root, residual = command_balance(trace["spans"])
        if abs(residual) > 1e-6:
            d.problems.append(f"self times miss the command span by {residual:.3g} s")
        for owner, own in owners.items():
            if owner == "cli":
                cli_self[f"cli.{_command_of(d.inv.args)}.self_s"] += own
            else:
                layer_self[owner] += own
        for layer, count in trace["errors"].items():
            errors[layer] += count
        errors["cli"] += d.exit_code in (2, 3, 4)
    metrics.update(cli_self)
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = layer_self[layer]
        metrics[f"{layer}.errors"] = errors[layer]
    metrics["cli.errors"] = errors["cli"]
    metrics["trace.spans"] = len(spans)
    return metrics


def report(workload, done, metrics, counts, raw):
    """Human-readable lines; the JSON result line follows them.  Per-command
    lines and `raw` are unscaled wall times."""
    print(f"workload {workload.name}: {workload.why}")
    by_label = defaultdict(list)
    for d in done:
        by_label[d.inv.label].append(d.wall_s)
    for label, walls in sorted(by_label.items()):
        tail = tail_percentile(walls)
        tail_txt = (f"p{tail[0]:.0f} {tail[1]:.4f} s" if tail
                    else "no percentile has 10 samples beyond it")
        print(f"  {label + '_s':<14} median {statistics.median(walls):9.4f} s  "
              f"n={len(walls):<3} {tail_txt}")
    for name, (value, unit) in metrics.items():
        n = f"  n={counts[name]}" if name in counts else ""
        print(f"  {name:<40} {value:14.6f} {unit}{n}")
    for name, value in raw.items():
        n = f"  n={counts[name]}" if name in counts else ""
        print(f"  unscaled {name:<31} {value:14.6f} s{n}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="portcanyon CLI benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=REFERENCE_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-reference", action="store_true",
                        help="store this run's digests as the reference (reference seed only)")
    args = parser.parse_args(argv)
    if not Path("src/portcanyon/cli.py").is_file():
        print("perfbench: src/portcanyon/cli.py not found; run from the repository root",
              file=sys.stderr)
        return 2
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.record_reference and args.seed != REFERENCE_SEED:
        parser.error(f"--record-reference needs --seed {REFERENCE_SEED}")

    stored = json.loads(REFERENCE_FILE.read_text()) if REFERENCE_FILE.is_file() else {}
    check_refs = args.seed == REFERENCE_SEED and not args.record_reference
    run = Run(args.workload, args.seed,
              stored.get(args.workload, {}) if check_refs else None)
    workload = WORKLOADS[args.workload](run)
    started = time.perf_counter()
    run.start()
    try:
        if args.trace:
            metrics, timed, traces = traced(run, workload, args.seed)
            counts, raw = {}, {}
        else:
            metrics, counts, timed, raw = end_to_end(run, workload, args.seconds)
            traces = []
    finally:
        run.stop()

    attempted = len(run.completed)
    failed = sum(1 for d in run.completed if d.problems)
    for d in run.completed:
        for problem in d.problems:
            print(f"FAIL {d.inv.label} {' '.join(d.inv.args)}: {problem}", file=sys.stderr)
    report(workload, timed, metrics, counts, raw)
    print(f"  error_rate {failed}/{attempted} = {failed / attempted:.4f}")

    if args.record_reference:
        digests = {k: v for d in run.completed for k, v in d.digests.items()}
        stored[args.workload] = dict(sorted(digests.items()))
        REFERENCE_FILE.write_text(json.dumps(stored, indent=1, sort_keys=True) + "\n")

    results = WORK_DIR / "results"
    results.mkdir(parents=True, exist_ok=True)
    stem = results / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {
        "workload": args.workload,
        "environment": environment(args.seed),
        "seconds": args.seconds,
        "wall_s": time.perf_counter() - started,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "sample_counts": counts,
        "unscaled": raw,
        "invocations": [
            {"label": d.inv.label, "args": d.inv.args, "wall_s": d.wall_s,
             "scaled_s": d.scaled_s,
             "exit_code": d.exit_code, "max_rss_kb": d.rss_kb, "digests": d.digests,
             "problems": d.problems}
            for d in run.completed
        ],
    }
    stem.with_suffix(".json").write_text(json.dumps(record, indent=1) + "\n")
    if traces:
        Path(f"{stem}-spans.json").write_text(json.dumps(traces) + "\n")

    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
