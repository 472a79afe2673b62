"""Span recorder for the traced run, and the self-time arithmetic.

Run as a script, this file is the traced child process:

    python3 perfbench/spans.py --out SPANS.json --trace-id ID --command NAME -- ARGS...
    python3 perfbench/spans.py --out SPANS.json --trace-id ID --fullspread SEED

It imports `portcanyon.cli`, wraps every public function of each layer module
in a timing shim (in the defining module and in every module that imported
the name directly), runs `portcanyon.cli.main(ARGS)` as the command span,
and writes the spans it kept in memory to SPANS.json when it ends.  The
program's own files are not changed.

A span is (name, layer, start, end, parent index, work count).  A call made
while a span of the same layer is open is not recorded: it is that layer's
own work, and recording it would only add overhead.
"""

from __future__ import annotations

import argparse
import functools
import inspect
import json
import sys
import time
from collections import Counter

LAYERS = (
    "config", "dataio", "synth", "angular", "stats", "spatialcorr", "vehicle",
    "pathloss", "linkbudget", "geometry",
)
COMMANDS = ("synth", "angular", "spatial", "vehicle", "fit", "coverage", "geometry")


def _size(value) -> int:
    return len(value) if isinstance(value, (list, tuple)) else int(getattr(value, "size", 0))


def _rows(scans) -> int:
    return sum(s.angles.size for s in scans) if isinstance(scans, (list, tuple)) else 0


# Work counted per call, from the bound arguments and the result.  Called
# after the span closes, so the counting is not part of the layer's time.
WORK = {
    "dataio.ingest": lambda a, r: _rows(r),
    "dataio.write_scans": lambda a, r: _rows(a["scans"]),
    "synth.generate_campaign": lambda a, r: len(r),
    "angular.ensemble_stats": lambda a, r: _size(a["scans"]),
    "angular.gain_cdfs": lambda a, r: _size(a["scans"]),
    "angular.azimuth_gain": lambda a, r: 1,
    "stats.empirical_cdf": lambda a, r: _size(a["samples"]),
    "spatialcorr.averaged_correlation": lambda a, r: sum(
        line.angles.size for line in a["lines"]) if isinstance(a["lines"], list) else 0,
    "vehicle.vehicle_delta": lambda a, r: int(r.size),
    "pathloss.fit_loglinear": lambda a, r: _size(a["samples"]),
    "pathloss.fit_fixed_slope": lambda a, r: _size(a["samples"]),
}


class Recorder:
    """Spans of one traced process, kept in memory until `dump`."""

    def __init__(self, trace_id: str, toolkit_error=Exception):
        self.trace_id = trace_id
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.errors: Counter = Counter()
        self.files: list[str] = []
        self._toolkit_error = toolkit_error

    def shim(self, fn, layer: str, name: str):
        """Wrap fn so that each call from outside `layer` records a span."""
        work = WORK.get(name)
        signature = inspect.signature(fn) if work else None
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if stack and spans[stack[-1]][1] == layer:
                return fn(*args, **kwargs)
            index = len(spans)
            spans.append([name, layer, clock(), None, stack[-1] if stack else None, 0])
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            except self._toolkit_error:
                self.errors[layer] += 1
                raise
            finally:
                spans[index][3] = clock()
                stack.pop()
            if work:
                spans[index][5] = work(signature.bind(*args, **kwargs).arguments, result)
            if name == "dataio.write_table":
                self.files.append(str(args[0] if args else kwargs["path"]))
            return result

        return wrapper

    def dump(self, path, exit_code) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {"trace_id": self.trace_id, "exit_code": exit_code, "spans": self.spans,
                 "errors": dict(self.errors), "files": self.files},
                fh,
            )


def install(recorder: Recorder) -> int:
    """Shim the public functions of every layer module; returns how many."""
    modules = {
        name: mod for name, mod in sys.modules.items()
        if name == "portcanyon" or name.startswith("portcanyon.")
    }
    wrapped = {}
    for layer in LAYERS:
        mod = modules[f"portcanyon.{layer}"]
        for attr, fn in vars(mod).items():
            if (
                inspect.isfunction(fn)
                and fn.__module__ == mod.__name__
                and not attr.startswith("_")
                and not inspect.isgeneratorfunction(fn)
            ):
                wrapped[fn] = recorder.shim(fn, layer, f"{layer}.{attr}")
    for mod in modules.values():
        for attr, value in list(vars(mod).items()):
            if inspect.isfunction(value) and value in wrapped:
                setattr(mod, attr, wrapped[value])
    return len(wrapped)


# ----------------------------------------------------- self-time arithmetic --

def covered(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it that its children cover."""
    children: dict[int, list] = {}
    for span in spans:
        if span[4] is not None:
            children.setdefault(span[4], []).append((span[2], span[3]))
    return [
        (span[3] - span[2]) - covered(children.get(i, ()))
        for i, span in enumerate(spans)
    ]


def inclusive_time(spans, name: str) -> float:
    """Total duration of the spans called `name`, not counting a span nested
    in another span of the same name twice."""
    total = 0.0
    for span in spans:
        if span[0] != name:
            continue
        parent = span[4]
        while parent is not None and spans[parent][0] != name:
            parent = spans[parent][4]
        if parent is None:
            total += span[3] - span[2]
    return total


def command_balance(spans):
    """Per-command self time by owner, and how far their sum is from the span.

    The root span (index 0) is the command; every other span belongs to its
    layer.  Returns ({owner: self seconds}, root duration, residual).
    """
    selfs = self_times(spans)
    owners: Counter = Counter()
    for span, own in zip(spans, selfs):
        owners[span[1]] += own
    root = spans[0][3] - spans[0][2]
    return dict(owners), root, sum(owners.values()) - root


# ------------------------------------------------------------ child entry --

def _child(argv) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--out", required=True)
    parser.add_argument("--trace-id", required=True)
    parser.add_argument("--command", choices=COMMANDS)
    parser.add_argument("--fullspread", type=int, metavar="SEED")
    parser.add_argument("cli_args", nargs="*")
    args = parser.parse_args(argv)

    import portcanyon.cli as cli
    from portcanyon.config import load_config
    from portcanyon.errors import ToolkitError

    synth_cfg = load_config().synth_config()
    recorder = Recorder(args.trace_id, ToolkitError)
    install(recorder)
    exit_code = 0
    try:
        if args.fullspread is not None:
            import dataclasses

            from portcanyon import synth

            synth.fullspread_gain_distribution(
                dataclasses.replace(synth_cfg, seed=args.fullspread)
            )
        else:
            main = recorder.shim(cli.main, "cli", f"cli.{args.command}")
            try:
                exit_code = main(args.cli_args)
            except SystemExit as exc:
                exit_code = exc.code if isinstance(exc.code, int) else 1
    finally:
        recorder.dump(args.out, exit_code)
    return exit_code


if __name__ == "__main__":
    sys.exit(_child(sys.argv[1:]))
