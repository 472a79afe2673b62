"""Property test of the analysis commands, `angular`, `spatial`, `vehicle` and
`fit`, run in process through `cli.main` on small mutated campaign CSVs:
CRs, byte-order marks, quotes, long lines, split scans and drawn values, with
no sidecar or one of each kind `test_dataio` plants (intact, stale, corrupt,
or holding this file's hash over rows that must not be trusted); and on the
plain campaign with drawn flag values and [angular], [model] and [synth]
config files.  Every run
ends in a finite report or a categorized error (exit 2, 3 or 4), never a
traceback, within a bounded heap; a failing run prints and leaves nothing:
no out-dir, no table, no temporary file."""

import codecs
import contextlib
import functools
import io
import math
import os
import re
import tempfile
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_dataio import SIDECAR_KINDS, _corrupt
from test_planner_properties import _VALUES, _ini

from portcanyon.cli import main
from portcanyon.dataio import (
    CANONICAL_HEADER,
    SIDECAR_SUFFIX,
    file_sha256,
    ingest,
    provenance_line,
)
from portcanyon.errors import ToolkitError

N_ANGLES = 8
LINE_XS = (13.5, 13.6, 13.7)  # a dense line, with the vehicle at both positions
COARSE_XS = (1.0, 5.0, 9.0)
STATES = ("absent", "position1", "position2")

# Each command with its arguments, relative to the work directory, and the
# path of its output: the table, or the out-dir.
COMMANDS = (
    (["angular", "--input", "c.csv", "--out-dir", "angular"], "angular"),
    (["spatial", "--input", "c.csv", "--out", "correlation.csv", "--x-start", "13.5",
      "--x-step", "0.1", "--x-count", str(len(LINE_XS))], "correlation.csv"),
    (["vehicle", "--input", "c.csv", "--out-dir", "vehicle"], "vehicle"),
    (["fit", "--input", "c.csv", "--out", "fit.csv"], "fit.csv"),
)

# The peak Python and numpy heap of one command: 1.1-1.4 MB over 2,400 runs
# on these files, to which the widest histogram their gains allow adds its
# table columns (6,165 bins of 1 dB x 8 angles x 4 columns: 1.6 MB a
# transmitter).  Nothing may grow further with the file: a 100,000-character
# field adds about 0.1 MB.
_HEAP_BOUND = 8 << 20
_NONFINITE = re.compile(r"(?i)\b(nan|inf)\b")

# Field values a mutation may write, valid or not.
_TOKENS = ["nan", "-nan", "inf", "-inf", "1e308", "-1e308", "3082.6", "-3082.6", "3000",
           "-3000", "0", "-0.0", "1e-300", "", " ", "abc", "TX2", "TX1_1e308", "TX1_nan",
           "TX9", "#", "absent", "position1", "position3", "uniform", "nonuniform",
           "13.5", "13.6", "45.0", "360.0", "-45.0", "22.5"]


def _plain_lines():
    """The plain campaign CSV as (text, line end) pairs: its provenance line,
    header and rows, in the order `synth` writes them (per transmitter and
    point, the baseline scan first)."""
    rng = np.random.default_rng(3)
    points = [(x, 3.5, state) for x in LINE_XS for state in STATES]
    points += [(x, y, "absent") for x in COARSE_XS for y in (3.5, 5.5)]
    lines = [(provenance_line(), "\n"), (CANONICAL_HEADER, "\n")]
    for tx in ("TX1_63", "TX2"):
        for x, y, state in points:
            lines += [(f"{tx},{x!r},{y!r},{360.0 * k / N_ANGLES!r},{g!r},{state},uniform", "\n")
                      for k, g in enumerate(rng.normal(-70.0, 6.0, N_ANGLES).tolist())]
    return tuple(lines)


PLAIN_LINES = _plain_lines()


@st.composite
def _mutation(draw):
    """One edit of the file's lines: a list of (text, line end) pairs."""
    kind = draw(st.sampled_from(["split", "quote", "cr", "bom", "long", "value", "drop", "dup",
                                 "crlf", "truncate"]))
    return kind, draw(st.integers(0, 10**6)), draw(st.integers(0, 10**6)), draw(st.data())


def _apply(lines, mutation):
    if not lines:  # all dropped
        return
    kind, a, b, data = mutation
    at = 2 + a % (len(lines) - 2) if len(lines) > 2 else 0  # a data line, if any
    text, end = lines[at]
    fields = text.split(",")
    field = b % len(fields)
    if kind == "split":  # some rows of a scan moved after later ones
        count = data.draw(st.integers(1, 12))
        moved, rest = lines[at:at + count], lines[:at] + lines[at + count:]
        to = data.draw(st.integers(at, len(rest)))
        lines[:] = rest[:to] + moved + rest[to:]
    elif kind == "quote":
        spelling = data.draw(st.sampled_from(['"{}"', '"{}', '{}"', '"{}""x"', '""{}']))
        fields[field] = spelling.format(fields[field])
        lines[at] = ",".join(fields), end
    elif kind == "cr":
        where = data.draw(st.sampled_from(["end", "bare", "inside", "last"]))
        if where == "end":
            lines[at] = text, "\r\n"
        elif where == "bare":
            lines[at] = text, "\r"
        elif where == "inside":
            lines[at] = text[:b % (len(text) + 1)] + "\r" + text[b % (len(text) + 1):], end
        else:
            lines[-1] = lines[-1][0], lines[-1][1] + "\r"
    elif kind == "bom":
        spot = data.draw(st.sampled_from(["start", "twice", "inside"]))
        if spot == "inside":
            lines[at] = codecs.BOM_UTF8.decode("utf-8") + text, end
        else:
            bom = codecs.BOM_UTF8.decode("utf-8") * (1 if spot == "start" else 2)
            lines[0] = bom + lines[0][0], lines[0][1]
    elif kind == "long":
        length = data.draw(st.sampled_from([50, 4100, 100000, 140000]))  # csv's limit: 131,072
        how = data.draw(st.sampled_from(["zeros", "comment", "field"]))
        if how == "zeros":  # the same number, spelled long
            fields[field] += ("" if "." in fields[field] else ".") + "0" * length
            lines[at] = ",".join(fields), end
        elif how == "comment":
            lines.insert(at, ("#" + "x" * length, "\n"))
        else:
            fields[field] = "x" * length
            lines[at] = ",".join(fields), end
    elif kind == "value":
        fields[field] = data.draw(st.one_of(
            st.sampled_from(_TOKENS), st.floats(allow_nan=False).map(repr),
            st.floats(-4000.0, 4000.0).map(repr)))
        lines[at] = ",".join(fields), end
    elif kind == "drop":
        del lines[at]
    elif kind == "dup":
        lines.insert(at, lines[at])
    elif kind == "crlf":
        lines[:] = [(text, "\r\n") for text, _ in lines]
    else:  # truncate the file's text at some character
        body = "".join(t + e for t, e in lines)
        cut = b % (len(body) + 1)
        lines[:] = [(body[:cut], "")]


@functools.cache
def _other_sidecar():
    """The sidecar bytes of the plain campaign, another file's to a mutated one."""
    with tempfile.TemporaryDirectory() as workdir:
        path = os.path.join(workdir, "c.csv")
        _write(path, list(PLAIN_LINES))
        ingest(path)
        with open(path + SIDECAR_SUFFIX, "rb") as fh:
            return fh.read()


def _plant_sidecar(path, kind, pick):
    """Replace the sidecar of the CSV at path by one of a `test_dataio`
    kind, made from its own (if a parse of it saves one) or the plain
    campaign's; pick(n) picks an int in [0, n)."""
    sidecar = path + SIDECAR_SUFFIX
    with contextlib.suppress(ToolkitError):
        ingest(path)
    good = None
    if os.path.exists(sidecar):
        with open(sidecar, "rb") as fh:
            good = fh.read()
        os.unlink(sidecar)
    planted = _corrupt(kind, good, _other_sidecar(), file_sha256(path), pick)
    if planted is not None:
        with open(sidecar, "wb") as fh:
            fh.write(planted)


def _run(argv):
    """main(argv): its exit code, stdout and stderr, and the heap peak."""
    out, err = io.StringIO(), io.StringIO()
    tracemalloc.start()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = main(argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return rc, out.getvalue(), err.getvalue(), peak


def _finite_or_text(cell):
    try:
        return math.isfinite(float(cell))
    except ValueError:
        return True  # a label: a configuration's name


def _tables(output):
    """The table files a command's output path holds."""
    if os.path.isdir(output):
        return [os.path.join(output, name) for name in sorted(os.listdir(output))]
    return [output]


def _check(workdir, output, rc, stdout, stderr, peak):
    assert rc in (0, 2, 3, 4), stderr
    assert not _NONFINITE.search(stdout), stdout
    assert peak < _HEAP_BOUND, peak
    assert not [name for _, _, names in os.walk(workdir) for name in names
                if name.endswith(".tmp")]
    if rc:
        assert stdout == ""
        assert re.fullmatch(r"error\[[a-z]+\]: [^\n]*\n", stderr), stderr
        assert not os.path.exists(output)
        return
    for table in _tables(output):
        with open(table, encoding="utf-8") as fh:
            cells = [cell for line in fh if not line.startswith("#")
                     for cell in line.rstrip("\n").split(",")]
        assert all(map(_finite_or_text, cells)), (table, cells)


def _write(path, lines):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("".join(text + end for text, end in lines))


def run_commands(workdir, lines, plant=None, commands=COMMANDS):
    """Write the CSV of lines in workdir, plant(path) its sidecar if given, and
    run each analysis command on it, checking each run.  Returns each
    command's exit code."""
    path = os.path.join(workdir, "c.csv")
    _write(path, lines)
    if plant is not None:
        plant(path)
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        codes = []
        for argv, output in commands:
            rc, stdout, stderr, peak = _run(argv)
            _check(workdir, os.path.join(workdir, output), rc, stdout, stderr, peak)
            codes.append(rc)
    finally:
        os.chdir(cwd)
    return codes


@pytest.fixture(scope="module")
def warmed():
    """The plain campaign passes every command.  It runs first, so the heap
    bound sees no import or first-use cache."""
    with tempfile.TemporaryDirectory() as workdir:
        assert run_commands(workdir, list(PLAIN_LINES)) == [0] * len(COMMANDS)


@settings(max_examples=60, deadline=5000)
@given(mutations=st.lists(_mutation(), min_size=1, max_size=3),
       sidecar=st.sampled_from(SIDECAR_KINDS), data=st.data())
def test_analyses_end_in_a_finite_report_or_an_error(warmed, mutations, sidecar, data):
    lines = list(PLAIN_LINES)
    for mutation in mutations:
        _apply(lines, mutation)
    with tempfile.TemporaryDirectory() as workdir:
        run_commands(workdir, lines, lambda path: _plant_sidecar(
            path, sidecar, lambda n: data.draw(st.integers(0, n - 1))))


# The flags of each command that override a value, each with the strategy of
# its drawn values; a command's own arguments come first, so a drawn value
# replaces the one COMMANDS gives.  --x-count takes ints: a count above the
# baseline scans ends before any position array is made.
_FLAGS = {
    "angular": [("--bin-db", _VALUES)],
    "spatial": [("--x-start", _VALUES), ("--x-step", _VALUES),
                ("--x-count", st.sampled_from(["-1", "0", "1", "2", "3", "4", "15", "1000000",
                                               str(2**63)]))],
    "vehicle": [],
    "fit": [("--fixed-slope", _VALUES)],
}


@settings(max_examples=40, deadline=5000)
@given(ini=st.one_of(st.none(), _ini(("angular", "model", "synth"))), data=st.data())
def test_drawn_flags_and_config_end_in_a_finite_report_or_an_error(warmed, ini, data):
    commands = []
    for argv, output in COMMANDS:
        flags = [(name, data.draw(values)) for name, values in _FLAGS[argv[0]]]
        drawn = [arg for name, value in flags if data.draw(st.booleans())
                 for arg in (name, value)]
        config = ["--config", "analysis.ini"] if ini is not None else []
        commands.append((config + argv + drawn, output))
    with tempfile.TemporaryDirectory() as workdir:
        if ini is not None:
            with open(os.path.join(workdir, "analysis.ini"), "w", encoding="utf-8") as fh:
                fh.write(ini)
        run_commands(workdir, list(PLAIN_LINES), commands=commands)
