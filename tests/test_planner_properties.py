"""Property test of the planner commands, `coverage` and `geometry`, run in
process through `cli.main`: any flag value or --config file ends in a finite
report or a categorized error (exit 2, 3 or 4), never a traceback, and a
failing run prints and leaves nothing."""

import contextlib
import io
import math
import os
import re
import tempfile
import tracemalloc
from dataclasses import fields

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from portcanyon.cli import main
from portcanyon.config import ToolConfig

# Values at the edges of the float range, with negative exponents, non-finite
# and zero, in the spellings a user might type.
_EXTREMES = ["0", "-0", "0.0", "inf", "-inf", "nan", "-nan", "Infinity", "1e308", "-1e308",
             "1.7976931348623157e308", "1e-300", "-1e-300", "5e-324", "-5e-324", "-4E2",
             "2.5e+3", "-2.5e+3", "1e-7", "-1e-7", "1", "-1"]
_VALUES = st.one_of(st.sampled_from(_EXTREMES),
                    st.floats(allow_nan=False, allow_infinity=False).map(repr),
                    st.floats(-1e4, 1e4).map(repr))
_NONFINITE = re.compile(r"(?i)\b(nan|inf)\b")

# Each command with the arguments it needs.
_PLANNERS = {
    "coverage": ["coverage"],
    "geometry": ["geometry", "--height", "17.4", "--width", "8", "--distance", "63",
                 "--rx-depth", "5"],
}

# The peak Python and numpy heap of one call, far above what a report needs:
# nothing these commands allocate may grow with the input's values.
_HEAP_BOUND = 1 << 20


@st.composite
def _ini(draw, sections=("model", "linkbudget")):
    """An INI text of drawn keys of the sections (repeats allowed), each with
    a drawn value, or a line that is not a float.  The default sections are
    the ones the planner commands read."""
    keys = [(f.metadata["section"], f.name) for f in fields(ToolConfig)
            if f.metadata["section"] in sections]
    lines, section = [], None
    for sect, key in draw(st.lists(st.sampled_from(keys), max_size=4)):
        if sect != section:
            lines.append(f"[{sect}]")
            section = sect
        value = draw(st.one_of(_VALUES, st.sampled_from(["", "1e", "%", "%(x)s", "--1"])))
        lines.append(f"{key} = {value}")
    return "\n".join(lines) + "\n"


def _run(workdir, argv, ini):
    """main(argv), with ini (if any) as --config: its exit code, stdout and
    stderr, and the heap peak of the call."""
    if ini is not None:
        path = os.path.join(workdir, "planner.ini")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(ini)
        argv = ["--config", path, *argv]
    out, err = io.StringIO(), io.StringIO()
    tracemalloc.start()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = main(argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return rc, out.getvalue(), err.getvalue(), peak


def _check(workdir, rc, stdout, stderr, peak, table=None):
    assert rc in (0, 2, 3, 4), stderr
    assert not _NONFINITE.search(stdout), stdout
    assert peak < _HEAP_BOUND
    assert not [name for name in os.listdir(workdir) if name.endswith(".tmp")]
    if rc:
        assert stdout == ""
        assert re.fullmatch(r"error\[[a-z]+\]: [^\n]*\n", stderr), stderr
        assert table is None or not os.path.exists(table)
    elif table is not None:
        with open(table, encoding="utf-8") as fh:
            cells = [cell for line in fh if not line.startswith("#")
                     for cell in line.rstrip("\n").split(",")]
        assert all(map(_finite_or_text, cells)), cells


def _finite_or_text(cell):
    try:
        return math.isfinite(float(cell))
    except ValueError:
        return True  # a quantity's name or unit


def _flags(draw, names):
    """Each flag with a drawn value, or left out if optional (None default)."""
    argv = []
    for name, default in names:
        value = draw(st.one_of(st.just(default), _VALUES))
        if value is not None:
            argv += [name, value]
    return argv


@pytest.fixture(scope="module")
def warmed():
    """One run of each command first, so the heap bound sees no import or
    first-use cache."""
    with tempfile.TemporaryDirectory() as workdir:
        _run(workdir, ["coverage", "--out", os.path.join(workdir, "c.csv")], "[model]\n")
        _run(workdir, _PLANNERS["geometry"], None)


@settings(max_examples=150, deadline=2000)
@given(data=st.data(), with_table=st.booleans(), ini=st.one_of(st.none(), _ini()))
def test_coverage_ends_in_a_finite_report_or_an_error(warmed, data, with_table, ini):
    argv = ["coverage", *_flags(data.draw, [("--fit-n", "-4.09"), ("--fit-r0", "-23.4")])]
    with tempfile.TemporaryDirectory() as workdir:
        table = os.path.join(workdir, "coverage.csv") if with_table else None
        rc, stdout, stderr, peak = _run(workdir, argv + (["--out", table] if table else []), ini)
        _check(workdir, rc, stdout, stderr, peak, table)


@settings(max_examples=150, deadline=2000)
@given(data=st.data(), ini=st.one_of(st.none(), _ini()))
def test_geometry_ends_in_a_finite_report_or_an_error(warmed, data, ini):
    argv = ["geometry", *_flags(data.draw, [
        ("--height", "17.4"), ("--width", "8"), ("--distance", "63"), ("--rx-depth", "5"),
        ("--psi", None)])]
    with tempfile.TemporaryDirectory() as workdir:
        _check(workdir, *_run(workdir, argv, ini))


# Regression cases the property test found.


@pytest.mark.parametrize("text, message", [
    (b"psi_rad = 0.1\n", "File contains no section headers."),
    (b"[model]\npsi_rad = 0.1\npsi_rad = 0.2\n", "option 'psi_rad' in section 'model' already"),
    (b"[model]\n[model]\n", "section 'model' already exists"),
    (b"[model]\npsi_rad\n", "Source contains parsing errors"),
    (b"[model]\npsi_rad = 0.\xff\n", "'utf-8' codec can't decode byte 0xff"),
    (b"[model]\npsi_rad = %\n", "bad value for [model] psi_rad: could not convert string "
                                 "to float: '%'"),
    (b"[model]\npsi_rad = %(x)s\n", "bad value for [model] psi_rad: could not convert "),
], ids=["no-section", "repeated-key", "repeated-section", "no-value", "not-utf-8", "bare-percent",
        "percent-name"])
@pytest.mark.parametrize("command", sorted(_PLANNERS))
def test_unparsable_config_file_is_config_error(tmp_path, capsys, command, text, message):
    ini = tmp_path / "bad.ini"
    ini.write_bytes(text)
    assert main(["--config", str(ini), *_PLANNERS[command]]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert re.fullmatch(r"error\[config\]: [^\n]*\n", captured.err)
    assert message in captured.err


@pytest.mark.parametrize("ini, message", [
    ("spectral_efficiency_bps_hz = 1e308", "spectral efficiency x bandwidth overflows a float"),
    ("bandwidth_hz = 1e308", "spectral efficiency x bandwidth overflows a float"),
    ("tx_power_dbm_per_pol = 1e308\ntx_antenna_gain_dbi = 1e308",
     "the link budget's dB terms sum beyond the float range"),
    ("required_snr_db = -1e308\nshadow_margin_db = -1e308",
     "the link budget's dB terms sum beyond the float range"),
], ids=["efficiency", "bandwidth", "eirp", "margins"])
@pytest.mark.parametrize("command", sorted(_PLANNERS))
def test_link_budget_beyond_the_float_range_is_domain_error(tmp_path, capsys, command, ini,
                                                            message):
    path = tmp_path / "budget.ini"
    path.write_text(f"[linkbudget]\n{ini}\n", encoding="utf-8")
    assert main(["--config", str(path), *_PLANNERS[command]]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error[domain]: {message}\n"
