"""Byte identity: the digests of every output of the CLI on a small campaign.

`synth` writes a small but complete campaign (both layouts, vehicle on the
dense grid, 16 angles); every analysis command runs on each CSV, and the
planner commands and `--print-default-config` run once.  The sha256 of each
campaign CSV, each table and each command's stdout, provenance lines dropped
by the bench's own rule (`perfbench/checks.py`), must equal the recorded
digests in `golden_digests.json`.  A refactor that moves the last digit of
any output fails here.  Equivalent spellings of each campaign CSV (a
byte-order mark, CRLF, comment lines, shuffled rows; quoted tx_ids and a
split scan for the row reader) must give the same digests, tables and
stdout alike, parsed and from their own sidecars.

Re-recording the digests changes the expected outputs, so it needs a reason:

    PYTHONPATH=src python tests/test_golden.py
"""

import codecs
import hashlib
import importlib.util
import itertools
import json
import math
import os
import random
import sys
from pathlib import Path

import pytest

from portcanyon import dataio
from portcanyon.cli import main
from portcanyon.dataio import SIDECAR_SUFFIX

GOLDEN = Path(__file__).with_name("golden_digests.json")
_CHECKS = Path(__file__).resolve().parent.parent / "perfbench" / "checks.py"
_spec = importlib.util.spec_from_file_location("_perfbench_checks", _CHECKS)
checks = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(checks)


def _digest(data: bytes) -> str:
    return hashlib.sha256(checks.normalized(data)).hexdigest()


def _commands():
    calls = [["--print-default-config"]]
    for layout in ("uniform", "nonuniform"):
        csv = f"{layout}.csv"
        calls += [
            ["synth", "--layout", layout, "--vehicle-mode", "dense", "--seed", "5",
             "--n-angles", "16", "--out", csv],
            ["angular", "--input", csv, "--out-dir", f"{layout}/angular"],
            ["spatial", "--input", csv, "--out", f"{layout}/correlation.csv"],
            ["vehicle", "--input", csv, "--out-dir", f"{layout}/vehicle"],
            ["fit", "--input", csv, "--out", f"{layout}/fit.csv"],
            ["fit", "--input", csv, "--out", f"{layout}/fit_slope4.csv", "--fixed-slope", "-4"],
        ]
    calls += [
        ["coverage", "--out", "coverage.csv"],
        ["geometry", "--height", "17.4", "--width", "8", "--distance", "63", "--rx-depth", "5"],
    ]
    return calls


CAMPAIGNS = {argv[-1] for argv in _commands() if argv[0] == "synth"}


def respell(path, row_reader=False) -> None:
    """Rewrite the campaign CSV at path in place in an equivalent spelling: a
    byte-order mark, CRLF line ends, comment lines before the header and each
    scan's rows shuffled, which the columnar reader reads.  With row_reader,
    every 7th scan's tx_id is quoted too and scan 1 is split in two runs
    around scan 2, which keeps the order of first appearance; the row reader
    reads that."""
    provenance, header, *rows = Path(path).read_text(encoding="ascii").splitlines()
    scans = [list(scan) for _, scan in itertools.groupby(
        rows, lambda row: row.split(",")[:3] + row.split(",")[5:])]
    rng = random.Random(7)
    for scan in scans:
        rng.shuffle(scan)
    if row_reader:
        for scan in scans[::7]:
            scan[:] = ['"' + row.replace(",", '",', 1) for row in scan]
        half = len(scans[1]) // 2
        scans[1:3] = [scans[1][:half], scans[2], scans[1][half:]]
    lines = ["# respelled", provenance, "#", header] + list(itertools.chain(*scans))
    Path(path).write_bytes(codecs.BOM_UTF8 + ("\r\n".join(lines) + "\r\n").encode("ascii"))


def run_digests(workdir, read_stdout, parse=False, spell=None) -> dict:
    """Run every command in workdir (paths relative to it) and digest each
    output file, sidecars aside, and each command's stdout.  With parse, the
    sidecar `synth` saves is deleted, so each CSV's first ingest parses it
    and the later ones read the sidecar that parse saved; spell(path), if
    given, rewrites each CSV after `synth` and deletes its sidecar too."""
    digests = {}
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        for i, argv in enumerate(_commands()):
            rc = main(argv)
            assert rc == 0, argv
            if (parse or spell) and argv[0] == "synth":
                if spell:
                    spell(argv[-1])
                os.unlink(argv[-1] + SIDECAR_SUFFIX)
            digests[f"stdout/{i:02d}-{argv[0]}"] = _digest(read_stdout().encode("utf-8"))
    finally:
        os.chdir(cwd)
    for path in sorted(Path(workdir).rglob("*")):
        if path.is_file() and not path.name.endswith(SIDECAR_SUFFIX):
            digests[path.relative_to(workdir).as_posix()] = _digest(path.read_bytes())
    return digests


def test_outputs_match_golden_digests(tmp_path, capsys, parse=False):
    # By default every command reads the sidecar `synth` saved.
    got = run_digests(tmp_path, lambda: capsys.readouterr().out, parse)
    want = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert sorted(got) == sorted(want)
    assert [key for key in want if got[key] != want[key]] == []


def test_outputs_match_golden_digests_in_small_blocks(tmp_path, capsys, monkeypatch):
    # Each CSV's first ingest parses it in blocks of 997 bytes, a dozen rows
    # or so: scans and lines straddle the block boundaries.
    monkeypatch.setattr(dataio, "_BLOCK_BYTES", 997)
    test_outputs_match_golden_digests(tmp_path, capsys, parse=True)


@pytest.mark.parametrize("reader", ["columnar", "rows"])
def test_equivalent_spellings_match_golden_digests(tmp_path, capsys, monkeypatch, reader):
    # Parsed in blocks of 997 bytes, so some blocks end in the CR of a CRLF.
    monkeypatch.setattr(dataio, "_BLOCK_BYTES", 997)
    parses = []
    for name in ("_ingest_columnar", "_ingest_rows"):
        monkeypatch.setattr(dataio, name, lambda path, read=getattr(dataio, name), name=name:
                            parses.append(name) or read(path))
    got = run_digests(tmp_path, lambda: capsys.readouterr().out,
                      spell=lambda path: respell(path, reader == "rows"))
    want = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert sorted(got) == sorted(want)
    assert [key for key in want if (got[key] == want[key]) == (key in CAMPAIGNS)] == []
    # Each CSV is parsed once, cold, by its reader; the sidecar that parse
    # saved serves the other four commands on it.
    assert parses == (["_ingest_columnar"] * 2 if reader == "columnar"
                      else ["_ingest_columnar", "_ingest_rows"] * 2)


# Each command's exit code and one digest over its stdout and every table,
# as the per-scan matrices give them, on `one_bit_grid_outcomes`'s files.
ONE_BIT_GRIDS = {
    "negative zero start": ({"angular": 0, "vehicle": 0, "fit": 0},
                            "1ee112ee29217bc31e8f1878eee6f011d4eb79682ac298786460d1ca2fc2ebe0"),
    "offset transmitter": ({"angular": 0, "vehicle": 3, "fit": 0},
                           "02ef7d12125c044c434fde7bbd029d8346b451fc0038999899d4279cd77c6eed"),
}


def one_bit_grid_outcomes(workdir, read_stdout, case) -> tuple:
    """Each command's exit code, and one digest over its stdout and every
    file in workdir, for `angular`, `vehicle` and `fit` on the 16-angle
    dense uniform campaign, with one scan's or one transmitter's grid
    changed: case "negative zero start" spells the first position1 scan's
    first angle -0.0, a grid that differs from 0.0 in one bit only, and
    "offset transmitter" turns every scan of the last transmitter in the
    file by 1e-3 rad."""
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        assert main(["synth", "--layout", "uniform", "--vehicle-mode", "dense", "--seed", "5",
                     "--n-angles", "16", "--out", "campaign.csv"]) == 0
        read_stdout()
        os.unlink("campaign.csv" + SIDECAR_SUFFIX)
        provenance, header, *rows = Path("campaign.csv").read_text(encoding="ascii").splitlines()
        fields = [row.split(",") for row in rows]
        if case == "negative zero start":
            at = next(i for i, row in enumerate(fields) if row[5] == "position1")
            assert fields[at][3] == "0.0"
            fields[at][3] = "-0.0"
        else:
            for row in fields:
                if row[0] == fields[-1][0]:
                    row[3] = repr(float(row[3]) + math.degrees(1e-3))
        Path("campaign.csv").write_text("\n".join([provenance, header, *map(",".join, fields)])
                                        + "\n", encoding="ascii")
        codes, digest = {}, hashlib.sha256()
        for argv in (["angular", "--input", "campaign.csv", "--out-dir", "angular"],
                     ["vehicle", "--input", "campaign.csv", "--out-dir", "vehicle"],
                     ["fit", "--input", "campaign.csv", "--out", "fit.csv"]):
            codes[argv[0]] = main(argv)
            digest.update(_digest(read_stdout().encode("utf-8")).encode("ascii"))
    finally:
        os.chdir(cwd)
    for path in sorted(Path(workdir).rglob("*")):
        if path.is_file() and not path.name.endswith(SIDECAR_SUFFIX):
            digest.update(f"{path.relative_to(workdir).as_posix()}:{_digest(path.read_bytes())}"
                          .encode("ascii"))
    return codes, digest.hexdigest()


@pytest.mark.parametrize("case", sorted(ONE_BIT_GRIDS))
def test_grids_that_differ_in_a_bit_give_the_per_scan_outcomes(tmp_path, capsys, case):
    # Such a campaign's set holds a grid per scan, not one broadcast grid.
    assert one_bit_grid_outcomes(tmp_path, lambda: capsys.readouterr().out,
                                 case) == ONE_BIT_GRIDS[case]
    assert dataio.ingest(tmp_path / "campaign.csv").angles.strides[0] != 0


if __name__ == "__main__":
    import contextlib
    import io
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        out = io.StringIO()

        def read_stdout():
            text = out.getvalue()
            out.seek(0)
            out.truncate()
            return text

        with contextlib.redirect_stdout(out):
            digests = run_digests(tmp, read_stdout)
    GOLDEN.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {len(digests)} digests to {GOLDEN}", file=sys.stderr)
