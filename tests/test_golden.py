"""Byte identity: the digests of every output of the CLI on a small campaign.

`synth` writes a small but complete campaign (both layouts, vehicle on the
dense grid, 16 angles); every analysis command runs on each CSV, and the
planner commands and `--print-default-config` run once.  The sha256 of each
campaign CSV, each table and each command's stdout, provenance lines dropped
by the bench's own rule (`perfbench/checks.py`), must equal the recorded
digests in `golden_digests.json`.  A refactor that moves the last digit of
any output fails here.

Re-recording the digests changes the expected outputs, so it needs a reason:

    PYTHONPATH=src python tests/test_golden.py
"""

import hashlib
import importlib.util
import json
import os
import sys
from pathlib import Path

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


def run_digests(workdir, read_stdout) -> dict:
    """Run every command in workdir (paths relative to it) and digest each
    output file, sidecars aside, and each command's stdout."""
    digests = {}
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        for i, argv in enumerate(_commands()):
            rc = main(argv)
            assert rc == 0, argv
            digests[f"stdout/{i:02d}-{argv[0]}"] = _digest(read_stdout().encode("utf-8"))
    finally:
        os.chdir(cwd)
    for path in sorted(Path(workdir).rglob("*")):
        if path.is_file() and not path.name.endswith(SIDECAR_SUFFIX):
            digests[path.relative_to(workdir).as_posix()] = _digest(path.read_bytes())
    return digests


def test_outputs_match_golden_digests(tmp_path, capsys):
    got = run_digests(tmp_path, lambda: capsys.readouterr().out)
    want = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert sorted(got) == sorted(want)
    assert [key for key in want if got[key] != want[key]] == []


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
