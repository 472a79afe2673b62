"""Property test of `synth`, run in process through `cli.main`: drawn flag
values and [synth] and [model] config files end in a finite dataset or a
categorized error (exit 2, 3 or 4), never a traceback, within a bounded heap;
a failing run prints and leaves nothing: no CSV, no sidecar, no temporary
file."""

import os
import re
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_analysis_properties import _NONFINITE, _run
from test_planner_properties import _VALUES, _ini

from portcanyon.dataio import SIDECAR_SUFFIX

# The peak Python and numpy heap of one call: 1.3-1.5 MB for the largest
# campaign drawn here (uniform stacking, vehicle on the dense grid: 2,100
# scans of 16 angles).  Nothing may grow with a drawn value beyond that.
_HEAP_BOUND = 4 << 20

# Angle counts up to 16, valid ones as often as not, and one above
# `MAX_N_ANGLES`, which `SynthConfig` rejects before anything is allocated.
# Nothing in between: the dense campaign at 36,000 angles holds about 0.6 GB.
# (An INI file's n_angles is drawn from `_VALUES`, whose only integers are 0
# and +-1.)
_N_ANGLES = st.one_of(st.integers(8, 16).map(str), st.sampled_from(["-1", "0", "7", "36001"]))


@pytest.fixture(scope="module")
def warmed():
    """One passing run first, so the heap bound sees no import or first-use
    cache."""
    with tempfile.TemporaryDirectory() as workdir:
        out = os.path.join(workdir, "d.csv")
        assert _run(["synth", "--layout", "uniform", "--n-angles", "8", "--out", out])[0] == 0


@settings(max_examples=40, deadline=5000)
@given(data=st.data(), ini=st.one_of(st.none(), _ini(("synth", "model"))))
def test_synth_ends_in_a_finite_dataset_or_an_error(warmed, data, ini):
    argv = ["synth", "--layout", data.draw(st.sampled_from(["uniform", "nonuniform"])),
            "--vehicle-mode", data.draw(st.sampled_from(["none", "dense"])),
            "--n-angles", data.draw(_N_ANGLES)]
    for name, values in (("--hpbw-deg", _VALUES), ("--gain-offset-db", _VALUES),
                         ("--seed", st.integers(-1, 2**70).map(str))):
        value = data.draw(st.one_of(st.none(), values))
        if value is not None:
            argv += [name, value]
    if data.draw(st.booleans()):
        argv.append("--no-fading")
    with tempfile.TemporaryDirectory() as workdir:
        out = os.path.join(workdir, "d.csv")
        if ini is not None:
            config = os.path.join(workdir, "synth.ini")
            with open(config, "w", encoding="utf-8") as fh:
                fh.write(ini)
            argv = ["--config", config, *argv]
        rc, stdout, stderr, peak = _run([*argv, "--out", out])
        assert rc in (0, 2, 3, 4), stderr
        assert not _NONFINITE.search(stdout), stdout
        assert peak < _HEAP_BOUND, peak
        assert not [name for name in os.listdir(workdir) if name.endswith(".tmp")]
        if rc:
            assert stdout == ""
            assert re.fullmatch(r"error\[[a-z]+\]: [^\n]*\n", stderr), stderr
            assert not os.path.exists(out)
            assert not os.path.exists(out + SIDECAR_SUFFIX)
        else:
            with open(out, encoding="utf-8") as fh:
                text = fh.read()
            assert not _NONFINITE.search(text)
