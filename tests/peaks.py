"""Peak memory of one call in a new process, for the memory regression tests.

The peak is read as VmHWM from /proc/self/status before and after the call,
in a new interpreter: `ru_maxrss` keeps the peak of the process that forked
the child, so it cannot see a child smaller than the test run.
"""

import os
import subprocess
import sys

import portcanyon

HAS_VMHWM = os.path.exists("/proc/self/status")

_CHILD = """import sys
def peak_kib():
    with open('/proc/self/status') as fh:
        return int(next(v.split()[1] for v in fh if v.startswith('VmHWM:')))
{setup}
before = peak_kib()
{call}
print(peak_kib() - before)
"""


def peak_growth_kib(setup, call, *argv) -> int:
    """How much `call` grows the peak RSS of a new interpreter that has run
    `setup`, in KiB; both are Python source, and argv is the child's
    sys.argv[1:]."""
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(portcanyon.__file__)))
    return int(subprocess.run(
        [sys.executable, "-c", _CHILD.format(setup=setup, call=call), *map(str, argv)],
        env=env, capture_output=True, text=True, check=True).stdout)


def ingest_peak_kib(path) -> int:
    """How much one `dataio.ingest` of path grows the peak RSS, in KiB."""
    return peak_growth_kib("from portcanyon.dataio import ingest", "ingest(sys.argv[1])", path)


def command_peak_kib(*argv) -> int:
    """How much one CLI command, with all its modules imported first, grows
    the peak RSS, in KiB; the command must exit 0."""
    return peak_growth_kib("import contextlib\nfrom portcanyon import cli",
                           "with contextlib.redirect_stdout(sys.stderr):\n"
                           "    assert cli.main(sys.argv[1:]) == 0", *argv)


def table_peak_kib(path, rows) -> int:
    """How much one `dataio.write_table` of a (rows x 3) float table, shaped
    as `vehicle`'s CDF tables, grows the peak RSS, in KiB; a 10-row write of
    the same columns runs first, so the formatter's one-time import does not
    count."""
    setup = ("import numpy as np\n"
             "from portcanyon.dataio import write_table\n"
             "n = int(sys.argv[2])\n"
             "rng = np.random.default_rng(0)\n"
             "columns = (np.sort(rng.normal(0.0, 3.0, n)), np.arange(1, n + 1) / n,\n"
             "           np.sort(rng.random(n)))\n"
             "write_table(sys.argv[1], ('x', 'p', 'q'), [col[:10] for col in columns])")
    return peak_growth_kib(setup, "write_table(sys.argv[1], ('x', 'p', 'q'), columns)", path, rows)
