"""Peak and anonymous memory growth of one call in a new process, for the
memory regression tests.

Both are read from /proc/self/status before and after the call, in a new
interpreter: `ru_maxrss` keeps the peak of the process that forked the child,
so it cannot see a child smaller than the test run.  The peak is VmHWM: it
counts file-backed pages too (code paged in on first use), and it only rises
above what setup already reached.  The anonymous growth is RssAnon after the
call less before it: the heap and mappings the call leaves resident, its
tables and what the allocator keeps, without the file pages.
"""

import os
import subprocess
import sys
from typing import NamedTuple

import portcanyon

HAS_VMHWM = os.path.exists("/proc/self/status")

_CHILD = """import sys
def kib(field):
    with open('/proc/self/status') as fh:
        return int(next(v.split()[1] for v in fh if v.startswith(field + ':')))
{setup}
before = kib('VmHWM'), kib('RssAnon')
{call}
print(kib('VmHWM') - before[0], kib('RssAnon') - before[1])
"""


class Growth(NamedTuple):
    """What one call grows, in KiB: the peak RSS (VmHWM) and the anonymous
    memory left resident (RssAnon)."""

    peak_kib: int
    anon_kib: int


def growth_kib(setup, call, *argv) -> Growth:
    """How much `call` grows the peak RSS and the anonymous memory of a new
    interpreter that has run `setup`; both are Python source, and argv is the
    child's sys.argv[1:]."""
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(portcanyon.__file__)))
    return Growth(*map(int, subprocess.run(
        [sys.executable, "-c", _CHILD.format(setup=setup, call=call), *map(str, argv)],
        env=env, capture_output=True, text=True, check=True).stdout.split()))


def ingest_peak_kib(path) -> int:
    """How much one `dataio.ingest` of path grows the peak RSS, in KiB."""
    return growth_kib("from portcanyon.dataio import ingest", "ingest(sys.argv[1])", path).peak_kib


def command_peak_kib(*argv) -> int:
    """How much one CLI command, with all its modules imported first, grows
    the peak RSS, in KiB; the command must exit 0."""
    return growth_kib("import contextlib\nfrom portcanyon import cli",
                      "with contextlib.redirect_stdout(sys.stderr):\n"
                      "    assert cli.main(sys.argv[1:]) == 0", *argv).peak_kib


def table_growth_kib(path, rows) -> Growth:
    """How much one `dataio.write_table` of a (rows x 3) float table, shaped
    as `vehicle`'s CDF tables, grows the peak RSS and the anonymous memory; a
    10-row write of the same columns runs first, so the formatter's one-time
    import does not count."""
    setup = ("import numpy as np\n"
             "from portcanyon.dataio import write_table\n"
             "n = int(sys.argv[2])\n"
             "rng = np.random.default_rng(0)\n"
             "columns = (np.sort(rng.normal(0.0, 3.0, n)), np.arange(1, n + 1) / n,\n"
             "           np.sort(rng.random(n)))\n"
             "write_table(sys.argv[1], ('x', 'p', 'q'), [col[:10] for col in columns])")
    return growth_kib(setup, "write_table(sys.argv[1], ('x', 'p', 'q'), columns)", path, rows)
