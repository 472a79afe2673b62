"""Child launcher: runs one command per request line and reports its usage.

    python3 perfbench/launcher.py CPU

Request (one JSON line on stdin):  {"argv": [...], "stdout": path, "stderr": path}
Reply   (one JSON line on stdout): {"start": ..., "end": ..., "exit_code": ...,
                                    "max_rss_kb": ...}  (start/end: time.perf_counter)

Linux reports a child's maximum RSS as at least the memory high-water mark of
the process that forked it.  The benchmark reads large outputs to check them,
so it forks nothing itself: this small process, started before any large
read, forks every child, and the RSS it reports is the child's own.  It pins
itself, and so every child, to CPU: the one the speed probe samples.
"""

import json
import os
import subprocess
import sys
import threading
import time

TIMEOUT_S = 150.0


def main(cpu: int) -> None:
    os.sched_setaffinity(0, {cpu})
    for line in sys.stdin:
        request = json.loads(line)
        with open(request["stdout"], "wb") as out, open(request["stderr"], "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(request["argv"], stdout=out, stderr=err)
            killer = threading.Timer(TIMEOUT_S, proc.kill)
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                killer.cancel()
            end = time.perf_counter()
        proc.returncode = os.waitstatus_to_exitcode(status)  # reaped by wait4
        reply = {"start": start, "end": end, "exit_code": proc.returncode,
                 "max_rss_kb": usage.ru_maxrss}
        sys.stdout.write(json.dumps(reply) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main(int(sys.argv[1]))
