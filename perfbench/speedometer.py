"""Speed probe: how fast the benchmark's CPU runs, sampled through a run.

    python3 perfbench/speedometer.py CPU OUT

Pinned to CPU, the one every CLI child runs on, it times a fixed unit of
pure-Python work every INTERVAL_S seconds and appends "start duration" lines
(time.perf_counter seconds) to OUT until it is terminated.  Waking from a
sleep, it runs between the child's time slices and takes about 2% of the
CPU.  A shared host's speed drifts per CPU by tens of percent within
seconds; the unit's duration tracks that drift, and `speed_scaled` divides
it out of every timed step.
"""

import os
import random
import statistics
import sys
import time

INTERVAL_S = 0.05
# The unit's time at the reference speed, that of a 2-core Intel Xeon host in
# its fast state.  Reported times are seconds at this speed.
REFERENCE_UNIT_S = 0.0005
TRIM = 0.1  # share of readings dropped at each end (a probe cut by a switch)
MIN_SAMPLES = 5


def make_unit():
    """A fixed unit of two kinds of work the CLI does, about half each:
    integer arithmetic and floats parsed from text.  Against the analysis
    commands, the mix tracked their slow-downs better than either part.  Its
    data is small (some 50 KB), so what the child left in the caches changes
    its time little."""
    rng = random.Random(20230905)
    texts = [repr(rng.uniform(-90.0, -40.0)) for _ in range(800)]

    def unit() -> float:
        total = 0.0
        for i in range(7_000):
            total += i
        for text in texts:
            total += float(text)
        return total

    return unit


def read_samples(path) -> list:
    """(start, duration) pairs from OUT; a line cut short by a write is skipped."""
    samples = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            fields = line.split()
            if len(fields) == 2:
                samples.append((float(fields[0]), float(fields[1])))
    return samples


def speed_scaled(samples, start: float, end: float) -> float:
    """Seconds the step [start, end] would take at the reference speed.

    Each probe started in the step reads the relative speed
    REFERENCE_UNIT_S / duration; the wall time is multiplied by the trimmed
    mean of those readings, so a step run while the host is slow is counted
    as the work it did, not the time it waited.
    """
    readings = sorted(REFERENCE_UNIT_S / d for t, d in samples if start <= t <= end)
    if len(readings) < MIN_SAMPLES:
        raise RuntimeError(
            f"speed probe: {len(readings)} samples in a {end - start:.3f} s step")
    cut = int(len(readings) * TRIM)
    return (end - start) * statistics.fmean(readings[cut:len(readings) - cut])


def main(cpu: int, out_path: str) -> None:
    os.sched_setaffinity(0, {cpu})
    unit = make_unit()
    clock = time.perf_counter
    with open(out_path, "w", encoding="utf-8") as out:
        while True:
            start = clock()
            unit()
            out.write(f"{start:.6f} {clock() - start:.7f}\n")
            out.flush()
            time.sleep(INTERVAL_S)


if __name__ == "__main__":
    main(int(sys.argv[1]), sys.argv[2])
