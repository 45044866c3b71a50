"""Host-speed calibration: end-to-end times at a fixed reference speed.

The benchmark runs on a few cores of a shared host whose speed swings by up
to 2x for seconds to minutes (clock changes and neighbours on the same
cores), far more than any change worth measuring. Longer runs do not average
that away. So every timed operation is paired with a calibration measured
right beside it, from the benchmark's own code, which no change to the
program can move:

- in-process work (set-up, a campaign pass, a batch of drops) with the time
  of `kernel()`, a fixed pure-Python loop of the interpreter operations the
  program uses (calls, float arithmetic, string splitting and parsing, dicts);
- a CLI subprocess with the time of a bare `python -c pass`, a subprocess
  that pays the same fork, exec and interpreter start-up.

A reported time is the measured time scaled by reference / calibration: the
time the operation takes on a host that runs the calibration in the
reference time. Rates are scaled the other way. The reference constants are
the calibrations' typical times on a 2-vCPU 2.1 GHz Xeon host; they only set
the scale. The kernel runs with the garbage collector off, so that the
program's heap does not change its time. The raw wall-clock figures are kept
in the results file beside the scaled ones.
"""

from __future__ import annotations

import gc
import math
import time

KERNEL_REF_S = 0.006    # one kernel() call on the reference host
FLOOR_REF_S = 0.060     # one `python -c pass` on the reference host
KERNEL_ITERATIONS = 4000


def _step(value: float) -> float:
    return value * 1.0001 + 0.5


def kernel() -> float:
    """A fixed loop of the interpreter operations the program's hot paths use."""
    acc = 0.0
    table: dict[str, float] = {}
    for i in range(KERNEL_ITERATIONS):
        fields = f"{i},{i * 0.5:.3f},s{i & 7}".split(",")
        value = float(fields[1])
        key = fields[2]
        table[key] = table.get(key, 0.0) + math.sqrt(value + 1.0)
        acc += _step(value)
    return acc + sum(table.values())


def kernel_s(repeats: int) -> float:
    """Seconds per kernel() call, over `repeats` calls made now."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        started = time.perf_counter()
        for _ in range(repeats):
            kernel()
        return (time.perf_counter() - started) / repeats
    finally:
        if enabled:
            gc.enable()


def at_reference(seconds: float, calibration_s: float, reference_s: float) -> float:
    """A measured time scaled to the reference host speed."""
    return seconds * reference_s / calibration_s
