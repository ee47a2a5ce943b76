"""Fixed reference work that measures the machine's current speed.

The host this benchmark was built on changes speed by up to 2x in phases
that last from a second to minutes, and process CPU time slows with it, so
no statistic over one run's own rounds can remove the shift.  The benchmark
therefore times a fixed reference alongside every timed step and scales the
step's wall time to the speed at which the reference takes its nominal time:

    scaled = wall * nominal / mean(reference times around and during the step)

Solve steps use reference(), the same mix as a starflow step: numpy calls on
small arrays, whose cost is call overhead, and five-point stencils on a
64x128 grid, whose cost is memory throughput.  The worker runs it right
before and after each command and every SAMPLE_EVERY_S seconds during it,
from a timer signal, and takes those passes out of the command's wall time.
Set-up steps, fresh interpreters that import starflow, use
reference_start(), a fresh interpreter that imports numpy only, right before
and after each.  Neither reference changes with starflow's code, so a change
to starflow moves the scaled time as it moves the wall time.
"""

from __future__ import annotations

import statistics
import subprocess
import sys
import time

import numpy as np

REPS = 250
# seconds of one call of reference() on the reference machine (2-core x86-64
# sandbox, Python 3.11.7, numpy 2.4.6) in a fast phase
NOMINAL_S = 0.036
# wall seconds between passes of reference() during a timed command
SAMPLE_EVERY_S = 0.5
# seconds of one reference_start() on the same machine
START_NOMINAL_S = 0.18


def reference() -> float:
    """Seconds taken by one pass of the fixed kernel."""
    x = np.linspace(0.1, 3.0, 48)
    y = np.linspace(0.0, 1.0, 66 * 130).reshape(66, 130)
    acc = 0.0
    t0 = time.perf_counter()
    for _ in range(REPS):
        a = np.sin(x) * 0.5 + x * x
        b = np.diff(a, prepend=a[0])
        c = np.cumsum(b) / (1.0 + a)
        acc += float(np.sqrt(np.abs(c) + 1.0).sum())
        lap = y[2:, 1:-1] + y[:-2, 1:-1] + y[1:-1, 2:] + y[1:-1, :-2] - 4.0 * y[1:-1, 1:-1]
        acc += float(np.max(np.hypot(lap, y[1:-1, 1:-1])))
    elapsed = time.perf_counter() - t0
    if not np.isfinite(acc):
        raise ArithmeticError("reference kernel produced a non-finite value")
    return elapsed


def reference_start(env: dict, timeout: float) -> float:
    """Seconds taken by a fresh interpreter that imports numpy and exits."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import numpy"], env=env, check=True,
                   capture_output=True, timeout=timeout)
    return time.perf_counter() - t0


def scale(wall_s: float, refs: list, nominal_s: float = NOMINAL_S) -> float:
    """wall_s at the speed at which the reference takes nominal_s, given the
    reference times taken around and during it."""
    return wall_s * nominal_s / statistics.fmean(refs)
