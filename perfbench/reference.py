"""A fixed reference computation that gauges the host's speed at this moment.

On a shared host the time of one and the same operation swings between
levels up to 1.9x apart, for seconds or for a whole run, as other tenants'
load comes and goes; CPU time swings with wall time, so the core itself is
slower, not taken away. The harness runs this loop right before each
operation and divides operation time by loop time: the host's speed cancels
and the ratio follows the program. A CLI operation is mostly interpreter
start-up and imports, which slow down less than a hot loop does, so the CLI
workload is gauged by a fresh process that imports numpy and runs the loop,
and so is the set-up time, which is a fresh process too.

The loop is the same kind of work as the program's (a Python-level explicit
integrator over a small numpy vector, with a symmetric eigensolve every few
steps) but shares no code with it, so no change to the program moves it.
"""

import subprocess
import sys
import time
from pathlib import Path

import numpy as np

_STEPS = 120
_X0 = np.linspace(0.5, 4.0, 11)
PROCESS_LOOPS = 2  # loops a reference process runs after importing numpy
# a reference process's wall time on a quiet 2-CPU cloud container (x86-64,
# Python 3.11, numpy 2): the host speed that setup_s is scaled to
PROCESS_S = 0.3


def reference_loop() -> float:
    """Integrate a fixed tridiagonal flow; return a value that uses every step."""
    x = _X0.copy()
    h = 1e-3
    acc = 0.0
    for step in range(_STEPS):
        k1 = x * (np.roll(x, 1) - np.roll(x, -1))
        y = x + 0.5 * h * k1
        k2 = y * (np.roll(y, 1) - np.roll(y, -1))
        x = x + h * k2
        if step % 8 == 0:
            acc += float(np.linalg.eigvalsh(np.diag(x, 1) + np.diag(x, -1))[-1])
    return acc


def reference_seconds(calls: int) -> float:
    """Wall time of ``calls`` back-to-back reference loops."""
    t0 = time.perf_counter()
    for _ in range(calls):
        reference_loop()
    return time.perf_counter() - t0


def reference_process_seconds(cwd: Path) -> float:
    """Wall time of a fresh Python process that runs PROCESS_LOOPS reference loops."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, str(Path(__file__).resolve()), str(PROCESS_LOOPS)],
                   cwd=cwd, stdin=subprocess.DEVNULL, check=True, timeout=60)
    return time.perf_counter() - t0


if __name__ == "__main__":
    for _ in range(int(sys.argv[1])):
        reference_loop()
