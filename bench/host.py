"""Host speed, measured by a fixed kernel timed around every operation.

On a shared host the speed of one vCPU swings by up to ~1.8x within a
minute, in phases that last from under a second to tens of seconds.  CPU
time swings with it.  A fixed kernel timed right before and right after an
operation slows down with the operation, so

    normalized seconds = wall seconds * REF_S / kernel seconds

is the operation's time on a host where the kernel takes ``REF_S``.  The
kernel is the benchmark's own code, never the program's, so a change to the
program moves the normalized time as much as the wall time.  It mixes a
pure-Python loop, many small numpy calls, and BLAS and elementwise passes
over a 400 x 400 array.  The import time, which has no samples of its own
around it, is normalized by the run's median kernel time.  The evidence is
in ``bench/README.md``.
"""

import time

import numpy as np

REF_S = 0.020   # kernel seconds at the reference speed, near the median on a 2 vCPU Xeon VM
PASSES = 3      # kernel passes per sample

_BIG = np.random.default_rng(0).standard_normal((400, 400))


def kernel():
    """One pass of the fixed kernel (~20 ms on a 2 vCPU Xeon host)."""
    acc = 0
    for i in range(30000):
        acc += i * i % 7
    a = np.arange(300.0)
    for _ in range(750):
        a = np.abs(a - 1.0) * 0.5 + a.mean()
    for _ in range(3):
        b = _BIG @ _BIG
        b = np.exp(-np.abs(b)) * _BIG
    return acc + float(a[0] + b[0, 0])


def kernel_seconds():
    """Mean wall time of ``PASSES`` kernel passes."""
    t0 = time.perf_counter()
    for _ in range(PASSES):
        kernel()
    return (time.perf_counter() - t0) / PASSES
