"""Machine-speed calibration for timings on a shared, fluctuating CPU.

On a shared host the same pass of the same inputs can take anywhere from 1x
to 2x its best time, in phases lasting from a second to minutes, and the
process is on the CPU the whole time (its CPU time equals its wall time), so
the slowdown is the core running slower, not the process waiting. To keep
runs comparable, a fixed reference kernel is timed before the first
operation of a pass and after every operation, and each operation's wall
time is rescaled by

    KERNEL_REF_S / (mean of the kernel times just before and just after it),

which gives the time the operation would take on a machine where the kernel
runs in ``KERNEL_REF_S``. The kernel does what the library's hot path does:
numpy calls on 15-point arrays, driven from a Python loop. It is part of the
benchmark, so no change to the library can move it.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

# Kernel time, in seconds, that defines the reference speed: the median
# measured on a 2-core Intel Xeon guest (Python 3.11, numpy 2.4).
KERNEL_REF_S = 0.040
_REPS = 4000
_X = np.linspace(0.05, 3.0, 15)
_W = np.linspace(0.2, 1.0, 15)


def kernel_seconds() -> float:
    """Run the reference kernel once; return its wall time."""
    start = perf_counter()
    acc = 0.0
    for i in range(_REPS):
        k = np.sqrt(_X * _X + (0.25 + 1e-6 * i))
        e = np.exp(-2.0 * k)
        r = (k - 0.5) / (k + 0.5)
        acc += float(_W @ (_X * r * e / (1.0 - r * r * e)))
    elapsed = perf_counter() - start
    if not np.isfinite(acc):
        raise ArithmeticError("reference kernel produced a non-finite sum")
    return elapsed


def factor(kernel_times) -> float:
    """Factor taking a time measured between ``kernel_times`` to reference
    speed."""
    return KERNEL_REF_S * len(kernel_times) / sum(kernel_times)
