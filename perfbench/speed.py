"""Machine-speed calibration for the benchmark's timings.

On a shared 2-core VM the host's load switches the speed of pure-Python
code between two levels about 1.8x apart, for seconds to minutes at a
time.  No CPU time is stolen, so process CPU time slows just as much.
Every timing is therefore taken next to ``calibrate()`` and reported in
reference seconds: measured seconds times ``CAL_REF_S / calibrate()``, the
time the work would take on a machine where the kernel runs in CAL_REF_S.
The kernel mixes Fraction arithmetic on small numbers with products of
~2000-bit integers, the two kinds of work in the exact sweeps, the
Bernoulli recursion and mpmath's pure-Python backend.  Averaged over a
few seconds, doublezeta's layers slow by 0.83-0.99 times as much (in log
terms) as this kernel does, against 0.78-0.94 for a Fraction-only
kernel.  It touches no doublezeta state.
"""

from __future__ import annotations

import gc
import time
from fractions import Fraction

# the kernel's time on a 2-core Xeon VM under Python 3.11 while its host
# is quiet (the tenth percentile of 300 readings)
CAL_REF_S = 0.0051


def calibrate() -> float:
    """Seconds for a fixed kernel at the machine's current speed.

    The collector is paused so that garbage left by the previous op is not
    collected, and timed, here.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        for _ in range(3):
            s = Fraction(0)
            for i in range(1, 300):
                s += Fraction(1, i)
        x, y = 3**1500, 7**1200
        for _ in range(200):
            (x * y) // 12345678901234567
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()
