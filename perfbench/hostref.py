"""Host-speed reference: a fixed stdlib loop timed between tasks.

On a shared host the speed of one core drifts by 1.5-2x over minutes,
and changes within a second too; every timing moves with it.  A run
therefore times this loop after every task and every set-up, outside
their time, and scales each time by ``NOMINAL_S`` over the loop times
nearest to it (run.py): each time is reported as it would read on a
host where the loop takes ``NOMINAL_S``.  The loop is pure
``fractions`` arithmetic and object allocation, the work qcolour's own
time is made of, so it slows down with the host as the tasks do; it
calls nothing of qcolour, so a change to qcolour cannot move it.  The
collector is off while it runs, so that the size of the program's heap
does not change its time either.
"""

from __future__ import annotations

import gc
import time
from fractions import Fraction

LOOP_N = 1200
# the loop's median time on a 2-core x86-64 host under Python 3.11.7
NOMINAL_S = 0.010


def _loop():
    s = Fraction(0)
    for i in range(1, LOOP_N):
        s += Fraction(i % 97 + 1, i % 89 + 1) * Fraction(3, i % 7 + 1)
        if i % 500 == 0:
            s = Fraction(s.numerator % 1000003, s.denominator % 1000 + 1)
    return s


def sample():
    """Time one pass of the reference loop, with the collector off."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        _loop()
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()
