"""A fixed reference loop that tracks the machine's current speed.

On a shared virtual machine the speed can swing by up to 2x over seconds
under other tenants' load, alike for the reference loop and for the
library's ops: on a 2-vCPU 2 GHz Xeon VM, over stretches of a few seconds
the ratio of their times stayed within a few per cent while each time alone
doubled.  A worker runs the loop right before and right after every op,
outside the op's timed region, and run.py scales op and set-up times to the
speed at which the loop takes REFERENCE_S.

The loop uses only the standard library (Fraction arithmetic, dicts, tuples
and string formatting, the kinds of work the library's ops do) and runs with
the cyclic garbage collector off, so that no change to tqft2d, nor to its
collector settings, changes the loop's own time.
"""

from __future__ import annotations

import gc
import time
from fractions import Fraction

# The loop's time on an idle 2 GHz Xeon core (Python 3.11), the lowest of
# many runs; scaled times read as times on that machine at that speed.
REFERENCE_S = 0.0009


def _loop() -> int:
    total, table = Fraction(0), {}
    for i in range(1, 200):
        total += Fraction(i % 7 - 3, i % 11 + 1) * Fraction(2, i % 5 + 1)
        key = (i % 13, i % 3)
        table[key] = table.get(key, 0) + i
    return len(str(total)) + sum(len(f"{k} = {v}") for k, v in sorted(table.items()))


def reference() -> float:
    """Seconds one run of the reference loop takes now.

    An untimed run goes first: right after a large op the first run is
    about a tenth slower, as it finds the caches full of the op's data.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        _loop()
        start = time.perf_counter()
        _loop()
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()
