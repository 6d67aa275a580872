"""Stdlib-only calibration loop for normalising timings on a shared host.

Whole seconds of a run can land in a slower host phase (the same code takes
up to 1.7x as long), so raw times are not comparable between runs.  The
benchmark therefore divides each operation's time by the time of this fixed
loop, measured in the same process next to the operation: one calibration
unit (cal) is one call of calibration_work.

The loop mixes the three kinds of work the solver does (exact Fraction
arithmetic, lowest-set-bit walks over Python ints, and building small
tuples and frozensets), so a host phase slows it by about the same factor
as the solver.  It must never import pricegame: a change to the program
under test may not move the unit it is measured in.
"""

from __future__ import annotations

import gc
import time
from fractions import Fraction

_FRACTION_ADDS = 1000
_BIT_WORDS = 450
_SMALL_SETS = 4000
_MASK64 = (1 << 64) - 1


def calibration_work() -> int:
    """The fixed unit of work; returns a checksum so nothing is skipped."""
    total = Fraction(0)
    for k in range(1, _FRACTION_ADDS + 1):
        total += Fraction(k % 97 + 1, k % 13 + 2)
    bits = 0
    word = 0x9E3779B97F4A7C15
    for _ in range(_BIT_WORDS):
        word = (word * 6364136223846793005 + 1442695040888963407) & _MASK64
        mask = word
        while mask:
            low = mask & -mask
            bits += low.bit_length()
            mask ^= low
    sets = [frozenset(tuple(range(k % 7))) for k in range(_SMALL_SETS)]
    return total.numerator % 1000003 + bits + len(set(sets))


def time_calibration() -> float:
    """Seconds taken by one calibration_work call.

    The cyclic collector is paused meanwhile: a collection walks the whole
    heap, so it would make the unit depend on what the workload holds.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        calibration_work()
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()
