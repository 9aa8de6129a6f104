"""The reference loop: fixed pure-Python work that imports nothing from
``deforma``.

The CPU speed of a shared host drifts by the minute, so the benchmark
times the loop between jobs and reports job times in units of it
(``ref``).  The loop mixes what the program spends its time on: Fraction
arithmetic, big-integer products and exact divisions, and dict updates.
"""

from __future__ import annotations

import time
from fractions import Fraction

_MODULUS = (1 << 255) - 19
ITERATIONS = 1000


def reference_loop() -> int:
    acc = Fraction(0)
    big = 3
    table: dict[tuple[int, int], int] = {}
    for i in range(1, ITERATIONS):
        acc += Fraction(i % 7 + 1, i % 11 + 2)
        big = big * (2 * i + 1) % _MODULUS
        q = (big * big) // (_MODULUS + i)
        key = (i & 63, i % 5)
        table[key] = table.get(key, 0) + (q & 1023)
    return acc.numerator % 97 + len(table)


def time_reference() -> float:
    """Seconds for one pass of the loop."""
    t0 = time.perf_counter()
    reference_loop()
    return time.perf_counter() - t0
