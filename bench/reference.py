"""The host-speed reference: a fixed piece of work that does not touch the
package, timed next to every task so that task times can be scaled to the
speed of the host on which the benchmark was defined.

The shared host's speed drifts by up to 2x over seconds.  The work mixes
the interpreter work the package is made of (rational sums, tuple
permutations, dict updates) with a pointer chase through 8 MB, because
tasks that walk large tables slow down with the memory system rather than
with the interpreter loop.  Timing both and taking the geometric mean
tracks the slow-down of every benchmark task more closely than either
half alone.

The benchmark parent runs the reference while its worker waits between
tasks, so the two never compete for a core and the worker's memory is not
touched.
"""

from __future__ import annotations

import math
import random
import time
from array import array
from fractions import Fraction

from inputs import SMALL_RATIONALS, mat_inverse

CHASE_SIZE = 1 << 21  # 8 MB of int32, more than the cache of the host
CHASE_STEPS = 20000


def _chase_table() -> array:
    # x -> 5x + 1 mod 2^k visits every slot once (full-period LCG), in an
    # order the hardware prefetcher cannot follow.
    mask = CHASE_SIZE - 1
    return array("i", ((5 * i + 1) & mask for i in range(CHASE_SIZE)))


def interpreter_work() -> Fraction:
    total, seen = Fraction(0), {}
    p = tuple(range(8))
    for i in range(1, 1500):
        total += Fraction(i % 7 + 1, i % 5 + 2)
        q = p[1:] + p[:1]
        p = tuple(q[x] for x in p)
        seen[p] = seen.get(p, 0) + 1
    return total


def memory_work(table: array) -> int:
    x = 0
    for _ in range(CHASE_STEPS):
        x = table[x]
    return x


def _elimination_matrix() -> list:
    rng = random.Random(5)
    while True:
        m = [[rng.choice(SMALL_RATIONALS) for _ in range(9)] for _ in range(9)]
        if mat_inverse(m) is not None:
            return m


class Reference:
    def __init__(self):
        self.table = _chase_table()
        self.matrix = _elimination_matrix()

    def time(self) -> float:
        """Seconds for one reference: the geometric mean of its parts."""
        t0 = time.perf_counter()
        interpreter_work()
        t1 = time.perf_counter()
        memory_work(self.table)
        t2 = time.perf_counter()
        mat_inverse(self.matrix)
        t3 = time.perf_counter()
        return ((t1 - t0) * (t2 - t1) * (t3 - t2)) ** (1 / 3)
