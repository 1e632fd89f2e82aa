"""A fixed pure-Python reference kernel that measures how fast the CPU runs
at the moment, so that throughputs can be scaled to one reference speed.

On a shared virtual machine the speed of a core drifts by 20 to 30 % from
one minute to the next, far more than the benchmark's bounds.  The kernel
runs interleaved with the timed work, takes a fixed share of the run, and
never calls the library, so a change to the library cannot move it.  Its
inputs are built from a fixed seed and are the same in every run.

One unit of the kernel mixes the three kinds of work the workloads do:
brute-force checks of tiny systems (``gen._reference``, the known-answer
evaluator of ``tiny_batch``), exact rational arithmetic as in the interval
layer, and fixpoints over a large dict-of-frozensets graph as in
``line_plant``.
"""
from __future__ import annotations

import random
from fractions import Fraction
from time import perf_counter

import gen

# Units per second of this kernel on the reference CPU: about the median
# rate on the 2-vCPU virtual machine the bounds were tuned on, under
# CPython 3.  Scaled figures are "on that CPU"; the constant only sets
# their scale.
REFERENCE_RATE = 90.0


class Calibration:
    def __init__(self) -> None:
        rng = random.Random(0)
        self.tiny = []
        while len(self.tiny) < 24:
            xs, us, qs, t1, t2, fwd, inv = parts = gen._tiny_objects(rng)
            goal = gen._tiny_spec(rng, xs, fwd, inv, qs[0])
            self.tiny.append(parts + goal)
        self.points = [Fraction(rng.randint(-99999, 99999), rng.randint(1, 9999))
                       for _ in range(120)]
        n = 3000
        self.graph = {(i, u): frozenset(rng.randrange(n) for _ in range(rng.randint(1, 3)))
                      for i in range(n) for u in "ab"}
        self.n = n
        self.reset()

    def _unit(self) -> int:
        total = 0
        for args in self.tiny:
            total += len(gen._reference(*args))
        lo, hi = Fraction(-1, 3), Fraction(1, 3)
        for x in self.points:
            for _ in range(3):
                x = -x / 2 if x > 0 else x * Fraction(-1, 2) + Fraction(1, 7)
            total += lo <= x < hi
        win = set(range(0, self.n, 7))
        for _ in range(2):
            win |= {i for i in range(self.n) if i not in win
                    and any(self.graph[(i, u)] <= win for u in "ab")}
        return total + len(win)

    def run(self) -> None:
        """Run one unit and add its seconds to the tally."""
        start = perf_counter()
        self._unit()
        self.secs += perf_counter() - start
        self.units += 1

    def reset(self) -> None:
        self.units, self.secs = 0, 0.0

    def rate(self) -> float:
        """Units per second over every unit run so far."""
        return self.units / self.secs

    def scale(self) -> float:
        """Factor that turns a rate measured now into a rate on the
        reference CPU: above 1 when this CPU ran slower than it."""
        return REFERENCE_RATE / self.rate()
