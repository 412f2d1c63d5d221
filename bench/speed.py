"""A fixed reference kernel that tracks the speed of the machine.

The virtual machines this benchmark runs on change speed by up to 2x in
phases from seconds to minutes long, so two runs of the same code read
very different wall times.  To take that drift out of the end-to-end
metrics, the benchmark times this kernel next to the program, between
configs, and rescales every measured time to a machine on which the
kernel takes ``NOMINAL_S``:

    time at nominal speed = measured time * NOMINAL_S / kernel time

The kernel does pure-Python work of the kinds the program does, about
half of it arithmetic (polynomials over F_13 by table and by field calls,
powers in F_7[z]/(f) with deg f = 6, from the bench-local ``algebra``
module) and half containers (a JSON round trip of small records, grouping
and sorting them).  The phases do not slow all code alike: in a 600 s
trace, the containers half slowed 1.6x where the program slowed 1.5x and
the arithmetic half 1.2x, so the kernel needs both.  It never calls the
program, so a change to the program never changes it.  Raw times are kept
in the run's summary line.
"""

from __future__ import annotations

import json
import random
import statistics
import time

from algebra import PrimeExtension, SmallField, pmul, ppowmod, random_irreducible

# About the kernel's median time between configs on the 2-vCPU Xeon
# (Sapphire Rapids) VM the benchmark was tuned on, so that rescaled times
# read close to wall times there; only a scale, any fixed value would do.
NOMINAL_S = 0.0045
# A time is rescaled by the median of the kernel samples within this many
# places on either side of it: phases last seconds, a single sample flickers.
WINDOW = 3


class Kernel:
    def __init__(self):
        rng = random.Random("speed-kernel")
        self.F = SmallField(13)
        self.a = [rng.randrange(13) for _ in range(40)] + [1]
        self.b = [rng.randrange(13) for _ in range(40)] + [1]
        self.m = [rng.randrange(13) for _ in range(12)] + [1]
        self.L = PrimeExtension(7, random_irreducible(SmallField(7), 6, rng))
        self.x = self.L.random(rng)
        self.records = [
            {"k": i, "v": [rng.randrange(100) for _ in range(8)], "s": str(i) * 3}
            for i in range(360)
        ]
        self.expected = self._work()

    def _work(self):
        F, L = self.F, self.L
        prod = self.a
        for _ in range(2):
            prod = pmul(F, prod, self.b)[: len(self.a)]
        groups = {}
        for rec in json.loads(json.dumps(self.records)):
            groups.setdefault(rec["v"][0] % 7, []).append((tuple(rec["v"]), rec["s"]))
        return (
            tuple(prod),
            tuple(ppowmod(F, self.a, 2**10 + 123, self.m)),
            L.pow(self.x, 7**6 + 123),
            sorted((k, sorted(g)) for k, g in groups.items()),
        )

    def sample(self) -> float:
        """Seconds of one run of the kernel."""
        t0 = time.perf_counter()
        out = self._work()
        dt = time.perf_counter() - t0
        if out != self.expected:
            raise RuntimeError("speed kernel gave a different result")
        return dt


def rescale(times, kernel_times):
    """Each time times NOMINAL_S over the median kernel time near it;
    ``kernel_times[i]`` was taken next to ``times[i]``."""
    out = []
    n = len(kernel_times)
    for i, t in enumerate(times):
        near = kernel_times[max(0, i - WINDOW) : min(n, i + WINDOW + 1)]
        out.append(t * NOMINAL_S / statistics.median(near))
    return out
