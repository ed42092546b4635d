"""Machine-speed probe, so that timings read in seconds at a fixed speed.

The benchmark runs on a shared machine whose speed drifts in phases that last
from a fraction of a second to minutes: the same cycle of requests takes up
to about 1.6x as long in a slow phase as in a fast one.  CPU time tracks wall
time, so the drift is in the speed of the core, not in waiting for it.  The
probe runs a short fixed piece of pure-Python work before every timed request
and around every set-up and cold start.  A timing taken over [t0, t1] is then
scaled by

    reference / median(probe times within WINDOW_S of [t0, t1])

which gives the seconds it would have taken at the speed where one probe
takes `reference`.  The probe code is fixed and never calls pmplab, so a
change to the program moves the scaled time exactly as it moves the measured
one; only the machine's drift cancels.  No probe runs inside a timed interval.

Phases do not slow every kind of code alike, so each workload has a probe
made of the kinds of work its requests do (KERNELS, MIXES).  On the machine
the benchmark was defined on, with a probe of this kind, the spread of cycle
times over minutes fell from about 0.25 (IQR over median) to 0.08-0.13.

The two cores of that machine drift apart, and a subprocess may run on the
other core than its parent, so a subprocess probes its own speed
(child.py).  For that use, importing this module loads no module that
pmplab might import, and the "fresh-process" probe imports nothing.
"""
from __future__ import annotations

import bisect
import time


def _fractions() -> None:
    """Exact rational sums, as in joint laws and distances."""
    from fractions import Fraction

    total = Fraction(0)
    for i in range(1, 126):
        total += Fraction(i % 13 + 1, i % 97 + 1)


def _json() -> None:
    """Encode and decode a small algebra, as the CLI does per request."""
    import json

    obj = [{"atoms": [f"{i}/{i + 7}" for i in range(40)], "k": 2}]
    for _ in range(20):
        obj = json.loads(json.dumps(obj))


def _ints() -> None:
    """Small-integer arithmetic, as in permutation and partition code."""
    total = 0
    for i in range(6000):
        total += i * i % 7


KERNELS = {"fractions": _fractions, "json": _json, "ints": _ints}

# Kernels of each workload's probe, and the time of that probe in a fast
# phase of the machine the benchmark was defined on (a shared 2-core x86-64
# VM, Python 3.11).  Fixed, so that scaled times from any run, on any
# commit, are in the same unit.
MIXES = {
    "audit-sweep": (("fractions", "json"), 0.00060),
    "conj-embed": (("ints",), 0.00042),
    "cli-queries": (("fractions", "json"), 0.00060),
    "fresh-process": (("ints",), 0.00042),
}
WINDOW_S = 0.5


class Speed:
    """Probe times in the order they were taken, with their midpoints."""

    def __init__(self, mix: str):
        names, self.reference = MIXES[mix]
        self.kernels = [KERNELS[name] for name in names]
        self.at: list[float] = []
        self.took: list[float] = []

    def probe(self) -> None:
        t0 = time.perf_counter()
        for kernel in self.kernels:
            kernel()
        t1 = time.perf_counter()
        self.at.append((t0 + t1) / 2)
        self.took.append(t1 - t0)

    def factor(self, t0: float, t1: float) -> float:
        """The reference over the median probe time within WINDOW_S of
        [t0, t1]; at least the last probe before t0 and the first after t1
        are used."""
        lo = bisect.bisect_left(self.at, t0 - WINDOW_S)
        hi = bisect.bisect_right(self.at, t1 + WINDOW_S)
        lo = min(lo, max(0, bisect.bisect_left(self.at, t0) - 1))
        hi = max(hi, min(len(self.at), bisect.bisect_right(self.at, t1) + 1))
        took = sorted(self.took[lo:hi])
        middle = len(took) // 2
        median = took[middle] if len(took) % 2 else (took[middle - 1] + took[middle]) / 2
        return self.reference / median

    def scaled(self, t0: float, t1: float) -> float:
        """The interval [t0, t1] in seconds at the reference speed."""
        return (t1 - t0) * self.factor(t0, t1)
