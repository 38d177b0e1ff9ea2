"""Host-speed calibration.

On a shared host the speed of pure-Python code drifts by up to 1.5x over
tens of seconds, and a 30-second run cannot average that away.  The same
drift slows this fixed stdlib kernel (Fraction arithmetic and small
allocations, like the library's own inner loops) in step with the
workloads.  Two four-minute side-by-side recordings on a shared 2-vCPU
virtual machine (CPython 3.11), comparing 10-second windows:
while the host drifted, a workload's time varied by 19% and its ratio to
the kernel's time by 3%; while the host was calm, both varied by 3-6%.

So a run times the kernel between queries and scales each time it
reports by REFERENCE_S over the kernel time measured around it: figures
read as if the host ran at the reference speed.  The kernel does not
touch thetastab, so a change to the library moves the scaled figures
exactly as it moves the raw ones.
"""

from __future__ import annotations

import gc
from fractions import Fraction
from time import perf_counter

REFERENCE_S = 0.012  # kernel time that defines the reference speed
EVERY_S = 0.25  # query time between two kernel samples


def kernel() -> float:
    """Run the kernel once; return its wall time in seconds.

    The cyclic collector is off while it runs: a collection would scan the
    whole heap of the run, so the kernel would slow down as the library
    holds more objects, and scaled figures would reward holding them."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = perf_counter()
        total = Fraction(0)
        kept = []
        for i in range(1, 3000):
            total += Fraction(i % 13 + 1, i % 97 + 1)
            kept.append((total, str(i)))
        return perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def scale(samples: list[float]) -> float:
    """Factor that turns times measured during `samples` into reference times."""
    return REFERENCE_S * len(samples) / sum(samples)
