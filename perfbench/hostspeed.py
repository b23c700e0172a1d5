"""Host-speed reference for scaling timings on a shared machine.

On a shared host (a virtual machine whose cores other guests also use)
the speed of identical code swings by tens of percent within seconds
and between runs.  A fixed pure-Python loop, timed in thread CPU
seconds between slices of measured work, samples that speed; each slice's
timings are scaled by ``REFERENCE_S / loop time`` to what the reference
host, on which the loop takes exactly ``REFERENCE_S``, would have shown.
Thread CPU time, unlike wall time, is not lengthened by other threads of
the program holding the interpreter lock, so a program that adds
background work cannot hide it by slowing the reference down.
"""

from __future__ import annotations

import time

#: Thread CPU seconds the reference loop takes on the reference host.
REFERENCE_S = 0.0025


def reference_seconds() -> float:
    """Thread CPU seconds one pass of the reference loop takes now."""
    start = time.thread_time()
    total = 0
    table: dict[int, int] = {}
    for i in range(15_000):
        total += i * i % 7
        table[i & 1023] = total
    return time.thread_time() - start


class ScaledClock:
    """Sums the wall seconds of consecutive pieces of work, each scaled by
    the host speed sampled just before and just after it."""

    def __init__(self) -> None:
        self.scaled_s = 0.0
        self._reference = reference_seconds()

    def add(self, seconds: float) -> float:
        """Account a piece of work that just finished; returns its factor."""
        following = reference_seconds()
        factor = 2 * REFERENCE_S / (self._reference + following)
        self._reference = following
        self.scaled_s += seconds * factor
        return factor
