"""Timings corrected for the speed of a shared host.

On a small shared machine the CPU this process runs on switches, often
within a second and at times for many minutes, between a fast state and one
about 1.6 times slower.  The slow state is other tenants' load on the same
physical core: CPU time tracks wall time through it, so it is not
descheduling, and pure-Python steps slow by similar factors (1.6 to 1.9
measured).  A plain wall-clock time then measures the neighbours as much as the program.

So a fixed reference loop, part of this file and independent of semilie, is
timed at the start and end of each timed region and, inside the region,
every ``SAMPLE_S`` seconds of wall time from a ``SIGALRM`` handler in the
one thread.  Each stretch of work between two reference timings is scaled
by the mean, over its two ends, of ``REF_S`` / reference time, so a timing
reads as the seconds the work takes on the host in its fast state.  The reference
loop's own time is left out of both the wall and the scaled time.
"""

from __future__ import annotations

import contextlib
import gc
import signal
import time

clock = time.perf_counter

# The reference loop's time on an uncontended core of the 2-CPU x86-64 host
# the bounds were set on; it fixes only the scale of the scaled times.
REF_S = 340e-6
SAMPLE_S = 0.01


def reference_loop() -> int:
    """A fixed mix of what semilie spends its time on: small-int and big-int
    arithmetic in dicts, tuples, hashing, sorting and function calls."""
    poly: dict = {}
    for i in range(48):
        for j in range(18):
            poly[i + j] = poly.get(i + j, 0) + (i * j + 1) * 3**i
    keys = sorted({(k, v % 97, -k) for k, v in poly.items()}, key=lambda t: (t[1], t[0]))
    return len(keys) + sum(map(abs, (k for _, _, k in keys)))


def time_reference() -> tuple[float, float]:
    """(start, end) of one run of the reference loop, with the collector
    held off so that the size of the program's heap does not show in it."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = clock()
        reference_loop()
        return t0, clock()
    finally:
        if enabled:
            gc.enable()


class Timing:
    """The result of one timed region."""

    __slots__ = ("wall", "scaled", "samples")

    def __init__(self):
        self.wall = 0.0
        self.scaled = 0.0
        self.samples = 0

    def close(self, marks: list[tuple[float, float]]) -> None:
        """Fold the reference timings taken in the region into its times."""
        self.samples = len(marks)
        for (a0, b0), (a1, b1) in zip(marks, marks[1:]):
            work = a1 - b0
            self.wall += work
            self.scaled += work * 0.5 * (REF_S / (b0 - a0) + REF_S / (b1 - a1))


class HostClock:
    """Times regions of work in wall seconds and in scaled seconds."""

    def __init__(self, sample_s: float = SAMPLE_S):
        self.sample_s = sample_s
        self._marks: list[tuple[float, float]] | None = None

    def _on_alarm(self, signum, frame) -> None:
        if self._marks is not None:
            self._marks.append(time_reference())

    @contextlib.contextmanager
    def timed(self):
        """``with clock.timed() as t: work`` sets ``t.wall`` and ``t.scaled``
        when the block ends, however it ends."""
        timing = Timing()
        marks = [time_reference()]
        previous = signal.signal(signal.SIGALRM, self._on_alarm)
        self._marks = marks
        signal.setitimer(signal.ITIMER_REAL, self.sample_s, self.sample_s)
        try:
            yield timing
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            self._marks = None
            signal.signal(signal.SIGALRM, previous)
            marks.append(time_reference())
            timing.close(marks)
