"""Calibrated timing: seconds corrected for the machine's speed at the time.

On a shared host the speed of one CPU drifts by tens of percent over a few
seconds, so raw wall times of the same work spread too far to compare two
commits.  While a ``Clock`` runs, a timer signal interrupts the program
every ``PROBE_INTERVAL_S`` and times a fixed probe loop, and each timed
call is bracketed by two more probes.  A call's calibrated time is its wall
time minus the probes that ran inside it, divided by the machine's slowness
during the call: the mean probe time over the call (brackets included)
over ``PROBE_REF_S``.  The result reads in seconds on a machine that runs
the probe loop in ``PROBE_REF_S``.

The probe loop mixes big-integer, float and dictionary work like the
program's inner loops, then makes strided loads from a few megabytes of
big integers, so that it slows down with the program when the host's
caches are contended.  It allocates one dictionary and no other object the
garbage collector tracks, so a probe does not take over the program's
collections.
"""

from __future__ import annotations

import signal
import statistics
import time

PROBE_INTERVAL_S = 0.05
PROBE_ITERS = 1200
PROBE_LOADS = 700
WARMUP_PROBES = 3
# The probe loop's median time on the reference host (2 shared CPUs,
# Python 3.11.7).  A fixed constant: it sets the unit, not the measurement.
PROBE_REF_S = 0.002
_BIG = 3 ** 1500
_MEMORY = [3 ** (2000 + k % 7) + k for k in range(4096)]  # about 3 MB of big integers


def _probe_loop():
    big = _BIG
    table = {}
    acc = 0
    s = 0.0
    for i in range(PROBE_ITERS):
        table[i & 63] = table.get(i & 63, 0) + i
        s += (i * 0.5) ** 0.5
        acc += (big * i) >> 11
    memory = _MEMORY
    j = 0
    for i in range(PROBE_LOADS):  # strided loads through memory, like the count tables
        j = (j + 1531) & 4095
        acc += memory[j] * (i + 1)
    return len(table), s, acc


class Clock:
    """Times calls in calibrated seconds while installed; see the module docstring."""

    def __init__(self):
        self.probes = []  # (start, end) of every probe, in perf_counter seconds
        self._busy = False
        self._previous = None

    def _probe(self):
        if self._busy:
            return
        self._busy = True
        start = time.perf_counter()
        _probe_loop()
        self.probes.append((start, time.perf_counter()))
        self._busy = False

    def _on_alarm(self, signum, frame):
        self._probe()

    def start(self):
        if not self.probes:  # the first probes of a process run cold and slow
            for _ in range(WARMUP_PROBES):
                _probe_loop()
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)

    def __enter__(self):
        self.start()
        return self

    def __exit__(self, *exc):
        self.stop()

    def time(self, fn):
        """Call ``fn()``; returns (its result, wall seconds net of probes, calibrated seconds)."""
        self._probe()
        first = len(self.probes) - 1
        t0 = time.perf_counter()
        result = fn()
        t1 = time.perf_counter()
        self._probe()
        window = self.probes[first:]
        inside = sum(end - start for start, end in window if start >= t0 and end <= t1)
        net = t1 - t0 - inside
        slowness = statistics.fmean(end - start for start, end in window) / PROBE_REF_S
        return result, net, net / slowness

    def probe_median(self):
        """Median probe time so far, in seconds: the machine's recent speed."""
        return statistics.median(end - start for start, end in self.probes)
