"""The host's current speed, measured on a fixed reference kernel.

A benchmark host is often a few vCPUs of a shared machine.  The rate at
which they run the same code can move by up to a factor of two, in spells
of seconds to minutes (other tenants, hyperthread siblings), and CPU time
moves with wall time, so it does not help.  At times the hypervisor also runs someone else
on our vCPUs, and that steal time shows in wall time only.

So while fxsvol works, ``Sampler`` times a kernel whose work never changes
and that fxsvol's code does not touch, 20 times a second, and reads the
machine's steal time with each sample.  fxsvol's times are reported in
reference seconds: a wall interval counts its wall time less the steal in
it, times ``REF_CHUNK_S / <the kernel's time just then>``.  A change to
fxsvol moves its times and not the kernel's; a slower host moves both.
``measure`` reads the rate between two pieces of work instead.

The kernel mimics fxsvol's hot loop: numpy ufuncs on 56-element complex
arrays (the Attari grid) inside Python-level float arithmetic.
"""

from __future__ import annotations

import bisect
import os
import signal
import statistics
import time

import numpy as np

# seconds one chunk takes on a 2-vCPU Xeon host at its usual rate; it only
# sets the scale of the reference second and is never changed between commits
REF_CHUNK_S = 0.0015
# the sampler times one chunk every PERIOD_S wall seconds (about 3% of the
# run) and reads the host's rate at a moment as the median within HALF_WINDOW_S
PERIOD_S = 0.05
HALF_WINDOW_S = 0.5
# chunks per reading of measure()
CHUNKS = 20

_NODES = np.linspace(0.05, 28.0, 56) + 0.5j
_TICK_S = 1.0 / os.sysconf("SC_CLK_TCK")


def chunk():
    acc = 0.0
    for i in range(60):
        z = _NODES * (1.0 + 0.001 * i)
        w = np.exp(-0.1 * z * z) * np.sqrt(z + 1.0) / (z + 2.0)
        acc += float(np.sum(w.real))
        for k in range(40):
            acc += (k * 0.5 - acc * 1e-9) ** 0.5
    return acc


def steal_s():
    """Seconds the hypervisor has run other work on this machine's vCPUs (0 if unknown)."""
    try:
        with open("/proc/stat") as fh:
            fields = fh.readline().split()
        return int(fields[8]) * _TICK_S
    except (OSError, IndexError, ValueError):
        return 0.0


def measure(chunks=CHUNKS):
    """Median CPU seconds of one chunk, timed here and now: the host's rate."""
    times = []
    for _ in range(chunks):
        c0 = time.thread_time()
        chunk()
        times.append(time.thread_time() - c0)
    return statistics.median(times)


def ref_seconds(wall, stolen, rate):
    """Reference seconds of a wall interval with ``stolen`` steal in it, at ``rate``."""
    return max(0.0, wall - stolen) * REF_CHUNK_S / rate


class Sampler:
    """Times one chunk every PERIOD_S, on the thread that runs the work.

    A wall-clock timer signal interrupts the main thread, which runs the
    chunk between two bytecodes of whatever it is doing, on its vCPU with
    its neighbours; the chunk is timed in the thread's CPU time, which
    leaves out any wait for the GIL.  The chunks add about 3% to every time
    measured while the sampler runs, the same on every commit.
    """

    def __init__(self):
        self.times = []      # perf_counter at each sample's start
        self.steal = []      # steal_s() then
        self.cpu = []        # the process's CPU seconds then
        self.rates = []      # CPU seconds the chunk took
        self._busy = False

    def _sample(self, signum, frame):
        if self._busy:  # the signal came during the last chunk
            return
        self._busy = True
        t, stolen, cpu, c0 = time.perf_counter(), steal_s(), time.process_time(), time.thread_time()
        chunk()
        self.times.append(t)
        self.steal.append(stolen)
        self.cpu.append(cpu)
        self.rates.append(time.thread_time() - c0)
        self._busy = False

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def _chunk_s(self, t):
        lo = bisect.bisect_left(self.times, t - HALF_WINDOW_S)
        hi = bisect.bisect_right(self.times, t + HALF_WINDOW_S)
        if hi <= lo:  # no sample that close: the nearest one
            k = min(lo, len(self.times) - 1)
            lo, hi = k, k + 1
        return statistics.median(self.rates[lo:hi])

    def _at(self, series, t):
        """series (steal or cpu) at time t, linear between the samples."""
        k = bisect.bisect_right(self.times, t)
        if k == 0 or k == len(self.times):
            return series[min(k, len(series) - 1)]
        t0, t1 = self.times[k - 1], self.times[k]
        return series[k - 1] + (series[k] - series[k - 1]) * (t - t0) / (t1 - t0)

    def stolen(self, a, b):
        """Steal in [a, b] that the process lost: at most the wall time in which
        it ran on no CPU (the steal counter covers every vCPU of the machine)."""
        idle = (b - a) - (self._at(self.cpu, b) - self._at(self.cpu, a))
        return min(self._at(self.steal, b) - self._at(self.steal, a), max(0.0, idle))

    def ref_seconds(self, a, b):
        """Reference seconds of the wall interval [a, b], cut at the samples."""
        if not self.times:
            raise RuntimeError("the reference sampler took no sample")
        cuts = [a] + self.times[bisect.bisect_right(self.times, a):
                                bisect.bisect_left(self.times, b)] + [b]
        return sum(ref_seconds(y - x, self.stolen(x, y), self._chunk_s(0.5 * (x + y)))
                   for x, y in zip(cuts, cuts[1:]))
