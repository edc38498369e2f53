"""Host-speed-calibrated time.

On a shared host (measured on a 2-vCPU Xeon virtual machine) the speed
of one CPU drifts by a third or more over tens of seconds while
neighbours load the machine.  A fixed
reference kernel runs every EVERY seconds from a SIGALRM handler, so it
also samples the host in the middle of one long call.  The kernel does
the kinds of work arrtop does (fraction-free elimination on Python
integers, int64 elimination mod p with numpy, many tiny matrices, dict
updates keyed by tuples) but calls no arrtop code, so a change to arrtop
moves the work and not the kernel and shows in full, while a change in
host speed moves both and cancels.  Each stretch of work between two
kernel runs is scaled by NOMINAL / (median kernel time of the SIDE runs
on either side); times read as seconds on a host where the kernel takes
NOMINAL seconds.  The kernel's own time is excluded from every interval.
"""

from __future__ import annotations

import random
import signal
import statistics
from bisect import bisect_right
from time import perf_counter

import numpy as np

NOMINAL = 0.015           # seconds the kernel takes on a quiet host
EVERY = 0.25              # seconds between reference runs
SIDE = 4                  # reference runs on each side of a gap

_rng = random.Random(20251017)
_INT_ROWS = tuple(tuple(_rng.choice((-2, -1, 0, 0, 1, 2)) for _ in range(40))
                  for _ in range(40))
_MOD_ROWS = np.array([[_rng.randrange(101) for _ in range(80)] for _ in range(80)],
                     dtype=np.int64)


def _bareiss(rows) -> int:
    rows = [list(r) for r in rows]
    n, prev, rank = len(rows), 1, 0
    for col in range(n):
        piv = next((i for i in range(rank, n) if rows[i][col]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        pr = rows[rank]
        p = pr[col]
        for i in range(rank + 1, n):
            ri = rows[i]
            f = ri[col]
            for j in range(col + 1, n):
                ri[j] = (p * ri[j] - f * pr[j]) // prev
            ri[col] = 0
        prev = p
        rank += 1
    return rank


def _rank_mod(m, p=101) -> int:
    m = m.copy()
    rank = 0
    for col in range(m.shape[1]):
        nz = np.nonzero(m[rank:, col])[0]
        if nz.size == 0:
            continue
        piv = rank + int(nz[0])
        m[[rank, piv]] = m[[piv, rank]]
        m[rank] = (m[rank] * pow(int(m[rank, col]), -1, p)) % p
        below = np.nonzero(m[rank + 1:, col])[0] + rank + 1
        if below.size:
            m[below] = (m[below] - np.outer(m[below, col], m[rank])) % p
        rank += 1
        if rank == m.shape[0]:
            break
    return rank


def _small_matrices() -> int:
    """Many tiny sparse-to-dense conversions, as on small complexes."""
    total = 0
    for k in range(100):
        entries = {(i, (i * 5 + k) % 12): (i + k) % 7 - 3 for i in range(8)}
        rows = [[0] * 12 for _ in range(8)]
        for (i, j), v in entries.items():
            rows[i][j] = v
        m = np.array(rows, dtype=np.int64) % 7
        total += int(np.count_nonzero(m[1:, 0])) + _bareiss([r[:8] for r in rows])
    return total


def reference_kernel():
    acc = {}
    for i in range(10000):
        key = (i % 300, i % 7)
        acc[key] = acc.get(key, 0) + i
    return _bareiss(_INT_ROWS), _rank_mod(_MOD_ROWS), _small_matrices(), len(acc)


class HostClock:
    """Runs the reference kernel every EVERY seconds while entered;
    converts raw intervals to calibrated seconds afterwards."""

    def __init__(self):
        self.starts, self.ends, self.factors = [], [], []
        self._previous = None

    def __enter__(self):
        self.calibrate()
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, EVERY, EVERY)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self.calibrate()

    def _tick(self, signum, frame):
        self.calibrate()

    def calibrate(self):
        t0 = perf_counter()
        reference_kernel()
        t1 = perf_counter()
        self.starts.append(t0)
        self.ends.append(t1)
        self.factors.append(NOMINAL / (t1 - t0))

    def _gap_factor(self, i):
        """Factor for the gap before reference run i (0 .. len): the median
        of up to SIDE runs on each side, so one disturbed run does not
        decide it."""
        return statistics.median(self.factors[max(i - SIDE, 0):i + SIDE])

    def seconds(self, a, b) -> float:
        """Calibrated length of the raw interval [a, b], kernel runs excluded."""
        n = len(self.starts)
        i = bisect_right(self.ends, a)
        total = 0.0
        while True:
            lo = max(a, self.ends[i - 1]) if i > 0 else a
            hi = min(b, self.starts[i]) if i < n else b
            if hi > lo:
                total += (hi - lo) * self._gap_factor(i)
            if i >= n or self.starts[i] >= b:
                return total
            i += 1

    def raw_kernel_s(self):
        return [e - s for s, e in zip(self.starts, self.ends)]
