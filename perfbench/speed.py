"""How fast the machine runs while a pass runs, measured inside the pass.

The benchmark's host is shared, and its speed drifts by 10-30 % within
minutes and swings faster than that; CPU time drifts with it, so the cause
is contention, not stolen time. Timing one probe before and after a pass
follows that poorly. So a pass is sampled throughout: every INTERVAL_S of
process CPU time a SIGPROF handler runs one probe, a fixed unit of work
written here and independent of grquiver, of the same kind as the
library's own: Gaussian elimination of small matrices mod 3 in a Python
loop over numpy rows, and integer arithmetic in the interpreter. A probe
allocates no object the garbage collector tracks, so it does not move the
collections of the program under test.

Set-up happens before the probes can start, so `factor_now()` takes its
factor from a burst of probes right after it.

`SpeedProbe.factor()` is REF_PROBE_S over the pass's mean probe time. A
time spent in the pass, minus the probes inside it, times that factor is
the time the pass would have taken at the reference speed. Over five seeds
per workload, this cut the spread (q3 - q1) / median of a run's pass time
from 0.14-0.18 to 0.04-0.05. It does not reach single tasks: a task of
tens of milliseconds to seconds still varies by 10-15 % between runs of
one seed, and probes taken inside the task do not follow that.
"""

from __future__ import annotations

import signal
import time

import numpy as np

# mean probe time on the reference machine, a 2-core Xeon guest
REF_PROBE_S = 0.0105
INTERVAL_S = 0.2  # of process CPU time between probes: about 5 % overhead

_P = 3
_MATRICES = [np.random.default_rng(i).integers(0, _P, size=(24, 24))
             for i in range(5)]


def _eliminate(a: np.ndarray) -> int:
    rows, cols = a.shape
    r = 0
    for c in range(cols):
        pivot = -1
        for i in range(r, rows):
            if a[i, c] != 0:
                pivot = i
                break
        if pivot < 0:
            continue
        if pivot != r:
            a[r], a[pivot] = a[pivot].copy(), a[r].copy()
        a[r] = (a[r] * int(a[r, c])) % _P  # x * x = 1 for x = 1, 2 mod 3
        for i in range(rows):
            if i != r and a[i, c] != 0:
                a[i] = (a[i] - a[i, c] * a[r]) % _P
        r += 1
    return r


def probe() -> float:
    """Run the fixed unit of work once; return its wall time in seconds."""
    t0 = time.perf_counter()
    for m in _MATRICES:
        _eliminate(m.copy())
        acc = 0
        for k in range(4000):
            acc = (acc * 31 + k) % 1000003
    return time.perf_counter() - t0


def factor_now(n: int = 10) -> float:
    """Reference speed over the speed of n probes run back to back, after
    one that warms the caches: about 0.1 s."""
    probe()
    return REF_PROBE_S / (sum(probe() for _ in range(n)) / n)


class SpeedProbe:
    """Samples the machine's speed during a pass; see the module docstring.

    `total_s` is the time spent in probes so far, so a caller can take it
    out of the time it measures around a task.
    """

    def __init__(self) -> None:
        self.total_s = 0.0
        self.count = 0
        self._old = None

    def _fire(self, signum, frame) -> None:
        self.total_s += probe()
        self.count += 1

    def start(self) -> None:
        self._old = signal.signal(signal.SIGPROF, self._fire)
        signal.setitimer(signal.ITIMER_PROF, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0)
        signal.signal(signal.SIGPROF, self._old)

    def factor(self) -> float:
        """Reference speed over observed speed; 1.0 before any probe."""
        if self.count == 0:
            return 1.0
        return REF_PROBE_S / (self.total_s / self.count)
