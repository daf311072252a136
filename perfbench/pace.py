"""Host pace: a fixed probe, timed many times a second, rescales job times.

The CPU throughput of a shared virtual machine drifts: the same job can take
1.5 to 2 times as long in a slow phase of the host as in a fast one, and slow
phases last from seconds to minutes.  Such drift is no change of the program,
so the benchmark measures it alongside the program and divides it out.

``Pace.start`` arms an interval timer.  Every ``PERIOD_S`` its signal handler
runs the probe, a fixed piece of work of the kinds roughstep's jobs do: a
loop of small numpy operations (matrix products, ``einsum``, reductions,
slices of a 2 MiB array) and one pass over that array.  Each probe's start
and duration are kept.  ``Pace.paced(t0, t1)`` returns the interval's own
time (the probes' time taken out) scaled by ``NOMINAL_S / mean probe
duration`` over the interval.  That is the interval's length in seconds on a
host whose probe takes ``NOMINAL_S``, about its mean in a fast phase of a
2-vCPU Intel Xeon virtual machine.  The mean, not the median, because slow
phases come in bursts shorter than a probe period, and the mean weighs them
as the job feels them.  A job shorter than ``MIN_PROBES`` probe periods uses
the last ``MIN_PROBES`` probes.  Python runs the handler between bytecodes,
so a probe never lands inside one numpy call; garbage collection is off
while it runs, so a collection of the job's objects is not counted as pace.
"""

from __future__ import annotations

import bisect
import gc
import signal
import statistics
import time

import numpy as np

PERIOD_S = 0.025
NOMINAL_S = 5.5e-4
MIN_PROBES = 16

_BIG = np.linspace(0.0, 1.0, 1 << 18)
_MAT = np.linspace(-1.0, 1.0, 4).reshape(2, 2)
_TENSOR = np.linspace(-1.0, 1.0, 8).reshape(2, 2, 2)
_VEC = np.ones(2)


def probe() -> float:
    """The fixed work whose duration measures the host's pace."""
    s = 0.0
    for k in range(20):
        r = _VEC + _MAT @ _VEC + np.einsum("irj,rj->i", _TENSOR, _MAT)
        s += float(np.max(np.abs(r - _VEC)))
        s += float(_BIG[k * 9973:k * 9973 + 3].sum())
    return s + float(_BIG.sum())


class Pace:
    def __init__(self):
        self.starts: list[float] = []
        self.durations: list[float] = []

    def _tick(self, signum, frame) -> None:
        collecting = gc.isenabled()
        gc.disable()
        t = time.perf_counter()
        probe()
        self.starts.append(t)
        self.durations.append(time.perf_counter() - t)
        if collecting:
            gc.enable()

    def start(self) -> None:
        probe()  # warm, untimed
        self._tick(None, None)  # so that every interval has a probe to go by
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def _window(self, t0: float, t1: float) -> tuple[int, int]:
        """Indices of the probes that started within [t0, t1]."""
        return bisect.bisect_left(self.starts, t0), bisect.bisect_right(self.starts, t1)

    def rate(self, t0: float, t1: float) -> float:
        """NOMINAL_S over the mean probe duration of [t0, t1]."""
        lo, hi = self._window(t0, t1)
        lo = min(lo, max(0, hi - MIN_PROBES))
        return NOMINAL_S / statistics.fmean(self.durations[lo:hi])

    def paced(self, t0: float, t1: float) -> float:
        """Seconds of [t0, t1] outside the probes, at the nominal pace."""
        lo, hi = self._window(t0, t1)
        own = (t1 - t0) - sum(self.durations[lo:hi])
        return own * self.rate(t0, t1)

    def mean_probe_s(self) -> float:
        return statistics.fmean(self.durations)
