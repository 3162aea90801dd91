"""A clock for timing on a host whose cores are shared.

On a machine that shares its cores with other tenants, the same code runs
up to ~1.6x slower for stretches of seconds to minutes, and thread CPU
time inflates just like wall time, so neither a longer run nor a best-of
statistic removes the slow stretches.  ``RefClock`` measures the host's
speed while it times: a timer signal runs a fixed reference loop every
10 ms, in the timed thread itself, and records how long the loop took.
An interval's time, less the time the samples took, is scaled by
``REF_S`` over the (trimmed) mean sample taken during it or just before
it.  The
result reads in reference seconds: seconds at the speed at which the
reference loop takes exactly ``REF_S``.  A change that makes latsum do
less work lowers it in proportion, the host's state does not.

Signals are handled between bytecodes, so a sample due during one long
numpy call is taken when the call returns.  ``WallClock`` has the same
interface and reads plain wall time.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

REF_S = 100e-6  # the reference loop's time at the reference speed
INTERVAL_S = 0.01
WINDOW = 20  # samples taken just before an interval that also count for it

_X = np.linspace(0.0, 1.0, 256)


def _reference() -> float:
    """The fixed reference work: an interpreted loop and a small numpy
    call, about 90 us on a 2-vCPU Xeon VM at its fastest."""
    s = 0.0
    for i in range(1600):
        s += i * 0.5
    return s + float(np.exp(_X).sum())


class WallClock:
    """Plain wall time."""

    def mark(self):
        return time.perf_counter()

    def elapsed(self, mark) -> float:
        return time.perf_counter() - mark


class RefClock:
    """Reference seconds; sampling runs while the clock is entered."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.spent = 0.0
        self._previous = signal.SIG_DFL

    def _sample(self, signum=None, frame=None) -> None:
        t0 = time.perf_counter()
        _reference()
        d = time.perf_counter() - t0
        self.samples.append(d)
        self.spent += d

    def __enter__(self) -> "RefClock":
        self._sample()  # so that every interval has a sample before it
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def mark(self):
        return time.perf_counter(), len(self.samples), self.spent

    def scale(self, seconds: float, first_sample: int = 0) -> float:
        """``seconds`` of wall time, net of sampling, in reference seconds,
        at the host speed of the samples from ``first_sample`` on (and the
        ``WINDOW`` before it): their mean without the top and bottom tenth,
        so that one preempted sample does not count."""
        window = sorted(self.samples[max(0, first_sample - WINDOW):])
        cut = len(window) // 10
        return seconds * REF_S / statistics.fmean(window[cut:len(window) - cut])

    def elapsed(self, mark) -> float:
        t1 = time.perf_counter()
        t0, first, spent = mark
        return self.scale(t1 - t0 - (self.spent - spent), first)
