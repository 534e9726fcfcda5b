"""Call timing rescaled to a nominal machine speed.

The benchmark shares its cores with other machines' work, and the speed of
a core drifts by up to a factor of two within seconds.  While a ``Speed`` is
active, a timer signal interrupts the workload every ``EVERY`` seconds and
times a fixed reference kernel.  Each call's time, less the time spent in
those interruptions, is multiplied by ``NOMINAL_S`` over the median
reference time sampled during the call and just before and after it.  A
rescaled time reads as the time the call takes when the reference kernel
takes ``NOMINAL_S``; the raw times are kept alongside.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time

# Reference-kernel time on an idle core of a 2-vCPU 2.1 GHz x86-64 VM under
# Python 3.11; it only sets the scale of the rescaled times.
NOMINAL_S = 0.9e-3
EVERY = 0.02

_VALUES = [i * 7 % 13 for i in range(200)]


def reference_kernel() -> None:
    """Label meets by tuple-keyed dict lookups, the interpreter work that
    dominates cayleywl's refinement loops.  Pure Python: a numpy sort in the
    kernel tracked the speed of the sweeps worse."""
    labels = list(range(200))
    for _ in range(40):
        keys: dict = {}
        labels = [keys.setdefault((a, b), len(keys)) for a, b in zip(labels, _VALUES)]


def reference_seconds() -> float:
    start = time.perf_counter()
    reference_kernel()
    return time.perf_counter() - start


def rescale(seconds: float, refs) -> float:
    """A time measured while the reference kernel took ``refs``, at nominal speed."""
    return seconds * NOMINAL_S / statistics.median(refs)


class Speed:
    """Samples the reference kernel on a timer and rescales call times."""

    def __init__(self) -> None:
        self.sample_at: list[float] = []
        self.sample_ref: list[float] = []
        self.paused = 0.0
        self.calls: list[tuple[object, float, float, float]] = []

    def __enter__(self) -> Speed:
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        self._sample()
        signal.setitimer(signal.ITIMER_REAL, EVERY, EVERY)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def _sample(self, *_) -> None:
        start = time.perf_counter()
        ref = reference_seconds()
        end = time.perf_counter()
        self.sample_at.append(end)
        self.sample_ref.append(ref)
        self.paused += end - start

    def call(self, record, fn, *args):
        """Run ``fn(*args)``; its raw and rescaled times are appended to
        ``record.raw`` and ``record.latencies`` by the next ``flush``."""
        paused = self.paused
        start = time.perf_counter()
        result = fn(*args)
        end = time.perf_counter()
        self.calls.append((record, start, end, end - start - (self.paused - paused)))
        return result

    def flush(self) -> None:
        self._sample()
        for record, start, end, seconds in self.calls:
            lo = max(0, bisect.bisect_left(self.sample_at, start) - 1)
            hi = bisect.bisect_right(self.sample_at, end) + 1
            record.raw.append(seconds)
            record.latencies.append(rescale(seconds, self.sample_ref[lo:hi]))
        self.calls.clear()
