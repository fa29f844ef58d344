"""Host-speed normalisation of measured times.

The shared hosts this benchmark runs on change speed by 25 % within
seconds and by up to 2x between minutes, because other tenants load the
same cores; CPU time moves with wall time, and no hardware counters are
exposed.  Raw medians of the same work then spread by 14-36 % between
runs.  So every repetition also times a fixed reference kernel: a SIGALRM
handler runs it every PERIOD_S of wall time while the workload runs, and a
timed interval is rescaled by REFERENCE_S over the kernel's mean time
inside that interval.  The result is the interval's time on a host where
the kernel takes exactly REFERENCE_S; the kernel's own time is subtracted
first.

The kernel allocates no container objects, so it never triggers a garbage
collection over the workload's heap.
"""

from __future__ import annotations

import signal
from statistics import fmean
from time import perf_counter

REFERENCE_S = 0.001
PERIOD_S = 0.05
SETUP_KERNELS = 20

_TABLE = list(range(1024))
_NEXT = {i: (7 * i + 3) & 1023 for i in range(1024)}
_WIDE = (1 << 1000) - 12345
_MASK = (1 << 999) + 777


def kernel() -> int:
    """The two kinds of work the package does: list and dict lookups (orbit
    closures, backtracking) and wide-int bit operations (adjacency bitsets).
    Together they track the host's speed on every workload better than
    either alone."""
    x = 0
    for i in range(5_000):
        x = _NEXT[_TABLE[(x + i) & 1023]]
    for i in range(1_500):
        x += (_WIDE & (_MASK >> (i & 63))).bit_count()
    return x


def time_kernel(times: int = 1) -> float:
    """Mean time of the kernel, run times times in a row."""
    start = perf_counter()
    for _ in range(times):
        kernel()
    return (perf_counter() - start) / times


class SpeedProbe:
    """Times the kernel every PERIOD_S seconds while active (a context
    manager; the main thread must own SIGALRM)."""

    def __init__(self) -> None:
        self.samples: list[tuple[float, float]] = []

    def _tick(self, signum, frame) -> None:
        start = perf_counter()
        kernel()
        self.samples.append((start, perf_counter() - start))

    def __enter__(self) -> SpeedProbe:
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def normalise(self, start: float, end: float) -> tuple[float, float]:
        """(raw seconds, normalised seconds) of the interval [start, end),
        both without the kernel time spent inside it.  An interval too
        short to hold a sample uses every sample of the repetition."""
        inside = [d for t, d in self.samples if start <= t < end]
        busy = end - start - sum(inside)
        ref = inside or [d for _, d in self.samples] or [time_kernel()]
        return busy, busy * REFERENCE_S / fmean(ref)
