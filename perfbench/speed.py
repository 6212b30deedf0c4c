"""Host-speed probe: a fixed reference loop, timed every few milliseconds
next to the work it calibrates.

A shared host changes how fast it runs pure Python from one second to the
next, by up to a factor of two, and the change lasts from a fraction of a
second to a few seconds. A task that takes seconds cannot dodge it, so its
raw time spreads widely from run to run. While a `SpeedProbe` runs, a timer
signal interrupts the program every `INTERVAL_S` and times `reference_loop`
in the same thread. A timed region is then reported twice: in seconds, with
the probes taken out, and in reference units (`ref`): those seconds divided
by the mean probe duration around the region. The reference loop is the
benchmark's own code, so a change to snowplan moves only the numerator.
"""

from __future__ import annotations

import signal
import statistics
import time
from contextlib import contextmanager

# The loop takes about 1 ms uncontended on a 2-vCPU Xeon VM with Python 3.11.
REF_ITERATIONS = 8000
INTERVAL_S = 0.02


def reference_loop(n: int = REF_ITERATIONS) -> int:
    """Dict updates and integer arithmetic, the bread and butter of the
    encoder and the bundled CDCL."""
    table: dict[int, int] = {}
    acc = 0
    for i in range(n):
        key = i & 63
        table[key] = table.get(key, 0) + i
        acc ^= (i * 7) & 255
    return acc


class SpeedProbe:
    def __init__(self, interval: float = INTERVAL_S) -> None:
        self.interval = interval
        self.probes: list[tuple[float, float]] = []   # (start, duration)

    def _fire(self, signum=None, frame=None) -> None:
        start = time.perf_counter()
        reference_loop()
        self.probes.append((start, time.perf_counter() - start))

    @contextmanager
    def running(self):
        """Probe on a timer while the block runs; one probe fires at once, so
        every region has one before it."""
        previous = signal.signal(signal.SIGALRM, self._fire)
        self._fire()
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def mark(self) -> int:
        """Taken just before a timed region starts; pass it to `measure`."""
        return len(self.probes)

    def measure(self, mark: int, start: float, end: float) -> tuple[float, float]:
        """(seconds, ref) of the region [start, end] that began after `mark`.

        Probes that ran wholly inside the region are taken out of its
        seconds. The speed is the mean duration of those probes and of the
        last one before the region.
        """
        own = end - start
        window = self.probes[max(mark - 1, 0):]
        for probe_start, duration in window:
            if probe_start >= start and probe_start + duration <= end:
                own -= duration
        mean = sum(d for _, d in window) / len(window)
        return own, own / mean

    def median_s(self) -> float:
        return statistics.median(d for _, d in self.probes)
