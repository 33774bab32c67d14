"""Host time at a reference machine speed.

On a shared machine the speed of the host CPU drifts by tens of percent
within seconds, and all code slows together.  :class:`SpeedClock`
samples that speed while the benchmark runs: an interval timer
(``SIGALRM``) interrupts the process every :data:`PERIOD` seconds and
times a fixed pure-Python kernel.  The wall time between two samples is
scaled by ``REFERENCE_S / kernel time`` (the mean of both ends), and the
kernel's own time is left out, so :meth:`SpeedClock.now` advances by
the seconds the same work would take when the kernel takes
:data:`REFERENCE_S`.  A change that makes the simulator faster shortens
the wall between samples and not the kernel, so it shows in full.

The handler touches nothing but the clock's own fields, and Python runs
it between bytecodes of the main thread.
"""

from __future__ import annotations

import signal
import time

__all__ = ["SpeedClock", "kernel", "PERIOD", "REFERENCE_S"]

#: seconds between speed samples
PERIOD = 0.05
#: kernel time that defines reference speed (about the kernel's time on
#: a 2.1 GHz Xeon core running CPython 3.11)
REFERENCE_S = 0.0005


def kernel() -> int:
    """The fixed unit of interpreter work a speed sample times."""
    table: dict = {}
    total = 0
    for i in range(4000):
        table[i & 255] = total
        total += i * 3 % 7
    return total


class SpeedClock:
    """A monotonic clock in reference-speed seconds.  It owns
    ``SIGALRM`` between :meth:`start` and :meth:`stop` (or while
    entered as a context manager)."""

    def __init__(self):
        self._norm = 0.0
        self._last = time.perf_counter()
        self._scale = 1.0
        self.samples = 0
        self._previous_handler = None

    def _sample(self, signum=None, frame=None) -> None:
        start = time.perf_counter()
        kernel()
        end = time.perf_counter()
        scale = REFERENCE_S / (end - start)
        self._norm += (start - self._last) * (self._scale + scale) / 2
        self._scale = scale
        self._last = end
        self.samples += 1

    def now(self) -> float:
        """Reference-speed seconds since the clock was created."""
        return self._norm + (time.perf_counter() - self._last) * self._scale

    def start(self) -> None:
        """Take a sample now and then every :data:`PERIOD` seconds."""
        self._sample()
        self._previous_handler = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD, PERIOD)

    def stop(self) -> None:
        """Stop sampling; :meth:`now` keeps the last speed."""
        if self._previous_handler is not None:
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
            signal.signal(signal.SIGALRM, self._previous_handler)
            self._previous_handler = None

    def __enter__(self) -> "SpeedClock":
        self.start()
        return self

    def __exit__(self, *exc) -> None:
        self.stop()
