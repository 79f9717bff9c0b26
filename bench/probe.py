"""Machine-speed probe: how much slower than the reference the CPU runs.

The CPU of a shared machine can run at half speed for anything from a
fraction of a second to minutes, so two runs of the same code differ by
more than most changes worth measuring.  While a timed region runs, a
SIGALRM handler times a fixed kernel (interpreter loop plus small numpy
calls, the library's own mix) every ``INTERVAL_S`` seconds.  The region's
slowness is the mean kernel time over ``KERNEL_REF_S``, the kernel's time
on the reference machine; its duration excludes the time spent in the
probe itself.  A region too short to catch a sample takes the slowness
of the latest sample.

Main thread only (signals); one region at a time.
"""

from __future__ import annotations

import signal
import time
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

INTERVAL_S = 0.02
KERNEL_ITERS = 200
#: Kernel time on the reference machine: the unloaded speed of the 2-core
#: x86-64 machine the baseline was measured on (Python 3.11, numpy 2.4).
KERNEL_REF_S = 2.0e-4

_X = np.arange(32.0)


def kernel_seconds() -> float:
    acc = 0.0
    t0 = time.perf_counter()
    for k in range(KERNEL_ITERS):
        acc += float(_X @ _X) * 1e-9 + (k % 7) * 0.5
    return time.perf_counter() - t0


@dataclass
class Timing:
    seconds: float = 0.0        # wall time of the region minus probe time
    slowness: float = 1.0       # mean kernel time / KERNEL_REF_S
    samples: int = 0

    @property
    def normalized(self) -> float:
        return self.seconds / self.slowness


class SpeedProbe:
    def __init__(self):
        self._samples: list[float] = []
        self._last = min(kernel_seconds() for _ in range(5)) / KERNEL_REF_S

    def _on_alarm(self, signum, frame):
        self._samples.append(kernel_seconds())

    @contextmanager
    def timing(self):
        """Time the body; the yielded :class:`Timing` is filled on exit."""
        result = Timing()
        self._samples = []
        previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        t0 = time.perf_counter()
        try:
            yield result
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
            elapsed = time.perf_counter() - t0
            signal.signal(signal.SIGALRM, previous)
            samples = self._samples
            if samples:
                self._last = sum(samples) / len(samples) / KERNEL_REF_S
            result.seconds = elapsed - sum(samples)
            result.slowness = self._last
            result.samples = len(samples)
