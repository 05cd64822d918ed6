"""Host speed during a timed stretch, sampled by a fixed probe on a timer signal.

On a shared virtual machine the same unit of work runs up to twice as
slow while other tenants load the host, in spells that last from seconds
to minutes, so the wall times of whole units spread too widely to compare
two commits. Inside a `Pace` block a SIGALRM timer runs a small fixed probe
every INTERVAL_S seconds, in the benchmark's one thread between the
program's bytecodes. The probe is the kinds of code equirank runs: small
numpy calls on tiny arrays, dict and string building, and integer arithmetic
in Python. Each tick runs it twice and times the second pass, so that the
first refills the caches the program evicted and the sample measures the
host rather than the program's memory footprint.

`seconds` is the block's wall time less the ticks, divided by the slowdown:
the mean probe sample, without its slowest twentieth, over QUIET_PROBE_S.
It is the time the block would have taken on a quiet host.
"""

from __future__ import annotations

import signal
from time import perf_counter

import numpy as np

INTERVAL_S = 0.025
# About the median probe sample on a quiet 2-vCPU Intel Xeon VM.
QUIET_PROBE_S = 1.3e-4

_A = np.array([[4.0, 1, 0, 0], [1, 3, 1, 0], [0, 1, 2, 0.5], [0, 0, 0.5, 1]])
_B = np.arange(1.0, 5.0)
_X = np.linspace(-2.0, 2.0, 16)


def _probe() -> float:
    """Small numpy calls, dict and string building, and integer arithmetic,
    in quiet-host time shares of about 2:2:1."""
    s = 0.0
    for i in range(3):
        y = np.linalg.solve(_A, _B)
        z = np.clip(np.exp(-_X) * y[i % 4], -1.0, 1.0)
        s += float(np.mean(z)) + float(np.where(z > 0, z, 0.0).sum()) + float(np.dot(y, _B))
        s += len(sorted({"a": s, "b": i}, key=str)) + float(np.abs(z).max())
    d = {}
    for i in range(250):
        d[str(i)] = [i, float(i)]
    n = len(",".join(d))
    for i in range(600):
        n += i * i
    return s + n


class Pace:
    """Times a block of code, and the host speed while it ran."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.probe_s = 0.0  # time spent in ticks, both passes
        self.wall_s = 0.0

    def _tick(self, signum, frame) -> None:
        start = perf_counter()
        _probe()
        middle = perf_counter()
        _probe()
        end = perf_counter()
        self.samples.append(end - middle)
        self.probe_s += end - start

    def __enter__(self) -> Pace:
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        self._start = perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        self.wall_s = perf_counter() - self._start
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    @property
    def slowdown(self) -> float:
        """How many times slower than a quiet host the probe ran."""
        if not self.samples:
            return 1.0
        kept = sorted(self.samples)[: max(1, len(self.samples) * 19 // 20)]
        return sum(kept) / len(kept) / QUIET_PROBE_S

    @property
    def seconds(self) -> float:
        """Wall time without the ticks, at the speed of a quiet host."""
        return (self.wall_s - self.probe_s) / self.slowdown
