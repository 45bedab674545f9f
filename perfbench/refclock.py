"""Wall time scaled by the CPU speed sampled while it elapses.

On a shared virtual machine the CPU speed one process gets changes by up to
2x, in phases that last from seconds to minutes. On a 2-vCPU KVM guest
(Xeon, 2.0 GHz nominal), one fixed coopfuse op took 0.25 s in fast phases
and 0.48 s in slow ones. Raw wall times of runs made minutes apart are then
not comparable.

While an interval is open, an interval timer runs a tiny fixed probe every
``SAMPLE_PERIOD_S`` (and once at each end) and records how long it took.
The probe mixes what coopfuse spends its time on: a frozen dataclass,
``dataclasses.replace``, short numpy vectors and float math. It depends on
nothing in coopfuse, so library changes cannot move it. The interval is
reported both raw and scaled:

    scaled seconds = raw seconds * REFERENCE_SECONDS / mean(probe seconds)

that is, its length at the speed where the probe takes REFERENCE_SECONDS.
The samples are evenly spaced in time, so their mean is the time-weighted
slowdown; on the guest above it cut the coefficient of variation of one
repeated 4-second op from 17% (raw) to 3%, where the median of the samples
left 8%. Time spent inside probes is not counted in the interval.
"""

from __future__ import annotations

import math
import signal
import statistics
import time
from dataclasses import dataclass, replace

import numpy as np

SAMPLE_PERIOD_S = 0.05
# The probe's time on the 2-vCPU KVM guest above in a fast phase.
REFERENCE_SECONDS = 1.4e-4

_VECTORS = np.random.default_rng(0).standard_normal((16, 11))
_WEIGHTS = np.arange(11.0)


@dataclass(frozen=True)
class _Point:
    x: float
    y: float
    v: np.ndarray


def probe() -> float:
    """Run the fixed probe work once; return its wall seconds."""
    start = time.perf_counter()
    acc = 0.0
    for a in _VECTORS:
        p = _Point(float(a[0]), float(a[1]), a / np.linalg.norm(a))
        q = replace(p, x=p.x + 1.0)
        acc += math.hypot(q.x, q.y) + float(np.abs(a - q.v) @ _WEIGHTS)
    if not math.isfinite(acc):
        raise ArithmeticError("probe produced a non-finite sum")
    return time.perf_counter() - start


class RefClock:
    """Times intervals in raw and in speed-scaled seconds.

    Intervals may nest. The clock owns SIGALRM and ``ITIMER_REAL`` while any
    interval is open, so it must live in the main thread.
    """

    def __init__(self) -> None:
        self._samples: list[float] = []
        self._in_probe = 0.0
        self._open = 0
        self._probing = False
        signal.signal(signal.SIGALRM, self._on_alarm)

    def _sample(self) -> None:
        self._probing = True
        start = time.perf_counter()
        self._samples.append(probe())
        self._in_probe += time.perf_counter() - start
        self._probing = False

    def _on_alarm(self, signum, frame) -> None:
        if not self._probing:  # a probe interrupted by the timer would time two
            self._sample()

    def start(self) -> tuple[float, int, float]:
        if self._open == 0:
            signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S, SAMPLE_PERIOD_S)
        self._open += 1
        self._sample()
        return time.perf_counter(), len(self._samples) - 1, self._in_probe

    def stop(self, token) -> tuple[float, float]:
        """(raw seconds, scaled seconds) since ``token = start()``."""
        start, first, in_probe = token
        raw = time.perf_counter() - start - (self._in_probe - in_probe)
        self._sample()
        self._open -= 1
        if self._open == 0:
            signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        slowness = statistics.fmean(self._samples[first:])
        return raw, raw * REFERENCE_SECONDS / slowness
