"""Host speed, sampled while the benchmark runs, to normalise its times.

The benchmark shares its cores with other machines' work, and the speed
of a core drifts by a quarter or more over seconds to minutes: the same
solve of the same input can take 2.0 s in one minute and 2.6 s in the
next. A second core does not drift with the first, so the speed has to
be sampled on the benchmark's own core, while the measured work runs.

A :class:`Speedometer` does that with a wall-clock timer signal: every
:data:`PERIOD_S` the handler runs a fixed reference unit of interpreter
work and records how long it took. The workloads record their timed
stretches as ``(start_ns, end_ns)`` pairs of ``time.perf_counter_ns``;
:meth:`Speedometer.normalised_ns` turns one into the time the work would
have taken at the nominal speed: the stretch minus the samples taken
inside it, times :data:`NOMINAL_NS` over the median sample near it.
Every timed metric of the benchmark is normalised this way, so a change
to the program moves it and a change of the host's speed mostly does
not.
"""

from __future__ import annotations

import gc
import signal
import time
from bisect import bisect_left
from contextlib import contextmanager
from statistics import median
from typing import Iterator

#: Time between two samples, in seconds (the handler takes ~4% of it).
PERIOD_S = 0.005
#: A reference unit's duration at the nominal speed: about its median
#: on the 2-core x86 host the baseline was measured on.
NOMINAL_NS = 200_000
#: Samples within this distance of a stretch estimate its speed.
WINDOW_NS = 100_000_000


def reference_unit() -> int:
    """Fixed interpreter work; its duration measures the core's speed.

    Plain integer arithmetic tracked the slowdowns of the solvers, the
    service and the recovery path better than heap, dict, numpy or JSON
    kernels did: those swing further than the program when the core
    slows down.
    """
    total = 0
    for i in range(3000):
        total += i * i % 7
    return total


class Speedometer:
    """Samples the reference unit on a timer while :meth:`running`."""

    def __init__(self) -> None:
        self.starts: list[int] = []
        self.durations: list[int] = []
        self._factors: dict[tuple[int, int], float] = {}

    def _sample(self, signum: int, frame: object) -> None:
        # Keep collections of the program's objects out of the sample.
        collecting = gc.isenabled()
        gc.disable()
        start = time.perf_counter_ns()
        reference_unit()
        self.durations.append(time.perf_counter_ns() - start)
        self.starts.append(start)
        if collecting:
            gc.enable()

    @contextmanager
    def running(self) -> Iterator["Speedometer"]:
        previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def normalised_ns(self, start: int, end: int) -> float:
        """``[start, end)`` without its samples, at the nominal speed.

        A sample runs to completion between two bytecodes of the
        program, so one that starts inside the stretch also ends inside
        it.
        """
        first = bisect_left(self.starts, start)
        last = bisect_left(self.starts, end)
        own = end - start - sum(self.durations[first:last])
        return own * self._factor(start - WINDOW_NS, end + WINDOW_NS)

    def _factor(self, low: int, high: int) -> float:
        """Nominal over the median sample in ``[low, high)``.

        The bounds snap outwards to whole windows, so the many short
        stretches of one window share a cached median. A window with no
        sample (a C call that held the interpreter) widens until it has
        some.
        """
        key = (low // WINDOW_NS, -(-high // WINDOW_NS))
        factor = self._factors.get(key)
        if factor is None:
            low, high = key[0] * WINDOW_NS, key[1] * WINDOW_NS
            while True:
                first = bisect_left(self.starts, low)
                last = bisect_left(self.starts, high)
                if last > first or not self.starts:
                    break
                low, high = low - WINDOW_NS, high + WINDOW_NS
            if last == first:
                raise RuntimeError("the speedometer took no samples")
            factor = NOMINAL_NS / median(self.durations[first:last])
            self._factors[key] = factor
        return factor
