"""CPU-speed sampling, so timings can be reported at a reference speed.

The benchmark's host is shared: the effective speed of one vCPU swings
by up to 2x over seconds to minutes (a fixed pure-Python loop measured
28-50 ms in one two-minute window), and the VM exposes no hardware
counters to count instructions instead.  A sampler thread therefore
times a fixed pure-Python kernel every ``PERIOD_S`` seconds on the one
CPU the whole benchmark is pinned to; the kernel shares no code with the
program under test.  A wall interval converts to *reference seconds* by
integrating ``REFERENCE_S / kernel time`` over it: one reference second
is the time in which the kernel runs ``1 / REFERENCE_S`` times.

On a shared 2-vCPU VM, over ten seeds per workload, wall-clock
throughput and latencies spread 0.05-0.27 (interquartile range over
median) and their reference-second values 0.01-0.09.
"""

from __future__ import annotations

import bisect
import os
import statistics
import threading
import time

#: Nominal kernel duration: the scale of a reference second.
REFERENCE_S = 0.001
PERIOD_S = 0.1
#: Samples on each side whose median smooths one sample (a kernel run
#: preempted by another process on the pinned CPU reads slow).
SMOOTH = 2


def kernel() -> float:
    """Seconds one run of the fixed reference loop takes."""
    start = time.perf_counter()
    total = 0
    for i in range(20_000):
        total += i & 7
    return time.perf_counter() - start


def pin_to_one_cpu() -> int:
    """Pin this process (and the children it starts) to one CPU."""
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


class SpeedSampler:
    """Background kernel timings and the wall-to-reference conversion."""

    def __init__(self) -> None:
        self.times: list[float] = []
        self.kernels: list[float] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True,
                                        name="speed-sampler")
        self._speeds: list[float] = []
        self._bounds: list[float] = []

    def __enter__(self) -> "SpeedSampler":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()
        kernels, times = self.kernels, self.times
        self._speeds = [
            statistics.median(kernels[max(0, i - SMOOTH):i + SMOOTH + 1])
            for i in range(len(kernels))]
        self._bounds = [(times[i] + times[i + 1]) / 2
                        for i in range(len(times) - 1)]

    def _run(self) -> None:
        while not self._stop.wait(PERIOD_S):
            duration = kernel()
            self.times.append(time.perf_counter())
            self.kernels.append(duration)

    def reference_seconds(self, start: float, end: float) -> float:
        """``end - start`` wall seconds, expressed in reference seconds.

        Each moment runs at the (smoothed) speed of the nearest sample;
        call after the sampler has stopped."""
        if not self._speeds:
            raise RuntimeError("no speed samples; was the sampler run?")
        index = bisect.bisect_right(self._bounds, start)
        total, cursor = 0.0, start
        while cursor < end:
            edge = self._bounds[index] if index < len(self._bounds) else end
            step_end = min(edge, end)
            total += (step_end - cursor) * REFERENCE_S / self._speeds[index]
            cursor = step_end
            index += 1
        return total
