"""Host-speed calibration for timings taken on a shared machine.

A small virtual machine shares its host, and the host's speed drifts:
the same compile can take 30 ms now and 45 ms a second later.  Each
virtual CPU drifts on its own, and everything on that CPU slows with it,
so a fixed pure-Python kernel does too.  The :class:`SpeedClock` times
that kernel (in thread CPU time, so waiting for the interpreter lock in
a threaded workload does not count) between the operations of a run, on
the CPUs they run on, and :meth:`SpeedClock.scale` converts any
host-time interval to *reference seconds*: the time it would have taken
at the speed where the kernel takes :data:`REFERENCE_S`.

Every end-to-end timing the benchmark reports is in reference seconds;
the raw host times are reported beside them.  The kernel lives in this
directory, so a change to the program under test never changes it.
"""

from __future__ import annotations

import bisect
import itertools
import os
import threading
import time

#: Kernel time that defines reference speed: the median of one pass of
#: :func:`kernel` over 40 runs on the 2-vCPU Xeon host the benchmark was
#: built on, so a reference second is about a typical host second there.
REFERENCE_S = 0.0037


def kernel(n: int = 16000) -> int:
    """Fixed interpreter work: loops, calls, dict and list traffic."""
    table: dict[int, int] = {}
    items: list[int] = []
    acc = 0
    for i in range(n):
        table[i & 255] = acc
        acc = (acc * 31 + i) & 0xFFFF
        if acc & 1:
            acc ^= table.get(i & 127, 0)
        items.append(acc)
    return acc + len(items)


class SpeedClock:
    """Samples of host speed over time, and scaling by them."""

    def __init__(self) -> None:
        self._times: list[float] = []
        self._costs: list[float] = []
        self._lock = threading.Lock()

    def sample(self) -> float:
        """Time the kernel now; returns the sample's kernel seconds."""
        wall = time.perf_counter()
        start = time.thread_time()
        kernel()
        took = time.thread_time() - start
        at = (wall + time.perf_counter()) / 2
        with self._lock:
            i = bisect.bisect(self._times, at)
            self._times.insert(i, at)
            self._costs.insert(i, took)
        return took

    def factor(self, at: float) -> float:
        """Reference seconds per host second at time *at*: from the mean
        kernel time of the nearest sample before and after it."""
        with self._lock:
            if not self._times:
                raise RuntimeError("speed clock has no samples")
            i = bisect.bisect(self._times, at)
            near = self._costs[max(0, i - 1):i + 1]
        return REFERENCE_S / (sum(near) / len(near))

    def scale(self, seconds: float, start: float, end: float) -> float:
        """*seconds* of host time spent within ``[start, end]``, in
        reference seconds: the interval is cut at every sample inside it
        and each piece scaled by the speed around it."""
        with self._lock:
            inner = self._times[bisect.bisect(self._times, start):
                                bisect.bisect(self._times, end)]
        if end <= start:
            return seconds * self.factor(start)
        cuts = [start, *inner, end]
        weighted = sum((b - a) * self.factor((a + b) / 2)
                       for a, b in zip(cuts, cuts[1:]))
        return seconds * weighted / (end - start)

    def mean_factor(self) -> float:
        with self._lock:
            costs = list(self._costs)
        return REFERENCE_S / (sum(costs) / len(costs))


def pin_to_one_cpu() -> None:
    """Keep the calling thread, and threads and processes it starts later,
    on one CPU: for work that runs on one thread, so that the samples
    taken between its operations are of the CPU they ran on."""
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


class Sampler:
    """Samples a :class:`SpeedClock` on a background thread, for work
    that runs on other threads or processes or in one long call.

    Each virtual CPU of the host drifts on its own (their speeds correlate
    only weakly), so the thread takes its samples on each CPU this thread
    may use in turn: their neighbouring samples then average over the CPUs
    the work ran on."""

    def __init__(self, clock: SpeedClock, every_s: float = 0.1) -> None:
        self.clock = clock
        self.every_s = every_s
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True,
                                        name="e2e-speed-sampler")

    def _run(self) -> None:
        # Affinity set with pid 0 applies to this thread only.
        for cpu in itertools.cycle(sorted(os.sched_getaffinity(0))):
            if self._stop.wait(self.every_s):
                return
            os.sched_setaffinity(0, {cpu})
            self.clock.sample()

    def __enter__(self) -> "Sampler":
        self.clock.sample()
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join(timeout=10)
        self.clock.sample()
