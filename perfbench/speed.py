"""Host speed probe: fixed pieces of work owned by the benchmark, timed in
short bursts while the program runs, so that timings can be given at a
reference speed.

The machines this benchmark runs on share their host, and the host's speed
switches between levels up to about 1.9x apart, sometimes several times a
second, sometimes once a minute. A run's raw timings then depend on how
much of the run fell on each level. A burst does the same work in every
run and on every commit, so its duration measures the level only. A timing
multiplied by `scale` of the bursts taken while it ran is that timing at
the reference speed: the program's own work still scales it one to one,
the level mostly cancels. README.md (*Steadiness*) gives the measurements
behind this.

The bursts come from a CPU-time interval timer (SIGPROF) in the process
that does the work, so they sample the level of the CPU the work runs on
while it runs. The time they take is subtracted from the timing. Child
processes run under child.py, which does the same inside the child.

There are two kernels. The array kernel, small complex vectors and a 16x16
matrix plus a few passes over a 4096-entry complex vector, slows down with
the host as the program's ops do: regressing log op time on log burst time
gave slopes of 0.7-1.1 for the ops of every workload. The interpreter
kernel, plain Python arithmetic, slows less than the ops (slopes 0.9-1.5)
and serves only where numpy must not be imported yet: in a child, until the
program has imported it, so that `setup_s` still counts numpy's import.
"""

from __future__ import annotations

import contextlib
import signal
import statistics
import time
from dataclasses import dataclass
from typing import Callable

# CPU seconds between bursts.
TICK_S = 0.02
# Bursts run before sampling starts, to warm the kernel's own code.
WARM_BURSTS = 3


@dataclass(frozen=True)
class Kernel:
    work: Callable[[], object]
    # Burst duration at the fast level of the reference machine (2-vCPU
    # Xeon guest, Python 3.11, numpy 2.4); only a unit, it cancels between
    # commits.
    reference_s: float


_LOOP = 7000
_FLOATS = [i / 97.0 for i in range(4000)]


def _interpreter_work() -> float:
    total = 0
    for i in range(_LOOP):
        total += (i * i) % 7
    acc = 0.0
    for x in _FLOATS:
        acc += x * 1.0000001 - acc * 1e-9
    return total + acc


INTERPRETER = Kernel(_interpreter_work, 0.00072)


def array_kernel() -> Kernel:
    """The array kernel; imports numpy."""
    import numpy as np

    vector = np.linspace(0.0, 1.0, 16) + 0.5j
    matrix = np.eye(16) * 0.5
    state = np.linspace(0.0, 1.0, 4096) + 0.5j

    def work():
        v = vector
        for _ in range(90):
            v = matrix @ v * 0.5 + vector
            v = v / np.linalg.norm(v)
        w = state
        for _ in range(24):
            w = w * 0.5 + 0.1j * w
        return v, w

    return Kernel(work, 0.00093)


class SpeedProbe:
    """Runs bursts; keeps the time spent in them so far."""

    def __init__(self):
        self.busy_s = 0.0
        self._in_burst = False

    def burst(self, kernel: Kernel) -> float:
        """One burst; returns the speed it saw, reference duration / duration."""
        self._in_burst = True
        try:
            start = time.perf_counter()
            kernel.work()
            elapsed = time.perf_counter() - start
        finally:
            self._in_burst = False
        self.busy_s += elapsed
        return kernel.reference_s / elapsed

    def warm(self, kernel: Kernel):
        for _ in range(WARM_BURSTS):
            self.burst(kernel)

    @contextlib.contextmanager
    def sampling(self, kernel: Kernel, into: list[float]):
        """Append a burst's speed to `into` every TICK_S of this process's
        CPU time."""

        def on_tick(signum, frame):
            if not self._in_burst:
                into.append(self.burst(kernel))

        previous = signal.signal(signal.SIGPROF, on_tick)
        signal.setitimer(signal.ITIMER_PROF, TICK_S, TICK_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_PROF, 0)
            signal.signal(signal.SIGPROF, previous)


def scale(speeds: list[float]) -> float:
    """Factor that takes a timing over the stretch the bursts sampled to
    the reference speed.

    The bursts come at equal steps of CPU time, which for a busy process are
    equal steps of wall time, so each stands for the same length of the
    timing, and that length at the reference speed is its length times the
    burst's speed. Hence the plain mean of the speeds. One over the mean
    duration would give slow stretches more than their share, and read up
    to a tenth low when a run is split between two levels 1.9x apart.
    """
    return statistics.fmean(speeds)
