"""The reference loop, and the two ways the benchmark times work against it.

On a shared host the machine's speed drifts by tens of percent, switching
within a second and wandering over minutes, and CPU time drifts with wall
time, so neither can be gated.  A fixed pure-Python job, the reference run,
is timed at the host's current speed in the same process, and measured work
is reported in *reference seconds*:

    wall seconds * NOMINAL_S / (mean duration of the reference runs that
                                measured the host while the work ran)

that is, what the work would have taken on a host where one reference run
takes exactly NOMINAL_S.  The loop mixes the kinds of work the program does
(exact `Fraction` phases, complex exponentials, small-tuple hashing and dict
updates) so that host slowdowns hit both alike.

`Sampler` runs the reference loop on a timer inside the measuring thread
while in-process work runs, so the samples see the same moments as the work;
the probes' own time is taken out of the work's wall time.  A child process
runs its own Sampler (cli_child.py) and reports the samples back.  README.md
gives the measurements behind this design.
"""

from __future__ import annotations

import cmath
import math
import resource
import signal
import time
from fractions import Fraction

ITERATIONS = 100
# One run's duration on the host where the reference figures in README.md
# were taken; it only fixes the unit, so it never needs to change.
NOMINAL_S = 0.0009
# Sampler period: one probe of about a millisecond every 20 ms costs about 5%.
PROBE_INTERVAL_S = 0.02


def reference_loop(iterations: int = ITERATIONS) -> tuple[complex, int]:
    acc = 0j
    table: dict[tuple[int, ...], int] = {}
    q = Fraction(0)
    step = Fraction(3, 97)
    for i in range(iterations):
        q = (q + step * (i % 89 + 1)) % 2
        acc += cmath.exp(1j * math.pi * float(q))
        key = (i % 7, i % 11, i % 13)
        image = tuple(a * b - c for a, b, c in zip(key, (3, -1, 2), (1, 0, 1)))
        table[image] = table.get(image, 0) + 1
    return acc, len(table)


def probe() -> float:
    """Wall duration of one reference run, in seconds."""
    start = time.perf_counter()
    reference_loop()
    return time.perf_counter() - start


def scaled(wall: float, samples: list[float]) -> float:
    """Reference seconds of `wall` seconds of work measured by these samples."""
    return wall * NOMINAL_S * len(samples) / sum(samples)


class Sampler:
    """Samples the reference loop every PROBE_INTERVAL_S while work runs.

    Use as a context manager around the measured work, and `mark()` /
    `since(mark)` around each region to time.  SIGALRM is taken for the
    duration; the probes run between the program's bytecodes.
    """

    def __init__(self, interval: float = PROBE_INTERVAL_S):
        self.interval = interval
        self.samples: list[float] = []
        self.spent = 0.0
        self._previous = None

    def _probe(self, _signum, _frame) -> None:
        duration = probe()
        self.samples.append(duration)
        self.spent += duration

    def __enter__(self) -> "Sampler":
        self._previous = signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def mark(self) -> tuple[float, float, int]:
        return time.perf_counter(), self.spent, len(self.samples)

    def since(self, mark) -> tuple[float, float]:
        """(wall seconds, reference seconds) of the work since `mark`,
        without the probes' own time."""
        start, spent, count = mark
        wall = time.perf_counter() - start - (self.spent - spent)
        recent = self.samples[count:]
        if not recent:  # a region shorter than the period: probe once now
            self._probe(None, None)
            recent = self.samples[-1:]
        return wall, scaled(wall, recent)


def peak_rss_mb() -> float:
    """Peak resident set size of this process image, in MB.

    VmHWM counts only since the last exec; ru_maxrss, the fallback, also keeps
    the parent's size at fork time.
    """
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
