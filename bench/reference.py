"""A reference loop that samples the machine's speed during a timed phase.

On a shared virtual machine, other tenants can slow every process by 20 to
40 % for seconds to minutes at a time, on all cores at once (measured on a
2-vCPU Xeon VM at 2.1 GHz with Python 3.11). A fixed loop run
between the program's own steps slows by the same factor, so the program's
time divided by the loop's mean time stays steady while either time alone
drifts. ``Sampler`` runs the loop from a ``SIGALRM`` handler every
``interval`` seconds, so the samples are spread evenly over the phase, also
inside one long call, and keeps their durations. ``clock`` is
``time.perf_counter`` minus the time spent in the handler, so a phase timed
with it excludes the samples.
"""

from __future__ import annotations

import signal
import time

# The reference loop's time that set-up times are scaled to. The loop takes
# 0.44 to 0.75 ms on a 2-vCPU Xeon VM at 2.1 GHz with Python 3.11.
NOMINAL_S = 0.0005

# A fixed breadth-first closure over a fixed table: the same kind of set and
# list work as the program's hot loop, but independent of its code.
_TABLE = [[(a * 7 + b * 13) % 997 for b in range(8)] for a in range(997)]


def reference_work() -> int:
    seen = {0}
    frontier = [0]
    while frontier:
        new = []
        for x in frontier:
            row = _TABLE[x]
            for y in row:
                if y not in seen:
                    seen.add(y)
                    new.append(y)
        frontier = new
    return len(seen)


class Sampler:
    """Runs ``reference_work`` every ``interval`` seconds while entered."""

    def __init__(self, interval: float = 0.05):
        self.interval = interval
        self.samples: list[float] = []
        self.spent = 0.0

    def clock(self) -> float:
        return time.perf_counter() - self.spent

    def _tick(self, signum, frame) -> None:
        start = time.perf_counter()
        reference_work()
        elapsed = time.perf_counter() - start
        self.samples.append(elapsed)
        self.spent += elapsed

    def __enter__(self) -> "Sampler":
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def mean(self, first: int = 0) -> float:
        """Mean duration of the samples from index ``first`` on."""
        samples = self.samples[first:]
        if not samples:
            raise ValueError("no reference samples: the phase was shorter than one interval")
        return sum(samples) / len(samples)
