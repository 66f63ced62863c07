"""The machine's current pace, from a fixed reference kernel timed alongside.

On a shared host the same pure-Python work runs up to 1.6x slower for
stretches of several seconds, in CPU time as much as in wall time, so raw
timings of whole runs differ by 20-35% with no change to the program.  The
benchmark therefore times this kernel every few tenths of a second and
expresses each measured duration at the reference pace:

    normalised = measured * REFERENCE_S / (kernel time around the measurement)

REFERENCE_S is the kernel's usual time on the machine where the benchmark
was set up, so normalised figures read close to raw ones there.  The kernel
is plain Python with no dimkit code (BFS over bit-row adjacency, like the
program's own hot loops), so a change to dimkit cannot move it.
"""

from __future__ import annotations

import bisect
import random
import statistics
import time

# median kernel time on a 2-core x86-64 host under Python 3.11
REFERENCE_S = 0.0006
SAMPLE_EVERY_S = 0.2
WINDOW_S = 1.0

_N = 48


def _reference_rows() -> list[int]:
    rng = random.Random(7)
    rows = [0] * _N
    for v in range(1, _N):
        u = rng.randrange(v)
        rows[u] |= 1 << v
        rows[v] |= 1 << u
    for _ in range(40):
        u, v = rng.sample(range(_N), 2)
        rows[u] |= 1 << v
        rows[v] |= 1 << u
    return rows


_ROWS = _reference_rows()


def kernel() -> int:
    """Sum of BFS depths from every vertex of a fixed 48-vertex graph."""
    total = 0
    for s in range(_N):
        seen = front = 1 << s
        depth = 0
        while front:
            nxt = 0
            while front:
                low = front & -front
                front ^= low
                nxt |= _ROWS[low.bit_length() - 1]
            front = nxt & ~seen
            seen |= front
            depth += 1
        total += depth
    return total


class Pace:
    """Kernel samples (time taken, duration) over a run."""

    def __init__(self):
        self.at: list[float] = []
        self.took: list[float] = []

    def sample(self) -> None:
        # best of three back-to-back calls drops a stray interrupt; the
        # slowdowns this tracks last far longer than the three calls
        best = None
        for _ in range(3):
            t0 = time.perf_counter()
            kernel()
            dt = time.perf_counter() - t0
            best = dt if best is None or dt < best else best
        self.at.append(t0)
        self.took.append(best)

    def maybe_sample(self) -> None:
        if not self.at or time.perf_counter() - self.at[-1] >= SAMPLE_EVERY_S:
            self.sample()

    def normalise(self, start: float, end: float) -> float:
        """end - start, expressed at the reference pace."""
        # callers sample right before and after each measurement, so the
        # window is never empty
        lo = bisect.bisect_left(self.at, start - WINDOW_S)
        hi = bisect.bisect_right(self.at, end + WINDOW_S)
        return (end - start) * REFERENCE_S / statistics.median(self.took[lo:hi])
