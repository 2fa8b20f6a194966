"""A fixed reference computation, timed beside the workloads.

The benchmark runs on a small guest of a shared host, where the speed of a
core drifts with what other tenants run: the same audit costs 15-50% more
CPU seconds in a busy phase of the host than in a quiet one, and such phases
last from seconds to minutes.  The reference is the library's core
operation done by hand: numpy min-plus relaxation passes over a fixed
512x512 distance matrix built from a constant seed.  It never calls the
library, so no change to the library moves it.  Dividing the CPU seconds of
each timed region by the reference's current level -- the median of its
last few runs, sampled between regions every ``EVERY_S`` seconds at most --
cancels much of the host's drift.  Of the candidate kernels tried (these
passes, a smaller matrix, a pure-Python BFS, a vectorised BFS, JSON
encoding, scipy's shortest paths), these passes tracked the workloads best.
It imports nothing beyond numpy and works in three preallocated arrays
(6 MB), so it barely moves ``peak_rss_mb``.
"""

from __future__ import annotations

import statistics
import time
from collections import deque

import numpy as np

N = 512
#: Kernel runs at each sampling point.
REPS = 3
#: Least wall seconds between two sampling points.
EVERY_S = 1.5
#: Sampling points whose samples make the current level (their median).
WINDOW = 3

#: The reference of the timed loop, if any (see :func:`level`).
ACTIVE: "Reference | None" = None


class Reference:
    def __init__(self) -> None:
        rng = np.random.default_rng(0)  # the same computation in every run
        self.dist = rng.integers(0, 20, size=(N, N), dtype=np.int64)
        self.buf = np.empty((N, N), dtype=np.int64)
        self.samples: list = []
        self.recent: deque = deque(maxlen=WINDOW * REPS)
        self.current = 1.0  # the median of the last WINDOW points' samples
        self.last = -float("inf")
        self._kernel()  # first-call costs stay out of the samples

    def _kernel(self) -> int:
        d, buf = self.dist, self.buf
        acc = 0
        for k in range(0, N, 8):
            np.add(d[k][:, None], d[k][None, :], out=buf)
            np.minimum(d, buf, out=buf)
            acc += int(buf.sum())
        return acc

    def sample(self) -> None:
        """Time :data:`REPS` kernel runs in CPU seconds of this process."""
        batch = []
        for _ in range(REPS):
            start = time.process_time()
            self._kernel()
            batch.append(time.process_time() - start)
        self.samples += batch
        self.recent.extend(batch)
        self.current = statistics.median(self.recent)
        self.last = time.perf_counter()

    def level(self) -> float:
        """The kernel's CPU seconds now: sampled again when it is due."""
        if time.perf_counter() - self.last >= EVERY_S:
            self.sample()
        return self.current


def level() -> float:
    """The active reference's :meth:`Reference.level`, or 1.0 without one."""
    return 1.0 if ACTIVE is None else ACTIVE.level()
