"""Host-speed reference for the benchmark's timings.

On a shared virtual machine the CPU a process runs on changes speed under it:
on the 2-vCPU machine the benchmark was built on, a small fixed piece of
Python work took 5 ms or 10 ms, flipping between the two many times a second,
and the share of time spent in the slow state changed from minute to minute. A
job's raw time then says as much about the host as about the program (the
quartiles of ten 56-second runs spread by 20-40% of their median). The runner
therefore runs a small fixed reference kernel between jobs, on the same CPU,
and reports each job's time multiplied by REFERENCE_S / (the mean kernel time
around that job): seconds on a host where the kernel takes REFERENCE_S. The
raw times are reported next to them.

The kernel does the kind of pure-Python work the jobs do: small integer
matrices mod n composed as tuples and memoised in a dict, a dict keyed by
tuples built and probed, and a list of tuples sorted. Of the mixes tried, this
one slowed in the slow state most nearly as the jobs did (numpy gathers slowed
more). It never touches trusskit, so a change to the program cannot move it.

Process start-up (`setup_s`) slowed less than the kernel, so it is scaled by a
reference of its own kind instead: a bare Python start (no imports beyond
`time`), run just before each set-up probe, with START_REFERENCE_S its unit.
"""

from __future__ import annotations

import time
from bisect import bisect_left, bisect_right
from statistics import fmean

# The kernel's time on the machine the benchmark was built on, in its fast
# state: the unit of every scaled job time.
REFERENCE_S = 0.0035
WINDOW_S = 2.0  # kernel samples this close to a job (or as close as its length) scale it
AFTER_SHARE = 0.03  # after a job, sample for about this share of its time
EVERY_S = 0.1  # before a job, sample if the last sample is older than this
# A bare `python3 -c` start on the build machine in its fast state: the unit of
# the scaled set-up time.
START_REFERENCE_S = 0.045


def kernel() -> int:
    # small integer matrices mod n composed as tuples and memoised (compose_homs)
    n, mod = 4, 16
    a = tuple(tuple((3 * i + 5 * j + 1) % mod for j in range(n)) for i in range(n))
    m, memo = a, {}
    for _ in range(100):
        m = tuple(tuple(sum(m[i][k] * a[k][j] for k in range(n)) % mod for j in range(n)) for i in range(n))
        memo[m] = memo.get(m, 0) + 1
    # a table keyed by tuples, built and then probed (value tables, lookups)
    table = {((i * 7919) % 2003, i % 13): i for i in range(2000)}
    hits = sum(table.get(((i * 31) % 2003, i % 13), 0) for i in range(2000))
    # tuples sorted (candidate lists)
    pairs = sorted(((i * 7919) % 2503, i) for i in range(2500))
    return len(memo) + hits + pairs[0][1]


class Speed:
    """Kernel samples taken during a run, and the scale they give a job."""

    def __init__(self) -> None:
        self.mids: list[float] = []  # sample midpoints, increasing
        self.durs: list[float] = []

    def sample(self) -> None:
        start = time.perf_counter()
        kernel()
        end = time.perf_counter()
        self.mids.append((start + end) / 2)
        self.durs.append(end - start)

    def maybe(self) -> None:
        """Sample unless the last sample is younger than EVERY_S."""
        if not self.mids or time.perf_counter() - self.mids[-1] >= EVERY_S:
            self.sample()

    def follow(self, elapsed: float) -> None:
        """Sample after a job of `elapsed` seconds, more after a longer one,
        so that a long job is scaled by more than one sample."""
        for _ in range(round(elapsed * AFTER_SHARE / REFERENCE_S)):
            self.sample()

    def scale(self, start: float, end: float) -> float:
        """REFERENCE_S over the mean kernel time from `reach` before `start`
        to `reach` after `end`, where `reach` is WINDOW_S or the job's length
        if longer (the nearest sample if none is that close). The mean, not
        the median: the host's speed flips between a fast and a slow state
        many times a second, and a job slows by the share of time spent in
        the slow one."""
        reach = max(WINDOW_S, end - start)
        lo = bisect_left(self.mids, start - reach)
        hi = bisect_right(self.mids, end + reach)
        if lo < hi:
            return REFERENCE_S / fmean(self.durs[lo:hi])
        near = min(range(len(self.mids)), key=lambda i: abs(self.mids[i] - (start + end) / 2))
        return REFERENCE_S / self.durs[near]
