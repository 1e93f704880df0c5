"""Host speed, measured beside the work, for scaling timings.

On a shared host, neighbours slow every instruction by up to ~40% for
minutes at a time, so even a job's fastest time moves with them.  A fixed
slice of pure-Python work, which does not depend on the program under
test, is timed before each job and slows with them.  Each job's time is
scaled by NOMINAL_S over the mean of the slices timed within WINDOW jobs
of it, and a job's latency is its fastest scaled time over the passes.
In 5 minutes of passes per workload on a 2-vCPU Xeon VM, cut into runs of
4-6 passes, the interquartile range of jobs/s across runs was 8% (corpus)
and 25% (sampling) of the median for the raw median-of-passes, and 4% and
3% scaled; of the 90th-percentile latency, 10% and 31% raw, 5% and 4%
scaled.  The scaled figures track the program: a change that makes the
program slower leaves the slices as they were.
"""

from __future__ import annotations

import itertools
import statistics
import time

NOMINAL_S = 0.0008  # scaled times read as on a host where one slice takes 0.8 ms
SLICE_ITERATIONS = 20_000
WINDOW = 20  # slices on each side of a job that set its scale


def slice_s() -> float:
    """Time one slice of fixed work (~0.8 ms on an idle 2-vCPU Xeon VM)."""
    start = time.perf_counter()
    acc = 0
    for i in range(SLICE_ITERATIONS):
        acc += i & 7
    return time.perf_counter() - start


def factor(slices) -> float:
    """What turns seconds measured beside `slices` into nominal seconds."""
    return NOMINAL_S / statistics.mean(slices)


def factors(slices, half: int = WINDOW) -> list:
    """For each job, given the slice timed before each, what turns its
    seconds into nominal seconds: NOMINAL_S over the mean of the slices of
    the jobs within `half` of it."""
    pre = list(itertools.accumulate(slices, initial=0.0))
    out = []
    for i in range(len(slices)):
        lo, hi = max(0, i - half), min(len(slices), i + half + 1)
        out.append(NOMINAL_S * (hi - lo) / (pre[hi] - pre[lo]))
    return out
