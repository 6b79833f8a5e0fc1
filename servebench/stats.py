"""Reducers and host probes shared by the workloads and the tracer.

Every end-to-end number the benchmark reports is a median over samples
spread across the whole run (one sample per pass, or one per round or
call pooled over every pass), so a host slow phase that covers a few
seconds of the run moves a few samples, not the reported value.
"""

from __future__ import annotations

import math
import resource
import statistics
import time

import numpy as np


def median(values) -> float:
    """Median of ``values``; ``nan`` for an empty sample."""
    values = list(values)
    return statistics.median(values) if values else math.nan


def quantile(values, q: float) -> float:
    """Linear-interpolated ``q``-quantile (NumPy's default); ``nan`` if empty."""
    values = list(values)
    return float(np.quantile(values, q)) if values else math.nan


def pooled_median(per_pass_samples) -> float:
    """Median of every sample of every pass, pooled.

    Used for per-round and per-call latencies: each pass contributes the
    same mix of rounds, so the pooled median is a fixed point of that mix.
    """
    return median(sample for samples in per_pass_samples for sample in samples)


def rate_over_passes(work_per_pass, seconds_per_pass) -> float:
    """Median over passes of ``work / seconds`` (a throughput per pass)."""
    return median(
        work / seconds
        for work, seconds in zip(work_per_pass, seconds_per_pass)
        if seconds > 0
    )


def peak_rss_mb() -> float:
    """The larger of this process's peak RSS and its largest reaped child's, in MiB.

    On Linux ``ru_maxrss`` is in KiB; ``RUSAGE_CHILDREN`` reports the
    largest descendant that has been waited for, which covers the
    process executor's shard workers once the service is closed.  The
    workers are forked, so a worker's RSS already counts the parent pages
    it inherited resident; adding the two peaks would count those twice.
    """
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, child) / 1024.0


def cpu_probe_ms() -> float:
    """Fixed CPU work (interpreter loop plus a NumPy sort), best of three, in ms.

    A diagnostic of the host's speed at the moment it runs: printed
    before and after each run, never used to scale a metric.
    """
    data = np.random.default_rng(0).random(200_000)
    best = math.inf
    for _ in range(3):
        start = time.perf_counter()
        total = 0
        for i in range(200_000):
            total += i * i % 7
        np.sort(data)
        best = min(best, time.perf_counter() - start)
    return best * 1e3
