"""Small measurement helpers shared by the workloads and the server child."""

from __future__ import annotations

import gc
import math
import os
import platform
import resource
import sqlite3
import statistics
from time import perf_counter


def percentile(values, q: float) -> float:
    """Nearest-rank percentile (``q`` in 0..100) of a non-empty sample."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of an empty sample")
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def windowed_p99(samples, window: int = 1000) -> float:
    """p99 of each run of ``window`` consecutive samples, median over the
    runs; plain p99 when there are fewer than two windows.

    Each window's p99 still has ten samples beyond it.  The host this was
    tuned on changes speed by up to 1.6x for seconds at a time, and the
    p99 of a whole run followed whichever phase covered its slowest
    percent (spread 0.41 over ten runs, against 0.11 for p50); the
    median over windows follows the typical phase instead.
    """
    if len(samples) < 2 * window:
        return percentile(samples, 99)
    return statistics.median(
        percentile(samples[start:start + window], 99)
        for start in range(0, len(samples) - window + 1, window)
    )


def median(values) -> float:
    return statistics.median(values)


def timed_once(fn):
    """``(fn(), seconds)``, collecting garbage first so that each
    timed set-up, checkpoint or restore starts from the same heap state
    instead of paying for collections the previous work left due."""
    gc.collect()
    started = perf_counter()
    result = fn()
    return result, perf_counter() - started


def tail_ok(count: int) -> bool:
    """Whether p99 of ``count`` samples has at least ten beyond it."""
    return count >= 1000


def peak_rss_mb() -> float:
    """High-water resident set size of this process, in MiB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def provenance() -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "sqlite": sqlite3.sqlite_version,
        "platform": platform.platform(),
    }
