"""Running independent tasks on the CPUs of the process's affinity set.

``map_on_cpus`` is the one place where the package starts threads: the
Monte Carlo sweeps score their noise levels through it, and the tail-quantile
sampler draws its runs of blocks through it.  Threads pay off because numpy
releases the GIL in its array loops and matrix products.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor


def cpu_count() -> int:
    """The number of CPUs of the process's affinity set; 1 on platforms
    without an affinity call (macOS, Windows), which then run serially."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1


def map_on_cpus(fn, items) -> list:
    """``[fn(item) for item in items]``, in item order, with the calls spread
    over a ``ThreadPoolExecutor`` of ``min(cpu_count(), len(items))`` threads;
    for one CPU or one item they run on the calling thread and none starts.
    Every thread has ended when the call returns.  If a call raises, the
    first failing item's error in item order is raised again and the items
    not started by then are cancelled.  ``fn`` must write nothing that
    another item's call reads.
    """
    items = list(items)
    threads = min(cpu_count(), len(items))
    if threads <= 1:
        return [fn(item) for item in items]
    with ThreadPoolExecutor(threads) as pool:
        return list(pool.map(fn, items))
