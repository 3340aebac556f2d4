"""Running independent tasks on the CPUs of the process's affinity set.

``map_on_cpus`` is the one place where the package starts threads: the
Monte Carlo sweeps score their noise levels through it, and the tail-quantile
sampler draws its runs of blocks through it.  Threads pay off because numpy
releases the GIL in its array loops and matrix products.
"""

from __future__ import annotations

import itertools
import os
import threading


def cpu_count() -> int:
    """The number of CPUs of the process's affinity set; 1 on platforms
    without an affinity call (macOS, Windows), which then run serially."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1


def map_on_cpus(fn, items) -> list:
    """``[fn(item) for item in items]``, with the calls spread over the
    calling thread and ``min(cpu_count(), len(items)) - 1`` worker threads.

    The items are handed out in order: the first to the calling thread, the
    next ones to one worker each, the rest one at a time to whichever thread
    is free, through one locked iterator.  So no thread starts for one CPU or
    one item.  Every worker has ended when the call returns.  If a call
    raises, no further item is handed out and the first error is raised
    again.  ``fn`` must write nothing that another item's call reads.
    """
    items = list(items)
    results = [None] * len(items)
    pending = iter(enumerate(items))
    lock = threading.Lock()
    failed: list[BaseException] = []

    def work(job) -> None:
        try:
            while job is not None and not failed:
                results[job[0]] = fn(job[1])
                with lock:
                    job = next(pending, None)
        except BaseException as exc:  # raised again on the calling thread
            failed.append(exc)

    first = next(pending, None)
    workers = [threading.Thread(target=work, args=(job,))
               for job in itertools.islice(pending, max(min(cpu_count(), len(items)) - 1, 0))]
    for worker in workers:
        worker.start()
    work(first)
    for worker in workers:
        worker.join()
    if failed:
        raise failed[0]
    return results
