"""Locate the solit sources of the checkout and fix the thread settings.

The benchmark runs the package from ``src/`` of the checkout it lives in, so
it measures the code next to it and never an installed copy.  BLAS and OpenMP
pools default to one thread: BLAS is off the hot paths (the quantile-mc
sampler runs as fast on one thread as on two), and a single thread keeps the
timings steadier on a shared machine.
"""

from __future__ import annotations

import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, "perfbench", "out")
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def nproc() -> int:
    return len(os.sched_getaffinity(0))


class MissingSources(RuntimeError):
    pass


def prepare():
    """Set thread pools, put ``src/`` first on the path and import solit from it."""
    if not os.path.isfile(os.path.join(SRC, "solit", "__init__.py")):
        raise MissingSources(f"no solit sources under {SRC}")
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, SRC)
    import solit

    if os.path.dirname(os.path.abspath(solit.__file__)) != os.path.join(SRC, "solit"):
        raise MissingSources(f"solit was imported from {solit.__file__}, not from {SRC}")
    return solit


def blas_threads() -> int | None:
    """Thread count the loaded OpenBLAS reports, or None if it cannot be asked."""
    import ctypes

    import numpy  # noqa: F401  (loads the BLAS library)

    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        return None
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def commit() -> str | None:
    """Commit of the checkout, read from ``.git`` without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = os.path.join(git, ref)
        if os.path.isfile(loose):
            with open(loose) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None
