"""In-memory tracing of calls between the modules of the solit package.

The tracer replaces module-level names (for example ``solit.harness.build_grid``,
the name ``run_experiment`` looks up at call time) by wrappers.  Calls at layer
boundaries record a span ``[name, start, end, parent]``; hot inner calls only
bump a counter, so tracing stays cheap.  Leaving the ``with`` block puts every
original name back.  A name that no longer exists is recorded in ``absent``
and its metrics are left out of the report instead of failing the run.

The layer of a span is the part of its name before the first dot.
"""

from __future__ import annotations

import csv
import gzip
import time


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.counts: dict[str, float] = {}
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    def restore(self) -> None:
        """Put back every wrapped name, newest first."""
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def add(self, name: str, value: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + value

    def _take(self, module, attr: str, name: str):
        original = getattr(module, attr, None)
        if original is None:
            self.absent.append(name)
            return None
        self._saved.append((module, attr, original))
        return original

    def span(self, module, attr: str, name: str, on_call=None) -> None:
        """Record one span per call of ``module.attr``; ``on_call(tracer,
        *args, **kwargs)`` may add counts derived from the arguments."""
        fn = self._take(module, attr, name)
        if fn is None:
            return
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            if on_call is not None:
                on_call(self, *args, **kwargs)
            i = len(spans)
            spans.append([name, 0.0, 0.0, stack[-1] if stack else -1])
            stack.append(i)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[i][1] = start
                spans[i][2] = end

        setattr(module, attr, wrapper)

    def counter(self, module, attr: str, name: str, when=None) -> None:
        """Count calls of ``module.attr`` (only those where ``when(*args)``
        holds, if given) without timing them."""
        fn = self._take(module, attr, name)
        if fn is None:
            return
        counts = self.counts
        counts.setdefault(name, 0)

        def wrapper(*args, **kwargs):
            if when is None or when(*args, **kwargs):
                counts[name] += 1
            return fn(*args, **kwargs)

        setattr(module, attr, wrapper)

    def write(self, path: str) -> None:
        """Write the spans as gzip-compressed CSV (index, name, start, end, parent)."""
        with gzip.open(path, "wt", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["index", "name", "start", "end", "parent"])
            for i, (name, start, end, parent) in enumerate(self.spans):
                writer.writerow([i, name, repr(start), repr(end), parent])


def self_times(spans) -> list[float]:
    """Self time of each span: its duration minus the durations of its direct
    children.  Calls are single-threaded, so children never overlap."""
    own = [end - start for _, start, end, _ in spans]
    for _, start, end, parent in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def layer_breakdown(spans, wall: float) -> dict[str, float]:
    """Self seconds per layer plus ``unattributed``: the part of ``wall`` no
    top-level span covers.  The values add up to ``wall``."""
    layers: dict[str, float] = {}
    for (name, _, _, _), own in zip(spans, self_times(spans)):
        layer = name.split(".", 1)[0]
        layers[layer] = layers.get(layer, 0.0) + own
    covered = sum(end - start for _, start, end, parent in spans if parent < 0)
    layers["unattributed"] = wall - covered
    return layers


def totals(spans) -> dict[str, tuple[int, float, float]]:
    """Per span name: (calls, total seconds, self seconds)."""
    out: dict[str, tuple[int, float, float]] = {}
    for (name, start, end, _), own in zip(spans, self_times(spans)):
        calls, secs, self_s = out.get(name, (0, 0.0, 0.0))
        out[name] = (calls + 1, secs + end - start, self_s + own)
    return out
