"""Measurement primitives shared by the benchmark's parent and child.

Nothing here imports ``repro``: the span recorder, the self-time
arithmetic and the percentile rule are plain host-side bookkeeping, so
the self-tests can check them without a simulator.
"""

from __future__ import annotations

import math
import time
from array import array
from typing import Callable, Sequence

#: Percentile ladder the decision-latency rule climbs, lowest first.
PERCENTILE_LADDER = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)

#: Samples that must lie beyond a reported tail percentile.
MIN_BEYOND = 10


def highest_percentile(
    n: int, ladder: Sequence[float] = PERCENTILE_LADDER, beyond: int = MIN_BEYOND
) -> float | None:
    """Highest ladder percentile that keeps ``beyond`` samples above it.

    With ``n`` samples, percentile ``p`` leaves ``n * (1 - p/100)``
    samples beyond it; the rule keeps only percentiles where that count
    is at least ``beyond``.  Returns None when even the lowest rung
    leaves too few (the tail cannot be reported at all).
    """
    best = None
    for p in ladder:
        if n * (100.0 - p) / 100.0 + 1e-9 >= beyond:
            best = p
    return best


def percentile(values: Sequence[float], p: float) -> float:
    """Linear-interpolated percentile (numpy's default method)."""
    if not values:
        raise ValueError("percentile of no values")
    xs = sorted(values)
    pos = (len(xs) - 1) * p / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def median(values: Sequence[float]) -> float:
    return percentile(values, 50.0)


class SpanRecorder:
    """In-memory span store: (name, start, end, parent) per span.

    Spans are kept in flat typed arrays (24 bytes each) so a traced run
    with hundreds of thousands of layer crossings stays small; they are
    written out once, after the run (:meth:`write_csv`).  ``parent`` is
    the index of the enclosing open span, or -1 at top level.  Counters
    ride alongside in a plain dict.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_of = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self.counts: dict[str, float] = {}

    def name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = len(self.names)
            self.names.append(name)
            self._name_ids[name] = nid
        return nid

    def open(self, nid: int) -> int:
        idx = len(self.start)
        stack = self._stack
        self.name_of.append(nid)
        self.parent.append(stack[-1] if stack else -1)
        self.start.append(self.clock())
        self.end.append(math.nan)
        stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = self.clock()
        popped = self._stack.pop()
        if popped != idx:
            raise RuntimeError(f"span {idx} closed while span {popped} is innermost")

    def count(self, key: str, n: float = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + n

    def __len__(self) -> int:
        return len(self.start)

    def self_times(self) -> dict[str, float]:
        """Total self time per span name: each span's duration minus the
        durations of its direct children (which, being strictly nested,
        cover disjoint parts of its interval)."""
        n = len(self.start)
        if self._stack:
            raise RuntimeError(f"{len(self._stack)} spans still open")
        child = [0.0] * n
        start, end, parent = self.start, self.end, self.parent
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child[p] += end[i] - start[i]
        out: dict[str, float] = {name: 0.0 for name in self.names}
        names, name_of = self.names, self.name_of
        for i in range(n):
            out[names[name_of[i]]] += (end[i] - start[i]) - child[i]
        return out

    def write_csv(self, path) -> None:
        """Dump every span as ``name,start_s,end_s,parent`` lines, with
        times relative to the first span's start."""
        t0 = self.start[0] if len(self.start) else 0.0
        names = self.names
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("name,start_s,end_s,parent\n")
            for nid, s, e, p in zip(self.name_of, self.start, self.end, self.parent):
                fh.write(f"{names[nid]},{s - t0:.9f},{e - t0:.9f},{p}\n")


def quartile_spread(values: Sequence[float]) -> float:
    """(Q3 - Q1) / median, with quartiles as ``statistics.quantiles``
    gives them — the steadiness figure the benchmark is judged on."""
    import statistics

    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)
