"""Host-speed probe: a fixed kernel timed all through each simulation.

A shared host changes speed by 30-40% for minutes at a time (other
tenants' load), and every host time the benchmark reports moves with
it.  :func:`kernel` does a fixed amount of the kinds of work the
simulator does — a scan over small objects with attribute and dict
traffic, a sort, and dense numpy passes over a 30K-element array like
the placement kernels' — and uses nothing from ``repro``, so no change
to the program can make it faster or slower; only the host can.
``child.py`` times it every ``PROBE_EVERY_S`` of a simulation and
states each stretch of the run at the reference speed: host time ×
``REFERENCE_KERNEL_MS`` / the kernel's time around it.
"""

from __future__ import annotations

import time

import numpy as np

#: The kernel's time, in ms, that scaled host times are stated at.  It
#: lies in the kernel's usual range on the 2-core x86 host README.md
#: names (0.3-0.6 ms), so scaled times read like that host's.
REFERENCE_KERNEL_MS = 0.4

#: Host seconds between probes during a simulation.
PROBE_EVERY_S = 0.05


class _Item:
    __slots__ = ("key", "pending", "weight")

    def __init__(self, i: int) -> None:
        self.key = i
        self.pending = (i * 7) % 11
        self.weight = 1.0 + (i % 13) / 13.0


_ITEMS = [_Item(i) for i in range(300)]
_CAPACITY = np.linspace(0.0, 1.0, 30_000)


def kernel() -> float:
    """One fixed unit of interpreter and numpy work; returns a checksum
    so nothing is optimised away."""
    scores: dict[int, float] = {}
    for item in _ITEMS:
        if item.pending > 2:
            scores[item.key] = item.weight * item.pending
    total = sum(scores[k] for k in sorted(scores, key=scores.__getitem__)[:64])
    for demand in (0.2, 0.5, 0.8):
        fits = _CAPACITY >= demand
        total += float(np.argmax(np.where(fits, _CAPACITY - demand, -1.0)))
    return total


def probe(clock=time.perf_counter) -> float:
    """Host milliseconds of one kernel run."""
    t0 = clock()
    kernel()
    return (clock() - t0) * 1e3
