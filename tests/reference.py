"""Scalar reference paths: the oracle the production kernels are checked against.

Production has one implementation per behaviour — block-bounded best
fit over the availability mirror, the batched doubling-category
knapsack, the pass-scoped clone score cache and lazy priority
maintenance.  This module keeps the plain per-server and per-level
loops they replaced, unchanged in logic, so the equivalence suite can
run the whole engine both ways and demand identical decisions:

* :func:`best_fit_server`, :func:`servers_fitting`, :func:`any_fits` —
  the per-server loops behind the three ``Cluster`` queries;
* :func:`fill_tasks_scalar` — the task fill with a per-candidate
  best-server cache, rescored when its server is hit;
* :func:`tetris_rescore` — Tetris' per-server alignment scan;
* :func:`compute_priorities_scalar` — Algorithm 1 as one
  ``max_count_knapsack`` call per doubling category;
* :class:`UncachedCloneScores` — a fresh best-fit scan per clone query;
* :class:`EagerDollyMP` — DollyMP recomputing priorities at every
  arrival instead of deferring to the next read.

:func:`reference_paths` installs any subset of them with ``monkeypatch``.
Equal scores break the same way everywhere: the earliest candidate,
then the lowest server id (strict ``>`` keeps the first maximum).
"""

from __future__ import annotations

from typing import Callable, Iterable

import repro.core.online as online
import repro.schedulers.packing as packing
from repro.cluster.cluster import Cluster
from repro.cluster.server import Server
from repro.core.knapsack import max_count_knapsack
from repro.core.online import DollyMPScheduler
from repro.core.transient import num_levels
from repro.resources import Resources
from repro.schedulers.tetris import TetrisScheduler
from repro.sim.actions import Launch

__all__ = [
    "PARTS",
    "EagerDollyMP",
    "UncachedCloneScores",
    "any_fits",
    "best_fit_server",
    "compute_priorities_scalar",
    "fill_tasks_scalar",
    "reference_paths",
    "servers_fitting",
    "tetris_rescore",
]

#: What :func:`reference_paths` can swap in, by name.
PARTS = ("placement", "priorities", "clone_fill")


# ----------------------------------------------------------------------
# Cluster queries
# ----------------------------------------------------------------------
def servers_fitting(cluster: Cluster, demand: Resources) -> list[Server]:
    return [s for s in cluster.servers if s.can_fit(demand)]


def any_fits(cluster: Cluster, demand: Resources) -> bool:
    return any(s.can_fit(demand) for s in cluster.servers)


def best_fit_server(cluster: Cluster, demand: Resources) -> Server | None:
    best: Server | None = None
    best_score = -1.0
    for s in cluster.servers:
        if not s.up:
            continue
        avail = s.available
        if not demand.fits_in(avail):
            continue
        score = demand.dot(avail)
        if score > best_score:  # strict: ties keep the lowest id
            best, best_score = s, score
    return best


# ----------------------------------------------------------------------
# Task fill
# ----------------------------------------------------------------------
class _Candidate:
    """A queue of identical pending tasks (one phase of one job)."""

    __slots__ = ("phase", "queue", "best_server", "best_score")

    def __init__(self, phase, tasks) -> None:
        self.phase = phase
        self.queue = tasks  # consumed from the end
        self.best_server: Server | None = None
        self.best_score = -1.0

    def rescore(
        self,
        servers: Iterable[Server],
        server_weight: Callable[[Server], float] | None = None,
    ) -> None:
        demand = self.phase.demand
        self.best_server = None
        self.best_score = -1.0
        for s in servers:
            if not s.up:
                continue
            avail = s.available
            if not demand.fits_in(avail):
                continue
            score = demand.dot(avail)
            if server_weight is not None:
                score *= server_weight(s)
            if score > self.best_score:  # strict: ties keep the lowest id
                self.best_server, self.best_score = s, score


def fill_tasks_scalar(view, phases_with_tasks, *, on_launch, server_weight) -> int:
    """Per-candidate best-server cache, rescored only when the cached
    best server's availability changes."""
    cands = [
        _Candidate(phase, list(tasks))
        for phase, tasks in phases_with_tasks
        if tasks
    ]
    servers = view.cluster.servers
    for c in cands:
        c.rescore(servers, server_weight)
    launched = 0
    while True:
        best: _Candidate | None = None
        for c in cands:
            if c.queue and c.best_server is not None and (
                best is None or c.best_score > best.best_score
            ):
                best = c
        if best is None:
            break
        task = best.queue.pop()
        server = best.best_server
        assert server is not None
        view.apply(Launch(task, server))
        if on_launch is not None:
            on_launch(task, server)
        launched += 1
        # Only `server`'s availability changed (shrank): rescore the
        # candidates that were counting on it.
        for c in cands:
            if c.best_server is server:
                c.rescore(servers, server_weight)
        cands = [c for c in cands if c.queue and c.best_server is not None]
    return launched


def tetris_rescore(self, cand, cluster) -> None:
    """Tetris' per-server alignment scan (replaces ``TetrisScheduler._rescore``)."""
    demand = cand.phase.demand
    cand.best_server = None
    cand.best_align = -1.0
    for s in cluster.servers:
        avail = s.available
        if not demand.fits_in(avail):
            continue
        align = demand.dot(avail)
        if align > cand.best_align:  # strict: ties keep the lowest id
            cand.best_server, cand.best_align = s, align


# ----------------------------------------------------------------------
# Priorities (Algorithm 1) and clone fill
# ----------------------------------------------------------------------
def compute_priorities_scalar(measures) -> dict[int, int]:
    """One knapsack call per doubling category."""
    g = num_levels(measures)
    priorities: dict[int, int] = {}
    for level in range(1, g + 1):
        cap = 2.0**level
        # B_l: every job with effective length within the category — the
        # oracle re-packs the whole set; jobs selected at earlier levels
        # keep their priority (step 7 only assigns where p^{l-1} = ∞).
        eligible = [m for m in measures if m.length <= cap]
        if not eligible:
            continue
        chosen = max_count_knapsack([m.volume for m in eligible], cap)
        for idx in chosen:
            priorities.setdefault(eligible[idx].job_id, level)
    for m in measures:  # float-edge fallback; the theory says unreachable
        priorities.setdefault(m.job_id, g + 1)
    return priorities


class UncachedCloneScores:
    """Drop-in for ``CloneScoreCache`` that keeps nothing between
    queries: every query scans every server's availability afresh."""

    def __init__(self, mirror) -> None:
        self._mirror = mirror

    def best_fit_id(self, demand: Resources) -> int | None:
        mirror = self._mirror
        if mirror._pending:
            mirror.flush()
        best: int | None = None
        best_score = -1.0
        lanes = zip(mirror.avail_cpu.tolist(), mirror.avail_mem.tolist(), mirror.up.tolist())
        for sid, (cpu, mem, up) in enumerate(lanes):
            if not up:
                continue
            avail = Resources(cpu, mem)
            if not demand.fits_in(avail):
                continue
            score = demand.dot(avail)
            if score > best_score:  # strict: ties keep the lowest id
                best, best_score = sid, score
        return best

    def on_launch(self, server_id: int) -> None:
        pass


class EagerDollyMP(DollyMPScheduler):
    """DollyMP with eager priority maintenance: any override of
    ``recompute_priorities`` makes every arrival recompute at once."""

    def recompute_priorities(self, view) -> None:
        super().recompute_priorities(view)


# ----------------------------------------------------------------------
# Installation
# ----------------------------------------------------------------------
def reference_paths(monkeypatch, parts: Iterable[str] = PARTS) -> None:
    """Swap the named production paths for their references.

    ``placement`` covers the task fill, the three ``Cluster`` queries
    and Tetris' rescore; ``priorities`` the online scheduler's
    Algorithm 1; ``clone_fill`` the online scheduler's clone score
    cache.  Eager priorities come from running :class:`EagerDollyMP`.
    """
    parts = set(parts)
    unknown = parts - set(PARTS)
    if unknown:
        raise ValueError(f"unknown reference parts {sorted(unknown)}")
    if "placement" in parts:
        monkeypatch.setattr(packing, "_fill_tasks_blocked", fill_tasks_scalar)
        monkeypatch.setattr(Cluster, "servers_fitting", servers_fitting)
        monkeypatch.setattr(Cluster, "any_fits", any_fits)
        monkeypatch.setattr(Cluster, "best_fit_server", best_fit_server)
        monkeypatch.setattr(TetrisScheduler, "_rescore", tetris_rescore)
    if "priorities" in parts:
        monkeypatch.setattr(online, "compute_priorities", compute_priorities_scalar)
    if "clone_fill" in parts:
        monkeypatch.setattr(online, "CloneScoreCache", UncachedCloneScores)
