"""Property tests: block-bounded best fit equals a dense reference.

Every best-fit query — ``AvailabilityMirror.best_fit``, a
``CloneScoreCache`` kept current through ``on_launch``, and the launch
sequence of ``fill_tasks_best_fit`` — scans the servers in blocks of
``BLOCK_SIZE`` and prunes blocks by stale-high availability bounds
(DESIGN.md §5.10).  Pruning must never change an answer.  The reference
here is the obvious dense kernel: score every server, mask the unfit
ones to ``-inf``, take the first ``argmax``.

The generated clusters draw capacities, demands and weights from small
grids, so exact score ties are common; servers go down and come back;
releases and recoveries land after queries have tightened the bounds,
leaving them stale-high.  ``BLOCK_SIZE`` is patched to 1, 3, M-1, M and M+1.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.cluster.mirror as mirror_mod
from repro.cluster.cluster import Cluster
from repro.cluster.server import Server
from repro.resources import EPS, Resources
from repro.schedulers.base import Scheduler
from repro.schedulers.packing import CloneScoreCache, fill_tasks_best_fit
from repro.sim.engine import SimulationEngine
from repro.workload.distributions import Deterministic
from repro.workload.job import Job
from repro.workload.phase import Phase
from tests.cluster.test_server import make_copy, make_task

CAPACITIES = [Resources.of(c, m) for c in (4, 8) for m in (4, 8, 16)]
DEMANDS = [Resources.of(c, m) for c, m in ((0, 0), (1, 1), (1, 2), (2, 1), (2, 4), (4, 4), (0, 2))]
WEIGHTS = (0.5, 1.0, 2.0)
BLOCKS = ("1", "3", "M-1", "M", ">M")


def block_size(kind: str, m: int) -> int:
    return {"1": 1, "3": 3, "M-1": m - 1, "M": m, ">M": m + 1}[kind]


# ----------------------------------------------------------------------
# The dense reference
# ----------------------------------------------------------------------
def dense_best(servers, demand, weights=None) -> tuple[int, float] | None:
    a_c = np.array([s.available.cpu for s in servers])
    a_m = np.array([s.available.mem for s in servers])
    up = np.array([s.up for s in servers])
    scores = demand.cpu * a_c + demand.mem * a_m
    if weights is not None:
        scores = scores * weights
    scores[~(up & (a_c + EPS >= demand.cpu) & (a_m + EPS >= demand.mem))] = -np.inf
    j = int(np.argmax(scores))
    return None if scores[j] == -np.inf else (j, float(scores[j]))


def dense_fill(servers, demands, counts, weights=None) -> list[tuple[int, int]]:
    """(candidate, server) launches: the candidate with the highest best
    score goes first, the earliest candidate on ties."""
    left = list(counts)
    out = []
    while True:
        pick = None
        for i, demand in enumerate(demands):
            hit = dense_best(servers, demand, weights) if left[i] else None
            if hit is not None and (pick is None or hit[1] > pick[2]):
                pick = (i, hit[0], hit[1])
        if pick is None:
            return out
        i, sid, _ = pick
        servers[sid].allocate(make_copy(make_task(demands[i].cpu, demands[i].mem), sid))
        left[i] -= 1
        out.append((i, sid))


# ----------------------------------------------------------------------
# Scenario generation
# ----------------------------------------------------------------------
@st.composite
def scenarios(draw):
    """(block kind, capacities, op codes): ops are allocate / release /
    down / up / query, interleaved so queries tighten bounds that later
    releases and recoveries leave stale-high."""
    m = draw(st.integers(min_value=2, max_value=12))
    caps = draw(st.lists(st.sampled_from(CAPACITIES), min_size=m, max_size=m))
    ops = draw(
        st.lists(
            st.tuples(st.sampled_from("aaarduq"), st.integers(0, 10**6)),
            max_size=40,
        )
    )
    return draw(st.sampled_from(BLOCKS)), caps, ops


def build(caps) -> Cluster:
    return Cluster([Server(i, cap) for i, cap in enumerate(caps)])


def replay(cluster: Cluster, ops, on_query=None) -> None:
    """Apply the op codes to ``cluster``; ``on_query(code)`` runs at
    every ``q`` op."""
    servers = cluster.servers
    running: list[tuple[Server, object]] = []
    for op, n in ops:
        server = servers[n % len(servers)]
        if op == "a":
            demand = DEMANDS[1 + n % (len(DEMANDS) - 1)]
            if server.can_fit(demand):
                copy = make_copy(make_task(demand.cpu, demand.mem), server.server_id)
                server.allocate(copy)
                running.append((server, copy))
        elif op == "r" and running:
            host, copy = running.pop(n % len(running))
            host.release(copy)
        elif op == "d" and server.up and not server.running_copies:
            server.mark_down()
        elif op == "u" and not server.up:
            server.mark_up()
        elif op == "q" and on_query is not None:
            on_query(n)


def weights_for(m: int, n: int) -> np.ndarray:
    return np.array([WEIGHTS[(n + 7 * i) % len(WEIGHTS)] for i in range(m)])


def stale_high(cluster: Cluster) -> bool:
    mirror = cluster.mirror
    return any(
        ub > float(mirror.avail_cpu[lo:hi].max())
        for ub, (lo, hi) in zip(mirror._ub_cpu, mirror._slices)
    )


# ----------------------------------------------------------------------
# Properties
# ----------------------------------------------------------------------
@given(scenario=scenarios())
@settings(max_examples=150, deadline=None)
def test_mirror_best_fit_matches_dense(scenario):
    kind, caps, ops = scenario
    m = len(caps)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(mirror_mod, "BLOCK_SIZE", block_size(kind, m))
        cluster = build(caps)

        def check(n: int) -> None:
            w = weights_for(m, n)
            mixed = w.copy()
            mixed[n % m] = 0.0
            mixed[(n + 1) % m] = -1.0
            # Zero and negative weights only in one-shot queries: the
            # pass caches assume weights that keep the score order.
            for demand in DEMANDS:
                assert cluster.mirror.best_fit(demand) == dense_best(cluster.servers, demand)
                for weights in (w, mixed, -w):
                    assert cluster.mirror.best_fit(demand, weights) == dense_best(
                        cluster.servers, demand, weights
                    )

        replay(cluster, ops, check)
        check(0)
        # Bounds are upper bounds whether or not they are tight.
        mirror = cluster.mirror
        for k, (lo, hi) in enumerate(mirror._slices):
            assert mirror._ub_cpu[k] >= mirror.avail_cpu[lo:hi].max()
            assert mirror._ub_mem[k] >= mirror.avail_mem[lo:hi].max()


def test_bounds_go_stale_high_and_answers_hold(monkeypatch):
    """The state the property tests rely on actually occurs: allocation
    leaves a bound stale-high, a query tightens it, a release after the
    tighten raises it again and a new allocation makes it stale once
    more — and every answer matches the reference."""
    monkeypatch.setattr(mirror_mod, "BLOCK_SIZE", 2)
    cluster = build([Resources.of(8, 8)] * 5)
    demand = Resources.of(1, 1)
    copies = [make_copy(make_task(4, 4), sid) for sid in (0, 1)]
    for sid, copy in enumerate(copies):
        cluster[sid].allocate(copy)
    assert stale_high(cluster)
    assert cluster.mirror.best_fit(demand) == dense_best(cluster.servers, demand) == (2, 16.0)
    assert not stale_high(cluster)  # the scan tightened block 0
    cluster[0].release(copies[0])
    cluster[0].allocate(make_copy(make_task(6, 6), 0))
    assert stale_high(cluster)
    assert cluster.mirror.best_fit(demand) == dense_best(cluster.servers, demand) == (2, 16.0)


@given(scenario=scenarios(), launches=st.lists(st.integers(0, 10**6), max_size=30))
@settings(max_examples=100, deadline=None)
def test_clone_score_cache_matches_dense(scenario, launches):
    kind, caps, ops = scenario
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(mirror_mod, "BLOCK_SIZE", block_size(kind, len(caps)))
        cluster = build(caps)
        replay(cluster, ops)
        cache = CloneScoreCache(cluster.mirror)
        servers = cluster.servers
        for n in launches:
            demand = DEMANDS[n % len(DEMANDS)]
            hit = dense_best(servers, demand)
            assert cache.best_fit_id(demand) == (None if hit is None else hit[0])
            # Launch on a random fitting server (not necessarily the
            # best) and report it, as the clone fill does.
            d = DEMANDS[1 + n % (len(DEMANDS) - 1)]
            fitting = [s for s in servers if s.can_fit(d)]
            if fitting:
                target = fitting[n % len(fitting)]
                target.allocate(make_copy(make_task(d.cpu, d.mem), target.server_id))
                cache.on_launch(target.server_id)
        for demand in DEMANDS:
            hit = dense_best(servers, demand)
            assert cache.best_fit_id(demand) == (None if hit is None else hit[0])


class _Null(Scheduler):
    name = "null"

    def schedule(self, view):
        pass


@given(
    scenario=scenarios(),
    cands=st.lists(
        st.tuples(st.integers(1, len(DEMANDS) - 1), st.integers(1, 6)),
        min_size=1,
        max_size=5,
    ),
    weighted=st.integers(-1, 2),
)
@settings(max_examples=100, deadline=None)
def test_fill_tasks_matches_dense(scenario, cands, weighted):
    kind, caps, ops = scenario
    m = len(caps)
    demands = [DEMANDS[i] for i, _ in cands]
    counts = [c for _, c in cands]
    weights = None if weighted < 0 else weights_for(m, weighted)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(mirror_mod, "BLOCK_SIZE", block_size(kind, m))
        cluster = build(caps)
        replay(cluster, ops)
        reference = build(caps)
        replay(reference, ops)

        phases = [
            Phase(0, count, demand, Deterministic(5.0))
            for demand, count in zip(demands, counts)
        ]
        jobs = [Job([phase]) for phase in phases]
        engine = SimulationEngine(cluster, _Null(), jobs)
        for job in jobs:
            engine.active_jobs[job.job_id] = job
        index = {id(phase): i for i, phase in enumerate(phases)}
        got: list[tuple[int, int]] = []
        fill_tasks_best_fit(
            engine.view,
            [(phase, list(phase.tasks)) for phase in phases],
            on_launch=lambda task, server: got.append(
                (index[id(task.phase)], server.server_id)
            ),
            server_weight=None if weights is None else (lambda s: weights[s.server_id]),
        )
    assert got == dense_fill(reference.servers, demands, counts, weights)
