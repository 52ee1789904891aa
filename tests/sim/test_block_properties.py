"""Property-based tests (hypothesis) for block-size-invariant engine laws.

Three invariants must hold for *any* placement block size — one server
per block, uneven splits, or one block for the whole cluster — under
chaos fault churn (DESIGN.md §5.10):

* **Lifetime copy cap** — a task never accumulates more than
  ``max_copies_per_task`` scheduler-chosen copies; fault-killed copies
  are relaunch credits, not cap consumption.
* **Clone-budget bitwise-zero snap** — whenever no clone is live, the
  δ-budget occupancy is *exactly* ``Resources(0.0, 0.0)``, not merely
  small: repeated add/subtract rounding must never leak budget.
* **Capacity conservation** — per up server, ``allocated + available``
  reconstructs capacity with the engine's own rounding, allocation
  stays within capacity, an idle server's allocation snaps to bitwise
  zero, and the SoA mirror holds the same floats as the servers.

On top of the invariants, every multi-block run must land on the same
result as the one-block run — blocks only prune the best-fit scan,
they never change an answer.
"""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.cluster.mirror as mirror_mod
from repro.cluster.heterogeneity import homogeneous_cluster
from repro.core.online import DollyMPScheduler
from repro.faults.profile import FAULT_PROFILES
from repro.resources import Resources
from repro.sim.engine import SimulationEngine
from repro.workload.mapreduce import pagerank_job, wordcount_job

NUM_SERVERS = 12
MAX_COPIES = 3

#: Block sizes from one server per block, through uneven splits (5 and
#: 7 do not divide 12), to a single block (12 and beyond).
block_sizes = st.integers(min_value=1, max_value=NUM_SERVERS + 1)


def _make_jobs(scale: float, gap: float):
    """Deterministic workload with explicit job ids, so two engines
    built in one process see identical jobs (no global id counter)."""
    jobs = []
    for i in range(6):
        if i % 2 == 0:
            jobs.append(wordcount_job(scale, arrival_time=gap * i, job_id=i))
        else:
            jobs.append(pagerank_job(scale / 4.0, arrival_time=gap * i, job_id=i))
    return jobs


def _make_engine(seed: int, scale: float, gap: float):
    return SimulationEngine(
        homogeneous_cluster(NUM_SERVERS),
        DollyMPScheduler(max_clones=2),
        _make_jobs(scale, gap),
        seed=seed,
        schedule_interval=5.0,
        max_time=1e9,
        max_copies_per_task=MAX_COPIES,
        fault_profile=FAULT_PROFILES["chaos"],
    )


def _all_tasks(engine):
    for job in engine.jobs:
        for phase in job.phases:
            yield from phase.tasks


def _check_invariants(engine) -> None:
    # Lifetime copy cap: fault losses are credits, not consumption.
    for task in _all_tasks(engine):
        assert len(task.copies) - task.fault_losses <= MAX_COPIES, (
            f"task {task.uid}: {len(task.copies)} copies with "
            f"{task.fault_losses} fault losses exceeds cap {MAX_COPIES}"
        )

    # Clone-budget bitwise-zero snap.
    assert engine.clone_occupancy.cpu >= 0.0
    assert engine.clone_occupancy.mem >= 0.0
    if engine._live_clone_count == 0:
        assert engine.clone_occupancy == Resources(0.0, 0.0), (
            f"no live clones but occupancy {engine.clone_occupancy!r} "
            "did not snap to bitwise zero"
        )

    # Capacity conservation + mirror exactness.
    mirror = engine.cluster.mirror
    for server in engine.cluster:
        i = server.server_id
        alloc, avail, cap = server.allocated, server.available, server.capacity
        running = server.running_copies
        if server.up:
            # available is derived as max(cap - alloc, 0) — reconstruct
            # with the same expression, demanding float equality.
            assert avail.cpu == max(cap.cpu - alloc.cpu, 0.0)
            assert avail.mem == max(cap.mem - alloc.mem, 0.0)
            assert 0.0 <= alloc.cpu <= cap.cpu + 1e-9
            assert 0.0 <= alloc.mem <= cap.mem + 1e-9
            if not running:
                assert alloc == Resources(0.0, 0.0), (
                    f"server {i}: idle but allocation {alloc!r} did not "
                    "snap to bitwise zero"
                )
            else:
                assert math.isclose(
                    alloc.cpu, sum(c.task.demand.cpu for c in running), rel_tol=1e-9
                )
                assert math.isclose(
                    alloc.mem, sum(c.task.demand.mem for c in running), rel_tol=1e-9
                )
        else:
            assert not running, f"server {i}: down but hosting copies"
        assert bool(mirror.up[i]) == server.up
        assert mirror.avail_cpu[i] == avail.cpu
        assert mirror.avail_mem[i] == avail.mem


class TestBlockSizeProperties:
    @given(
        block=block_sizes,
        seed=st.integers(min_value=0, max_value=2**16),
        scale=st.sampled_from([1.0, 2.0, 4.0]),
        gap=st.sampled_from([5.0, 20.0]),
    )
    @settings(max_examples=20, deadline=None)
    def test_invariants_and_one_block_identity(self, block, seed, scale, gap):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(mirror_mod, "BLOCK_SIZE", block)
            engine = _make_engine(seed, scale, gap)

        # Step through the run, checking invariants at mid-flight
        # instants (after the run everything is idle and the capacity
        # law would be vacuous).
        for t in (10.0, 35.0, 80.0):
            engine.run_until(t)
            _check_invariants(engine)
        result = engine.run()
        _check_invariants(engine)
        assert engine._live_clone_count == 0
        assert len(result.records) == 6  # chaos must not strand jobs
        assert result.faults_injected > 0  # ...and chaos must actually fire

        # Blocks prune the placement scan; they must never change the
        # outcome.  The default block size makes 12 servers one block.
        assert len(engine.cluster.mirror._slices) == -(-NUM_SERVERS // block)
        baseline = _make_engine(seed, scale, gap).run()
        assert result.total_flowtime == baseline.total_flowtime
        assert result.copies_launched == baseline.copies_launched
        assert result.simulated_time == baseline.simulated_time
        assert result.faults_injected == baseline.faults_injected
