"""Batched/lazy/vectorized engine paths vs the eager scalar reference.

Three of the batched engine's production paths have a reference in
``tests/reference.py``: lazy copy-on-write priority maintenance
(:class:`~tests.reference.EagerDollyMP` recomputes at every arrival),
the batched doubling-category knapsack (one knapsack call per level)
and the pass-scoped clone score cache (a fresh best-fit scan per
clone).  Each reference alone, and all of them together with the
placement references, must reproduce the production run exactly:
identical copy-launch sequences and bit-identical metrics, in
event-driven and slotted modes, with and without fault injection
(DESIGN.md §5.6).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.cluster.heterogeneity import paper_cluster_30_nodes
from repro.core.online import DollyMPScheduler
from repro.sim.engine import SimulationEngine
from repro.sim.replay import assert_replay_identical
from repro.sim.runner import run_simulation
from repro.workload.mapreduce import pagerank_job, wordcount_job
from tests.integration.test_identity_matrix import SMOKE_PROFILE
from tests.integration.test_vectorized_equivalence import (
    SEED,
    launch_log,
    mixed_dag_jobs,
)
from tests.reference import PARTS, EagerDollyMP, reference_paths


def run_one(scheduler_cls, *, schedule_interval=0.0, fault_profile=None):
    jobs = mixed_dag_jobs()
    result = run_simulation(
        paper_cluster_30_nodes(),
        scheduler_cls(max_clones=2),
        jobs,
        seed=SEED,
        schedule_interval=schedule_interval,
        max_time=1e7,
        fault_profile=fault_profile,
    )
    return result, launch_log(jobs)


def run_reference(monkeypatch, parts=PARTS, eager=True, **kwargs):
    with monkeypatch.context() as patch:
        reference_paths(patch, parts)
        return run_one(EagerDollyMP if eager else DollyMPScheduler, **kwargs)


def assert_equivalent(a, b):
    res_a, log_a = a
    res_b, log_b = b
    assert log_a == log_b
    assert np.array_equal(res_a.flowtimes(), res_b.flowtimes())
    assert res_a.total_flowtime == res_b.total_flowtime
    assert res_a.makespan == res_b.makespan
    assert res_a.copies_launched == res_b.copies_launched
    assert res_a.clones_launched == res_b.clones_launched
    assert res_a.avg_utilization == res_b.avg_utilization


@pytest.mark.parametrize(
    "parts, eager",
    [
        ((), True),
        (("priorities",), False),
        (("clone_fill",), False),
        (PARTS, True),
    ],
    ids=["eager-priorities", "scalar-priorities", "scalar-clone-fill", "all-hatches"],
)
def test_each_hatch_is_identity(monkeypatch, parts, eager):
    assert_equivalent(
        run_one(DollyMPScheduler), run_reference(monkeypatch, parts, eager)
    )


def test_all_hatches_slotted(monkeypatch):
    assert_equivalent(
        run_one(DollyMPScheduler, schedule_interval=5.0),
        run_reference(monkeypatch, schedule_interval=5.0),
    )


def test_all_hatches_under_faults(monkeypatch):
    """Fault churn exercises the batched drain's same-instant ordering
    (kills, requeues, server sweeps); the reference run must still match."""
    base = run_one(
        DollyMPScheduler, schedule_interval=5.0, fault_profile=SMOKE_PROFILE
    )
    reference = run_reference(
        monkeypatch, schedule_interval=5.0, fault_profile=SMOKE_PROFILE
    )
    assert base[0].faults_injected > 0
    assert_equivalent(base, reference)


def _chaos_jobs():
    jobs = []
    for i in range(10):
        if i % 2 == 0:
            jobs.append(wordcount_job(4.0, arrival_time=40.0 * i, job_id=i))
        else:
            jobs.append(pagerank_job(1.0, arrival_time=40.0 * i, job_id=i))
    return jobs


def _chaos_run(scheduler_cls):
    """A recorded, sanitized DollyMP² run of the testbed under the
    identity matrix's testbed churn profile in 5-s slots."""
    engine = SimulationEngine(
        paper_cluster_30_nodes(),
        scheduler_cls(max_clones=2),
        _chaos_jobs(),
        seed=7,
        schedule_interval=5.0,
        max_time=1e9,
        sanitize=True,
        record_trace=True,
        fault_profile=SMOKE_PROFILE,
    )
    return engine.run(), engine.trace


def test_chaos_run_journal_matches_reference(monkeypatch):
    """Same decision journal and a replay-identical result, with the
    sanitizer validating every event of both runs."""
    result, trace = _chaos_run(DollyMPScheduler)
    # Not vacuous: the workload finishes and the chaos profile fires.
    assert len(result.records) == 10
    assert result.faults_injected > 0
    with monkeypatch.context() as patch:
        reference_paths(patch)
        ref_result, ref_trace = _chaos_run(EagerDollyMP)
    assert ref_trace.decisions == trace.decisions
    assert_replay_identical(result, ref_result)


def test_eager_reference_takes_the_eager_path():
    """The override alone selects eager maintenance; production stays lazy."""
    assert EagerDollyMP()._eager
    assert not DollyMPScheduler()._eager
