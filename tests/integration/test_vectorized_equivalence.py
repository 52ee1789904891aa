"""Production kernels vs the scalar reference paths.

The vectorized engine (availability mirror, block-bounded fills,
batched knapsack, clone score cache) must be a pure performance change:
under a fixed seed, a run with every reference path of
``tests/reference.py`` installed and a production run must produce the
*identical sequence of copy launches* — same task, same server, same
time, same clone flag — and therefore bit-identical flowtimes and
result metrics.  The workload mixes DAG jobs (PageRank iterations,
WordCount map→reduce) with heavy-tailed straggler distributions so the
runs exercise DAG gating, cloning, first-copy-wins kills and the δ
budget.  The testbed's 30 nodes make one placement block, so each check
also runs with the block size patched to 4 and 7, where the blocked
kernels prune against the scalar reference.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro.cluster.mirror as mirror_mod
from repro.cluster.heterogeneity import paper_cluster_30_nodes
from repro.core.online import DollyMPScheduler
from repro.core.server_learning import LearningDollyMPScheduler
from repro.schedulers.tetris import TetrisScheduler
from repro.sim.runner import run_simulation
from repro.workload.google_trace import GoogleTraceGenerator, jobs_from_specs
from repro.workload.mapreduce import pagerank_job, wordcount_job
from tests.reference import reference_paths

SEED = 7


def mixed_dag_jobs() -> list:
    """PageRank + WordCount DAGs plus trace-style jobs, cv high enough
    that clones launch and first-copy-wins kills occur."""
    jobs = []
    for i in range(6):
        t = 4.0 * i
        if i % 3 == 0:
            jobs.append(pagerank_job(3.0, iterations=2, arrival_time=t, job_id=10 + i, cv=0.9))
        else:
            jobs.append(wordcount_job(2.0 + i, arrival_time=t, job_id=10 + i, cv=0.9))
    gen = GoogleTraceGenerator(seed=SEED, mean_theta=25.0)
    trace_jobs = jobs_from_specs(gen.generate(8, mean_interarrival=3.0))
    # jobs_from_specs draws ids from the process-global job counter, so
    # repeated builds (production run, then reference run) would otherwise
    # get *different* ids — and ids feed tie-breaking via dict order.
    # Pin them so every build is byte-for-byte the same workload.
    for i, job in enumerate(trace_jobs):
        job.job_id = 100 + i
    jobs.extend(trace_jobs)
    return jobs


def launch_log(jobs) -> list[tuple]:
    """Every copy ever launched, in a canonical order."""
    log = []
    for job in jobs:
        for phase in job.phases:
            for task in phase.tasks:
                for copy in task.copies:
                    log.append(
                        (
                            task.uid,
                            copy.server_id,
                            copy.start_time,
                            copy.duration,
                            copy.is_clone,
                            copy.finished,
                            copy.killed,
                        )
                    )
    return log


def run_one(make_sched, schedule_interval=0.0):
    jobs = mixed_dag_jobs()
    result = run_simulation(
        paper_cluster_30_nodes(),
        make_sched(),
        jobs,
        seed=SEED,
        schedule_interval=schedule_interval,
        max_time=1e7,
    )
    return result, launch_log(jobs)


def run_both(monkeypatch, make_sched, schedule_interval=0.0):
    """(production, reference) runs of the same workload."""
    production = run_one(make_sched, schedule_interval)
    with monkeypatch.context() as patch:
        reference_paths(patch)
        reference = run_one(make_sched, schedule_interval)
    return production, reference


SCHEDULERS = pytest.mark.parametrize(
    "make_sched",
    [
        lambda: DollyMPScheduler(max_clones=2),
        lambda: DollyMPScheduler(max_clones=0),
        lambda: TetrisScheduler(),
        lambda: LearningDollyMPScheduler(max_clones=2, bias=1.0),
    ],
    ids=["dollymp2", "dollymp0", "tetris", "learning-dollymp"],
)

#: Block sizes that cut the 30-node testbed into several blocks (7 does
#: not divide 30).  The unparametrized tests run the default, one block.
MULTI_BLOCK = pytest.mark.parametrize("block", [4, 7], ids=["B4", "B7"])


def assert_identical_launches_and_metrics(monkeypatch, make_sched):
    (res_vec, log_vec), (res_ref, log_ref) = run_both(monkeypatch, make_sched)

    # Identical copy-launch sequences (task, server, time, clone flag,
    # outcome) — the strongest equivalence: every placement decision
    # matched, including clone placements and first-copy-wins kills.
    assert log_vec == log_ref

    # Bit-identical flowtimes and aggregate metrics.
    assert np.array_equal(res_vec.flowtimes(), res_ref.flowtimes())
    assert res_vec.total_flowtime == res_ref.total_flowtime
    assert res_vec.makespan == res_ref.makespan
    assert res_vec.clones_launched == res_ref.clones_launched
    assert res_vec.copies_launched == res_ref.copies_launched
    assert res_vec.avg_utilization == res_ref.avg_utilization
    assert res_vec.total_usage == res_ref.total_usage


def assert_identical_in_slotted_mode(monkeypatch):
    (res_vec, log_vec), (res_ref, log_ref) = run_both(
        monkeypatch, lambda: DollyMPScheduler(max_clones=2), schedule_interval=5.0
    )
    assert log_vec == log_ref
    assert np.array_equal(res_vec.flowtimes(), res_ref.flowtimes())


@SCHEDULERS
def test_identical_launches_and_metrics(make_sched, monkeypatch):
    assert_identical_launches_and_metrics(monkeypatch, make_sched)


@MULTI_BLOCK
@SCHEDULERS
def test_identical_launches_and_metrics_multi_block(make_sched, block, monkeypatch):
    monkeypatch.setattr(mirror_mod, "BLOCK_SIZE", block)
    assert_identical_launches_and_metrics(monkeypatch, make_sched)


def test_identical_in_slotted_mode(monkeypatch):
    """The trace-simulator mode (5 s slots) hits different schedule-pass
    batching; the paths must still agree exactly."""
    assert_identical_in_slotted_mode(monkeypatch)


@MULTI_BLOCK
def test_identical_in_slotted_mode_multi_block(block, monkeypatch):
    monkeypatch.setattr(mirror_mod, "BLOCK_SIZE", block)
    assert_identical_in_slotted_mode(monkeypatch)
