"""The benchmark's three workloads, built from a seed through the
public ``repro`` API.

Every workload runs ``DollyMPScheduler(max_clones=2)`` on the default
single-heap engine (``shards`` unset).  A builder returns a
:class:`Prepared` run: the engine, the call that drives it from
``start()`` to ``finalize()``, and the number of jobs submitted.
Why each workload exists, and which layers it is meant to stress, is
in this directory's README.
"""

from __future__ import annotations

import dataclasses
import itertools
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

#: Jobs per simulation.  Sized so one simulation takes 4-6 host seconds
#: on a 2-core x86 host, so a benchmark run's three or more parts,
#: simulated twice each, fit in the 40-s budget of BENCHMARK.json.
BURST_JOBS = 300
DEEP_JOBS = 300
TRACE_JOBS = 300

SERVERS_30K = 30_000
TRACE_SERVERS = 200
SLOT_S = 5.0
BURST_INTERARRIVAL_S = 1.25  # 4 jobs per slot
DEEP_INTERARRIVAL_S = 2.0
DEEP_THETA_S = 600.0
TRACE_CHECKPOINT_EVERY_S = 600.0
TRACE_METRICS_EVERY_S = 60.0
TRACE_FIXTURE_SCHEMA = "google2011"
TRACE_FIXTURE_ROWS_PER_JOB = 40

#: Job-size classes of ``GoogleTraceGenerator.sample_job_size`` as
#: (largest task count, share of jobs).
SIZE_CLASSES = ((10, 0.60), (100, 0.30), (500, 0.09), (2000, 0.01))


@dataclass
class Prepared:
    """One built workload, ready to run."""

    engine: object
    drive: Callable[[], object]
    submitted: Callable[[], int]
    meta: dict = field(default_factory=dict)


def _scheduler():
    from repro import DollyMPScheduler

    return DollyMPScheduler(max_clones=2)


def size_class(num_tasks: int) -> int:
    return next(i for i, (top, _) in enumerate(SIZE_CLASSES) if num_tasks <= top)


def stratified_specs(seed: int, num_jobs: int, interarrival: float):
    """Google-trace jobs in a fixed size-class pattern at a constant rate.

    Jobs are drawn in order from one ``GoogleTraceGenerator`` stream and
    kept until each size class holds exactly its share of ``num_jobs``
    (a job whose class is full is dropped).  The kept jobs of each class
    are then spread evenly over the stream and arrive one every
    ``interarrival`` seconds.  The seed still draws every job (its task
    count within the class, phases, demands, durations), but every seed
    offers the same mix in every stretch of the stream: without this the
    rare 501-2000-task jobs decide, seed by seed, both the run's total
    work and which scheduling passes are heavy.
    """
    from repro import GoogleTraceGenerator

    quotas = [round(share * num_jobs) for _, share in SIZE_CLASSES]
    quotas[0] += num_jobs - sum(quotas)
    gen = GoogleTraceGenerator(seed=seed)
    by_class: list[list] = [[] for _ in SIZE_CLASSES]
    drawn = 0
    while sum(len(c) for c in by_class) < num_jobs:
        spec = gen.make_job_spec(0.0, drawn)
        drawn += 1
        k = size_class(spec.num_tasks())
        if len(by_class[k]) < quotas[k]:
            by_class[k].append(spec)
    spread = sorted(
        ((i + 0.5) / len(specs), k, spec)
        for k, specs in enumerate(by_class)
        for i, spec in enumerate(specs)
    )
    specs = [
        dataclasses.replace(spec, arrival_time=n * interarrival)
        for n, (_, _, spec) in enumerate(spread)
    ]
    return specs, drawn


def _engine_run(engine):
    def drive():
        engine.start()
        engine.drain()
        return engine.finalize()

    return drive


def build_burst_place(seed: int, workdir: Path) -> Prepared:
    """30K heterogeneous servers, a Google-trace stream of four jobs per
    5-s slot: placement-bound."""
    from repro import jobs_from_specs, trace_sim_cluster
    from repro.sim.engine import SimulationEngine

    cluster = trace_sim_cluster(SERVERS_30K, seed=seed)
    specs, drawn = stratified_specs(seed, BURST_JOBS, BURST_INTERARRIVAL_S)
    jobs = jobs_from_specs(specs)
    engine = SimulationEngine(
        cluster, _scheduler(), jobs, seed=seed, schedule_interval=SLOT_S
    )
    return Prepared(
        engine,
        _engine_run(engine),
        lambda: len(jobs),
        {"servers": SERVERS_30K, "jobs": len(jobs), "specs_drawn": drawn},
    )


def build_deep_roster(seed: int, workdir: Path) -> Prepared:
    """30K servers, many small long jobs active at once, event-driven
    scheduling: decision-latency-bound."""
    from repro import GoogleTraceGenerator, jobs_from_specs, trace_sim_cluster
    from repro.sim.engine import SimulationEngine

    class SmallJobs(GoogleTraceGenerator):
        def sample_job_size(self) -> int:
            return int(self.rng.integers(1, 11))

    cluster = trace_sim_cluster(SERVERS_30K, seed=seed)
    specs = SmallJobs(seed=seed, mean_theta=DEEP_THETA_S).generate(
        DEEP_JOBS, mean_interarrival=DEEP_INTERARRIVAL_S
    )
    jobs = jobs_from_specs(specs)
    engine = SimulationEngine(cluster, _scheduler(), jobs, seed=seed, schedule_interval=0.0)
    return Prepared(
        engine,
        _engine_run(engine),
        lambda: len(jobs),
        {"servers": SERVERS_30K, "jobs": len(jobs)},
    )


def survivable(spec, mtbf: float) -> bool:
    """Whether every phase's shortest possible copy is within one MTBF.

    Task times follow a Pareto fitted to the trace's observed durations,
    whose minimum ``x_m`` can reach several MTBFs when one straggler
    stretches a small phase.  Under ``chaos`` such a task rarely
    survives a single attempt and its job holds the run open for tens
    of thousands of simulated seconds (one seed ran 94K simulated s and
    128 host s instead of ~9K and ~6), which says nothing about the
    layers this workload measures.
    """
    from repro.workload.distributions import ParetoType1

    for ph in spec.phases:
        shortest = ParetoType1.from_moments(ph.theta, ph.sigma).x_m if ph.sigma > 0 else ph.theta
        if shortest > mtbf:
            return False
    return True


def build_trace_service(seed: int, workdir: Path) -> Prepared:
    """A google2011 fixture streamed through ``TraceIngestSource`` into a
    checkpointing, metrics-publishing session under the ``chaos`` fault
    profile: the only path through ingest, session, checkpoint, live
    metrics and faults."""
    from repro import Observability, trace_sim_cluster
    from repro.faults import named_profile
    from repro.observability.live import TextfilePublisher
    from repro.sim.engine import SimulationEngine
    from repro.sim.session import SimulationSession
    from repro.workload.ingest import (
        TraceIngestSource,
        materialize,
        normalize_stream,
        open_reader,
    )
    from repro.workload.ingest.fixtures import generator_fingerprint

    rows = TRACE_FIXTURE_ROWS_PER_JOB * TRACE_JOBS
    path = materialize(
        workdir, rows=rows, seed=seed, schemas=(TRACE_FIXTURE_SCHEMA,)
    )[TRACE_FIXTURE_SCHEMA]
    profile = named_profile("chaos")
    skipped = []

    def keep(spec) -> bool:
        if survivable(spec, profile.mtbf):
            return True
        skipped.append(spec.job_id)
        return False

    specs = itertools.islice(
        filter(keep, normalize_stream(open_reader(path, TRACE_FIXTURE_SCHEMA))),
        TRACE_JOBS,
    )
    source = TraceIngestSource(specs)
    engine = SimulationEngine(
        trace_sim_cluster(TRACE_SERVERS, seed=seed),
        _scheduler(),
        source,
        seed=seed,
        schedule_interval=SLOT_S,
        observability=Observability(profile=False),
        record_trace=True,
        fault_profile=profile,
    )
    session = SimulationSession(
        engine,
        checkpoint_path=workdir / "session.ckpt",
        checkpoint_every=TRACE_CHECKPOINT_EVERY_S,
        on_metrics=TextfilePublisher(workdir / "metrics.prom"),
        metrics_every=TRACE_METRICS_EVERY_S,
    )

    def drive():
        engine.start()
        return session.run()

    meta = {
        "servers": TRACE_SERVERS,
        "fixture": f"{TRACE_FIXTURE_SCHEMA} rows={rows} seed={seed}",
        "generator_fingerprint": generator_fingerprint(),
        "fault_profile": "chaos",
        "skipped_unsurvivable": skipped,
    }
    return Prepared(engine, drive, lambda: source.consumed, meta)


def part_seed(seed: int, part: int) -> int:
    """The seed simulation ``part`` of a run with ``seed`` is built from."""
    return seed * 1000 + part


WORKLOADS: dict[str, Callable[[int, Path], Prepared]] = {
    "burst_place": build_burst_place,
    "deep_roster": build_deep_roster,
    "trace_service": build_trace_service,
}

#: Jobs each workload submits — what a run that never reported counts
#: as attempted (and failed).
NOMINAL_JOBS = {"burst_place": BURST_JOBS, "deep_roster": DEEP_JOBS, "trace_service": TRACE_JOBS}
