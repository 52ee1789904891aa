"""One identity matrix: every way of delivering a scenario to the engine
must reproduce the one-shot run of the same scenario and faults.

Each scenario has one engine builder (:meth:`Scenario.engine`); a cell
is ``(scenario, delivery, faults)``.  A cell's
``SimulationResult.deterministic()`` must equal the one-shot run's, and
so must its decision journal and, where spans are recorded, its span
export.  Every cell also checks that all jobs finished, that a fault
cell really injected faults and lost copies, and that the cluster ends
with its capacity conserved bit-for-bit (up ⇒ ``available ==
capacity``, down ⇒ zero).  These are the paper's first-copy-wins and
clone invariants (Sec. 3) through the replay, ingest and service paths.

Deliveries:

* ``rerun`` — the same seed again (a second engine, fresh objects);
* ``replayed`` — the one-shot journal round-tripped through JSONL and
  re-executed by a :class:`~repro.sim.replay.ReplayScheduler`, with
  observability attached (it must never steer);
* ``streamed`` — the workload pulled from a
  :class:`~repro.workload.ingest.TraceIngestSource` over a raw trace;
* ``served`` — ``SignalAwareLineFeed`` → ``JsonlSource`` → ``serve()``,
  with periodic checkpoints and live metrics publications;
* ``restored`` — cut at the median arrival, checkpointed to disk,
  loaded, re-attached to the stream and drained.

Run one scenario with ``pytest tests/integration/test_identity_matrix.py
-k google200``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from typing import Callable

import pytest

from repro.cluster.heterogeneity import homogeneous_cluster, paper_cluster_30_nodes
from repro.core.online import DollyMPScheduler
from repro.faults import FaultProfile, named_profile
from repro.observability import Observability
from repro.resources import Resources
from repro.service import SignalAwareLineFeed, serve
from repro.sim.actions import DecisionTrace
from repro.sim.checkpoint import (
    CHECKPOINT_FORMAT,
    checkpoint_info,
    load_checkpoint,
    save_checkpoint,
)
from repro.sim.engine import SimulationEngine
from repro.sim.replay import ReplayScheduler
from repro.workload.arrivals import JsonlSource
from repro.workload.google_trace import (
    GoogleTraceGenerator,
    jobs_from_specs,
    spec_to_dict,
)
from repro.workload.ingest import (
    TraceIngestSource,
    materialize,
    normalize_stream,
    open_reader,
)
from repro.workload.mapreduce import pagerank_job, wordcount_job

#: Aggressive-but-survivable churn for the 30-node testbed: a failure
#: somewhere every ~3 simulated minutes, quick repairs, a light per-copy
#: failure hazard on top.
SMOKE_PROFILE = FaultProfile(
    mtbf=180.0,
    mttr=25.0,
    copy_fail_rate=1.0 / 900.0,
    slowdown_rate=1.0 / 600.0,
)

FAULTS = {"none": None, "smoke": SMOKE_PROFILE, "chaos": named_profile("chaos")}
SCHEMAS = ("google2011", "google2019", "alibaba2018")
FIXTURE_ROWS = 500
INGEST_JOBS = 30
SERVICE_JOBS = 200


@dataclass(frozen=True)
class Scenario:
    cluster: Callable[[], object]
    jobs: Callable[[], list]
    seed: int
    slot: float = 0.0
    sanitize: bool = False
    observe: bool = False
    source: Callable[[], object] | None = None  # the ``streamed`` delivery
    lines: tuple[str, ...] = ()  # JSONL specs for ``served``/``restored``

    def engine(self, arrivals, faults, scheduler=None, observe=False):
        return SimulationEngine(
            self.cluster(),
            scheduler or DollyMPScheduler(max_clones=2),
            arrivals,
            seed=self.seed,
            schedule_interval=self.slot,
            sanitize=self.sanitize,
            observability=Observability() if observe or self.observe else None,
            record_trace=True,
            fault_profile=faults,
        )


def _mapreduce_jobs():
    return [
        wordcount_job(4.0, arrival_time=45.0 * i, job_id=i)
        if i % 2 == 0
        else pagerank_job(1.0, arrival_time=45.0 * i, job_id=i)
        for i in range(8)
    ]


def _ingest_stream(path, schema):
    return normalize_stream(open_reader(path, schema), max_jobs=INGEST_JOBS)


@pytest.fixture(scope="module")
def fixtures(tmp_path_factory):
    return materialize(tmp_path_factory.mktemp("traces"), rows=FIXTURE_ROWS, seed=0)


@pytest.fixture(scope="module")
def scenarios(fixtures):
    out = {
        "mapreduce8": Scenario(
            paper_cluster_30_nodes, _mapreduce_jobs, seed=7, sanitize=True
        )
    }
    for schema in SCHEMAS:
        specs = list(_ingest_stream(fixtures[schema], schema))
        out[f"ingest-{schema}"] = Scenario(
            lambda: homogeneous_cluster(16, Resources.of(16, 32)),
            lambda specs=specs: jobs_from_specs(specs),
            seed=31,
            slot=5.0,
            source=lambda schema=schema: TraceIngestSource(
                _ingest_stream(fixtures[schema], schema)
            ),
        )
    specs = GoogleTraceGenerator(seed=202).generate(SERVICE_JOBS, mean_interarrival=6.0)
    # Pin job ids: the stream and the one-shot run must name jobs alike.
    specs = [replace(s, job_id=i) for i, s in enumerate(specs)]
    out["google200"] = Scenario(
        lambda: homogeneous_cluster(48, Resources.of(16, 32)),
        lambda: jobs_from_specs(specs),
        seed=11,
        slot=5.0,
        observe=True,
        lines=tuple(json.dumps(spec_to_dict(s), sort_keys=True) for s in specs),
    )
    return out


@dataclass
class Outcome:
    engine: SimulationEngine
    result: object  # the deterministic() SimulationResult

    @property
    def spans(self):
        obs = self.engine.observability
        return None if obs is None else obs.tracer.to_dicts()


def _finish(engine, result):
    return Outcome(engine, result.deterministic())


@pytest.fixture(scope="module")
def one_shot(scenarios):
    cache = {}

    def get(name, faults):
        if (name, faults) not in cache:
            sc = scenarios[name]
            engine = sc.engine(sc.jobs(), FAULTS[faults])
            cache[name, faults] = _finish(engine, engine.run())
        return cache[name, faults]

    return get


def rerun(sc, faults, reference, tmp_path):
    engine = sc.engine(sc.jobs(), faults)
    return _finish(engine, engine.run())


def replayed(sc, faults, reference, tmp_path):
    path = tmp_path / "decisions.jsonl"
    reference.engine.trace.dump_jsonl(path)
    loaded = DecisionTrace.load_jsonl(path)
    assert loaded.decisions == reference.engine.trace.decisions
    scheduler = ReplayScheduler(loaded, name=reference.result.scheduler_name)
    engine = sc.engine(sc.jobs(), faults, scheduler=scheduler, observe=True)
    result = engine.run()
    scheduler.assert_exhausted()
    return _finish(engine, result)


def streamed(sc, faults, reference, tmp_path):
    engine = sc.engine(sc.source(), faults)
    return _finish(engine, engine.run())


def served(sc, faults, reference, tmp_path):
    horizon = reference.result.simulated_time
    ckpt = tmp_path / "service.ckpt"
    feed = SignalAwareLineFeed(iter(sc.lines))
    engine = sc.engine(JsonlSource(feed), faults)
    published = []
    result = serve(
        engine,
        feed=feed,
        checkpoint_path=ckpt,
        checkpoint_every=horizon / 5.0,
        on_metrics=lambda eng: published.append(eng.now),
        metrics_every=horizon / 10.0,
        install_signals=False,
    )
    assert published
    assert checkpoint_info(ckpt).format == CHECKPOINT_FORMAT
    return _finish(engine, result)


def restored(sc, faults, reference, tmp_path):
    ckpt = tmp_path / "mid.ckpt"
    # The median arrival, not half the horizon (which may fall in the
    # post-arrival drain tail), keeps the stream live at the cut.
    cut = sorted(job.arrival_time for job in sc.jobs())[len(sc.lines) // 2]
    engine = sc.engine(JsonlSource(iter(sc.lines)), faults)
    engine.start()
    engine.run_until(cut)
    mid = save_checkpoint(engine, ckpt)
    assert 0.0 < mid.sim_time < reference.result.simulated_time
    assert 0 < mid.arrivals_consumed < len(sc.lines)
    assert checkpoint_info(ckpt).format == CHECKPOINT_FORMAT
    revived = load_checkpoint(ckpt)
    # A restored log keeps the chunks it was loaded from as its cache.
    assert revived.trace._sealed and revived.observability.tracer._sealed
    revived.arrivals.attach(iter(sc.lines), skip_consumed=True)
    revived.drain()
    return _finish(revived, revived.finalize())


CELLS = [
    *[("mapreduce8", d, f) for d in (rerun, replayed) for f in ("none", "smoke")],
    *[
        (f"ingest-{schema}", d, f)
        for schema in SCHEMAS
        for d in (streamed, replayed)
        for f in ("none", "chaos")
    ],
    *[("google200", d, f) for d in (served, restored) for f in ("none", "chaos")],
]


def assert_capacity_conserved(cluster):
    for server in cluster:
        # Exact comparison on purpose: a drained server must return to
        # its capacity bit-for-bit.
        expected = server.capacity if server.up else Resources(0.0, 0.0)
        assert server.available == expected, f"server {server.server_id}"


@pytest.mark.parametrize(
    "name, delivery, faults",
    CELLS,
    ids=[f"{n}-{d.__name__}-{f}" for n, d, f in CELLS],
)
def test_cell_matches_one_shot(scenarios, one_shot, tmp_path, name, delivery, faults):
    sc = scenarios[name]
    reference = one_shot(name, faults)
    cell = delivery(sc, FAULTS[faults], reference, tmp_path)
    for run in (reference, cell):
        assert run.result.num_jobs == len(sc.jobs())
        if faults != "none":
            assert run.result.faults_injected > 0 and run.result.copies_lost > 0
        assert_capacity_conserved(run.engine.cluster)
    assert cell.result == reference.result
    assert list(cell.engine.trace) == list(reference.engine.trace)
    if reference.spans is not None and cell.spans is not None:
        assert cell.spans == reference.spans


@pytest.mark.parametrize("schema", SCHEMAS)
def test_ingestion_is_deterministic(fixtures, schema):
    def canonical():
        specs = _ingest_stream(fixtures[schema], schema)
        return json.dumps([spec_to_dict(s) for s in specs], sort_keys=True)

    first = canonical()
    assert json.loads(first)
    assert canonical() == first
