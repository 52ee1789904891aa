"""Checkpoint/restore determinism (DESIGN.md §5.8).

The contract under test: checkpoint at t → restore → continue is
bit-identical to the uninterrupted run — result snapshot, decision
trace, replay journal, and metrics snapshot — including with fault
injection and observability enabled.
"""

import functools
import json
import pickle
from dataclasses import replace

import pytest

from repro.cluster.heterogeneity import homogeneous_cluster
from repro.core.online import DollyMPScheduler
from repro.faults import FAULT_PROFILES
from repro.observability import Observability
from repro.resources import Resources
from repro import sealing
from repro.schedulers.fifo import FIFOScheduler
from repro.sim.actions import Decision, DecisionTrace
from repro.sim.checkpoint import (
    CHECKPOINT_FORMAT,
    checkpoint_bytes,
    checkpoint_info,
    load_checkpoint,
    restore_bytes,
    save_checkpoint,
)
from repro.sim.engine import SimulationEngine
from repro.workload.arrivals import JsonlSource
from repro.workload.google_trace import (
    GoogleTraceGenerator,
    jobs_from_specs,
    spec_to_dict,
)
from tests.conftest import make_single_task_job


def trace_specs(n=15, seed=13, gap=12.0):
    specs = GoogleTraceGenerator(seed=seed).generate(n, mean_interarrival=gap)
    return [replace(s, job_id=i) for i, s in enumerate(specs)]


def launch_decision(i):
    return Decision(
        seq=i, time=0.0, point=i, cause="schedule", policy="fifo",
        kind="launch", job_id=1, phase_index=0, task_index=i, server_id=0,
    )


def mk_engine(**kw):
    kw.setdefault("seed", 21)
    jobs = kw.pop("jobs", None)
    if jobs is None:
        jobs = jobs_from_specs(trace_specs())
    return SimulationEngine(
        homogeneous_cluster(16, Resources.of(16, 32)),
        DollyMPScheduler(max_clones=2),
        jobs,
        **kw,
    )


class TestRoundTrip:
    def test_restore_continue_bit_identical(self):
        r1 = mk_engine().run()
        e2 = mk_engine()
        e2.start()
        e2.run_until(60.0)
        payload, info = checkpoint_bytes(e2)
        assert info.sim_time == e2.now
        e3 = restore_bytes(payload)
        e3.drain()
        r3 = e3.finalize()
        assert r1.deterministic() == r3.deterministic()

    def test_restore_with_faults_observability_trace(self):
        kw = dict(
            fault_profile=FAULT_PROFILES["chaos"],
            schedule_interval=5.0,
            record_trace=True,
        )
        e1 = mk_engine(observability=Observability(), **kw)
        r1 = e1.run()
        e2 = mk_engine(observability=Observability(), **kw)
        e2.start()
        e2.run_until(60.0)
        e3 = restore_bytes(checkpoint_bytes(e2)[0])
        e3.drain()
        r3 = e3.finalize()
        assert r1.deterministic() == r3.deterministic()
        # decision journal: the replay input must be bit-identical
        assert list(e1.trace) == list(e3.trace)
        # metrics snapshot: identical exposition
        assert (
            e1.observability.registry.to_json()
            == e3.observability.registry.to_json()
        )
        assert (
            e1.observability.registry.to_prometheus()
            == e3.observability.registry.to_prometheus()
        )

    def test_double_checkpoint_same_state(self):
        # Checkpointing is read-only: a second checkpoint of the same
        # engine continues identically to the first.
        e = mk_engine()
        e.start()
        e.run_until(40.0)
        p1, _ = checkpoint_bytes(e)
        a = restore_bytes(p1)
        a.drain()
        ra = a.finalize()
        b = restore_bytes(checkpoint_bytes(e)[0])
        b.drain()
        rb = b.finalize()
        assert ra.deterministic() == rb.deterministic()
        # and the original still finishes to the same result
        e.drain()
        assert e.finalize().deterministic() == ra.deterministic()

    def test_checkpoint_restore_at_multiple_cuts(self):
        reference = mk_engine().run().deterministic()
        for cut in (0.0, 30.0, 90.0, 150.0):
            e = mk_engine()
            e.start()
            e.run_until(cut)
            revived = restore_bytes(checkpoint_bytes(e)[0])
            revived.drain()
            assert revived.finalize().deterministic() == reference, f"cut={cut}"


class TestJsonlRestore:
    def test_detach_and_reattach_stream(self):
        specs = trace_specs()
        lines = [json.dumps(spec_to_dict(s)) for s in specs]
        r1 = mk_engine(jobs=jobs_from_specs(specs)).run()

        e2 = mk_engine(jobs=JsonlSource(iter(lines)))
        e2.start()
        e2.run_until(60.0)
        payload, info = checkpoint_bytes(e2)
        assert info.arrivals_consumed > 0

        e3 = restore_bytes(payload)
        with pytest.raises(RuntimeError, match="detached"):
            # pulling before re-attach fails loudly (drain would pull
            # on the next arrival processing)
            e3.arrivals.take()
        e3.arrivals.attach(iter(lines), skip_consumed=True)
        e3.drain()
        assert e3.finalize().deterministic() == r1.deterministic()

    def test_attach_rejects_short_stream(self):
        specs = trace_specs(n=5)
        lines = [json.dumps(spec_to_dict(s)) for s in specs]
        e = mk_engine(jobs=JsonlSource(iter(lines)))
        e.run()
        revived = restore_bytes(checkpoint_bytes(e)[0])
        with pytest.raises(ValueError, match="fast-forwarding"):
            revived.arrivals.attach(iter(lines[:2]), skip_consumed=True)


class TestFiles:
    def test_file_round_trip_and_info(self, tmp_path, small_cluster):
        job = make_single_task_job(theta=20.0, job_id=1)
        engine = SimulationEngine(small_cluster, FIFOScheduler(), [job])
        engine.start()
        engine.run_until(0.0)
        path = tmp_path / "session.ckpt"
        info = save_checkpoint(engine, path)
        assert info.format == CHECKPOINT_FORMAT
        assert info.jobs_active == 1
        assert checkpoint_info(path).to_dict() == info.to_dict()
        revived = load_checkpoint(path)
        revived.drain()
        assert revived.finalize().num_jobs == 1

    def test_corrupted_file_rejected(self, tmp_path, small_cluster):
        job = make_single_task_job(theta=1.0, job_id=1)
        engine = SimulationEngine(small_cluster, FIFOScheduler(), [job])
        engine.start()
        path = tmp_path / "session.ckpt"
        save_checkpoint(engine, path)
        raw = bytearray(path.read_bytes())
        # flip a byte inside the pickled state
        raw[len(raw) // 2] ^= 0xFF
        path.write_bytes(bytes(raw))
        with pytest.raises((ValueError, Exception)):
            load_checkpoint(path)

    def test_foreign_file_rejected(self, tmp_path):
        path = tmp_path / "not_a_ckpt.bin"
        import pickle

        path.write_bytes(pickle.dumps({"format": "something-else"}))
        with pytest.raises(ValueError, match="not a repro-checkpoint"):
            load_checkpoint(path)

    def test_v1_checkpoint_rejected_by_format(self, tmp_path):
        """A pre-v2 file fails the envelope check with a clear error, not
        with whatever its stale state would raise while unpickling (v1
        mirrors carry slots the mirror no longer has)."""
        import hashlib
        import pickle

        from repro.cluster.mirror import AvailabilityMirror

        class V1Mirror:
            def __reduce__(self):
                return (object.__new__, (AvailabilityMirror,), (None, {"_shard_of": None}))

        state = pickle.dumps(V1Mirror(), protocol=4)
        with pytest.raises(AttributeError):
            pickle.loads(state)
        info = {"format": "repro-checkpoint-v1", "shards": 1}
        info["digest"] = hashlib.sha256(state).hexdigest()
        payload = pickle.dumps({"format": "repro-checkpoint-v1", "info": info, "state": state})
        path = tmp_path / "v1.ckpt"
        path.write_bytes(payload)
        assert CHECKPOINT_FORMAT == "repro-checkpoint-v3"
        with pytest.raises(ValueError, match="not a repro-checkpoint-v3 checkpoint"):
            restore_bytes(payload)
        with pytest.raises(ValueError, match="not a repro-checkpoint-v3 checkpoint"):
            load_checkpoint(path)
        with pytest.raises(ValueError, match="not a repro-checkpoint-v3 checkpoint"):
            checkpoint_info(path)

    def test_v2_checkpoint_rejected_by_format(self, tmp_path):
        """A v2 file (decision journal and span buffer pickled as plain
        lists) fails the envelope check, not inside ``__setstate__``,
        which now expects sealed chunks."""
        import hashlib

        d = launch_decision(0)

        class V2Trace:
            def __reduce__(self):
                v2_state = {"maxlen": 10, "meta": {}, "_decisions": [d, d, d]}
                return (object.__new__, (DecisionTrace,), v2_state)

        state = pickle.dumps(V2Trace(), protocol=4)
        with pytest.raises(TypeError):
            pickle.loads(state)
        info = {"format": "repro-checkpoint-v2"}
        info["digest"] = hashlib.sha256(state).hexdigest()
        payload = pickle.dumps({"format": "repro-checkpoint-v2", "info": info, "state": state})
        path = tmp_path / "v2.ckpt"
        path.write_bytes(payload)
        with pytest.raises(ValueError, match="not a repro-checkpoint-v3 checkpoint"):
            restore_bytes(payload)
        with pytest.raises(ValueError, match="not a repro-checkpoint-v3 checkpoint"):
            load_checkpoint(path)
        with pytest.raises(ValueError, match="not a repro-checkpoint-v3 checkpoint"):
            checkpoint_info(path)


class TestJsonlEveryCutIdentity:
    """PR 10 bugfix pin: ``attach(skip_consumed=True)`` after restore
    must preserve replay identity at *every* cut of the stream —
    including cuts after end-of-stream, where the historical attach
    cleared the terminal exhaustion flag, kept ``workload_active()``
    true forever, and let the chaos fault-renewal chain run the drain
    away to ``max_time``."""

    def test_attach_keeps_exhausted_source_ended(self):
        import pickle

        specs = trace_specs(n=3)
        lines = [json.dumps(spec_to_dict(s)) for s in specs]
        src = JsonlSource(iter(lines))
        while src.take() is not None:
            pass
        assert src.exhausted
        revived = pickle.loads(pickle.dumps(src))
        assert revived.exhausted
        revived.attach(iter(lines), skip_consumed=True)
        assert revived.exhausted  # attach re-binds bytes, never un-ends
        assert revived.take() is None
        assert revived.consumed == len(lines)

    def test_restore_identity_at_every_line_index(self):
        specs = trace_specs(n=20, seed=5, gap=8.0)
        lines = [json.dumps(spec_to_dict(s)) for s in specs]

        def mk(jobs):
            return mk_engine(
                jobs=jobs,
                fault_profile=FAULT_PROFILES["chaos"],
                churn_seed=3,
            )

        ref = mk(JsonlSource(iter(lines))).run().deterministic()
        for cut in range(len(lines) + 1):
            engine = mk(JsonlSource(iter(lines)))
            engine.start()
            while engine.arrivals.consumed < cut and engine.events:
                engine.step()
            revived = restore_bytes(checkpoint_bytes(engine)[0])
            # a runaway leg (the historical bug) dies here instead of
            # hanging: the uninterrupted run ends well before this bound
            revived.max_time = ref.simulated_time + 10_000.0
            revived.arrivals.attach(iter(lines), skip_consumed=True)
            revived.drain()
            assert revived.finalize().deterministic() == ref, f"cut at line {cut}"


DEFAULT_CHUNK = sealing.CHUNK_ENTRIES

#: Seeds of the chaos run whose log lengths land exactly on, and one
#: entry past, a default-size chunk boundary between two instants.
BOUNDARY_SEEDS = {"journal": 35, "spans": 31}


def chaos_engine(seed):
    return mk_engine(
        seed=seed,
        fault_profile=FAULT_PROFILES["chaos"],
        schedule_interval=5.0,
        record_trace=True,
        observability=Observability(),
    )


def log_len(engine, log):
    return len(engine.trace) if log == "journal" else len(engine.observability.tracer)


def observed(engine):
    """Everything a restored-and-continued run must reproduce."""
    engine.drain()
    return (
        engine.finalize().deterministic(),
        list(engine.trace),
        engine.observability.tracer.to_dicts(),
        engine.observability.registry.to_json(),
    )


@functools.lru_cache(maxsize=None)
def uninterrupted(seed):
    engine = chaos_engine(seed)
    engine.start()
    return observed(engine)


class SealSpy:
    """Stands in for ``pickle`` inside :mod:`repro.sealing` and records
    the ``(entry type, first seq)`` of every chunk it pickles."""

    loads = staticmethod(pickle.loads)

    def __init__(self):
        self.sealed = []

    def dumps(self, chunk, protocol):
        self.sealed.append((type(chunk[0]).__name__, chunk[0].seq))
        return pickle.dumps(chunk, protocol=protocol)


class TestSealedLogs:
    """Span buffer and decision journal are checkpointed as sealed
    chunks plus an unsealed tail (DESIGN.md §5.8)."""

    @pytest.mark.parametrize("log", ["journal", "spans"])
    @pytest.mark.parametrize(
        "chunk,offset",
        [(1, 0), (3, 0), (3, 1), (DEFAULT_CHUNK, 0), (DEFAULT_CHUNK, 1)],
    )
    def test_restore_identity_on_and_past_a_boundary(self, monkeypatch, log, chunk, offset):
        seed = BOUNDARY_SEEDS[log]
        reference = uninterrupted(seed)
        monkeypatch.setattr(sealing, "CHUNK_ENTRIES", chunk)
        engine = chaos_engine(seed)
        engine.start()
        while not (
            log_len(engine, log) >= DEFAULT_CHUNK
            and log_len(engine, log) % chunk == offset
        ):
            assert engine.step(), "run ended before the boundary cut"
        sealed = engine.trace if log == "journal" else engine.observability.tracer
        cut = log_len(engine, log)
        revived = restore_bytes(checkpoint_bytes(engine)[0])
        assert len(sealed._sealed) == cut // chunk
        assert observed(revived) == reference

    def test_sealed_chunks_are_pickled_once(self, monkeypatch):
        seed = BOUNDARY_SEEDS["spans"]
        reference = uninterrupted(seed)
        spy = SealSpy()
        monkeypatch.setattr(sealing, "pickle", spy)
        monkeypatch.setattr(sealing, "CHUNK_ENTRIES", 64)
        engine = chaos_engine(seed)
        engine.start()
        engine.run_until(150.0)
        checkpoint_bytes(engine)
        first = list(spy.sealed)
        assert {kind for kind, _ in first} == {"Decision", "Span"}
        engine.run_until(350.0)
        # a second checkpoint of the same engine seals only new chunks
        revived = restore_bytes(checkpoint_bytes(engine)[0])
        assert len(spy.sealed) > len(first)
        # so does a checkpoint of the restored engine: none at all before
        # it runs on, then only the chunks filled since
        n = len(spy.sealed)
        checkpoint_bytes(revived)
        assert len(spy.sealed) == n
        revived.run_until(600.0)
        revived = restore_bytes(checkpoint_bytes(revived)[0])
        assert len(spy.sealed) > n
        assert len(set(spy.sealed)) == len(spy.sealed)
        assert observed(revived) == reference

    def test_cache_is_invisible(self):
        engine = chaos_engine(BOUNDARY_SEEDS["journal"])
        engine.start()
        engine.run_until(600.0)
        trace, tracer = engine.trace, engine.observability.tracer
        bare = DecisionTrace(maxlen=trace.maxlen, meta=dict(trace.meta))
        for d in trace:
            bare.append(d)
        before = (trace.decisions, len(tracer), tracer.to_dicts(), repr(trace))
        revived = restore_bytes(checkpoint_bytes(engine)[0])
        assert trace._sealed and revived.trace._sealed
        assert tracer._sealed and revived.observability.tracer._sealed
        for t in (trace, revived.trace):
            assert t == bare
            assert t.decisions == before[0]
            assert repr(t) == before[3]
        for s in (tracer, revived.observability.tracer):
            assert len(s) == before[1]
            assert s.to_dicts() == before[2]

    def test_shrunk_log_drops_the_cache(self, monkeypatch):
        monkeypatch.setattr(sealing, "CHUNK_ENTRIES", 3)
        trace = DecisionTrace()
        decisions = [launch_decision(i) for i in range(8)]
        for d in decisions:
            trace.append(d)
        pickle.dumps(trace)
        assert len(trace._sealed) == 2
        del trace._decisions[4:]
        trace.append(decisions[7])
        assert pickle.loads(pickle.dumps(trace)).decisions == (*decisions[:4], decisions[7])
        assert len(trace._sealed) == 1
