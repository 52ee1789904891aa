"""Service-mode smoke (CI gate, DESIGN.md §5.8).

Streams 200 generated trace jobs through the session/service layers and
proves the three properties ``python -m repro serve`` promises:

1. **Stream identity** — a served session (``SignalAwareLineFeed`` →
   ``JsonlSource`` → ``serve()``) over a 200-job JSONL stream finishes
   bit-identical to a one-shot ``run()`` over the same job list, while
   writing periodic checkpoints and republishing live Prometheus text;
2. **Checkpoint validity** — the checkpoint file written mid-run parses
   (``checkpoint_info``), carries the right format tag, and records a
   cut strictly inside the run;
3. **Restore identity** — a second streamed session cut mid-run with
   ``run_until``, checkpointed to disk, restored, and re-attached to the
   stream (fast-forwarded past the consumed prefix) continues to the
   same bit-identical result, decision journal and span export.  The
   mid-run checkpoint must hold sealed chunks of both logs at the
   production chunk size (:mod:`repro.sealing`), so the restore leg
   exercises incremental checkpoints.

Run:  PYTHONPATH=src python -m repro.devtools.service_smoke
"""

from __future__ import annotations

import json
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

from repro.cluster.heterogeneity import homogeneous_cluster
from repro.core.online import DollyMPScheduler
from repro.observability import Observability
from repro.resources import Resources
from repro.service import SignalAwareLineFeed, serve
from repro.sim.checkpoint import (
    CHECKPOINT_FORMAT,
    checkpoint_info,
    load_checkpoint,
    save_checkpoint,
)
from repro.sim.engine import SimulationEngine
from repro.workload.arrivals import JsonlSource
from repro.workload.google_trace import (
    GoogleTraceGenerator,
    jobs_from_specs,
    spec_to_dict,
)

__all__ = ["main", "N_JOBS"]

#: Stream length: large enough that arrivals interleave with running
#: work for the whole session, small enough for a sub-minute gate.
N_JOBS = 200


def _specs():
    specs = GoogleTraceGenerator(seed=202).generate(N_JOBS, mean_interarrival=6.0)
    # Pin job ids: the stream and the in-process reference must name
    # jobs identically across independent engine constructions.
    return [replace(s, job_id=i) for i, s in enumerate(specs)]


def _mk_engine(jobs_or_source):
    return SimulationEngine(
        homogeneous_cluster(48, Resources.of(16, 32)),
        DollyMPScheduler(max_clones=2),
        jobs_or_source,
        seed=11,
        schedule_interval=5.0,
        observability=Observability(),
        record_trace=True,
    )


def main() -> int:
    specs = _specs()
    lines = [json.dumps(spec_to_dict(s), sort_keys=True) for s in specs]

    ref_engine = _mk_engine(jobs_from_specs(specs))
    reference = ref_engine.run().deterministic()
    if reference.num_jobs != N_JOBS:
        print(
            f"service-smoke: reference run finished {reference.num_jobs} "
            f"jobs, expected {N_JOBS}",
            file=sys.stderr,
        )
        return 1

    with tempfile.TemporaryDirectory() as tmp:
        ckpt = Path(tmp) / "service.ckpt"
        textfile = Path(tmp) / "metrics.prom"

        # Leg 1 — the full service path: feed thread, EOF drain,
        # periodic checkpoints, live metrics publication.
        feed = SignalAwareLineFeed(iter(lines))
        engine = _mk_engine(JsonlSource(feed))
        published = []

        def publish(eng):
            textfile.write_text(f"# smoke publication at t={eng.now:g}\n")
            published.append(eng.now)

        served = serve(
            engine,
            feed=feed,
            checkpoint_path=ckpt,
            checkpoint_every=reference.simulated_time / 5.0,
            on_metrics=publish,
            metrics_every=reference.simulated_time / 10.0,
            install_signals=False,  # CI runners own their handlers
        ).deterministic()
        if served != reference:
            print(
                "service-smoke: served session DIVERGED from one-shot run "
                f"(served {served.num_jobs} jobs / {served.events_processed} "
                f"events, reference {reference.num_jobs} / "
                f"{reference.events_processed})",
                file=sys.stderr,
            )
            return 1
        if not published or not textfile.exists():
            print("service-smoke: live metrics never published", file=sys.stderr)
            return 1

        info = checkpoint_info(ckpt)
        if info.format != CHECKPOINT_FORMAT:
            print(
                f"service-smoke: checkpoint format {info.format!r}",
                file=sys.stderr,
            )
            return 1

        # Leg 2 — cut a fresh streamed session mid-run, checkpoint to
        # disk, restore, re-attach the stream, continue.  Cutting at the
        # median arrival (not half the horizon, which may fall in the
        # post-arrival drain tail) guarantees the stream is still live.
        cut = specs[N_JOBS // 2].arrival_time
        e2 = _mk_engine(JsonlSource(iter(lines)))
        e2.start()
        e2.run_until(cut)
        mid = save_checkpoint(e2, ckpt)
        if not (0.0 < mid.sim_time < reference.simulated_time):
            print(
                f"service-smoke: mid-run cut at t={mid.sim_time:g} is not "
                f"inside the run (horizon {reference.simulated_time:g})",
                file=sys.stderr,
            )
            return 1
        if mid.arrivals_consumed == 0 or mid.arrivals_consumed >= N_JOBS:
            print(
                f"service-smoke: cut consumed {mid.arrivals_consumed} "
                f"arrivals of {N_JOBS} — the restore leg would not exercise "
                "a live stream",
                file=sys.stderr,
            )
            return 1

        revived = load_checkpoint(ckpt)
        # A restored log keeps the chunks it was loaded from as its cache.
        sealed = (len(revived.trace._sealed), len(revived.observability.tracer._sealed))
        if not all(sealed):
            print(
                "service-smoke: the mid-run checkpoint holds no sealed chunk "
                f"of the journal ({len(revived.trace)} decisions) or of the "
                f"span buffer ({len(revived.observability.tracer)} spans)",
                file=sys.stderr,
            )
            return 1
        revived.arrivals.attach(iter(lines), skip_consumed=True)
        revived.drain()
        resumed = revived.finalize().deterministic()
        if resumed != reference:
            print(
                "service-smoke: restored session DIVERGED from one-shot run "
                f"(cut at t={mid.sim_time:g}, "
                f"{mid.arrivals_consumed} arrivals consumed)",
                file=sys.stderr,
            )
            return 1
        if list(revived.trace) != list(ref_engine.trace):
            print(
                "service-smoke: restored decision journal DIVERGED from the "
                "one-shot run",
                file=sys.stderr,
            )
            return 1
        if (
            revived.observability.tracer.to_dicts()
            != ref_engine.observability.tracer.to_dicts()
        ):
            print(
                "service-smoke: restored span export DIVERGED from the "
                "one-shot run",
                file=sys.stderr,
            )
            return 1

    print(
        f"service-smoke: {N_JOBS} jobs streamed over JSONL "
        f"({served.events_processed} events, horizon "
        f"{reference.simulated_time:.0f}s); served + "
        f"checkpoint@t={mid.sim_time:g}/restore legs bit-identical to the "
        f"one-shot run (restore leg: journal and spans too, from "
        f"{sealed[0]}+{sealed[1]} sealed chunks); {len(published)} live "
        "metrics publications"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
