"""One hermetic simulation of a benchmark run: set up, simulate, check,
report.

Started by ``run.py`` in a fresh interpreter per simulation, with ``src`` on
``PYTHONPATH`` and every ``REPRO_*`` variable stripped.  Prints one
JSON object on its last stdout line.  With ``--trace`` the layer
wrappers are installed between set-up and ``start()``; the spans are
written to ``--spans`` after the run and folded into per-layer metrics.
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402


class PassCensus:
    """Notes, for every scheduling pass, the roster it saw, the
    simulated instant it ran at, its host time and the host clock when
    it began, and probes the host's speed as the simulation runs.

    Wraps ``DollyMPScheduler.schedule`` on the class (never the
    instance, so checkpoints still pickle).  At the first pass after
    every ``PROBE_EVERY_S`` of host time it times the calibration kernel
    (``calibrate.py``) before the pass; the clock the census reads is
    paused while it does, so no stamp or pass time includes a probe.
    The stamps cut the run into segments, one per pass plus the stretch
    before the first; each segment and each pass is later stated at the
    reference host speed by the probes taken around it.

    Decision latency is taken over the passes that run while jobs still
    arrive (at or before the last arrival) and see at least one active
    job.  A pass over an empty roster returns at once; slotted runs make
    many (the tick chain lives on while stale ``COPY_FINISH`` events of
    killed copies are queued).  After the last arrival the roster only
    drains, and a slotted run's passes there mostly find nothing to
    place and take ~0.1 ms; how many such passes a part has depends on
    its tail, so counting them would put the median on the boundary
    between no-ops and real passes and let it jump with the seed.
    """

    def __init__(self) -> None:
        self.rosters: list[int] = []
        self.times: list[float] = []
        self.stamps: list[float] = []
        self.pass_s: list[float] = []
        self.probe_ms: list[float] = []
        #: Per pass, the index of the last probe taken before it.
        self.probe_at: list[int] = []
        self._paused = 0.0
        self._next_probe = 0.0
        self._original = None

    def now(self) -> float:
        """Host seconds, less the time spent probing."""
        return time.perf_counter() - self._paused

    def probe(self) -> None:
        from calibrate import PROBE_EVERY_S, probe

        t0 = time.perf_counter()
        self.probe_ms.append(probe())
        t1 = time.perf_counter()
        self._paused += t1 - t0
        self._next_probe = t1 + PROBE_EVERY_S

    def install(self) -> "PassCensus":
        from repro.core.online import DollyMPScheduler

        original = self._original = DollyMPScheduler.schedule
        census = self
        clock = time.perf_counter

        def schedule(scheduler, view):
            if clock() >= census._next_probe:
                census.probe()
            census.stamps.append(clock() - census._paused)
            census.probe_at.append(len(census.probe_ms) - 1)
            census.rosters.append(len(view.active_jobs))
            census.times.append(view.time)
            t0 = clock()
            try:
                return original(scheduler, view)
            finally:
                census.pass_s.append(clock() - t0)

        DollyMPScheduler.schedule = schedule
        self.probe()
        return self

    def uninstall(self) -> None:
        from repro.core.online import DollyMPScheduler

        DollyMPScheduler.schedule = self._original
        self.probe()

    def speed_factors(self) -> list[float]:
        """Per probe, reference kernel time over the host's kernel time
        around it: the median of the probe and its two neighbours (the
        faster of two at either end), so a single probe caught by an
        interrupt does not count."""
        from calibrate import REFERENCE_KERNEL_MS

        ms = self.probe_ms
        out = []
        for i in range(len(ms)):
            near = sorted(ms[max(i - 1, 0) : i + 2])
            out.append(REFERENCE_KERNEL_MS / near[(len(near) - 1) // 2])
        return out


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--workdir", required=True, help="scratch directory for fixtures")
    p.add_argument("--trace", action="store_true")
    p.add_argument("--spans", help="CSV path for the traced run's spans")
    args = p.parse_args(argv)

    import repro  # noqa: F401  (import time belongs to set-up)
    from checks import result_digest, run_checks
    from workloads import WORKLOADS

    with tempfile.TemporaryDirectory(dir=args.workdir) as tmp:
        prepared = WORKLOADS[args.workload](args.seed, Path(tmp))
        setup_s = time.perf_counter() - _T0
        census = PassCensus()
        tracer = None
        if args.trace:
            from harness import SpanRecorder
            from layers import LayerTracer

            # Spans read the census clock, which stops while a probe runs.
            tracer = LayerTracer(SpanRecorder(clock=census.now)).install()
        # Installed after the tracer, so the census wraps the traced
        # schedule() and its probes fall outside every schedule span.
        census.install()
        t1 = census.now()
        try:
            result = prepared.drive()
        finally:
            t2 = census.now()
            census.uninstall()
            if tracer is not None:
                tracer.uninstall()
        engine = prepared.engine
        submitted = prepared.submitted()
        failures = run_checks(engine, result, submitted)

    if len(census.rosters) != len(result.schedule_pass_seconds):
        raise RuntimeError(
            f"census saw {len(census.rosters)} passes, engine {len(result.schedule_pass_seconds)}"
        )
    last_arrival = max((r.arrival_time for r in result.records), default=0.0)
    timed = [i for i, (n, t) in enumerate(zip(census.rosters, census.times)) if n and t <= last_arrival]
    factor = census.speed_factors()
    # Segment j ends where pass j begins (the last one at the run's end);
    # the probe in force there states it at the reference speed.
    seg_probe = [*census.probe_at, len(census.probe_ms) - 1]
    segments = [
        (b - a) * factor[k]
        for a, b, k in zip([t1, *census.stamps], [*census.stamps, t2], seg_probe)
    ]
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "traced": args.trace,
        "setup_host_s": setup_s,
        "run_s": sum(segments),
        "run_host_s": t2 - t1,
        "jobs_submitted": submitted,
        "jobs_finished": result.num_jobs,
        "passes_empty_roster": sum(1 for n in census.rosters if not n),
        "passes_after_arrivals": sum(
            1 for n, t in zip(census.rosters, census.times) if n and t > last_arrival
        ),
        "passes_ms": [census.pass_s[i] * 1e3 * factor[census.probe_at[i]] for i in timed],
        "segments_s": segments,
        "probe_ms": census.probe_ms,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "sim_flowtime_mean_s": result.mean_flowtime,
        "sim": {
            "copies": result.copies_launched,
            "clones": result.clones_launched,
            "faults": result.faults_injected,
            "requeued": result.tasks_requeued,
            "events": result.events_processed,
            "simulated_time_s": result.simulated_time,
        },
        "digest": result_digest(result),
        "checks": failures,
        "meta": prepared.meta,
    }
    if tracer is not None:
        from layers import layer_metrics

        record["layers"] = layer_metrics(tracer.rec, result)
        record["spans"] = len(tracer.rec)
        if args.spans:
            tracer.rec.write_csv(args.spans)
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
