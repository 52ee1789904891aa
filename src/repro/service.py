"""Long-lived scheduler service: ``python -m repro serve``.

The service layer of the session API (DESIGN.md §5.8).  The engine runs
as a persistent process consuming job specs line-by-line from a JSONL
stream (stdin or a file), scheduling them as they arrive:

* **graceful drain** — end-of-stream (EOF) or SIGTERM/SIGINT stops the
  intake; jobs already admitted run to completion, then the session
  finalizes and prints the usual result summary;
* **periodic checkpoints** — ``--checkpoint-path``/``--checkpoint-every``
  overwrite an atomic checkpoint on simulated-time boundaries, and
  ``--restore`` revives a session from one and re-attaches the stream;
* **live metrics** — ``--metrics-textfile`` republishes the Prometheus
  exposition to a text file and ``--metrics-addr`` serves it over HTTP
  while the session runs, instead of end-of-run-only export.

Each input line is one job in the `repro-trace-v1` job schema (see
``workload/google_trace.py``); ``python -m repro trace --jsonl`` emits a
compatible stream.  Determinism: the served session's result is
bit-identical to a one-shot ``run()`` over the same job list, because
arrival ingestion never reorders the (time, kind, seq) event order —
see ``workload/arrivals.py``.
"""

from __future__ import annotations

import json
import queue
import signal
import sys
import threading
from contextlib import ExitStack
from pathlib import Path
from typing import Iterable, Iterator, TextIO

from repro.observability.live import (
    MetricsServer,
    TextfilePublisher,
    combine_publishers,
    parse_metrics_addr,
)
from repro.sim.checkpoint import load_checkpoint, save_checkpoint
from repro.sim.engine import SimulationEngine
from repro.sim.metrics import SimulationResult
from repro.sim.session import SimulationSession
from repro.workload.arrivals import JsonlSource

__all__ = ["SignalAwareLineFeed", "serve", "cmd_serve", "add_serve_parser"]


class SignalAwareLineFeed:
    """Iterates lines from a text stream, unblockable by ``close()``.

    A plain file iterator blocks the engine inside ``readline`` while
    waiting for the next arrival, where a signal handler could not end
    the session promptly.  This feed reads on a daemon thread into a
    queue; ``close()`` (called from the SIGTERM/SIGINT handler) turns
    the *next* line request into end-of-stream, which the arrival
    source reports as exhausted — the graceful-drain path — and lets
    the reader thread exit even when the queue is full.  Lines still
    buffered at close are dropped: shutdown means "stop admitting".

    A read error is not an end-of-stream: the lines read before it are
    delivered, then the next request re-raises it, so a truncated input
    fails the session instead of draining it as complete.
    """

    def __init__(self, stream: TextIO | Iterable[str]) -> None:
        self._queue: queue.Queue[str | None] = queue.Queue(maxsize=1024)
        self._closed = threading.Event()
        self._error: Exception | None = None
        self._thread = threading.Thread(
            target=self._pump, args=(stream,), name="repro-arrivals", daemon=True
        )
        self._thread.start()

    def _put(self, item: str | None) -> bool:
        """Queue ``item`` unless the feed closes first."""
        while not self._closed.is_set():
            try:
                self._queue.put(item, timeout=0.1)
                return True
            except queue.Full:
                continue
        return False

    def _pump(self, stream: TextIO | Iterable[str]) -> None:
        try:
            for line in stream:
                if not self._put(line):
                    return
        except Exception as exc:  # re-raised by __next__ in the consumer
            self._error = exc
        self._put(None)

    def close(self) -> None:
        self._closed.set()

    def __iter__(self) -> Iterator[str]:
        return self

    def __next__(self) -> str:
        while True:
            if self._closed.is_set():
                raise StopIteration
            try:
                item = self._queue.get(timeout=0.1)
            except queue.Empty:
                continue
            if item is None:
                if self._error is not None:
                    raise self._error
                raise StopIteration
            return item


def _open_arrivals(path: str) -> tuple[Iterable[str], bool]:
    """(line iterable, is_replayable_file) for an ``--arrivals`` value."""
    if path == "-":
        return sys.stdin, False
    return open(path, "r", encoding="utf-8"), True


def serve(
    engine: SimulationEngine,
    *,
    feed: SignalAwareLineFeed,
    checkpoint_path: str | Path | None = None,
    checkpoint_every: float = 0.0,
    on_metrics=None,
    metrics_every: float = 0.0,
    install_signals: bool = True,
) -> SimulationResult:
    """Run one service session to completion (EOF or signal + drain)."""
    session = SimulationSession(
        engine,
        checkpoint_path=checkpoint_path,
        checkpoint_every=checkpoint_every,
        on_metrics=on_metrics,
        metrics_every=metrics_every,
    )
    previous = {}
    if install_signals:
        def _stop(signum, frame):
            feed.close()

        for sig in (signal.SIGTERM, signal.SIGINT):
            previous[sig] = signal.signal(sig, _stop)
    try:
        return session.run()
    finally:
        for sig, handler in previous.items():
            signal.signal(sig, handler)


def cmd_serve(args) -> int:
    # Local import: cli imports this module, and the helpers used here
    # live in cli.
    from repro.cli import (
        _fault_profile_for,
        _finish_observability,
        make_cluster,
        make_scheduler,
    )
    from repro.observability import Observability

    with ExitStack() as stack:
        raw, replayable = _open_arrivals(args.arrivals)
        if replayable:
            stack.callback(raw.close)
        feed = SignalAwareLineFeed(raw)

        if args.restore:
            engine = load_checkpoint(args.restore)
            source = engine.arrivals
            if not isinstance(source, JsonlSource):
                raise SystemExit(
                    f"{args.restore}: checkpointed session has a "
                    f"{type(source).__name__} arrival source, not a JSONL stream"
                )
            # A file restarted from its beginning must be fast-forwarded
            # past the jobs the checkpointed session already consumed;
            # stdin is assumed to resume where the previous leg stopped.
            source.attach(feed, skip_consumed=replayable)
            print(
                f"restored session at t={engine.now:g} "
                f"({len(engine.active_jobs)} active jobs, "
                f"{source.consumed} arrivals consumed)",
                file=sys.stderr,
            )
        else:
            obs = _observability_for_serve(args, Observability)
            fault_profile, churn_seed = _fault_profile_for(args)
            engine = SimulationEngine(
                make_cluster(args.cluster, args.seed),
                make_scheduler(args.scheduler),
                JsonlSource(feed),
                seed=args.seed,
                schedule_interval=args.slot,
                observability=obs,
                fault_profile=fault_profile,
                churn_seed=churn_seed,
            )

        publishers = []
        if args.metrics_textfile:
            publishers.append(
                TextfilePublisher(args.metrics_textfile, include_wall=args.include_wall)
            )
        if args.metrics_addr:
            host, port = parse_metrics_addr(args.metrics_addr)
            server = MetricsServer(host, port, include_wall=args.include_wall)
            stack.callback(server.close)
            bound = server.address
            print(f"metrics endpoint on http://{bound[0]}:{bound[1]}/metrics",
                  file=sys.stderr)
            publishers.append(server)

        result = serve(
            engine,
            feed=feed,
            checkpoint_path=args.checkpoint_path,
            checkpoint_every=args.checkpoint_every,
            on_metrics=combine_publishers(*publishers),
            metrics_every=args.metrics_every,
        )

    for key, value in result.summary().items():
        print(f"{key:>24s}: {value:.3f}")
    if args.summary_out:
        Path(args.summary_out).write_text(
            json.dumps(result.summary(), sort_keys=True, separators=(",", ":")) + "\n"
        )
        print(f"summary -> {args.summary_out}")
    _finish_observability(engine.observability, args)
    return 0


def _observability_for_serve(args, Observability):
    """A bundle whenever any live or end-of-run export was requested."""
    if (
        args.metrics_textfile
        or args.metrics_addr
        or args.metrics_out
        or args.spans_out
        or args.profile
    ):
        return Observability(profile=args.profile or None)
    return None


def add_serve_parser(sub, *, add_common, add_observability, add_faults) -> None:
    """Install the ``serve`` subcommand on the CLI's subparser registry."""
    p = sub.add_parser(
        "serve",
        help="consume a JSONL arrival stream as a long-lived scheduler service",
    )
    p.add_argument(
        "--arrivals", default="-",
        help="JSONL job-spec stream: a path, or '-' for stdin (default)",
    )
    p.add_argument("--scheduler", default="dollymp2")
    p.add_argument(
        "--checkpoint-path",
        help="overwrite an atomic engine checkpoint at this path",
    )
    p.add_argument(
        "--checkpoint-every", type=float, default=0.0,
        help="checkpoint cadence in simulated seconds (0 = final only)",
    )
    p.add_argument(
        "--restore",
        help="revive the session from this checkpoint and re-attach the stream",
    )
    p.add_argument(
        "--metrics-textfile",
        help="republish Prometheus text here on each metrics cadence",
    )
    p.add_argument(
        "--metrics-addr",
        help="serve GET /metrics on host:port while the session runs",
    )
    p.add_argument(
        "--metrics-every", type=float, default=0.0,
        help="live-metrics cadence in simulated seconds (0 = every instant)",
    )
    p.add_argument("--summary-out", help="write the final result summary JSON here")
    add_common(p)
    add_observability(p)
    add_faults(p)
    p.set_defaults(func=cmd_serve)
