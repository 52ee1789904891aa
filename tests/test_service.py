"""The service layer: ``SignalAwareLineFeed`` and ``python -m repro serve``."""

from __future__ import annotations

import json
import threading
from dataclasses import replace

import pytest

from repro.cli import main, make_cluster, make_scheduler
from repro.service import SignalAwareLineFeed
from repro.sim.checkpoint import save_checkpoint
from repro.sim.engine import SimulationEngine
from repro.workload.arrivals import JsonlSource
from repro.workload.google_trace import (
    GoogleTraceGenerator,
    jobs_from_specs,
    spec_to_dict,
)

CLUSTER = "uniform:8x16x32"
SEED = 3
SLOT = 5.0
#: Host wall time, not part of the simulated result.
WALL_KEYS = {"mean_schedule_pass_ms"}


def test_read_error_reraised_after_buffered_lines():
    def stream():
        yield "a\n"
        yield "b\n"
        raise OSError("device went away")

    feed = SignalAwareLineFeed(stream())
    assert [next(feed), next(feed)] == ["a\n", "b\n"]
    with pytest.raises(OSError, match="device went away"):
        next(feed)


def test_close_releases_a_reader_blocked_on_a_full_queue():
    full = threading.Event()

    def stream():
        for i in range(5000):
            if i == 1024:  # the queue holds 1024 lines; this one blocks
                full.set()
            yield f"{i}\n"

    feed = SignalAwareLineFeed(stream())
    assert full.wait(timeout=5.0)
    feed.close()
    feed._thread.join(timeout=2.0)
    assert not feed._thread.is_alive()
    with pytest.raises(StopIteration):
        next(feed)


@pytest.fixture
def specs():
    specs = GoogleTraceGenerator(seed=5).generate(30, mean_interarrival=6.0)
    return [replace(s, job_id=i) for i, s in enumerate(specs)]


@pytest.fixture
def arrivals(tmp_path, specs):
    path = tmp_path / "arrivals.jsonl"
    path.write_text(
        "".join(json.dumps(spec_to_dict(s), sort_keys=True) + "\n" for s in specs)
    )
    return path


def _engine(arrivals):
    return SimulationEngine(
        make_cluster(CLUSTER, SEED),
        make_scheduler("dollymp2"),
        arrivals,
        seed=SEED,
        schedule_interval=SLOT,
    )


def _simulated(summary: dict) -> dict:
    return {k: v for k, v in summary.items() if k not in WALL_KEYS}


def _serve(arrivals, tmp_path, *extra):
    out = tmp_path / "summary.json"
    argv = [
        "serve", "--arrivals", str(arrivals), "--cluster", CLUSTER,
        "--seed", str(SEED), "--slot", str(SLOT), "--summary-out", str(out),
        *extra,
    ]
    assert main(argv) == 0
    return _simulated(json.loads(out.read_text()))


def test_serve_matches_one_shot_run(tmp_path, arrivals, specs, capsys):
    reference = _engine(jobs_from_specs(specs)).run()
    horizon = reference.simulated_time
    textfile = tmp_path / "metrics.prom"
    summary = _serve(
        arrivals, tmp_path,
        "--checkpoint-path", str(tmp_path / "serve.ckpt"),
        "--checkpoint-every", str(horizon / 4),
        "--metrics-textfile", str(textfile),
        "--metrics-every", str(horizon / 8),
    )
    assert summary == _simulated(reference.summary())
    assert summary["jobs"] == len(specs)
    assert (tmp_path / "serve.ckpt").exists()
    assert "repro_sim_events_total" in textfile.read_text()


def test_serve_restore_resumes_to_the_same_summary(tmp_path, arrivals, specs, capsys):
    reference = _engine(jobs_from_specs(specs)).run()
    ckpt = tmp_path / "mid.ckpt"
    with arrivals.open() as fh:
        engine = _engine(JsonlSource(fh))
        engine.start()
        engine.run_until(specs[len(specs) // 2].arrival_time)
        mid = save_checkpoint(engine, ckpt)
    assert 0 < mid.arrivals_consumed < len(specs)
    summary = _serve(arrivals, tmp_path, "--restore", str(ckpt))
    assert summary == _simulated(reference.summary())
    assert "restored session" in capsys.readouterr().err


def test_serve_restore_rejects_a_non_jsonl_source(tmp_path, arrivals, specs):
    engine = _engine(jobs_from_specs(specs))
    engine.start()
    engine.run_until(specs[len(specs) // 2].arrival_time)
    ckpt = tmp_path / "static.ckpt"
    save_checkpoint(engine, ckpt)
    with pytest.raises(SystemExit, match="not a JSONL stream"):
        main(["serve", "--arrivals", str(arrivals), "--restore", str(ckpt)])
