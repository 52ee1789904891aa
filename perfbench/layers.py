"""Per-layer tracing: wrappers around each layer's public entry points.

Every wrapper is installed on the name its *caller* looks up, so the
span sits exactly at the layer boundary: ``repro.core.online.
compute_priorities`` (the online scheduler's import), not
``repro.core.transient.compute_priorities``.  Class-level entry points
(``SimulationEngine.apply``, ``Server.allocate`` …) are patched on the
class, which every call site reaches through attribute lookup.

Left unwrapped on purpose: ``repro.core.online.pending_by_phase``.  It
runs once per active job per pass (about 300K calls per ``deep_roster``
part); at ~1.5 us per span, wrapping it would add about half a second
(over 10%) to a part to split out time that already sits inside the
pass.  Its time stays in ``online.pass_self_s``.

The wrappers only observe: they call through with the original
arguments and return the original result, so a traced run must finish
with the same result digest as an untraced one (the benchmark asserts
this).
"""

from __future__ import annotations

import functools
import importlib
import os
from typing import Any, Callable

from harness import SpanRecorder

_MISSING = object()

#: The per-layer metrics reported from a traced run, in print order:
#: name → unit.  Counts come from wrapper counters, ``*_s`` from span
#: self time, ``*_yield`` are useful outcomes per attempt, and the
#: ``sim.*`` counts are simulated outputs copied from the result.
LAYER_METRICS: dict[str, str] = {
    "engine.instants": "count",
    "engine.events": "count",
    "engine.step_self_s": "s",
    "engine.apply_launch": "count",
    "engine.apply_kill": "count",
    "engine.apply_fail": "count",
    "engine.apply_recover": "count",
    "engine.apply_rejected": "count",
    "engine.apply_self_s": "s",
    "events.push": "count",
    "events.pop_batch": "count",
    "events.queue_s": "s",
    "online.passes": "count",
    "online.pass_self_s": "s",
    "online.hooks": "count",
    "online.hooks_s": "s",
    "transient.recomputes": "count",
    "transient.roster_jobs": "count",
    "transient.recompute_s": "s",
    "transient.groups_s": "s",
    "volume.measures": "count",
    "volume.measure_s": "s",
    "packing.task_fills": "count",
    "packing.task_fill_s": "s",
    "packing.tasks_placed": "count",
    "packing.task_yield": "ratio",
    "packing.clone_fills": "count",
    "packing.clone_fill_s": "s",
    "packing.clones_placed": "count",
    "packing.clone_yield": "ratio",
    "packing.clone_best_fit": "count",
    "packing.clone_best_fit_s": "s",
    "server.allocate": "count",
    "server.release": "count",
    "server.alloc_s": "s",
    "mirror.update": "count",
    "mirror.update_s": "s",
    "ingest.takes": "count",
    "ingest.take_s": "s",
    "checkpoint.saves": "count",
    "checkpoint.save_s": "s",
    "checkpoint.bytes": "B",
    "live.publications": "count",
    "live.publish_s": "s",
    "sim.copies": "count",
    "sim.clones": "count",
    "sim.faults": "count",
    "sim.requeued": "count",
    "trace.overhead_frac": "ratio",
}

#: Scheduler hooks the engine calls on the policy.
HOOKS = (
    "on_job_arrival",
    "on_task_finish",
    "on_job_finish",
    "on_server_fail",
    "on_server_recover",
    "on_copy_failure",
)


def _span(rec: SpanRecorder, fn: Callable, span: str, count: str | None):
    """Plain wrapper: one span named ``span`` and one ``count`` tick."""
    nid = rec.name_id(span)
    opn, cls = rec.open, rec.close

    if count is None:

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            i = opn(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                cls(i)

        return wrapper
    counts = rec.counts
    counts.setdefault(count, 0)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        counts[count] += 1
        i = opn(nid)
        try:
            return fn(*args, **kwargs)
        finally:
            cls(i)

    return wrapper


def _apply(rec: SpanRecorder, fn: Callable):
    """``SimulationEngine.apply``: count by action kind and rejections."""
    from repro.sim.actions import InvalidAction

    nid = rec.name_id("engine.apply")
    opn, cls, count = rec.open, rec.close, rec.count
    for key in ("launch", "kill", "fail", "recover", "rejected"):
        rec.counts.setdefault(f"engine.apply_{key}", 0)

    @functools.wraps(fn)
    def apply(self, action):
        i = opn(nid)
        try:
            out = fn(self, action)
        except InvalidAction:
            count("engine.apply_rejected")
            raise
        finally:
            cls(i)
        count(f"engine.apply_{type(action).__name__.lower()}")
        return out

    return apply


def _step(rec: SpanRecorder, fn: Callable):
    """``SimulationEngine.step``: instants are steps that processed one."""
    nid = rec.name_id("engine.step")
    opn, cls, counts = rec.open, rec.close, rec.counts
    counts.setdefault("engine.instants", 0)

    @functools.wraps(fn)
    def step(self):
        i = opn(nid)
        try:
            ran = fn(self)
        finally:
            cls(i)
        if ran:
            counts["engine.instants"] += 1
        return ran

    return step


def _compute_priorities(rec: SpanRecorder, fn: Callable):
    nid = rec.name_id("transient.compute_priorities")
    opn, cls, counts = rec.open, rec.close, rec.counts
    counts.setdefault("transient.recomputes", 0)
    counts.setdefault("transient.roster_jobs", 0)

    @functools.wraps(fn)
    def compute_priorities(measures):
        counts["transient.recomputes"] += 1
        counts["transient.roster_jobs"] += len(measures)
        i = opn(nid)
        try:
            return fn(measures)
        finally:
            cls(i)

    return compute_priorities


def _fill_tasks(rec: SpanRecorder, fn: Callable):
    """Task fill: offered = pending tasks handed in, placed = launches."""
    nid = rec.name_id("packing.fill_tasks")
    opn, cls, counts = rec.open, rec.close, rec.counts
    for key in ("packing.task_fills", "packing.tasks_placed", "packing.tasks_offered"):
        counts.setdefault(key, 0)

    @functools.wraps(fn)
    def fill_tasks_best_fit(view, phases_with_tasks, *args, **kwargs):
        counts["packing.task_fills"] += 1
        counts["packing.tasks_offered"] += sum(len(t) for _, t in phases_with_tasks)
        i = opn(nid)
        try:
            placed = fn(view, phases_with_tasks, *args, **kwargs)
        finally:
            cls(i)
        counts["packing.tasks_placed"] += placed
        return placed

    return fill_tasks_best_fit


def _fill_clones(rec: SpanRecorder, fn: Callable):
    """Clone fill: offered = targets the fill actually consumed from its
    (lazy) iterable, placed = clone launches."""
    nid = rec.name_id("packing.fill_clones")
    opn, cls, counts = rec.open, rec.close, rec.counts
    for key in ("packing.clone_fills", "packing.clones_placed", "packing.clones_offered"):
        counts.setdefault(key, 0)

    def offered(tasks):
        for t in tasks:
            counts["packing.clones_offered"] += 1
            yield t

    @functools.wraps(fn)
    def fill_clones_best_fit(view, tasks, *args, **kwargs):
        counts["packing.clone_fills"] += 1
        i = opn(nid)
        try:
            placed = fn(view, offered(tasks), *args, **kwargs)
        finally:
            cls(i)
        counts["packing.clones_placed"] += placed
        return placed

    return fill_clones_best_fit


def _save_checkpoint(rec: SpanRecorder, fn: Callable):
    nid = rec.name_id("checkpoint.save")
    opn, cls, counts = rec.open, rec.close, rec.counts
    counts.setdefault("checkpoint.saves", 0)
    counts.setdefault("checkpoint.bytes", 0)

    @functools.wraps(fn)
    def save_checkpoint(engine, path):
        counts["checkpoint.saves"] += 1
        i = opn(nid)
        try:
            info = fn(engine, path)
        finally:
            cls(i)
        counts["checkpoint.bytes"] += os.path.getsize(path)
        return info

    return save_checkpoint


# (module, attribute path, wrapper factory).  A factory is either a
# (span, count) pair for the plain wrapper or a custom builder.
WRAPPED: tuple[tuple[str, str, Any], ...] = (
    ("repro.sim.engine", "SimulationEngine.step", _step),
    ("repro.sim.engine", "SimulationEngine.apply", _apply),
    ("repro.sim.events", "EventQueue.push", ("events.push", "events.push")),
    ("repro.sim.events", "EventQueue.pop_batch", ("events.pop_batch", "events.pop_batch")),
    ("repro.core.online", "DollyMPScheduler.schedule", ("online.schedule", "online.passes")),
    *(
        ("repro.core.online", f"DollyMPScheduler.{hook}", ("online.hook", "online.hooks"))
        for hook in HOOKS
    ),
    ("repro.core.online", "compute_priorities", _compute_priorities),
    ("repro.core.online", "priority_groups", ("transient.priority_groups", None)),
    ("repro.core.online", "measure_job", ("volume.measure_job", "volume.measures")),
    ("repro.core.online", "fill_tasks_best_fit", _fill_tasks),
    ("repro.core.online", "fill_clones_best_fit", _fill_clones),
    (
        "repro.schedulers.packing",
        "CloneScoreCache.best_fit_id",
        ("packing.clone_best_fit", "packing.clone_best_fit"),
    ),
    ("repro.cluster.server", "Server.allocate", ("server.allocate", "server.allocate")),
    ("repro.cluster.server", "Server.release", ("server.release", "server.release")),
    ("repro.cluster.mirror", "AvailabilityMirror.update", ("mirror.update", "mirror.update")),
    (
        "repro.workload.ingest.source",
        "TraceIngestSource.take",
        ("ingest.take", "ingest.takes"),
    ),
    ("repro.sim.session", "save_checkpoint", _save_checkpoint),
    (
        "repro.observability.live",
        "TextfilePublisher.__call__",
        ("live.publish", "live.publications"),
    ),
)


def resolve(module: str, path: str) -> tuple[Any, str]:
    """(owner, attribute) for a :data:`WRAPPED` entry: the module or
    class that holds the name, and the name."""
    owner = importlib.import_module(module)
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner, attr


class LayerTracer:
    """Installs the :data:`WRAPPED` table over a :class:`SpanRecorder`
    and restores every original on :meth:`uninstall`."""

    def __init__(self, rec: SpanRecorder | None = None) -> None:
        self.rec = rec if rec is not None else SpanRecorder()
        # (owner, attribute, original class-dict value or _MISSING)
        self._saved: list[tuple[Any, str, Any]] = []

    @property
    def installed(self) -> bool:
        return bool(self._saved)

    def install(self) -> "LayerTracer":
        if self._saved:
            raise RuntimeError("layer wrappers already installed")
        try:
            for module, path, factory in WRAPPED:
                owner, attr = resolve(module, path)
                # Read through the owner's own dict so an inherited
                # method is restored by deletion, not by shadowing.
                saved = vars(owner).get(attr, _MISSING)
                fn = getattr(owner, attr)
                if isinstance(factory, tuple):
                    wrapped = _span(self.rec, fn, *factory)
                else:
                    wrapped = factory(self.rec, fn)
                setattr(owner, attr, wrapped)
                self._saved.append((owner, attr, saved))
        except BaseException:
            self.uninstall()
            raise
        return self

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, saved = self._saved.pop()
            if saved is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, saved)

    def __enter__(self) -> "LayerTracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()


def layer_metrics(rec: SpanRecorder, result) -> dict[str, float]:
    """Fold a finished traced run into the :data:`LAYER_METRICS` values
    (everything but ``trace.overhead_frac``, which needs the untraced
    run and is filled in by the parent)."""
    self_s = rec.self_times()
    c = rec.counts

    def s(*spans: str) -> float:
        return sum(self_s.get(name, 0.0) for name in spans)

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    return {
        "engine.instants": c.get("engine.instants", 0),
        "engine.events": result.events_processed,
        "engine.step_self_s": s("engine.step"),
        "engine.apply_launch": c.get("engine.apply_launch", 0),
        "engine.apply_kill": c.get("engine.apply_kill", 0),
        "engine.apply_fail": c.get("engine.apply_fail", 0),
        "engine.apply_recover": c.get("engine.apply_recover", 0),
        "engine.apply_rejected": c.get("engine.apply_rejected", 0),
        "engine.apply_self_s": s("engine.apply"),
        "events.push": c.get("events.push", 0),
        "events.pop_batch": c.get("events.pop_batch", 0),
        "events.queue_s": s("events.push", "events.pop_batch"),
        "online.passes": c.get("online.passes", 0),
        "online.pass_self_s": s("online.schedule"),
        "online.hooks": c.get("online.hooks", 0),
        "online.hooks_s": s("online.hook"),
        "transient.recomputes": c.get("transient.recomputes", 0),
        "transient.roster_jobs": c.get("transient.roster_jobs", 0),
        "transient.recompute_s": s("transient.compute_priorities"),
        "transient.groups_s": s("transient.priority_groups"),
        "volume.measures": c.get("volume.measures", 0),
        "volume.measure_s": s("volume.measure_job"),
        "packing.task_fills": c.get("packing.task_fills", 0),
        "packing.task_fill_s": s("packing.fill_tasks"),
        "packing.tasks_placed": c.get("packing.tasks_placed", 0),
        "packing.task_yield": ratio(
            c.get("packing.tasks_placed", 0), c.get("packing.tasks_offered", 0)
        ),
        "packing.clone_fills": c.get("packing.clone_fills", 0),
        "packing.clone_fill_s": s("packing.fill_clones"),
        "packing.clones_placed": c.get("packing.clones_placed", 0),
        "packing.clone_yield": ratio(
            c.get("packing.clones_placed", 0), c.get("packing.clones_offered", 0)
        ),
        "packing.clone_best_fit": c.get("packing.clone_best_fit", 0),
        "packing.clone_best_fit_s": s("packing.clone_best_fit"),
        "server.allocate": c.get("server.allocate", 0),
        "server.release": c.get("server.release", 0),
        "server.alloc_s": s("server.allocate", "server.release"),
        "mirror.update": c.get("mirror.update", 0),
        "mirror.update_s": s("mirror.update"),
        "ingest.takes": c.get("ingest.takes", 0),
        "ingest.take_s": s("ingest.take"),
        "checkpoint.saves": c.get("checkpoint.saves", 0),
        "checkpoint.save_s": s("checkpoint.save"),
        "checkpoint.bytes": c.get("checkpoint.bytes", 0),
        "live.publications": c.get("live.publications", 0),
        "live.publish_s": s("live.publish"),
        "sim.copies": result.copies_launched,
        "sim.clones": result.clones_launched,
        "sim.faults": result.faults_injected,
        "sim.requeued": result.tasks_requeued,
    }
