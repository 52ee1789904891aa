"""Output checks run on every timed simulation.

Each check takes the finished engine (and its result) and returns a
list of failure messages; an empty list means the check passed.  The
fourth check, digest equality across repeats of one (workload, seed),
spans processes and lives in ``run.py``; :func:`result_digest` is the
value it compares.
"""

from __future__ import annotations

import hashlib


def result_digest(result) -> str:
    """sha256 of the result's wall-clock-free comparison surface.

    ``SimulationResult.deterministic()`` clears the host timings; its
    dataclass repr spells every float exactly, so two runs agree on the
    digest iff they agree on every simulated output.
    """
    return hashlib.sha256(repr(result.deterministic()).encode()).hexdigest()


def check_all_finished(engine, result, submitted: int) -> list[str]:
    """Every submitted job finished, exactly once."""
    out = []
    if engine.active_jobs:
        out.append(f"{len(engine.active_jobs)} jobs still active after finalize()")
    if result.num_jobs != submitted:
        out.append(f"{result.num_jobs} jobs finished, {submitted} submitted")
    ids = [r.job_id for r in result.records]
    if len(set(ids)) != len(ids):
        out.append("a job finished more than once")
    return out


def check_capacity_restored(engine) -> list[str]:
    """Every server holds nothing after finalize().

    The repository's ``SimulationSanitizer`` checks capacity
    conservation, that a down server advertises nothing, and that the
    availability mirror agrees with every server bit for bit.  On top of
    that, the end state must hold no resident copy and no allocation.
    """
    from repro.devtools.sanitizer import SimulationSanitizer

    engine.cluster.mirror.flush()
    out = [str(v) for v in SimulationSanitizer(engine).check("after finalize()")[:10]]
    for s in engine.cluster:
        alloc = s.allocated
        if s.running_copies:
            out.append(f"server {s.server_id}: {len(s.running_copies)} copies still resident")
        if alloc.cpu != 0.0 or alloc.mem != 0.0:
            out.append(f"server {s.server_id}: allocation {alloc} after finalize()")
        if len(out) >= 10:
            break
    return out


def check_copy_cap(engine) -> list[str]:
    """No task ever held more copies than the policy's cap (original +
    ``max_clones``).  Copies lost to faults never competed for the task,
    so they are not counted (the sanitizer's lifetime rule)."""
    cap = engine.scheduler.policy.max_copies
    out = []
    for job in engine.finished_jobs:
        for phase in job.phases:
            for task in phase.tasks:
                used = len(task.copies) - task.fault_losses
                if used > cap:
                    out.append(
                        f"task {task.uid}: {used} copies (cap {cap}, "
                        f"{task.fault_losses} lost to faults)"
                    )
                    if len(out) >= 10:
                        return out
    return out


def run_checks(engine, result, submitted: int) -> dict[str, list[str]]:
    """All per-run checks by name."""
    return {
        "all_finished": check_all_finished(engine, result, submitted),
        "capacity_restored": check_capacity_restored(engine),
        "copy_cap": check_copy_cap(engine),
    }
