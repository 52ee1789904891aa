"""The repository's benchmark: one workload, one seed, one record.

Usage (from the repository root)::

    python3 perfbench/run.py --workload burst_place --seed 1 --seconds 40 --trace 0

Each simulation runs in a fresh interpreter (``child.py``), one at a
time, with ``src`` on ``PYTHONPATH``, every ``REPRO_*`` variable
stripped and ``PYTHONHASHSEED`` pinned.  A run simulates parts 0, 1,
2, ... twice each, back to back, while the next pair still fits in
``--seconds`` (and at least ``MIN_PARTS`` of them), so determinism is
checked and every timing is the fastest of two repeats.  Host times
are stated at a reference host speed, measured by a fixed kernel timed
all through each simulation (``calibrate.py``).  Every simulation's
output is checked; the last
stdout line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  ``--trace 0`` reports the end-to-end
metrics, ``--trace 1`` the per-layer metrics of traced runs (see
README.md in this directory).  Full records and span dumps land in
``.perfbench/`` at the repository root.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from harness import highest_percentile, median, percentile  # noqa: E402
from layers import LAYER_METRICS  # noqa: E402
from workloads import NOMINAL_JOBS, WORKLOADS, part_seed  # noqa: E402

ROOT = HERE.parent
OUT = ROOT / ".perfbench"

#: Host seconds after which a simulation still running is killed and the
#: run fails, so the whole run ends within three minutes.
DEADLINE_S = 170.0
#: Simulations of every part in an untraced run.
REPEATS = 2
#: Fewest parts an untraced run pools; it adds more while time allows.
MIN_PARTS = 3
#: The paper's per-round decision budget (Sec. 6.3.3), printed beside
#: the measured decision latencies.
ROUND_BUDGET_MS = 20.0

END_TO_END = {
    "setup_s": "s",
    "jobs_per_s": "1/s",
    "decision_ms_p50": "ms",
    "decision_ms_p90": "ms",
    "peak_rss_mb": "MB",
    "sim_flowtime_mean_s": "s",
    "completed_frac": "frac",
}


def hermetic_env() -> tuple[dict[str, str], list[str]]:
    """The environment for a child: ``src`` first on ``PYTHONPATH``, no
    ``REPRO_*`` switches, and one string-hash seed so set and dict
    layouts (hence timings) do not change between interpreters.
    Returns (env, names stripped)."""
    env = dict(os.environ)
    stripped = sorted(k for k in env if k.startswith("REPRO_"))
    for k in stripped:
        del env[k]
    env["PYTHONHASHSEED"] = "0"
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env, stripped


def run_child(
    workload: str, part: int, seed: int, traced: bool, env: dict, timeout: float
) -> dict:
    """One simulation in a fresh interpreter; returns its record, or a
    record with ``error`` set when it crashed or timed out."""
    cmd = [
        sys.executable,
        str(HERE / "child.py"),
        "--workload", workload,
        "--seed", str(seed),
        "--workdir", str(OUT),
    ]
    if traced:
        cmd += ["--trace", "--spans", str(OUT / f"spans-{workload}-s{seed}.csv")]
    t0 = time.perf_counter()
    try:
        proc = subprocess.run(
            cmd, env=env, cwd=ROOT, capture_output=True, text=True, timeout=timeout
        )
    except subprocess.TimeoutExpired:
        return {"error": f"timed out after {timeout:.0f} s", "part": part, "traced": traced}
    wall = time.perf_counter() - t0
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = proc.stderr.strip().splitlines()[-5:]
        return {
            "error": f"exit {proc.returncode}: " + " | ".join(tail),
            "part": part,
            "traced": traced,
        }
    try:
        rec = json.loads(lines[-1])
    except json.JSONDecodeError as exc:
        return {"error": f"unreadable child record: {exc}", "part": part, "traced": traced}
    rec["part"] = part
    rec["wall_s"] = wall
    return rec


def plan_runs(workload: str, seed: int, seconds: float, trace: bool, env: dict) -> list[dict]:
    """Run the simulations of one benchmark run, one at a time.

    Untraced: part 0 twice, part 1 twice, ... while the next pair still
    fits in ``seconds``, and at least ``MIN_PARTS`` parts.
    Every part gets exactly ``REPEATS`` simulations, so the fastest-of
    filter (:func:`fastest_repeats`) has the same strength in every run.
    Traced: part 0 untraced and traced, then alternating while time
    allows.
    """
    per_part = 2 if trace else REPEATS
    required = per_part if trace else REPEATS * MIN_PARTS
    runs: list[dict] = []
    t0 = time.perf_counter()
    n = 0
    while True:
        part, traced = (0, n % 2 == 1) if trace else (n // REPEATS, False)
        n += 1
        timeout = max(DEADLINE_S - (time.perf_counter() - t0), 1.0)
        rec = run_child(workload, part, part_seed(seed, part), traced, env, timeout)
        runs.append(rec)
        if "error" in rec:
            break
        if n < required or n % per_part:
            continue
        longest = max(r["wall_s"] for r in runs)
        if time.perf_counter() - t0 + per_part * longest > seconds:
            break
    return runs


def verify(runs: list[dict]) -> list[str]:
    """Cross-run checks: no crash, every per-run check clean, and one
    result digest per part however often it ran."""
    problems = []
    digests: dict[int, set[str]] = {}
    for i, r in enumerate(runs):
        if "error" in r:
            problems.append(f"run {i} (part {r['part']}): {r['error']}")
            continue
        for check, msgs in r["checks"].items():
            problems.extend(f"run {i} (part {r['part']}): {check}: {m}" for m in msgs)
        digests.setdefault(r["part"], set()).add(r["digest"])
    for part, ds in sorted(digests.items()):
        if len(ds) > 1:
            problems.append(f"part {part}: repeats disagree: {len(ds)} distinct result digests")
    return problems


def first_of_each_part(runs: list[dict]) -> list[dict]:
    seen: dict[int, dict] = {}
    for r in runs:
        if "error" not in r and not r["traced"]:
            seen.setdefault(r["part"], r)
    return [seen[k] for k in sorted(seen)]


def fastest_repeats(runs: list[dict]) -> dict[int, dict]:
    """Per part, its untraced repeats merged stretch by stretch into the
    fastest: each pass's time, and each segment of the run (the stretch
    before the first pass, then from each pass to the next), is the
    shortest any repeat took for it.  The times are already stated at
    the reference host speed (``child.py``).

    The simulation is deterministic, so pass ``i`` of every repeat is the
    same decision over the same roster and segment ``i`` the same work.
    A burst of other work on the host only ever makes a stretch slower,
    and it seldom hits the same stretch of both repeats, so the merged
    run keeps the code's cost and drops most of the bursts the speed
    probes are too coarse to see.  (Repeats that disagree fail the run's
    digest check; only those matching the first one's pass count are
    merged.)"""
    out: dict[int, dict] = {}
    for p in first_of_each_part(runs):
        reps = [
            r
            for r in runs
            if "error" not in r
            and not r["traced"]
            and r["part"] == p["part"]
            and len(r["segments_s"]) == len(p["segments_s"])
        ]
        out[p["part"]] = {
            "repeats": len(reps),
            "run_s": sum(min(s) for s in zip(*(r["segments_s"] for r in reps))),
            "passes_ms": [min(ms) for ms in zip(*(r["passes_ms"] for r in reps))],
        }
    return out


def end_to_end(runs: list[dict], completed_frac: float) -> dict[str, float]:
    """Pool the parts, each timed as the fastest of its repeats stretch
    by stretch (:func:`fastest_repeats`): throughput is total jobs over
    total run time, decision latency the percentiles of every part's
    passes, flowtime the mean over every job.  RSS is the median over
    every simulation, and so is set-up time, which runs before any probe
    and is stated at the reference speed by the run's own ratio of
    reference to host time."""
    ok = [r for r in runs if "error" not in r and not r["traced"]]
    parts = first_of_each_part(runs)
    fast = fastest_repeats(runs)
    jobs = sum(p["jobs_finished"] for p in parts)
    passes = [ms for f in fast.values() for ms in f["passes_ms"]]
    speed = sum(r["run_s"] for r in ok) / sum(r["run_host_s"] for r in ok)
    return {
        "setup_s": median([r["setup_host_s"] for r in ok]) * speed,
        "jobs_per_s": jobs / sum(f["run_s"] for f in fast.values()),
        "decision_ms_p50": percentile(passes, 50.0),
        "decision_ms_p90": percentile(passes, 90.0),
        "peak_rss_mb": median([r["peak_rss_mb"] for r in ok]),
        "sim_flowtime_mean_s": sum(p["sim_flowtime_mean_s"] * p["jobs_finished"] for p in parts)
        / jobs,
        "completed_frac": completed_frac,
    }


def per_layer(runs: list[dict]) -> dict[str, float]:
    plain = [r for r in runs if "error" not in r and not r["traced"]]
    traced = [r for r in runs if "error" not in r and r["traced"]]
    out = {name: median([r["layers"][name] for r in traced]) for name in traced[0]["layers"]}
    out["trace.overhead_frac"] = (
        median([r["run_s"] for r in traced]) / median([r["run_s"] for r in plain]) - 1.0
    )
    return out


def run_digest(runs: list[dict]) -> str:
    """One digest for the run: sha256 over the parts' result digests."""
    parts = first_of_each_part(runs)
    return hashlib.sha256(" ".join(p["digest"] for p in parts).encode()).hexdigest()


def summarize(
    workload: str, seed: int, runs: list[dict], metrics: dict, units: dict, failed_frac: float, stripped
) -> None:
    """Human-readable record: one line per metric, then run facts."""
    print(f"perfbench {workload} seed={seed}: {len(runs)} simulations, failed_frac={failed_frac:g}")
    for name, value in metrics.items():
        print(f"  {name:28s} {value:14.6g} {units[name]}")
    parts = first_of_each_part(runs)
    if parts:
        n = sum(len(p["passes_ms"]) for p in parts)
        empty = sum(p["passes_empty_roster"] for p in parts)
        drain = sum(p["passes_after_arrivals"] for p in parts)
        top = highest_percentile(n)
        repeats = min(f["repeats"] for f in fastest_repeats(runs).values())
        print(
            f"  decision passes: {n} over {len(parts)} part(s), each the fastest of "
            f"{repeats} repeat(s); not timed: {drain} after the last arrival, "
            f"{empty} over an empty roster; highest percentile with >=10 beyond: "
            f"p{top:g}; paper round budget {ROUND_BUDGET_MS:g} ms"
        )
        sims = {k: sum(p["sim"][k] for p in parts) for k in parts[0]["sim"]}
        print(f"  sim counts {json.dumps(sims, sort_keys=True)}")
        print(f"  digest {run_digest(runs)}")
        print(f"  part 0: {json.dumps(parts[0]['meta'], sort_keys=True)}")
    print(f"  stripped env: {', '.join(stripped) if stripped else '(none)'}")


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no simulator sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    env, stripped = hermetic_env()
    runs = plan_runs(args.workload, args.seed, args.seconds, bool(args.trace), env)
    problems = verify(runs)

    nominal = NOMINAL_JOBS[args.workload]
    attempted = sum(r.get("jobs_submitted", nominal) for r in runs)
    failed = sum(
        r.get("jobs_submitted", nominal)
        for r in runs
        if "error" in r or any(r["checks"].values())
    )
    if any("repeats disagree" in m for m in problems):
        failed = attempted
    correct = not problems
    ok = [r for r in runs if "error" not in r]
    if args.trace:
        units = LAYER_METRICS
        measurable = any(r["traced"] for r in ok) and any(not r["traced"] for r in ok)
        metrics = per_layer(runs) if measurable else {}
    else:
        units = END_TO_END
        metrics = end_to_end(runs, 1.0 - failed / attempted) if ok else {}

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "stripped_env": stripped,
        "problems": problems,
        "runs": runs,
        "metrics": metrics,
    }
    (OUT / f"record-{args.workload}-s{args.seed}-t{args.trace}.json").write_text(
        json.dumps(record, indent=1)
    )
    for m in problems:
        print(f"perfbench: FAILED {m}", file=sys.stderr)
    summarize(args.workload, args.seed, runs, metrics, units, failed / attempted, stripped)
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
