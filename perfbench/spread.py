"""Steadiness check: run the benchmark over several seeds and report,
per end-to-end metric, the median and the quartile spread
((Q3 - Q1) / median) next to the metric's bound, at the
``run_seconds`` of BENCHMARK.json.

Usage (from the repository root)::

    python3 perfbench/spread.py --workload deep_roster --seeds 1-10

A spread below a third of the bound is the target; ``setup_s`` is
judged on its medians only.  Prints one line per metric and exits 1
when a run fails its checks.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from harness import quartile_spread  # noqa: E402


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", default="1-10")
    args = p.parse_args(argv)

    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    values: dict[str, list[float]] = {}
    for seed in parse_seeds(args.seeds):
        cmd = [
            sys.executable, str(HERE / "run.py"),
            "--workload", args.workload, "--seed", str(seed),
            "--seconds", str(bench["run_seconds"]), "--trace", "0",
        ]
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=HERE.parent)
        out = json.loads(proc.stdout.strip().splitlines()[-1])
        if proc.returncode != 0 or not out["correct"]:
            print(f"seed {seed}: FAILED\n{proc.stderr}", file=sys.stderr)
            return 1
        for name, m in out["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print(f"seed {seed}: " + " ".join(f"{k}={v['value']:.6g}" for k, v in out["metrics"].items()))
    for name, vs in values.items():
        med = statistics.median(vs)
        spread = quartile_spread(vs) if len(vs) >= 2 and med else 0.0
        bound = bounds[name]
        flag = "ok" if spread < bound / 3 else "WIDE"
        print(f"{name:28s} median {med:12.6g}  spread {spread:7.4f}  bound {bound}  {flag}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
