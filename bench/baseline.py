"""Run the benchmark over several seeds and summarise each metric.

    python3 bench/baseline.py --workloads split3 --seeds 5
    python3 bench/baseline.py --seeds 10 --out bench/baseline.json

For every workload it runs ``run.py`` once per seed (seeds 1..N, tracing
off), then reports each end-to-end metric's median, first and third
quartile and spread (the quartile distance over the median, as
``statistics.quantiles(values, n=4)`` gives them).  With --out it also makes
one traced run per workload on seed 1 and writes everything, with the
Python version, core count and git commit, to a JSON file; a later change
compares its own runs against that file.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def bench_run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT,
                          check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: {result['failed']} of "
                         f"{result['attempted']} inputs failed")
    return result


def summarise(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med,
            "values": values}


def git_commit() -> str:
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True,
                              check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workloads", default=",".join(
        w["name"] for w in spec["workloads"]))
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    ap.add_argument("--out", default=None)
    args = ap.parse_args()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    report = {}
    for workload in args.workloads.split(","):
        runs = [bench_run(workload, seed, args.seconds, 0)
                for seed in range(1, args.seeds + 1)]
        metrics = {}
        for name in runs[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in runs]
            metrics[name] = {"unit": runs[0]["metrics"][name]["unit"],
                             **summarise(values)}
            m = metrics[name]
            print(f"{workload:9s} {name:18s} median {m['median']:12.6g} "
                  f"{m['unit']:4s} spread {m['spread']:.3f} "
                  f"(bound {bounds[name]})", flush=True)
        report[workload] = {"end_to_end": metrics}
        if args.out:
            traced = bench_run(workload, 1, args.seconds, 1)
            report[workload]["per_layer_seed1"] = {
                name: m["value"] for name, m in traced["metrics"].items()}
    if args.out:
        Path(args.out).write_text(json.dumps({
            "commit": git_commit(),
            "python": platform.python_version(),
            "nproc": os.cpu_count(),
            "seeds": list(range(1, args.seeds + 1)),
            "run_seconds": args.seconds,
            "claim": None,
            "workloads": report,
        }, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
