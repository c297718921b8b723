"""Run one benchmark workload and print its metrics.

    python3 bench/run.py --workload family --seed 1 --seconds 40 --trace 0
    python3 bench/run.py --workload all --seed 1

Each pass is a fresh single-threaded interpreter (worker.py) that sets up,
runs every input of the workload once in a closed loop with one caller,
checks every output and reports its timings.  Passes are fresh because the
package's lru caches live for the whole process and a command-line user
pays to fill them on every invocation.  A run makes at least two passes
and more while the next is expected to end within --seconds.  Throughput
pools the call chains of every pass; latency percentiles are taken within
each pass and averaged over the passes; setup_s (with extra set-up-only
starts) and peak_rss_mb are medians over the starts.

With --trace 1 untraced and traced passes alternate; the result carries the
per-module metrics of the traced passes and the tracing overhead, the
throughput lost against the untraced passes of the same run.  Spans of the
last traced pass are written to bench/out/.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  Without the package sources next to the
benchmark (src/lfk) it exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKER = BENCH / "worker.py"
WORKLOAD_NAMES = ("sweep", "family", "obstruct", "split3")

END_TO_END = {
    "setup_s": "s",
    "throughput_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "peak_rss_mb": "MB",
}
TRACE_OVERHEAD = {
    "trace.untraced_throughput_per_s": "1/s",
    "trace.traced_throughput_per_s": "1/s",
    "trace.overhead_pct": "%",
}
LADDER = (50, 90, 99, 99.9)
SETUP_SAMPLES = 15     # setup_s is the median of at least this many starts
PASS_TIMEOUT_S = 170
RUN_LIMIT_S = 150      # no pass starts that is expected to end after this


def tail_percentile(n: int) -> float:
    """The highest ladder percentile with at least 10 of n samples beyond
    it; 50 (the median) when no percentile has that many."""
    best = LADDER[0]
    for p in LADDER:
        if n * (1000 - round(10 * p)) >= 10 * 1000:   # exact for p in tenths
            best = p
    return best


def percentile(values, p: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(p / 100 * len(ordered)) - 1)]


def error_rate(attempted: int, failed: int) -> float:
    return failed / attempted


class WorkerError(RuntimeError):
    pass


def _child_env() -> dict:
    env = dict(os.environ)
    env.pop("LFK_MARGIN", None)        # every pass uses the default margin
    env["PYTHONHASHSEED"] = "0"
    return env


def run_worker(workload: str, seed: int, mode: str) -> dict:
    spans = BENCH / "out" / f"spans-{workload}-seed{seed}.csv"
    if mode == "trace":
        spans.parent.mkdir(exist_ok=True)
    cmd = [sys.executable, str(WORKER), workload, str(seed),
           repr(time.monotonic()), mode, str(spans)]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT,
                          env=_child_env(), timeout=PASS_TIMEOUT_S)
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0 or not proc.stdout.strip():
        raise WorkerError(f"{workload} {mode} pass exited with "
                          f"{proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_passes(workload: str, seed: int, seconds: float, modes,
               min_cycles: int) -> list[dict]:
    """Cycle through modes, one pass each, at least min_cycles times and
    then while another cycle is expected to end within seconds."""
    passes = []
    start = time.monotonic()
    cycles = 0
    while True:
        for mode in modes:
            result = run_worker(workload, seed, mode)
            result["mode"] = mode
            passes.append(result)
        cycles += 1
        elapsed = time.monotonic() - start
        next_end = elapsed * (cycles + 1) / cycles
        if next_end > RUN_LIMIT_S or (cycles >= min_cycles
                                      and next_end > seconds):
            return passes


def throughput(passes, items: int) -> float:
    """Inputs completed per second of call-chain time, over all passes."""
    return items * len(passes) / sum(sum(p["chain_s"]) for p in passes)


def pass_latency_ms(passes, p: float) -> float:
    """The p-th percentile of each pass's chains, averaged over the passes.

    Each pass is one fresh process, as one invocation sees it.  The mean
    over passes rather than a percentile of the pooled chains keeps the
    figure steady when a pass is a single chain (sweep): a median of a
    handful of whole-pass times moves with the host far more than their
    mean does."""
    return 1000 * statistics.mean(percentile(q["chain_s"], p)
                                  for q in passes)


def end_to_end(passes, setups, items: int) -> dict:
    """The percentile of latency_tail_ms is fixed by the chains per pass,
    so it does not change with the number of passes a run fits in."""
    tail = tail_percentile(len(passes[0]["chain_s"]))
    return {
        "setup_s": statistics.median(setups),
        "throughput_per_s": throughput(passes, items),
        "latency_p50_ms": pass_latency_ms(passes, 50),
        "latency_tail_ms": pass_latency_ms(passes, tail),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
    }


def per_layer(passes, items: int) -> dict:
    traced = [p for p in passes if p["mode"] == "trace"]
    plain = [p for p in passes if p["mode"] == "run"]
    out = {name: statistics.median(p["per_layer"][name] for p in traced)
           for name in traced[0]["per_layer"]}
    fast = throughput(plain, items)
    slow = throughput(traced, items)
    out["trace.untraced_throughput_per_s"] = fast
    out["trace.traced_throughput_per_s"] = slow
    out["trace.overhead_pct"] = 100 * (fast - slow) / fast
    return out


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """One benchmark run; returns the result object the last line prints."""
    run_worker(workload, seed, "setup")    # compiles bytecode; not counted
    if trace:
        passes = run_passes(workload, seed, seconds, ("run", "trace"), 1)
    else:
        passes = run_passes(workload, seed, seconds, ("run",), 2)
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    items = passes[0]["attempted"]
    chains = len(passes[0]["chain_s"])
    print(f"workload {workload}: seed {seed}, {len(passes)} passes of "
          f"{items} inputs in {chains} call chains")
    if trace:
        values = per_layer(passes, items)
        units = {**passes[-1]["per_layer_units"], **TRACE_OVERHEAD}
    else:
        setups = [p["setup_s"] for p in passes]
        while len(setups) < SETUP_SAMPLES:
            setups.append(run_worker(workload, seed, "setup")["setup_s"])
        values = end_to_end(passes, setups, items)
        units = END_TO_END
        print(f"  setup_s over {len(setups)} starts; latency over "
              f"{len(passes)} passes of {chains} chains, tail = "
              f"p{tail_percentile(chains):g}")
    for name, value in values.items():
        print(f"  {name:42s} {value:14.6g} {units[name]}")
    print(f"  {'error_rate':42s} {error_rate(attempted, failed):14.6g} "
          f"({failed} of {attempted} failed)")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {name: {"value": value, "unit": units[name]}
                        for name, value in values.items()}}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=WORKLOAD_NAMES + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=40)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "lfk" / "__init__.py").is_file():
        print(f"error: package sources not found under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    try:
        results = {name: run(name, args.seed, args.seconds, bool(args.trace))
                   for name in names}
    except (WorkerError, subprocess.TimeoutExpired) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    if args.workload == "all":
        print(json.dumps(results))
    else:
        print(json.dumps(results[args.workload]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
