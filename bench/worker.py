"""One benchmark pass in a fresh interpreter; started by run.py.

    python3 bench/worker.py WORKLOAD SEED SPAWN MODE [SPANS_CSV]

SPAWN is the parent's time.monotonic() just before it started this process
(a system-wide clock on Linux), so setup_s runs from interpreter start to
inputs ready.  MODE is "setup" (set up, report, exit), "run" (untraced
pass) or "trace" (traced pass; spans go to SPANS_CSV).  The result is one
JSON object on the last line of standard output.
"""

from __future__ import annotations

import json
import resource
import sys
import time
import traceback
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def run_pass(wl, inputs, tr=None) -> tuple[list[float], int, int]:
    """Solve every input (timed, traced when tr is given), then check it.

    Returns the chain times and the attempted and failed item counts.  An
    unexpected exception fails its input instead of ending the pass.
    """
    chain_s, attempted, failed = [], 0, 0
    for k, inp in enumerate(inputs):
        items = wl.items(inp)
        attempted += items
        if tr:
            tr.begin(k)
        t0 = time.perf_counter()
        try:
            out = wl.solve(inp)
        except Exception:
            out = None
            traceback.print_exc()
        chain_s.append(time.perf_counter() - t0)
        if tr:
            tr.end()
        if out is None:
            failed += items
            continue
        try:
            failed += wl.check(inp, out)
        except Exception:
            failed += items
            traceback.print_exc()
        # Drop this output before the next solve, so that peak memory is
        # the larger input's alone rather than that of two in a row.
        out = None
    return chain_s, attempted, failed


def main(argv) -> int:
    name, seed, spawn, mode = argv[1], int(argv[2]), float(argv[3]), argv[4]
    if not (SRC / "lfk" / "__init__.py").is_file():
        print(f"error: no lfk package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import lfk
    if Path(lfk.__file__).resolve().parent != SRC / "lfk":
        print(f"error: imported lfk from {lfk.__file__}", file=sys.stderr)
        return 2
    import workloads
    wl = workloads.WORKLOADS[name]()
    inputs = wl.inputs(seed)
    setup_s = time.monotonic() - spawn
    if mode == "setup":
        print(json.dumps({"setup_s": setup_s}))
        return 0

    tr = None
    if mode == "trace":
        import tracer
        tr = tracer.Tracer()
        tr.install()
    chain_s, attempted, failed = run_pass(wl, inputs, tr)
    result = {
        "setup_s": setup_s,
        "chain_s": chain_s,
        "attempted": attempted,
        "failed": failed,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if tr:
        result["per_layer"] = tr.metrics()
        result["per_layer_units"] = tracer.metric_units()
        tr.write_spans(argv[5])
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
