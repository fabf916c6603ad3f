"""One workload repetition in a fresh process.

    python3 perfbench/child.py --workload NAME --config CFG --out DIR [--trace]
    python3 perfbench/child.py --workload NAME --config CFG --setup-only

Imports mvamp, resolves the config and notes the monotonic clock (the parent
noted it just before starting this process, so the difference is the set-up
time). Unless ``--setup-only``, it then runs the workload and prints one JSON
line: the ready time, the wall time of the workload calls, the peak RSS, the
CLI exit code, the theory rows of theory-curves and, with ``--trace``, the
per-layer numbers. mvamp is imported from the ``src`` directory on PYTHONPATH.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
import traceback


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--config", required=True)
    ap.add_argument("--out")
    ap.add_argument("--jobs", type=int, default=1)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    import mvamp.cli as cli

    import tracing
    import workloads

    wl = workloads.WORKLOADS[args.workload]
    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracing.install(tracer)
    cfg = cli.load_config(args.config)
    ready = time.monotonic()
    if args.setup_only:
        print(json.dumps({"ready": ready}))
        return 0

    rc, error, theory_rows = None, None, []
    t0 = time.perf_counter()
    try:
        rc = cli.main(wl.argv(args.config, args.out, args.jobs))
        if wl.theory:
            theory_rows = workloads.theory_points(cfg)
    except Exception:  # reported to the parent, which counts the run as failed
        error = traceback.format_exc()
    wall = time.perf_counter() - t0
    result = {
        "ready": ready,
        "wall_s": wall,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "rc": rc,
        "error": error,
        "theory_rows": theory_rows,
    }
    if tracer is not None:
        result["layers"] = tracing.layer_metrics(tracer)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
