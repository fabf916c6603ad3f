#!/usr/bin/env python3
"""Benchmark for mvamp's three curves: AMP Monte Carlo, state evolution and
the variational MMSE bound.

    python3 perfbench/run.py --workload {phase-sweep,amp-long,theory-curves}
                             --seed N --seconds S --trace {0,1} [--jobs J]

Run from anywhere inside a checkout; mvamp is imported from its ``src``
directory. Each repetition of the workload runs in a fresh process
(``child.py``); repetitions continue while another one is expected to end
within ``--seconds``, with at least two untraced repetitions (with
``--trace 1``, at least one untraced and one traced). Every repetition's
outputs are checked, and all repetitions of one run must write
byte-identical files. The last line printed is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``; the line before it
is the run record (host, versions, BLAS, thread variables, samples).

``--trace 0`` reports the end-to-end metrics of the untraced repetitions.
``--trace 1`` alternates untraced and traced repetitions and reports the
per-layer metrics of the traced ones plus the tracing overhead. ``--jobs J``
with J > 1 pins the BLAS to one thread per process; it is for the recorded
``--jobs`` comparison only and cannot be traced. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracing
import workloads

START = time.monotonic()
HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

SETUP_PROBES = 5          # set-up-only processes per run, after one warm-up
CHILD_TIMEOUT_S = 150
DEADLINE_S = 170          # start no repetition that is expected to end later
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


class ChildFailed(RuntimeError):
    pass


def child_env(jobs: int) -> dict:
    env = dict(os.environ)
    env.pop("MVAMP_OUT", None)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    if jobs > 1:  # keep threads <= nproc: J workers with one BLAS thread each
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
            env[var] = "1"
    return env


def spawn(args: list, env: dict) -> dict:
    """Run child.py to completion and return its JSON line plus setup_s."""
    start = time.monotonic()
    proc = subprocess.run([sys.executable, str(HERE / "child.py"), *args], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise ChildFailed(f"exit {proc.returncode}: {proc.stderr.strip()[-1500:]}")
    out = json.loads(lines[-1])
    out["setup_s"] = out["ready"] - start
    return out


def digest(rep_dir: Path, theory_rows: list) -> tuple[str, int]:
    """sha256 over every file the CLI wrote (and the theory rows), and their bytes."""
    h, total = hashlib.sha256(), 0
    for path in sorted(rep_dir.rglob("*")):
        if path.is_file():
            data = path.read_bytes()
            total += len(data)
            h.update(path.name.encode() + b"\0" + data)
    h.update(json.dumps(theory_rows, sort_keys=True).encode())
    return h.hexdigest(), total


def run_rep(wl, resolved, cfg_path: Path, rep_dir: Path, env: dict, jobs: int, traced: bool):
    args = ["--workload", wl.name, "--config", str(cfg_path), "--out", str(rep_dir),
            "--jobs", str(jobs)] + (["--trace"] if traced else [])
    try:
        res = spawn(args, env)
    except (ChildFailed, subprocess.TimeoutExpired, json.JSONDecodeError) as exc:
        res = {"wall_s": None, "rc": None, "error": str(exc), "theory_rows": []}
    attempted = wl.ops(resolved)
    try:
        failures = wl.check(str(rep_dir), resolved, res["theory_rows"])
    except (OSError, KeyError, ValueError) as exc:  # unreadable output fails every operation
        failures = [f"output check raised {exc!r}"] * attempted
    if res["rc"] != 0 or res["error"]:
        failures = [f"run failed (exit {res['rc']}): {res['error']}"] * attempted
    res["attempted"], res["failures"], res["traced"] = attempted, failures, traced
    res["digest"], res["bytes_written"] = digest(rep_dir, res["theory_rows"])
    return res


def quartiles(values: list) -> list:
    if len(values) < 2:
        return [values[0]] * 3
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return [q1, q2, q3]


def run_record(jobs: int, env: dict) -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (KeyError, TypeError, ValueError):
        blas = {}
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "host": platform.node(),
        "cpu_model": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "thread_env": {var: env.get(var) for var in THREAD_VARS},
        "jobs": jobs,
    }


def unit_of(name: str) -> str:
    if name.endswith("_s") or name.endswith("s_per_iter"):
        return "s"
    if name.endswith("_bytes") or name.endswith("bytes_written"):
        return "B"
    if name.endswith("_flops"):
        return "flop"
    if name.endswith("_frac"):
        return "frac"
    if name.endswith("_mb"):
        return "MB"
    return "count"


def measure(wl, seed: int, seconds: int, trace: bool, jobs: int):
    from mvamp.cli import resolve_config

    run_dir = OUT / wl.name
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    raw = wl.config(seed)
    cfg_path = run_dir / "config.json"
    cfg_path.write_text(json.dumps(raw, indent=2))
    resolved = resolve_config(raw)
    env = child_env(jobs)
    setup_args = ["--workload", wl.name, "--config", str(cfg_path), "--setup-only"]
    setups = [spawn(setup_args, env)["setup_s"] for _ in range(SETUP_PROBES + 1)][1:]

    modes = (False, True) if trace else (False,)
    min_rounds = 1 if trace else 2
    reps, rounds, t0 = [], 0, time.monotonic()
    while True:
        for traced in modes:
            reps.append(run_rep(wl, resolved, cfg_path, run_dir / f"rep{len(reps)}", env,
                                jobs, traced))
        rounds += 1
        elapsed = time.monotonic() - t0
        per_round = elapsed / rounds
        if rounds >= min_rounds and elapsed + per_round > seconds:
            break
        if time.monotonic() - START + per_round > DEADLINE_S:
            break

    plain = [r for r in reps if not r["traced"]]
    walls = [r["wall_s"] for r in plain if r["wall_s"] is not None] or [math.nan]
    setups += [r["setup_s"] for r in plain if "setup_s" in r]
    rss = [r["peak_rss_mb"] for r in plain if "peak_rss_mb" in r] or [math.nan]
    attempted = sum(r["attempted"] for r in reps)
    failed = sum(len(r["failures"]) for r in reps)
    wall_q = quartiles(walls)
    factor = wl.full_size_factor(resolved)
    summary = {
        "wall_s_quartiles": wall_q,
        "failed_frac": failed / attempted,
        "full_size_factor": factor,
        "samples": {"wall_s": walls, "setup_s": setups, "peak_rss_mb": rss},
        "same_outputs": len({r["digest"] for r in reps}) == 1,
        "failures": [f for r in reps for f in r["failures"]][:20],
    }
    if wl.name == "phase-sweep":
        summary["full_diagram_s"] = wall_q[1] * factor
    if trace:
        metrics, summary["counts_repeat"] = traced_metrics(reps, wall_q[1])
    else:
        metrics = {
            "wall_s": wall_q[1],
            "setup_s": statistics.median(setups),
            "peak_rss_mb": statistics.median(rss),
            "valid_frac": 1.0 - failed / attempted,
            "full_size_s": wall_q[1] * factor,
        }
    result = {
        "correct": failed == 0 and summary["same_outputs"] and summary.get("counts_repeat", True),
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in metrics.items()},
    }
    return summary, result, run_dir


def traced_metrics(reps: list, untraced_wall_s: float) -> tuple[dict, bool]:
    """Per-layer medians over the traced repetitions, the tracing overhead, and
    whether every count repeated exactly."""
    traced = [r for r in reps if r["traced"] and "layers" in r]
    layers = [r["layers"] for r in traced]
    names = tracing.layer_metrics(tracing.Tracer())  # every name, all zero
    metrics = {k: statistics.median(lay[k] for lay in layers) if layers else v
               for k, v in names.items()}
    metrics["cli.bytes_written"] = reps[0]["bytes_written"]
    wall = statistics.median(r["wall_s"] for r in traced) if traced else math.nan
    self_sum = sum(metrics[f"{layer}.self_s"] for layer in tracing.LAYERS)
    metrics["trace.wall_s"] = wall
    metrics["trace.untraced_wall_s"] = untraced_wall_s
    metrics["trace.overhead_s"] = wall - untraced_wall_s
    metrics["trace.coverage_frac"] = self_sum / wall
    repeat = bool(layers) and all(lay[k] == layers[0][k] for lay in layers for k in tracing.EXACT)
    return metrics, repeat


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--jobs", type=int, default=1)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds < 1 or args.jobs < 1:
        ap.error("--seed must be >= 0, --seconds and --jobs >= 1")
    if args.trace and args.jobs > 1:
        ap.error("the traced run is single-threaded; use --jobs 1")
    if not (SRC / "mvamp" / "__init__.py").is_file():
        print(f"mvamp sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import mvamp

    if not Path(mvamp.__file__).resolve().is_relative_to(SRC):
        print(f"imported mvamp from {mvamp.__file__}, not from {SRC}", file=sys.stderr)
        return 2

    wl = workloads.WORKLOADS[args.workload]
    summary, result, run_dir = measure(wl, args.seed, args.seconds, bool(args.trace), args.jobs)
    record = {"workload": wl.name, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "record": run_record(args.jobs, child_env(args.jobs)),
              **summary}
    (run_dir / "result.json").write_text(json.dumps({**record, "result": result}, indent=2))
    q1, med, q3 = summary["wall_s_quartiles"]
    print(f"{wl.name} seed {args.seed}: wall_s median {med:.3f} s (q1 {q1:.3f}, q3 {q3:.3f}, "
          f"n={len(summary['samples']['wall_s'])}); attempted {result['attempted']}, "
          f"failed {result['failed']}; outputs identical across repetitions: "
          f"{summary['same_outputs']}")
    print(json.dumps(record))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
