"""Write the output files of every mvamp command into one directory.

    PYTHONPATH=src python3 scripts/snapshot_outputs.py OUT

runs, each in its own subdirectory of OUT next to the config it used:

- the ``config(1)`` of every perfbench workload with that workload's command
  at ``--jobs 1``;
- a two-block K = 2 config (the two non-commuting amp-long views, Rademacher /
  BG(0.1), n = 400, 3 trials, 15 iterations, and a 2 eps x 2 target sweep
  with grid_res 100 and ``svg: true``) through all five commands at
  ``--jobs 2``.

mvamp is imported from PYTHONPATH, so pointing it at another tree's ``src``
snapshots that tree with the same inputs; ``diff -r`` of two snapshots then
shows every output a change moved. The workload configs are read from this
tree's ``perfbench/workloads.py``, which is not modified.
"""

from __future__ import annotations

import json
import os
import sys

sys.dont_write_bytecode = True  # importing workloads leaves perfbench/ as it is
sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                                "perfbench"))
import workloads  # noqa: E402
from mvamp import cli  # noqa: E402


def small_config() -> dict:
    return {
        "model": {
            "n": 400,
            "priors": ["rademacher", "bg:0.1"],
            "beta": workloads.BETA,
            "couplings": {"kind": "explicit", "matrices": workloads.AMP_LONG_VIEWS},
        },
        "amp": {"max_iter": 15, "rho": 0.05, "trials": 3, "seed": 1},
        "sweep": {"eps": [0.1, 1.0], "target_norms": [0.8, 1.6], "xi": workloads.XI,
                  "beta": workloads.BETA, "n": 400, "trials": 3, "grid_res": 100},
        "output": {"svg": True},
    }


def run(out: str, name: str, command: str, config: dict, jobs: int):
    run_dir = os.path.join(out, name)
    os.makedirs(run_dir)
    path = os.path.join(run_dir, "config.json")
    with open(path, "w") as fh:
        json.dump(config, fh, indent=2, sort_keys=True)
    code = cli.main([command, "--config", path, "--out", run_dir, "--jobs", str(jobs)])
    print(f"{name}: {command} exited {code}")
    return code


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 1:
        print("usage: snapshot_outputs.py OUT", file=sys.stderr)
        return 2
    out = args[0]
    os.makedirs(out, exist_ok=True)
    if os.listdir(out):
        print(f"{out} is not empty", file=sys.stderr)
        return 2
    print(f"mvamp from {os.path.dirname(cli.__file__)}")
    codes = [run(out, wl.name, wl.command, wl.config(1), 1)
             for wl in workloads.WORKLOADS.values()]
    small = small_config()
    codes += [run(out, f"small-{command}", command, small, 2)
              for command in ("se", "stability", "simulate", "limits", "phase-diagram")]
    return max(codes)


if __name__ == "__main__":
    sys.exit(main())
