"""Write the output files of every mvamp command into one directory, or
compare two such directories.

    PYTHONPATH=src python3 scripts/snapshot_outputs.py OUT
    PYTHONPATH=src python3 scripts/snapshot_outputs.py --golden
    python3 scripts/snapshot_outputs.py --compare A B

runs, each in its own subdirectory of OUT next to the config it used, and
writes ``exit_codes.json``, the exit code of each run by subdirectory:

- the ``config(1)`` of every perfbench workload with that workload's command
  at ``--jobs 1``; theory-curves also writes ``theory_rows.json``, the rows
  of ``workloads.theory_points`` (``run_se`` and ``classify_fixed_point`` at
  every limits grid point);
- a two-block K = 2 config (the two non-commuting amp-long views, Rademacher /
  BG(0.1), n = 400, 3 trials, 15 iterations, and a 2 eps x 2 target sweep
  with grid_res 100 and ``svg: true``) through all five commands at
  ``--jobs 2``;
- that config's ``simulate`` once more with ``"correction": "disabled"``,
  so both branches of the AMP loop, with and without the Onsager term, are
  covered;
- that config's ``limits`` once more with the non-PSD ``xi = [[0, 1], [1, 0]]``,
  eps [0.5] and targets [0.8, 1.5], so the bound of an indefinite H is
  covered;
- that config's ``se``, ``stability`` and ``simulate`` once more with a
  Gaussian first block (priors gaussian / bg:0.1), so the closed-form
  Gaussian channel and the Gaussian denoiser are covered;
- that config's ``simulate`` once more at n = 1100 with 2 trials of 6
  iterations, so a view of three stored panels and the blocked symmetric
  product across them are covered.

``--golden`` runs only the fast configs, every one above but the n = 4000
phase-sweep and amp-long, and writes them into ``tests/golden/outputs``
(emptied first), which ``tests/test_golden.py`` compares against.

mvamp is imported from PYTHONPATH, so pointing it at another tree's ``src``
snapshots that tree with the same inputs; ``diff -r`` of two snapshots then
shows every output a change moved. The workload configs are read from this
tree's ``perfbench/workloads.py``, which is not modified.

``--compare A B`` prints one line per file of either snapshot: ``identical``
when the bytes are equal, else how many numeric cells differ and the largest
|delta|, how many other cells differ, and where: the header names of the CSV
columns, or the key paths of the JSON leaves with list positions written
``[*]``. A cell is a field of a CSV file or a leaf of a JSON file; any other
file is one cell holding its bytes. It exits 1 if a file is missing from one
side or a non-numeric cell differs. ``cell_diffs`` lists the differing cells
of one pair of files, for this report and for the golden-output test.
"""

from __future__ import annotations

import csv
import json
import math
import os
import shutil
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
GOLDEN = os.path.join(ROOT, "tests", "golden", "outputs")

sys.dont_write_bytecode = True  # importing workloads leaves perfbench/ as it is
sys.path.insert(0, os.path.join(ROOT, "perfbench"))
import workloads  # noqa: E402


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
    from mvamp import cli

    run_dir = os.path.join(out, name)
    os.makedirs(run_dir)
    path = os.path.join(run_dir, "config.json")
    with open(path, "w") as fh:
        json.dump(config, fh, indent=2, sort_keys=True)
    code = cli.main([command, "--config", path, "--out", run_dir, "--jobs", str(jobs)])
    print(f"{name}: {command} exited {code}")
    return code


def write_theory_rows(run_dir: str):
    from mvamp import cli

    rows = workloads.theory_points(cli.load_config(os.path.join(run_dir, "config.json")))
    with open(os.path.join(run_dir, "theory_rows.json"), "w") as fh:
        json.dump(rows, fh, indent=2, sort_keys=True)


def _flatten(value, loc: tuple, out: dict):
    if isinstance(value, (dict, list)) and value:
        items = value.items() if isinstance(value, dict) else enumerate(value)
        for key, v in items:
            _flatten(v, loc + (key,), out)
    else:
        out[loc] = value


def cells(path: str) -> dict:
    """Location -> cell: (row, column) of a CSV file, the key path of a JSON
    leaf; any other file is the one cell () holding its bytes."""
    if path.endswith(".csv"):
        with open(path, newline="") as fh:
            return {(r, c): cell for r, row in enumerate(csv.reader(fh))
                    for c, cell in enumerate(row)}
    if path.endswith(".json"):
        out = {}
        with open(path) as fh:
            _flatten(json.load(fh), (), out)
        return out
    with open(path, "rb") as fh:
        return {(): fh.read()}


def _number(cell):
    if isinstance(cell, (int, float)) and not isinstance(cell, bool):
        return float(cell)
    if isinstance(cell, str):
        try:
            return float(cell)
        except ValueError:
            return None
    return None


def _place(path: str, loc: tuple, header: dict) -> tuple:
    """(sort key, name) of a cell's place: its CSV column by header name, its
    JSON key path with list positions written [*], or <bytes>."""
    if path.endswith(".csv"):
        return loc[1], header.get(loc[1], f"column {loc[1] + 1}")
    if path.endswith(".json"):
        return 0, "".join("[*]" if isinstance(k, int) else f".{k}" for k in loc).lstrip(".")
    return 0, "<bytes>"


def cell_diffs(a: str, b: str) -> list[tuple[str, object, object, float | None]]:
    """(place, cell of a, cell of b, |delta|) of every cell where files a and
    b differ, in column or key order. |delta| is None unless both cells are
    numbers; it is inf where NaN meets a number, and two NaNs are equal. A
    cell present on one side only is None on the other."""
    ca, cb = cells(a), cells(b)
    header = {c: cell for (r, c), cell in (cb | ca).items() if r == 0} if a.endswith(".csv") else {}
    out = []
    for loc in ca.keys() | cb.keys():
        x, y = ca.get(loc), cb.get(loc)
        if loc in ca and loc in cb and x == y:
            continue
        u, v = _number(x), _number(y)
        if u is None or v is None:
            delta = None
        elif math.isnan(u) and math.isnan(v):
            continue
        else:
            gap = abs(u - v) if u != v else 0.0
            delta = math.inf if math.isnan(gap) else gap
        out.append((_place(a, loc, header), x, y, delta))
    out.sort(key=lambda t: t[0])
    return [(name, x, y, delta) for (_, name), x, y, delta in out]


def compare_files(a: str, b: str) -> tuple[int, float, int, list]:
    """(numeric cells that differ, their largest |delta|, other cells that
    differ, the names of the places where they differ in column or key order)."""
    diffs = cell_diffs(a, b)
    deltas = [delta for _, _, _, delta in diffs if delta is not None]
    places = list(dict.fromkeys(name for name, _, _, _ in diffs))
    return len(deltas), max(deltas, default=0.0), len(diffs) - len(deltas), places


def files(root: str) -> set:
    """The paths of every file under root, relative to it."""
    return {os.path.relpath(os.path.join(d, f), root)
            for d, _, names in os.walk(root) for f in names}


def compare(a_dir: str, b_dir: str) -> int:
    in_a, in_b = files(a_dir), files(b_dir)
    status = 0
    for name in sorted(in_a | in_b):
        if name not in in_a or name not in in_b:
            print(f"{name}: missing in {a_dir if name not in in_a else b_dir}")
            status = 1
            continue
        a, b = os.path.join(a_dir, name), os.path.join(b_dir, name)
        with open(a, "rb") as fa, open(b, "rb") as fb:
            if fa.read() == fb.read():
                print(f"{name}: identical")
                continue
        numeric, delta, other, places = compare_files(a, b)
        print(f"{name}: {numeric} numeric cells differ (max |delta| {delta:.3g}), "
              f"{other} other cells differ, in {', '.join(places)}")
        if other:
            status = 1
    return status


def snapshot(out: str, fast: bool = False) -> dict:
    """Run every config (only the fast ones if ``fast``) into out, which must
    be empty or absent, and write its exit_codes.json; returns the codes."""
    os.makedirs(out, exist_ok=True)
    codes = {}
    for wl in workloads.WORKLOADS.values():
        if fast and wl.name != "theory-curves":  # the n = 4000 workloads are not fast
            continue
        codes[wl.name] = run(out, wl.name, wl.command, wl.config(1), 1)
        if wl.theory:
            write_theory_rows(os.path.join(out, wl.name))
    small = small_config()
    for command in ("se", "stability", "simulate", "limits", "phase-diagram"):
        codes[f"small-{command}"] = run(out, f"small-{command}", command, small, 2)
    small["amp"]["correction"] = "disabled"
    codes["small-simulate-disabled"] = run(out, "small-simulate-disabled", "simulate", small, 2)
    small["sweep"].update(xi=[[0.0, 1.0], [1.0, 0.0]], eps=[0.5], target_norms=[0.8, 1.5])
    codes["small-limits-non-psd"] = run(out, "small-limits-non-psd", "limits", small, 2)
    gaussian = small_config()
    gaussian["model"]["priors"] = ["gaussian", "bg:0.1"]
    for command in ("se", "stability", "simulate"):
        codes[f"small-{command}-gaussian"] = run(out, f"small-{command}-gaussian", command,
                                                  gaussian, 2)
    panels = small_config()
    panels["model"]["n"] = 1100
    panels["amp"].update(max_iter=6, trials=2)
    codes["small-simulate-1100"] = run(out, "small-simulate-1100", "simulate", panels, 2)
    with open(os.path.join(out, "exit_codes.json"), "w") as fh:
        json.dump(codes, fh, indent=2, sort_keys=True)
    return codes


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) == 3 and args[0] == "--compare":
        return compare(args[1], args[2])
    if args == ["--golden"]:
        shutil.rmtree(GOLDEN, ignore_errors=True)
        out, fast = GOLDEN, True
    elif len(args) == 1 and not args[0].startswith("--"):
        out, fast = args[0], False
    else:
        print("usage: snapshot_outputs.py OUT | --golden | --compare A B", file=sys.stderr)
        return 2
    os.makedirs(out, exist_ok=True)
    if os.listdir(out):
        print(f"{out} is not empty", file=sys.stderr)
        return 2
    from mvamp import cli

    print(f"mvamp from {os.path.dirname(cli.__file__)}")
    return max(snapshot(out, fast).values())


if __name__ == "__main__":
    sys.exit(main())
