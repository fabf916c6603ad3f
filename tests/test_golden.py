"""The fast configs' outputs against the committed ``tests/golden/outputs``.

A change that moves an output regenerates the golden files in the same
commit, so the diff shows the move:

    PYTHONPATH=src python3 scripts/snapshot_outputs.py --golden
"""

import json
import os
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"
sys.path.insert(0, str(ROOT / "scripts"))
import snapshot_outputs  # noqa: E402


def test_fast_configs_reproduce_the_golden_outputs(tmp_path):
    snapshot_outputs.snapshot(str(tmp_path), fast=True)
    tolerances = json.loads((GOLDEN / "tolerances.json").read_text())["tolerances"]
    golden = snapshot_outputs.files(str(GOLDEN / "outputs"))
    assert snapshot_outputs.files(str(tmp_path)) == golden
    moved = []
    for name in sorted(golden):
        tol = tolerances[os.path.basename(name)]["abs"]
        for place, want, got, delta in snapshot_outputs.cell_diffs(
                str(GOLDEN / "outputs" / name), str(tmp_path / name)):
            if place != "version" and (delta is None or delta > tol):
                moved.append(f"{name} {place}: {want!r} -> {got!r}")
    assert not moved, "\n".join(moved[:20])
