"""Tests of the benchmark itself: span arithmetic, the output checks, exact
repetition of counts and outputs for one seed, and refusal to run without the
package sources.

    python3 -m pytest perfbench            # about two minutes on 2 cores
"""

import csv
import json
import math
import shutil
import subprocess
import sys

import numpy as np
import pytest

import run
import tracing
import workloads

sys.path.insert(0, str(run.SRC))
from mvamp.cli import resolve_config  # noqa: E402


def test_self_time_excludes_child_spans():
    ticks = iter(range(100))
    tracer = tracing.Tracer(clock=lambda: next(ticks))
    inner = tracer.wrap("denoise.inner", lambda: None)

    def body():
        inner()
        inner()

    tracer.wrap("amp.outer", body)()
    # outer runs from tick 0 to 5; each inner call lasts one tick
    assert tracer.total_s["amp.outer"] == 5
    assert tracer.self_s["amp.outer"] == 3
    assert tracer.self_s["denoise.inner"] == 2
    assert tracer.calls["denoise.inner"] == 2
    assert tracer.layer_self_s("amp") + tracer.layer_self_s("denoise") == 5


def test_span_counts_a_raising_call():
    class Diverged(RuntimeError):
        iteration = 7

    class Inst:
        X = np.zeros((10, 2))
        observations = (None,)

    tracer = tracing.Tracer()

    def boom(inst, cfg):
        raise Diverged()

    with pytest.raises(Diverged):
        tracer.wrap("amp.run_symmetric", boom, tracing.COUNTERS["amp.run_symmetric"])(Inst, None)
    assert tracer.calls["amp.run_symmetric"] == 1
    assert tracer.counters["amp.diverged"] == 1
    assert tracer.counters["amp.iterations"] == 7
    assert tracer.counters["amp.product_flops"] == 2 * 10 * 10 * 2 * 1 * 7


def _write_phase_csv(path, rows):
    with open(path, "w", newline="") as fh:
        wr = csv.writer(fh)
        wr.writerow(["eps", "norm_Tc", "amp_mse_1", "amp_mse_2", "amp_stderr_1",
                     "amp_stderr_2", "se_mse_1", "se_mse_2", "mmse_bound_1", "mmse_bound_2"])
        wr.writerows(rows)


def test_phase_check_counts_each_bad_point_once(tmp_path):
    resolved = resolve_config(workloads.phase_sweep_config(0))
    sw = resolved.sweep
    good = [0.5, 0.9, 0.01, 0.01, 0.6, 0.95, 0.4, 0.9]
    rows = [[e, t] + good for e in sw.eps for t in sw.target_norms]
    rows[0][2] = math.nan                 # non-finite MSE
    rows[1][8], rows[1][9] = 0.7, 0.99    # both bounds above the SE MSE
    del rows[2]                           # a point that never came back
    _write_phase_csv(tmp_path / "phase_diagram.csv", rows)
    failures = workloads.check_phase_sweep(str(tmp_path), resolved)
    assert len(failures) == 3
    assert workloads.WORKLOADS["phase-sweep"].ops(resolved) == len(sw.eps) * len(sw.target_norms)


def test_theory_check_rejects_unconverged_and_unknown_verdicts(tmp_path):
    resolved = resolve_config(workloads.theory_curves_config(0))
    sw = resolved.sweep
    theory = [{"eps": e, "norm_Tc": t, "converged": True, "q1": 0.0, "q2": 0.0,
               "zero_verdict": "stable", "star_verdict": "stable"}
              for e in sw.eps for t in sw.target_norms]
    theory[0]["converged"] = False
    theory[1]["star_verdict"] = "unknown"
    with open(tmp_path / "limits.csv", "w", newline="") as fh:
        wr = csv.writer(fh)
        wr.writerow(["eps", "norm_Tc", "q1_star", "q2_star", "mmse_bound_1", "mmse_bound_2",
                     "branch_flag"])
        wr.writerows([e, t, 0.0, 0.0, 1.0, 1.0, "lower"] for e in sw.eps for t in sw.target_norms)
    failures = workloads.check_theory_curves(str(tmp_path), resolved, theory)
    assert len(failures) == 2


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_counts_and_outputs_repeat_for_one_seed(tmp_path, name):
    wl = workloads.WORKLOADS[name]
    raw = wl.config(5)
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(raw))
    resolved = resolve_config(raw)
    env = run.child_env(1)
    reps = [run.run_rep(wl, resolved, cfg_path, tmp_path / f"rep{i}", env, 1, traced=True)
            for i in range(2)]
    for rep in reps:
        assert rep["failures"] == []
    first, second = (r["layers"] for r in reps)
    assert {k: first[k] for k in tracing.EXACT} == {k: second[k] for k in tracing.EXACT}
    assert reps[0]["digest"] == reps[1]["digest"]
    csvs = sorted(p.name for p in (tmp_path / "rep0").glob("*.csv"))
    assert csvs
    for fname in csvs:
        assert (tmp_path / "rep0" / fname).read_bytes() == (tmp_path / "rep1" / fname).read_bytes()


def test_refuses_to_run_without_package_sources(tmp_path):
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "amp-long", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
