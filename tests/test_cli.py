import csv
import json
import os

import numpy as np
import pytest

from mvamp import cli


def write_cfg(tmp_path, payload, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def scalar_cfg(tmp_path, out="out", lam=2.0, n=500, trials=2, max_iter=8, se_max_iter=2000):
    return write_cfg(
        tmp_path,
        {
            "model": {
                "n": n,
                "priors": ["rademacher"],
                "beta": [1.0],
                "couplings": {"kind": "explicit", "matrices": [[[lam]]]},
            },
            "amp": {"max_iter": max_iter, "rho": 0.1, "trials": trials, "seed": 5},
            "se": {"max_iter": se_max_iter},
            "output": {"dir": str(tmp_path / out)},
        },
    )


def test_missing_field_exits_2(tmp_path, capsys):
    path = write_cfg(tmp_path, {"model": {"priors": ["rademacher"]}})
    code = cli.main(["se", "--config", path])
    assert code == 2
    assert "model.n" in capsys.readouterr().err


def test_bad_json_reports_line(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text('{\n  "model": [,]\n}')
    code = cli.main(["se", "--config", str(path)])
    assert code == 2
    err = capsys.readouterr().err
    assert ":2:" in err  # line-precise syntax location


def test_invalid_values_exit_2(tmp_path):
    path = write_cfg(
        tmp_path,
        {
            "model": {
                "n": 100,
                "priors": ["rademacher"],
                "beta": [1.0],
                "couplings": {"kind": "hetero", "c": -1.0, "xi": [[1.0]]},
            }
        },
    )
    assert cli.main(["se", "--config", path]) == 2


def test_se_command_writes_csv(tmp_path):
    path = scalar_cfg(tmp_path)
    assert cli.main(["se", "--config", path]) == 0
    rows = list(csv.DictReader(open(tmp_path / "out" / "se.csv")))
    assert rows[0]["t"] == "1"
    assert float(rows[0]["q_1"]) == pytest.approx(0.1)
    assert rows[-1]["converged"] == "1"
    assert float(rows[-1]["q_1"]) > 0.9


def test_se_nonconvergence_exit_3(tmp_path):
    path = scalar_cfg(tmp_path, se_max_iter=3)
    assert cli.main(["se", "--config", path]) == 3


def test_simulate_outputs_and_manifest_round_trip(tmp_path):
    path = scalar_cfg(tmp_path)
    assert cli.main(["simulate", "--config", path]) == 0
    out = tmp_path / "out"
    trace1 = (out / "trace.csv").read_bytes()
    agg1 = (out / "aggregate.csv").read_bytes()
    manifest = out / "manifest.json"
    assert manifest.exists()
    # re-running from the manifest reproduces the CSVs bit-identically
    out2 = tmp_path / "out2"
    assert cli.main(["simulate", "--config", str(manifest), "--out", str(out2)]) == 0
    assert (out2 / "trace.csv").read_bytes() == trace1
    assert (out2 / "aggregate.csv").read_bytes() == agg1
    # rows carry seed and version
    rows = list(csv.DictReader(open(out / "trace.csv")))
    assert rows[0]["version"] == cli.VERSION_TAG
    assert rows[0]["seed"] != ""


def test_simulate_with_jobs(tmp_path):
    path = scalar_cfg(tmp_path, out="outj")
    assert cli.main(["simulate", "--config", path, "--jobs", "2"]) == 0
    rows = list(csv.DictReader(open(tmp_path / "outj" / "trace.csv")))
    assert {r["trial"] for r in rows} == {"0", "1"}


def test_simulate_seed_override_changes_output(tmp_path):
    path = scalar_cfg(tmp_path)
    cli.main(["simulate", "--config", path, "--out", str(tmp_path / "a")])
    cli.main(["simulate", "--config", path, "--out", str(tmp_path / "b"), "--seed", "99"])
    a = (tmp_path / "a" / "trace.csv").read_bytes()
    b = (tmp_path / "b" / "trace.csv").read_bytes()
    assert a != b


def test_stability_command(tmp_path):
    path = scalar_cfg(tmp_path, lam=1.2)
    assert cli.main(["stability", "--config", path]) == 0
    payload = json.load(open(tmp_path / "out" / "verdict.json"))
    assert payload["zero_point"]["classification"] == "unstable"
    assert payload["zero_point"]["nu"] == pytest.approx(1.44, abs=1e-3)
    # supercritical run converges to a nonzero point, classified stable
    assert payload["converged_point"]["classification"] == "stable"


def sweep_cfg(tmp_path, targets, out="sweep_out", trials=2, n=400, eps=(0.5,)):
    return write_cfg(
        tmp_path,
        {
            "amp": {"max_iter": 10, "rho": 0.05, "seed": 3},
            "sweep": {
                "eps": list(eps),
                "target_norms": targets,
                "n": n,
                "trials": trials,
                "grid_res": 120,
            },
            "output": {"dir": str(tmp_path / out)},
        },
        name="sweep.json",
    )


def test_limits_command(tmp_path):
    path = sweep_cfg(tmp_path, [0.5, 2.0])
    assert cli.main(["limits", "--config", path]) == 0
    rows = list(csv.DictReader(open(tmp_path / "sweep_out" / "limits.csv")))
    assert len(rows) == 2
    assert float(rows[0]["mmse_bound_1"]) == 1.0
    assert float(rows[1]["mmse_bound_1"]) < 0.5
    assert float(rows[1]["norm_Tc"]) == 2.0


def test_phase_diagram_resume_skips_done(tmp_path):
    path = sweep_cfg(tmp_path, [0.6, 1.8], out="pd")
    assert cli.main(["phase-diagram", "--config", path]) == 0
    out = tmp_path / "pd" / "phase_diagram.csv"
    rows1 = list(csv.DictReader(open(out)))
    assert len(rows1) == 2
    # drop one row, then resume: only the missing point is recomputed
    kept = rows1[:1]
    with open(out, "w", newline="") as fh:
        wr = csv.DictWriter(fh, fieldnames=rows1[0].keys())
        wr.writeheader()
        wr.writerow(kept[0])
    assert cli.main(["phase-diagram", "--config", path, "--resume"]) == 0
    rows2 = list(csv.DictReader(open(out)))
    assert len(rows2) == 2
    assert rows2[0] == kept[0]
    # the recomputed point matches the original run (determinism)
    orig = {r["norm_Tc"]: r for r in rows1}
    assert rows2[1] == orig[rows2[1]["norm_Tc"]]


def test_phase_diagram_se_mse_monotone_in_c(tmp_path):
    path = sweep_cfg(tmp_path, [0.8, 1.2, 1.8, 2.6], out="mono", trials=1, n=300)
    assert cli.main(["phase-diagram", "--config", path]) == 0
    rows = list(csv.DictReader(open(tmp_path / "mono" / "phase_diagram.csv")))
    rows.sort(key=lambda r: float(r["norm_Tc"]))
    for blk in (1, 2):
        vals = [float(r[f"se_mse_{blk}"]) for r in rows]
        assert np.all(np.diff(vals) <= 1e-9), (blk, vals)


def test_phase_diagram_svg(tmp_path):
    path = write_cfg(
        tmp_path,
        {
            "amp": {"max_iter": 8, "rho": 0.05, "seed": 4},
            "sweep": {"eps": [0.5], "target_norms": [0.5, 2.0], "n": 300,
                      "trials": 1, "grid_res": 80},
            "output": {"dir": str(tmp_path / "svg_out"), "svg": True},
        },
        name="svg.json",
    )
    assert cli.main(["phase-diagram", "--config", path]) == 0
    svg = (tmp_path / "svg_out" / "phase_diagram.svg").read_text()
    assert svg.startswith("<svg") and "polyline" in svg


def test_env_var_overrides_output_dir(tmp_path, monkeypatch):
    override = tmp_path / "env_out"
    monkeypatch.setenv("MVAMP_OUT", str(override))
    path = scalar_cfg(tmp_path, max_iter=3, trials=1, n=200)
    assert cli.main(["se", "--config", path]) == 0
    assert (override / "se.csv").exists()


def test_default_target_norm_grid():
    norms = cli._default_target_norms()
    assert norms[0] == pytest.approx(0.2)
    assert norms[-1] == pytest.approx(4.0)
    # transition region near 1 is densified: spacing there ~3x finer
    arr = np.asarray(norms)
    mid = arr[(arr > 0.85) & (arr < 1.2)]
    outer = arr[(arr > 2.0) & (arr < 3.0)]
    assert np.diff(mid).mean() < np.diff(outer).mean() / 2


def test_phase_diagram_bound_equals_limits(tmp_path):
    # targets straddle the threshold at ||T_c||op = 1, so one point is a transition
    path = sweep_cfg(tmp_path, [0.7, 0.95, 1.05, 1.4], out="shared", trials=1, n=300,
                     eps=(1.0,))
    assert cli.main(["limits", "--config", path]) == 0
    assert cli.main(["phase-diagram", "--config", path]) == 0
    limits = list(csv.DictReader(open(tmp_path / "shared" / "limits.csv")))
    phase = list(csv.DictReader(open(tmp_path / "shared" / "phase_diagram.csv")))
    assert "transition" in {r["branch_flag"] for r in limits}
    cols = ["eps", "c", "norm_Tc", "mmse_bound_1", "mmse_bound_2", "branch_flag"]
    assert [[r[k] for k in cols] for r in phase] == [[r[k] for k in cols] for r in limits]


def test_phase_diagram_se_uses_se_section(tmp_path):
    from mvamp.model import BlockPriorProfile, CouplingSet, ScalarPrior
    from mvamp.se import OperatorT, OverlapModel, run_se

    se = {"tol": 1e-12, "max_iter": 2, "quad_order": 41}
    raw = json.loads(open(sweep_cfg(tmp_path, [0.8, 1.8], out="se_cfg", trials=1, n=200)).read())
    raw["se"] = se
    path = write_cfg(tmp_path, raw, name="se_sweep.json")
    assert cli.main(["phase-diagram", "--config", path]) == 0
    rows = list(csv.DictReader(open(tmp_path / "se_cfg" / "phase_diagram.csv")))
    assert len(rows) == 2
    beta = np.array([0.6, 0.4])
    xi = np.array([[0.7, 0.3], [0.3, 0.7]])
    profile = BlockPriorProfile(
        (ScalarPrior.rademacher(), ScalarPrior.bernoulli_gaussian(0.5)), tuple(beta)
    )
    for row in rows:
        op = OperatorT(CouplingSet.heteroskedastic(np.sqrt(float(row["c"]) * xi)))
        traj = run_se(OverlapModel(profile, se["quad_order"]), op, np.diag(0.05 * beta),
                      tol=se["tol"], max_iter=se["max_iter"])
        assert traj.iterations == 2 and not traj.converged
        for j in range(2):
            assert float(row[f"se_mse_{j + 1}"]) == 1.0 - traj.q_star[j] / beta[j]
