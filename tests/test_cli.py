import csv
import json
import os
import re
import time

import numpy as np
import pytest

from mvamp import cli, limits, model
from mvamp.se import PrecisionError


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
    lines = (tmp_path / "out" / "se.csv").read_text().strip().splitlines()
    assert lines[0] == "t,q_1,s_1,converged,seed,version"
    rows = list(csv.DictReader(open(tmp_path / "out" / "se.csv")))
    assert len(lines) == len(rows) + 1
    assert rows[0]["t"] == "1"
    assert float(rows[0]["q_1"]) == pytest.approx(0.1)
    assert rows[-1]["converged"] == "1"
    assert float(rows[-1]["q_1"]) > 0.9


def test_se_csv_s_columns_are_H_times_q(tmp_path):
    # two non-commuting views: every row's s equals H q of that row's q, bit
    # for bit, with H = sum_k Lambda_k**2
    views = [[[1.6, 0.6], [0.6, 1.0]], [[0.9, -0.7], [-0.7, 1.4]]]
    path = write_cfg(tmp_path, {
        "model": {"n": 400, "priors": ["rademacher", "bg:0.1"], "beta": [0.6, 0.4],
                  "couplings": {"kind": "explicit", "matrices": views}},
        "amp": {"rho": 0.05},
        "output": {"dir": str(tmp_path / "out")},
    })
    assert cli.main(["se", "--config", path]) == 0
    H = sum(np.square(np.array(m)) for m in views)
    rows = list(csv.DictReader(open(tmp_path / "out" / "se.csv")))
    assert len(rows) > 2 and rows[-1]["converged"] == "1"
    for row in rows:
        q = np.array([float(row["q_1"]), float(row["q_2"])])
        assert [float(row["s_1"]), float(row["s_2"])] == (H @ q).tolist()


def test_se_nonconvergence_exit_3(tmp_path):
    path = scalar_cfg(tmp_path, se_max_iter=3)
    assert cli.main(["se", "--config", path]) == 3


@pytest.mark.parametrize("command, prior", [
    pytest.param("se", "bg:0.5", id="se"),
    pytest.param("stability", "bg:0.5", id="stability"),
    pytest.param("limits", "rademacher", id="limits"),
    pytest.param("se", "rademacher", id="se-rademacher"),
    pytest.param("stability", "rademacher", id="stability-rademacher"),
])
def test_overflowing_snr_exits_3(tmp_path, capsys, command, prior):
    # a finite SNR so large that the BG overlap overflows, or that the
    # Rademacher panels collapse (sqrt(s) +- 10 rounds to sqrt(s), where the
    # quadrature would return 0), is a numerical failure that names the prior
    # and s, not a traceback or a silent wrong value
    if command == "limits":
        # the sweep's blocks are Rademacher and BG(0.5); block 1's table fails first
        path = sweep_cfg(tmp_path, [1e300])
    else:
        path = write_cfg(tmp_path, {
            "model": {"n": 50, "priors": [prior],
                      "couplings": {"kind": "hetero", "c": 1e300, "xi": [[1.0]]}},
            "output": {"dir": str(tmp_path / "out")},
        })
    assert cli.main([command, "--config", path]) == 3
    err = capsys.readouterr().err
    assert prior in err and "s=" in err, err


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
    # one row per trial and iteration, carrying seed and version
    lines = trace1.decode().strip().splitlines()
    assert lines[0].startswith("trial,t,F_hat_11,Q_hat_11,mse_block_1")
    assert len(lines) == 2 * (8 + 1) + 1
    rows = list(csv.DictReader(open(out / "trace.csv")))
    assert rows[0]["version"] == cli.VERSION_TAG
    assert rows[0]["seed"] != ""


def test_simulate_with_jobs(tmp_path):
    path = scalar_cfg(tmp_path, out="outj")
    assert cli.main(["simulate", "--config", path, "--jobs", "2"]) == 0
    rows = list(csv.DictReader(open(tmp_path / "outj" / "trace.csv")))
    assert {r["trial"] for r in rows} == {"0", "1"}


def test_simulate_outputs_do_not_depend_on_jobs(tmp_path, monkeypatch):
    # two views of 300 rows draw on two view threads inside each trial
    # worker; the CSVs are the bits of a one-worker run
    monkeypatch.setattr(model, "usable_cores", lambda: 2)
    path = write_cfg(tmp_path, {
        "model": {"n": 300, "priors": ["rademacher"], "beta": [1.0],
                  "couplings": {"kind": "explicit", "matrices": [[[1.5]], [[1.2]]]}},
        "amp": {"max_iter": 4, "rho": 0.1, "trials": 3, "seed": 5},
        "output": {"dir": str(tmp_path / "out")},
    })
    for jobs in ("1", "3"):
        assert cli.main(["simulate", "--config", path, "--jobs", jobs,
                         "--out", str(tmp_path / jobs)]) == 0
    for name in ("trace.csv", "aggregate.csv"):
        assert (tmp_path / "1" / name).read_bytes() == (tmp_path / "3" / name).read_bytes()


def test_simulate_seed_override_changes_output(tmp_path):
    path = scalar_cfg(tmp_path)
    cli.main(["simulate", "--config", path, "--out", str(tmp_path / "a")])
    cli.main(["simulate", "--config", path, "--out", str(tmp_path / "b"), "--seed", "99"])
    a = (tmp_path / "a" / "trace.csv").read_bytes()
    b = (tmp_path / "b" / "trace.csv").read_bytes()
    assert a != b


def test_manifest_rerun_keeps_its_seed(tmp_path):
    # a --seed run re-run from its manifest, without --seed, repeats its
    # manifest and outputs byte for byte; a new --seed still overrides
    path = scalar_cfg(tmp_path)
    a, b, c = tmp_path / "a", tmp_path / "b", tmp_path / "c"
    assert cli.main(["simulate", "--config", path, "--out", str(a), "--seed", "7"]) == 0
    manifest = str(a / "manifest.json")
    assert cli.main(["simulate", "--config", manifest, "--out", str(b)]) == 0
    for name in ("manifest.json", "trace.csv", "aggregate.csv"):
        assert (b / name).read_bytes() == (a / name).read_bytes(), name
    assert cli.main(["simulate", "--config", manifest, "--out", str(c), "--seed", "8"]) == 0
    assert json.load(open(c / "manifest.json"))["seed"] == 8
    assert (c / "trace.csv").read_bytes() != (a / "trace.csv").read_bytes()


def test_resume_from_a_seeded_manifest(tmp_path):
    path = sweep_cfg(tmp_path, [1.8], out="res", trials=1, n=200)
    assert cli.main(["phase-diagram", "--config", path, "--seed", "4"]) == 0
    manifest = str(tmp_path / "res" / "manifest.json")
    csv_path = tmp_path / "res" / "phase_diagram.csv"
    before = csv_path.read_bytes()
    assert cli.main(["phase-diagram", "--config", manifest, "--resume"]) == 0
    assert csv_path.read_bytes() == before


@pytest.mark.parametrize("seed", [-1, 2.5, "7", True, None])
def test_bad_manifest_seed_exits_2(tmp_path, capsys, seed):
    raw = json.loads(open(scalar_cfg(tmp_path, trials=1, n=100, max_iter=2)).read())
    manifest = {"version": cli.VERSION_TAG, "command": "simulate", "seed": seed, "config": raw}
    path = write_cfg(tmp_path, manifest, name="manifest.json")
    assert cli.main(["simulate", "--config", path]) == 2
    assert "config error at seed" in capsys.readouterr().err


def test_stability_command(tmp_path):
    path = scalar_cfg(tmp_path, lam=1.2)
    assert cli.main(["stability", "--config", path]) == 0
    payload = json.load(open(tmp_path / "out" / "verdict.json"))
    assert payload["zero_point"]["classification"] == "unstable"
    assert payload["zero_point"]["nu"] == pytest.approx(1.44, abs=1e-3)
    # supercritical run converges to a nonzero point, classified stable
    assert payload["converged_point"]["classification"] == "stable"


@pytest.mark.parametrize("se, cause", [
    ({"tol": 1e-5}, "stopped at se.tol short of its fixed point"),
    ({"max_iter": 2}, "did not converge within max_iter"),
], ids=["loose-tol", "max-iter"])
def test_stability_without_a_fixed_point_exits_3(tmp_path, capsys, se, cause):
    # amp-long's two views: an orbit cut by a loose tol or by max_iter has no
    # fixed point to classify, so stability exits 3 as se does, and
    # verdict.json keeps the zero-point verdict
    path = write_cfg(tmp_path, {
        "model": {"n": 400, "priors": ["rademacher", "bg:0.1"], "beta": [0.6, 0.4],
                  "couplings": {"kind": "explicit", "matrices": [
                      [[1.6, 0.6], [0.6, 1.0]], [[0.9, -0.7], [-0.7, 1.4]]]}},
        "se": se,
        "output": {"dir": str(tmp_path / "out")},
    })
    assert cli.main(["stability", "--config", path]) == 3
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and cause in err[0], err
    payload = json.load(open(tmp_path / "out" / "verdict.json"))
    assert payload["zero_point"]["classification"] == "unstable"
    assert "converged_point" not in payload


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


def test_limits_builds_one_table_per_prior_and_range(tmp_path, monkeypatch):
    # the 4 eps share one Rademacher table: 5 builds, where a table per prior
    # and eps made 8
    built = []
    inner = limits.KLTable

    def counted(prior, *args):
        built.append(prior.name)
        return inner(prior, *args)

    monkeypatch.setattr(limits, "KLTable", counted)
    limits._shared_table.cache_clear()
    path = sweep_cfg(tmp_path, [0.5, 2.0], eps=(0.05, 0.1, 0.5, 1.0))
    assert cli.main(["limits", "--config", path]) == 0
    assert sorted(built) == ["bg:0.05", "bg:0.1", "bg:0.5", "bg:1", "rademacher"]


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


def test_phase_diagram_does_not_depend_on_jobs(tmp_path):
    path = sweep_cfg(tmp_path, [0.6, 1.8])
    for jobs in ("1", "2"):
        assert cli.main(["phase-diagram", "--config", path, "--jobs", jobs,
                         "--out", str(tmp_path / jobs)]) == 0
    one, two = ((tmp_path / jobs / "phase_diagram.csv").read_bytes() for jobs in ("1", "2"))
    assert one == two


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
    # the SE curve: one dashed line per eps and block
    assert len(re.findall(r"<polyline[^>]*stroke-dasharray", svg)) == 2


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
    assert cli.main(["phase-diagram", "--config", path]) == 3
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


def test_bounds_use_se_quad_order(tmp_path, monkeypatch):
    # limits and the bound columns of phase-diagram polish their fixed points
    # at se.quad_order, as phase-diagram's SE columns do
    raw = json.loads(open(sweep_cfg(tmp_path, [0.8, 1.8], out="quad", trials=1, n=200)).read())
    raw["se"] = {"quad_order": 41}
    path = write_cfg(tmp_path, raw, name="quad.json")
    real, orders = limits.refine_fixed_point, []

    def refine_fixed_point(model, *args, **kwargs):
        orders.append(model.quad_order)
        return real(model, *args, **kwargs)

    monkeypatch.setattr(limits, "refine_fixed_point", refine_fixed_point)
    for command in ("limits", "phase-diagram"):
        orders.clear()
        assert cli.main([command, "--config", path]) == 0
        assert orders and set(orders) == {41}, command


def test_bound_and_se_read_the_same_H(tmp_path, monkeypatch):
    # a point's bound is polished on the H = sum_k Lambda_k**2 that its SE
    # iterates with, bit for bit
    path = sweep_cfg(tmp_path, [0.8, 1.8], out="same_h", trials=1, n=200)
    real_refine, real_se, bound_H, se_H = limits.refine_fixed_point, cli.run_se, set(), set()

    def refine_fixed_point(model, H, *args, **kwargs):
        bound_H.add(np.asarray(H).tobytes())
        return real_refine(model, H, *args, **kwargs)

    def run_se(model, op, *args, **kwargs):
        se_H.add(op.couplings.hadamard_square_sum().tobytes())
        return real_se(model, op, *args, **kwargs)

    monkeypatch.setattr(limits, "refine_fixed_point", refine_fixed_point)
    monkeypatch.setattr(cli, "run_se", run_se)
    assert cli.main(["phase-diagram", "--config", path]) == 0
    assert len(se_H) == 2 and bound_H == se_H


def test_phase_diagram_reports_unconverged_se(tmp_path, monkeypatch, capsys):
    # eps 0.5 completes with SE cut at 2 iterations; the sweep is interrupted
    # when it reaches eps 1.0, so the exit code is 4 and eps 0.5 is reported
    raw = json.loads(open(sweep_cfg(tmp_path, [0.8, 1.8], out="unconv", trials=1, n=200,
                                    eps=(0.5, 1.0))).read())
    raw["se"] = {"max_iter": 2}
    path = write_cfg(tmp_path, raw, name="unconv.json")
    real, calls = cli.limits_sweep, []

    def limits_sweep(*args, **kwargs):
        calls.append(args)
        if len(calls) == 2:
            raise KeyboardInterrupt
        return real(*args, **kwargs)

    monkeypatch.setattr(cli, "limits_sweep", limits_sweep)
    assert cli.main(["phase-diagram", "--config", path]) == 4
    err = capsys.readouterr().err.splitlines()
    assert err == [
        "state evolution did not converge within max_iter at eps=0.5, norm_Tc=0.8",
        "state evolution did not converge within max_iter at eps=0.5, norm_Tc=1.8",
    ]
    out = tmp_path / "unconv"
    assert len(list(csv.DictReader(open(out / "phase_diagram.csv")))) == 2
    assert (out / "manifest.json").exists()


def test_interrupted_simulate_does_not_offer_resume(tmp_path, monkeypatch, capsys):
    # only phase-diagram resumes, so another command's interrupt names no --resume
    path = scalar_cfg(tmp_path, trials=1, n=100, max_iter=2)

    def run_symmetric(*args, **kwargs):
        raise KeyboardInterrupt

    monkeypatch.setattr(cli, "run_symmetric", run_symmetric)
    assert cli.main(["simulate", "--config", path]) == 4
    err = capsys.readouterr().err
    assert "interrupted" in err and "--resume" not in err


def test_phase_diagram_keeps_rows_on_numerical_failure(tmp_path, monkeypatch, capsys):
    # the bound solve of the second eps fails: eps 0.5 is on disk, and --resume
    # computes only eps 1.0
    path = sweep_cfg(tmp_path, [0.8, 1.8], out="fail", trials=1, n=200, eps=(0.5, 1.0))
    real, calls = cli.limits_sweep, []

    def limits_sweep(*args, **kwargs):
        calls.append(args)
        if len(calls) == 2:
            raise PrecisionError("injected")
        return real(*args, **kwargs)

    monkeypatch.setattr(cli, "limits_sweep", limits_sweep)
    assert cli.main(["phase-diagram", "--config", path]) == 3
    assert "numerical failure: injected" in capsys.readouterr().err
    out = tmp_path / "fail"
    rows = list(csv.DictReader(open(out / "phase_diagram.csv")))
    assert [(r["eps"], r["norm_Tc"]) for r in rows] == [("0.5", "0.8"), ("0.5", "1.8")]
    assert json.load(open(out / "manifest.json"))["command"] == "phase-diagram"
    assert cli.main(["phase-diagram", "--config", path, "--resume"]) == 0
    assert len(calls) == 3  # the resume solved the bound of eps 1.0 only
    rows = list(csv.DictReader(open(out / "phase_diagram.csv")))
    assert [r["eps"] for r in rows] == ["0.5", "0.5", "1.0", "1.0"]


def test_resume_recomputes_a_torn_row(tmp_path):
    # a write cut short leaves a last row without its terminator and some
    # fields; --resume drops it and recomputes that point
    path = sweep_cfg(tmp_path, [0.6, 1.8], out="torn", trials=1, n=200)
    assert cli.main(["phase-diagram", "--config", path]) == 0
    out = tmp_path / "torn" / "phase_diagram.csv"
    whole = out.read_bytes()
    for cut in (60, 1):  # a short row, and a full row that lost its "\n"
        out.write_bytes(whole[:-cut])
        assert cli.main(["phase-diagram", "--config", path, "--resume"]) == 0
        assert out.read_bytes() == whole


def test_resume_solves_only_the_pending_bounds(tmp_path, monkeypatch):
    # the last of 4 rows is missing: the resume solves its bound and that of
    # the target before it, which sets its transition flag
    path = sweep_cfg(tmp_path, [0.6, 0.8, 0.9, 1.2], out="lazy", trials=1, n=200)
    assert cli.main(["phase-diagram", "--config", path]) == 0
    out = tmp_path / "lazy" / "phase_diagram.csv"
    whole = out.read_bytes()
    out.write_bytes(b"".join(whole.splitlines(keepends=True)[:-1]))
    real, calls = limits.variational_solve, []

    def variational_solve(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(limits, "variational_solve", variational_solve)
    assert cli.main(["phase-diagram", "--config", path, "--resume"]) == 0
    assert len(calls) == 2
    assert out.read_bytes() == whole


def test_pmap_close_cancels_queued_items():
    started = []

    def slow(item):
        started.append(item)
        time.sleep(0.05)
        return item

    results = cli._pmap(slow, range(10), 2)
    assert next(results) == 0
    results.close()
    assert len(started) <= 4  # the two running items and at most two more


def test_resume_refuses_a_mismatch(tmp_path, capsys):
    raw = json.loads(open(sweep_cfg(tmp_path, [1.8], out="res", trials=1, n=200)).read())
    path = write_cfg(tmp_path, raw, name="first.json")
    assert cli.main(["phase-diagram", "--config", path, "--resume"]) == 2  # no manifest yet
    assert cli.main(["phase-diagram", "--config", path]) == 0
    csv_path = tmp_path / "res" / "phase_diagram.csv"
    before = csv_path.read_bytes()
    raw["amp"]["max_iter"] = 11
    raw["sweep"]["target_norms"].append(2.2)
    changed = write_cfg(tmp_path, raw, name="changed.json")
    capsys.readouterr()
    assert cli.main(["phase-diagram", "--config", changed, "--resume"]) == 2
    assert "records another config" in capsys.readouterr().err
    assert cli.main(["phase-diagram", "--config", path, "--resume", "--seed", "4"]) == 2
    assert "records another seed" in capsys.readouterr().err
    assert cli.main(["limits", "--config", path, "--resume"]) == 2
    assert csv_path.read_bytes() == before
    assert cli.main(["phase-diagram", "--config", path, "--resume"]) == 0
    assert csv_path.read_bytes() == before


@pytest.mark.parametrize("patch, field", [
    ({"amp": {"max_iters": 5}}, "amp.max_iters"),
    ({"amp": {"rho": True}}, "amp.rho"),
    ({"amp": {"rho": "0.5"}}, "amp.rho"),
    ({"amp": {"seed": -1}}, "amp.seed"),
    ({"amp": {"correction": "foo"}}, "amp.correction"),
    ({"model": {"n": float("inf")}}, "model.n"),
    ({"model": {"couplings": {"kind": "explicit", "matrices": [[["2"]]]}}}, "model.couplings"),
    ({"model": {"priors": ["rademacher", "bg:0.3"], "beta": [0.6, 0.4],
                "couplings": {"matrices": [[[1.0, 0.5], [0.0, 1.0]]]}}}, "model.couplings"),
    ({"output": {"svg": "yes"}}, "output.svg"),
    ({"sweeps": {}}, "sweeps"),
    ({"model": {"n": 1, "priors": ["rademacher", "gaussian"], "beta": [0.5, 0.5],
                "couplings": {"matrices": [[[1.0, 0.5], [0.5, 1.0]]]}}}, "model.n"),
    ({"sweep": {"n": 1}}, "sweep.n"),
    ({"sweep": {"xi": [[0.0, 0.0], [0.0, 0.0]]}}, "sweep.xi"),
    ({"sweep": {"target_norms": [0.8, 1.2, 0.9]}}, "sweep.target_norms"),
    ({"sweep": {"target_norms": [0.8, 1.2, 1.2]}}, "sweep.target_norms"),
    ({"sweep": {"eps": [0.5, 1.0, 0.5]}}, "sweep.eps"),
    ({"sweep": {"eps": [1.0], "target_norms": [0.8, 1.5], "grid_res": 1}}, "sweep.grid_res"),
    ({"model": {"priors": ["rademacher", "bg:0.3"], "beta": [0.6, 0.4],
                "couplings": {"matrices": [[[1e200, 0.0], [0.0, 1.0]]]}}}, "model.couplings"),
])
def test_strict_config_values_exit_2(tmp_path, capsys, patch, field):
    raw = json.loads(open(scalar_cfg(tmp_path)).read())
    for section, values in patch.items():
        raw.setdefault(section, {}).update(values)
    assert cli.main(["se", "--config", write_cfg(tmp_path, raw, name="strict.json")]) == 2
    assert f"config error at {field}" in capsys.readouterr().err


@pytest.mark.parametrize("flags", [["--seed", "-1"], ["--jobs", "-3"], ["--jobs", "0"]])
def test_bad_flag_values_exit_2(tmp_path, capsys, flags):
    path = scalar_cfg(tmp_path, trials=1, n=100, max_iter=2)
    assert cli.main(["simulate", "--config", path, *flags]) == 2
    assert f"config error at {flags[0]}" in capsys.readouterr().err


@pytest.mark.parametrize("patch", [
    {"beta": [0.5, 0.3, 0.2]},
    {"xi": [[0.7, 0.3, 0.0], [0.3, 0.7, 0.0], [0.0, 0.0, 1.0]]},
    {"xi": [[0.7, 0.3], [0.2, 0.7]]},
    {"eps": [1.5]},
    {"target_norms": []},
    {"eps": []},
    {"grid_res": 2001},
])
def test_sweep_section_checked_at_load(tmp_path, capsys, patch):
    raw = json.loads(open(sweep_cfg(tmp_path, [0.5, 2.0])).read())
    raw["sweep"].update(patch)
    assert cli.main(["limits", "--config", write_cfg(tmp_path, raw, name="bad.json")]) == 2
    assert "config error at sweep" in capsys.readouterr().err


def test_bipartite_model_is_a_two_block_config(tmp_path):
    # the bipartite model with sides n1, n2 and coupling gam is the two-block
    # config beta = (n1/n, n2/n), Lambda = [[0, sqrt(1+alpha) gam], [sqrt(1+alpha) gam, 0]]
    # with alpha = n2/n1; its SE fixed point is the alternating scalar recursion's
    n1, n2, gam, rho = 600, 300, 1.6, 0.2
    n, alpha = n1 + n2, n2 / n1
    off = float(np.sqrt(1 + alpha) * gam)
    path = write_cfg(tmp_path, {
        "model": {"n": n, "priors": ["gaussian", "gaussian"], "beta": [n1 / n, n2 / n],
                  "couplings": {"kind": "explicit", "matrices": [[[0.0, off], [off, 0.0]]]}},
        "amp": {"max_iter": 8, "rho": rho, "trials": 2, "seed": 3},
        "output": {"dir": str(tmp_path / "out")},
    })
    assert cli.main(["se", "--config", path]) == 0
    last = list(csv.DictReader(open(tmp_path / "out" / "se.csv")))[-1]
    gu = gv = rho
    for _ in range(800):
        gu, gv = (
            alpha * gam**2 * gv / (1 + alpha * gam**2 * gv),
            gam**2 * gu / (1 + gam**2 * gu),
        )
    assert abs(float(last["q_1"]) - n1 / n * gu) < 1e-9
    assert abs(float(last["q_2"]) - n2 / n * gv) < 1e-9
    assert cli.main(["simulate", "--config", path]) == 0


def test_simulate_one_trial_has_zero_stderr(tmp_path):
    path = scalar_cfg(tmp_path, trials=1, n=200, max_iter=3)
    assert cli.main(["simulate", "--config", path]) == 0
    rows = list(csv.DictReader(open(tmp_path / "out" / "aggregate.csv")))
    assert len(rows) == 4
    assert all(float(r["mse_stderr_1"]) == 0.0 for r in rows)


def test_simulate_correction_reaches_the_engine(tmp_path):
    # B^0 = 0, so the Onsager term first acts at t = 2: the ablated run's
    # rows agree with the corrected run's at t = 0, 1 and differ from t = 2 on
    raw = json.loads(open(scalar_cfg(tmp_path, trials=1, n=200, max_iter=4)).read())
    rows = {}
    for correction in ("divergence", "disabled"):
        raw["amp"]["correction"] = correction
        path = write_cfg(tmp_path, raw, name=f"{correction}.json")
        out = tmp_path / correction
        assert cli.main(["simulate", "--config", path, "--out", str(out)]) == 0
        rows[correction] = list(csv.DictReader(open(out / "trace.csv")))
    on, off = rows["divergence"], rows["disabled"]
    assert [r["t"] for r in on] == [r["t"] for r in off] == ["0", "1", "2", "3", "4"]
    assert on[:2] == off[:2]
    for a, b in zip(on[2:], off[2:]):
        assert a["Q_hat_11"] != b["Q_hat_11"] and a["mse_block_1"] != b["mse_block_1"]


def test_shipped_phase_diagram_config_resolves():
    path = os.path.join(os.path.dirname(__file__), "..", "scripts", "phase_diagram_config.json")
    sw = cli.load_config(path).sweep
    assert (len(sw.eps), len(sw.target_norms), sw.trials, sw.n) == (4, 52, 10, 4000)


def test_snapshot_compare(tmp_path):
    # --compare counts differing numeric cells and their largest |delta|, and
    # fails on a non-numeric change or a missing file
    import subprocess
    import sys

    script = os.path.join(os.path.dirname(__file__), "..", "scripts", "snapshot_outputs.py")
    a, b = tmp_path / "a", tmp_path / "b"
    for root, x, tag in ((a, "0.5", "lower"), (b, "0.5000000000000002", "lower")):
        (root / "run").mkdir(parents=True)
        (root / "run" / "out.csv").write_text(f"q,flag\n{x},{tag}\n1.0,upper\n")
        (root / "run" / "v.json").write_text(json.dumps({"nu": 0.25, "kind": "stable"}))
        (root / "plot.svg").write_text("<svg/>")

    def compare():
        proc = subprocess.run([sys.executable, script, "--compare", str(a), str(b)],
                              capture_output=True, text=True)
        return proc.returncode, proc.stdout

    code, out = compare()
    assert code == 0, out
    assert "run/out.csv: 1 numeric cells differ (max |delta| 2.22e-16), 0 other" in out
    assert "run/v.json: identical" in out and "plot.svg: identical" in out
    (b / "run" / "v.json").write_text(json.dumps({"nu": 0.25, "kind": "unstable"}))
    code, out = compare()
    assert code == 1 and "run/v.json: 0 numeric cells differ (max |delta| 0), 1 other" in out
    (b / "run" / "v.json").write_text(json.dumps({"nu": 0.25, "kind": "stable"}))
    (b / "plot.svg").unlink()
    code, out = compare()
    assert code == 1 and f"plot.svg: missing in {b}" in out


def test_cli_imports_no_scipy():
    # scipy is a test dependency only: the package's import path never loads it
    import subprocess
    import sys

    import mvamp

    src = os.path.dirname(os.path.dirname(os.path.abspath(mvamp.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    code = "import sys, mvamp.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
