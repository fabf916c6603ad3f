"""The three workloads: the inputs each one hands mvamp, the calls it makes and
the checks its outputs must pass.

Every workload drives the package through ``mvamp.cli.main``; theory-curves
also calls ``mvamp.se.run_se`` and ``mvamp.stability.classify_fixed_point``
for every point of the limits grid. Inputs depend only on the seed.
"""

from __future__ import annotations

import csv
import math
import os
from dataclasses import dataclass
from typing import Callable

XI = [[0.7, 0.3], [0.3, 0.7]]
BETA = [0.6, 0.4]

# scripts/phase_diagram_config.json: 4 eps x 52 default targets x 10 trials
FULL_DIAGRAM_TRIALS = 4 * 52 * 10
CLI_DEFAULT_TRIALS = 10

# Output-check tolerances.
MSE_STDERRS = 4.0        # amp MSE may exceed 1 by this many stderrs ...
MSE_FINITE_N_SDS = 4.0   # ... plus this many finite-n sds of a block's MSE
BOUND_TOL = 1e-6         # variational MMSE bound <= SE MSE + BOUND_TOL
# |Q_hat_jj / p_j - q_SE_j| per trial, p_j = empirical block power; over 30
# seeds x 2 trials its sd was 0.011 (Rademacher block) and 0.020 (BG(0.1) block)
AMP_SE_TOL = 0.1
VERDICTS = {"stable", "unstable", "marginal"}
BRANCHES = {"lower", "upper", "transition"}

# Two symmetric views that do not commute (commutator norm 0.12).
AMP_LONG_VIEWS = [[[1.6, 0.6], [0.6, 1.0]], [[0.9, -0.7], [-0.7, 1.4]]]


def phase_sweep_config(seed: int) -> dict:
    return {
        "amp": {"max_iter": 25, "rho": 0.05, "seed": seed},
        "se": {"tol": 1e-10, "max_iter": 10000},
        "sweep": {
            "eps": [0.05, 1.0],
            "target_norms": [0.7, 1.4, 2.2],
            "xi": XI,
            "beta": BETA,
            "n": 4000,
            "trials": 2,
            "grid_res": 400,
        },
        "output": {"svg": False},
    }


def amp_long_config(seed: int) -> dict:
    return {
        "model": {
            "n": 4000,
            "priors": ["rademacher", "bg:0.1"],
            "beta": BETA,
            "couplings": {"kind": "explicit", "matrices": AMP_LONG_VIEWS},
        },
        "amp": {"max_iter": 100, "rho": 0.05, "trials": 2, "seed": seed},
        "output": {"svg": False},
    }


def theory_curves_config(seed: int) -> dict:
    # an empty sweep section resolves to the 4 default eps and the 52-point grid
    return {"amp": {"seed": seed}, "sweep": {}, "output": {"svg": False}}


@dataclass(frozen=True)
class Workload:
    """``config(seed)`` is the raw config; ``ops(resolved)`` operations are
    attempted per repetition; ``check(out_dir, resolved, theory_rows)`` returns
    one message per failed one; ``theory`` adds the SE/stability loop."""

    name: str
    command: str
    config: Callable
    ops: Callable
    check: Callable
    full_size_factor: Callable
    theory: bool = False

    def argv(self, config_path: str, out_dir: str, jobs: int) -> list:
        return [self.command, "--config", config_path, "--out", out_dir, "--jobs", str(jobs)]


# --- theory-curves: SE and stability at every limits grid point --------------

def theory_points(cfg) -> list:
    """run_se with the CLI defaults, then classify_fixed_point at zero and at q*,
    for every (eps, target) of the resolved limits sweep. A point that raises
    is kept with its error."""
    import numpy as np
    from mvamp import se, stability
    from mvamp.model import BlockPriorProfile, CouplingSet, ScalarPrior

    sw = cfg.sweep
    beta = np.asarray(sw.beta, float)
    base_norm = float(np.linalg.norm(np.diag(beta) @ sw.xi, 2))
    rows = []
    for eps in sw.eps:
        profile = BlockPriorProfile(
            (ScalarPrior.rademacher(), ScalarPrior.bernoulli_gaussian(eps)), tuple(beta)
        )
        model = se.OverlapModel(profile, cfg.se.quad_order)
        for target in sw.target_norms:
            row = {"eps": eps, "norm_Tc": target}
            op = se.OperatorT(CouplingSet.heteroskedastic(np.sqrt(target / base_norm * sw.xi)))
            try:
                traj = se.run_se(model, op, np.diag(cfg.amp.rho * beta),
                                 tol=cfg.se.tol, max_iter=cfg.se.max_iter)
                zero = stability.classify_fixed_point(model, op, np.zeros(len(beta)))
                star = stability.classify_fixed_point(model, op, traj.q_star)
                row.update(converged=traj.converged, iterations=traj.iterations,
                           q1=float(traj.q_star[0]), q2=float(traj.q_star[1]),
                           zero_verdict=zero.classification, star_verdict=star.classification)
            except Exception as exc:  # counted as a failed solve, never dropped
                row["error"] = repr(exc)
            rows.append(row)
    return rows


# --- output checks ------------------------------------------------------------

def _read_csv(path: str) -> list:
    if not os.path.exists(path):
        return []
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _floats(row: dict, keys) -> list | None:
    try:
        vals = [float(row[k]) for k in keys]
    except (KeyError, TypeError, ValueError):
        return None
    return vals if all(math.isfinite(v) for v in vals) else None


def _mse_sd(prior: str, n_block: int) -> float:
    """Rough finite-n sd of a block's MSE, the mean of (x - m)^2 over n_block
    entries: Var(x^2) = E x^4 - 1, plus 4 for the cross term 2 x m. Below the
    threshold m is nearly independent of x, so the MSE sits just above 1."""
    fourth = 1.0 if prior == "rademacher" else 3.0 / float(prior.split(":")[1])
    return math.sqrt((fourth + 3.0) / n_block)


def check_phase_sweep(out_dir: str, resolved, theory_rows=None) -> list:
    """Every (eps, target) row is present and finite; the AMP MSEs lie in
    [0, 1] up to their stderr and finite-n sd; the variational bound is at
    most the SE MSE."""
    sw = resolved.sweep
    rows = {(float(r["eps"]), float(r["norm_Tc"])): r
            for r in _read_csv(os.path.join(out_dir, "phase_diagram.csv"))}
    keys = ["amp_mse_1", "amp_mse_2", "amp_stderr_1", "amp_stderr_2",
            "se_mse_1", "se_mse_2", "mmse_bound_1", "mmse_bound_2"]
    expected = [(float(e), float(t)) for e in sw.eps for t in sw.target_norms]
    failures = []
    for eps, target in expected:
        where = f"eps={eps} target={target}"
        row = rows.get((eps, target))
        vals = _floats(row, keys) if row is not None else None
        if vals is None:
            failures.append(f"{where}: row missing or not finite")
            continue
        mse, err, se_mse, bound = vals[0:2], vals[2:4], vals[4:6], vals[6:8]
        priors = ["rademacher", f"bg:{eps}"]
        problems = []
        for j in range(2):
            slack = MSE_STDERRS * err[j] + MSE_FINITE_N_SDS * _mse_sd(
                priors[j], round(sw.beta[j] * sw.n)) / math.sqrt(sw.trials)
            if not 0.0 <= mse[j] <= 1.0 + slack:
                problems.append(f"amp_mse_{j + 1}={mse[j]} outside [0, 1+{slack:.3g}]")
            if not 0.0 <= bound[j] <= se_mse[j] + BOUND_TOL:
                problems.append(f"mmse_bound_{j + 1}={bound[j]} > se_mse={se_mse[j]}")
        if problems:
            failures.append(f"{where}: " + "; ".join(problems))
    return failures


def se_reference(resolved):
    """SE fixed point of the simulate model, from the AMP initial overlap."""
    import numpy as np
    from mvamp.se import OperatorT, OverlapModel, run_se

    m = resolved.model
    traj = run_se(OverlapModel(m.profile, resolved.se.quad_order), OperatorT(m.couplings),
                  np.diag(resolved.amp.rho * np.asarray(m.profile.beta)),
                  tol=resolved.se.tol, max_iter=resolved.se.max_iter)
    return traj.converged, [float(q) for q in traj.q_star]


def check_amp_long(out_dir: str, resolved, theory_rows=None) -> list:
    """Every trial ran all iterations, and its final Q_hat_jj, divided by the
    block's empirical signal power p_j, lies within AMP_SE_TOL of SE. The power
    p_j = mse_j + (2 F_jj - Q_jj) n / n_j comes from the trace itself; a BG(0.1)
    block of 1600 entries moves it by about 13% between instances."""
    m = resolved.model
    n, trials, last = m.n, resolved.amp.trials, resolved.amp.max_iter
    sizes = m.profile.block_sizes(n)
    converged, q_se = se_reference(resolved)
    if not converged:
        return ["SE reference did not converge"] * trials
    final = {int(r["trial"]): r for r in _read_csv(os.path.join(out_dir, "trace.csv"))
             if int(r["t"]) == last}
    d = len(sizes)
    keys = ([f"Q_hat_{j + 1}{j + 1}" for j in range(d)]
            + [f"F_hat_{j + 1}{j + 1}" for j in range(d)]
            + [f"mse_block_{j + 1}" for j in range(d)])
    failures = []
    for trial in range(trials):
        row = final.get(trial)
        vals = _floats(row, keys) if row is not None else None
        if vals is None:
            failures.append(f"trial {trial}: final row missing or not finite")
            continue
        q, f, mse = vals[:d], vals[d:2 * d], vals[2 * d:]
        devs = []
        for j in range(d):
            power = mse[j] + (2.0 * f[j] - q[j]) * n / sizes[j]
            devs.append(abs(q[j] / power - q_se[j]) if power > 0 else math.inf)
        if max(devs) > AMP_SE_TOL:
            failures.append(f"trial {trial}: max_j |Q_hat_jj/p_j - q_SE_j| = {max(devs):.4f}"
                            f" > {AMP_SE_TOL}")
    return failures


def check_theory_curves(out_dir: str, resolved, theory_rows: list) -> list:
    """Every limits row is present, finite and inside its box; every SE solve
    converged with stable/unstable/marginal verdicts and an MSE at or above
    the bound. One operation per limits row and one per SE solve."""
    sw = resolved.sweep
    expected = [(float(e), float(t)) for e in sw.eps for t in sw.target_norms]
    limits = {(float(r["eps"]), float(r["norm_Tc"])): r
              for r in _read_csv(os.path.join(out_dir, "limits.csv"))}
    theory = {(float(r["eps"]), float(r["norm_Tc"])): r for r in theory_rows}
    failures = []
    for eps, target in expected:
        where = f"eps={eps} target={target}"
        row = limits.get((eps, target))
        vals = _floats(row, ["q1_star", "q2_star", "mmse_bound_1", "mmse_bound_2"]) \
            if row is not None else None
        if vals is None or row["branch_flag"] not in BRANCHES or not all(
                0.0 <= vals[j] <= sw.beta[j] and 0.0 <= vals[2 + j] <= 1.0 for j in range(2)):
            failures.append(f"{where}: limits row missing or invalid")
            vals = None
        point = theory.get((eps, target), {})
        if point.get("error") or not point.get("converged") or not {
                point.get("zero_verdict"), point.get("star_verdict")} <= VERDICTS:
            failures.append(f"{where}: SE/stability failed: {point.get('error', 'no verdict')}")
        elif vals is not None:
            se_mse = [1.0 - point["q1"] / sw.beta[0], 1.0 - point["q2"] / sw.beta[1]]
            if any(vals[2 + j] > se_mse[j] + BOUND_TOL for j in range(2)):
                failures.append(f"{where}: bound above SE MSE")
    return failures


def _points(resolved) -> int:
    return len(resolved.sweep.eps) * len(resolved.sweep.target_norms)


WORKLOADS = {
    w.name: w
    for w in (
        Workload("phase-sweep", "phase-diagram", phase_sweep_config, _points, check_phase_sweep,
                 lambda res: FULL_DIAGRAM_TRIALS / (_points(res) * res.sweep.trials)),
        Workload("amp-long", "simulate", amp_long_config, lambda res: res.amp.trials,
                 check_amp_long, lambda res: CLI_DEFAULT_TRIALS / res.amp.trials),
        Workload("theory-curves", "limits", theory_curves_config, lambda res: 2 * _points(res),
                 check_theory_curves, lambda res: 1.0, theory=True),
    )
}
