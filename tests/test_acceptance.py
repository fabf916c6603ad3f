"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s``. The heavy criteria use the
benchmark scale n = 4000 and seeded Monte Carlo, so the full module takes a
few minutes.
"""

import time

import numpy as np
import pytest

import oracles
from mvamp import amp, limits, model, se, stability

RAD = model.ScalarPrior.rademacher()
GAUSS = model.ScalarPrior.gaussian_unit()
XI = np.array([[0.7, 0.3], [0.3, 0.7]])
BETA = (0.6, 0.4)
T1_NORM = float(np.linalg.norm(np.diag(BETA) @ XI, 2))
EPS_LIST = [0.05, 0.1, 0.5, 1.0]


def _report(num, ok, msg):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {msg}")
    assert ok, f"criterion {num}: {msg}"


def _hetero_setup(eps, target_norm):
    priors = (RAD, model.ScalarPrior.bernoulli_gaussian(eps))
    profile = model.BlockPriorProfile(priors, BETA)
    c = target_norm / T1_NORM
    couplings = model.CouplingSet.heteroskedastic(np.sqrt(c * XI))
    return profile, se.OverlapModel(profile), se.OperatorT(couplings), c


def _amp_mse_mean(profile, couplings, n, trials, rho, max_iter, seed):
    mses = []
    for trial in range(trials):
        inst_seed = int(np.random.SeedSequence([seed, trial, 0]).generate_state(1)[0])
        run_seed = int(np.random.SeedSequence([seed, trial, 1]).generate_state(1)[0])
        X = model.sample_signal(profile, n, inst_seed)
        inst = model.synthesize_symmetric(X, couplings, inst_seed, profile=profile)
        cfg = amp.AMPConfig(max_iter=max_iter, rho=rho, seed=run_seed)
        mses.append(amp.run_symmetric(inst, cfg).mse[-1])
    return np.mean(mses, axis=0)


def test_criterion_1_se_amp_agreement():
    # each entry of Q_hat^t, t <= 20, over 20 instances: its trial mean minus
    # q_SE^t lies within 4 stderr. One instance's worst deviation has median
    # 0.024 at n = 4000, so a bound of 0.05 on the max over 10 trials failed
    # on 18 of 20 fresh seed bases; this statistic passes on 20 of 20, and a
    # disabled or 0.9-scaled Onsager term fails it on 10 of 10 (CHANGES).
    t0 = time.time()
    profile, m, op, _ = _hetero_setup(0.5, 2.0)
    traj = se.run_se(m, op, np.diag(0.05 * np.asarray(BETA)), max_iter=400)
    q_se = np.array([np.diag(traj.q[t] if t < len(traj.q) else traj.q[-1]) for t in range(21)])
    dev = []
    for trial in range(20):
        inst_seed = oracles.trial_seed(1001, trial)
        X = model.sample_signal(profile, 4000, inst_seed)
        inst = model.synthesize_symmetric(X, op.couplings, inst_seed, profile=profile)
        tr = amp.run_symmetric(inst, amp.AMPConfig(max_iter=20, rho=0.05, seed=inst_seed))
        dev.append(np.array(tr.Q_hat) - q_se)
    mean, z = oracles.trial_mean_z(dev)
    elapsed = time.time() - t0
    _report(
        1,
        z.max() <= 4.0 and elapsed <= 300.0,
        f"Q_hat vs SE over 20 trials: max |mean deviation| {np.abs(mean).max():.4f}, "
        f"max {z.max():.2f} stderr (tol 4), {elapsed:.0f}s (cap 300s)",
    )


def test_criterion_2_bbp_threshold():
    prof = model.BlockPriorProfile((RAD,), (1.0,))
    m = se.OverlapModel(prof)
    cs_sub = model.CouplingSet.heteroskedastic(np.array([[0.8]]))
    cs_sup = model.CouplingSet.heteroskedastic(np.array([[1.2]]))
    mse_sub = _amp_mse_mean(prof, cs_sub, 4000, 6, 0.1, 25, seed=2002)[0]
    traj = se.run_se(m, se.OperatorT(cs_sup), np.array([[0.1]]), max_iter=400)
    q_star = float(traj.q_star[0])
    mse_sup = _amp_mse_mean(prof, cs_sup, 4000, 6, 0.1, 25, seed=2003)[0]
    v_sub = stability.classify_fixed_point(m, se.OperatorT(cs_sub), np.zeros(1))
    v_sup = stability.classify_fixed_point(m, se.OperatorT(cs_sup), np.zeros(1))
    ok = (
        0.95 <= mse_sub <= 1.0
        and q_star > 0.2
        and mse_sup <= 1.0 - q_star + 0.05
        and v_sub.classification == "stable"
        and v_sup.classification == "unstable"
    )
    _report(
        2,
        ok,
        f"lam=0.8: mse={mse_sub:.4f} ({v_sub.classification}); "
        f"lam=1.2: mse={mse_sup:.4f} vs 1-q*+0.05={1 - q_star + 0.05:.4f}, "
        f"q*={q_star:.3f} ({v_sup.classification})",
    )


def test_criterion_3_threshold_scaling_universal():
    results = []
    for eps in EPS_LIST:
        _, m, op_lo, _ = _hetero_setup(eps, 0.9)
        _, _, op_hi, _ = _hetero_setup(eps, 1.1)
        lo = stability.classify_fixed_point(m, op_lo, np.zeros(2))
        hi = stability.classify_fixed_point(m, op_hi, np.zeros(2))
        results.append((eps, lo.classification, hi.classification))
    ok = all(a == "stable" and b == "unstable" for _, a, b in results)
    _report(3, ok, f"zero-point verdicts at norms 0.9/1.1: {results}")


def test_criterion_4_gaussian_closed_forms():
    worst_psi = max(
        abs(se.overlap_psi_scalar(GAUSS, s) - s / (1 + s)) for s in [0.1, 1.0, 10.0, 100.0]
    )
    worst_kl = max(
        abs(se.kl_channel(GAUSS, s) - 0.5 * (s - np.log1p(s)))
        for s in [0.1, 1.0, 10.0, 100.0]
    )
    _report(
        4,
        worst_psi < 1e-8 and worst_kl < 1e-8,
        f"overlap dev {worst_psi:.2e}, KL dev {worst_kl:.2e} (tol 1e-8)",
    )


def test_criterion_5_immse_identity():
    grid = np.linspace(0.2, 8.0, 10)
    devs = {
        prior.name: oracles.immse_consistency(prior, grid)
        for prior in [RAD, GAUSS, model.ScalarPrior.bernoulli_gaussian(0.1)]
    }
    worst = max(devs.values())
    _report(5, worst <= 1e-4, f"max |dD/ds - psi/2| = {worst:.2e} over {devs}")


def test_criterion_6_mmse_gradient_identity():
    t0 = time.time()
    prof = model.BlockPriorProfile((RAD, RAD), BETA)
    m = se.OverlapModel(prof)
    S = np.array([[1.0, 0.3], [0.3, 0.6]])
    rep = oracles.mmse_gradient_check(m, S, 50, n_samples=20_000, n_directions=3, seed=606)
    elapsed = time.time() - t0
    _report(
        6,
        rep.passed and elapsed <= 120.0,
        f"worst deviation {rep.max_sigma_deviation:.2f} sigma (cap 3), {elapsed:.0f}s",
    )


def _sweep_rows(eps, targets, grid_res=200):
    _, m, _, _ = _hetero_setup(eps, 1.0)
    return limits.limits_sweep(m, XI, targets, grid_res=grid_res)


def test_criterion_7_variational_se_inclusion():
    targets = [0.3, 0.5, 0.7, 0.9, 1.1, 1.5, 2.0, 3.0, 4.0]
    worst = 0.0
    for eps in EPS_LIST:
        profile, m, _, _ = _hetero_setup(eps, 1.0)
        rows = _sweep_rows(eps, targets)
        for row in rows:
            H = row.c * XI
            resid = float(np.abs(row.q_star - m.psi_vector(H @ row.q_star)).max())
            worst = max(worst, resid)
    _report(7, worst <= 1e-5, f"max SE fixed-point residual over sweeps: {worst:.2e}")


def test_criterion_8_statistical_computational_gap():
    # eps = 0.05: a scanned c with ||T_c|| < 1 where the bound is < 0.9 while
    # AMP stays at trivial error (its SE orbit from the rho init decays to 0)
    targets_sub = [0.6, 0.7, 0.75, 0.8, 0.9, 0.95]
    rows = _sweep_rows(0.05, targets_sub)
    gap_rows = []
    for r in rows:
        if r.norm_Tc >= 1.0 or r.mmse_bounds.min() >= 0.9:
            continue
        # require the zero basin to contain the init with a 1.5x margin so the
        # finite-n orbit cannot drift over the boundary
        profile, m, op, _ = _hetero_setup(0.05, r.norm_Tc)
        traj = se.run_se(m, op, np.diag(1.5 * 0.05 * np.asarray(BETA)), max_iter=4000)
        if float(np.abs(traj.q_star).max()) < 1e-6:
            gap_rows.append(r)
    assert gap_rows, "no information-theoretic gap candidate found"
    row = gap_rows[-1]
    profile, m, op, c = _hetero_setup(0.05, row.norm_Tc)
    amp_mse = _amp_mse_mean(profile, op.couplings, 4000, 10, 0.05, 20, seed=808)
    gap_ok = row.mmse_bounds[0] < 0.9 and amp_mse[0] >= 0.95
    # eps in {0.5, 1}: no sub-threshold gap; the bound transitions at 1 +- one step
    smooth_ok = True
    details = [f"eps=0.05 at norm {row.norm_Tc}: bound_1={row.mmse_bounds[0]:.3f}, "
               f"amp_mse_1={amp_mse[0]:.3f}"]
    step_grid = [0.85, 0.9, 0.95, 1.0, 1.05, 1.1, 1.15]
    for eps in [0.5, 1.0]:
        rows_e = _sweep_rows(eps, step_grid)
        sub = [r for r in rows_e if r.norm_Tc < 1.0]
        if any(r.mmse_bounds.min() < 0.9 for r in sub):
            smooth_ok = False
        nontrivial = [r.norm_Tc for r in rows_e if r.mmse_bounds.min() < 1.0 - 1e-6]
        first = min(nontrivial)
        if not (0.95 <= first <= 1.05 + 1e-9):
            smooth_ok = False
        details.append(f"eps={eps}: first nontrivial bound at norm {first}")
    _report(8, gap_ok and smooth_ok, "; ".join(details))


def test_criterion_9_past_threshold_optimality():
    worst = 0.0
    details = []
    for eps in EPS_LIST:
        for target in [1.5, 2.0, 3.0]:
            profile, m, op, c = _hetero_setup(eps, target)
            res = limits.variational_solve(m, c * XI, grid_res=200)
            amp_mse = _amp_mse_mean(profile, op.couplings, 4000, 10, 0.05, 25,
                                    seed=int(9000 + 100 * eps * 100 + target * 10))
            dev = float(np.abs(amp_mse - res.mmse_bounds).max())
            worst = max(worst, dev)
            details.append(f"eps={eps},norm={target}: dev={dev:.3f}")
    _report(9, worst <= 0.05, f"max |AMP - bound| per block = {worst:.3f}; " + "; ".join(details))


def test_criterion_10_operator_toolkit_invariants():
    rng = np.random.default_rng(1010)
    checked = 0
    ok = True
    msgs = []
    for i in range(100):
        d = 2 if i % 2 == 0 else 3
        mats = []
        for _ in range(int(rng.integers(1, 4))):
            a = rng.standard_normal((d, d))
            mats.append((a + a.T) / 2)
        op = stability.CPOperator(tuple(mats))
        sf = stability.choi_and_kraus(op)
        # Choi rank equals the span of the Kraus factors in vec form
        span = np.linalg.matrix_rank(
            np.column_stack([m.reshape(-1) for m in mats]), tol=1e-10
        )
        if sf.kraus_rank != span:
            ok, _ = False, msgs.append(f"rank mismatch at {i}")
        if sf.symmetric_flags.sum() != d * (d + 1) // 2:
            ok, _ = False, msgs.append(f"sym count at {i}")
        if (~sf.symmetric_flags).sum() != d * (d - 1) // 2:
            ok, _ = False, msgs.append(f"skew count at {i}")
        x = rng.standard_normal((d, d))
        psd_in = x @ x.T
        out = op.apply(psd_in)
        if np.linalg.eigvalsh(out).min() < -1e-10 * max(1.0, np.abs(out).max()):
            ok, _ = False, msgs.append(f"positivity at {i}")
        y = rng.standard_normal((d, d))
        diff = op.apply(psd_in + y @ y.T) - op.apply(psd_in)
        if np.linalg.eigvalsh(diff).min() < -1e-10 * max(1.0, np.abs(diff).max()):
            ok, _ = False, msgs.append(f"order at {i}")
        nu = stability.restricted_psd_norm(op)
        scaled = stability.CPOperator(tuple(np.sqrt(3.0) * L for L in mats))
        if abs(stability.restricted_psd_norm(scaled) - 3.0 * nu) > 1e-8 * max(1.0, nu):
            ok, _ = False, msgs.append(f"scaling at {i}")
        checked += 1
    # grid oracle at d=2
    op2 = stability.CPOperator(
        tuple((a + a.T) / 2 for a in rng.standard_normal((2, 2, 2)))
    )
    nu2 = stability.restricted_psd_norm(op2)
    # unit-Frobenius PSD Y = R diag(cos ph, sin ph) R^T over a rotation x split
    # grid, in one broadcast
    th = np.linspace(0, np.pi, 1000)
    ph = np.linspace(0, np.pi / 2, 1000)
    cth, sth = np.cos(th), np.sin(th)
    R = np.stack([np.stack([cth, -sth], -1), np.stack([sth, cth], -1)], -2)
    Y = np.einsum("tia,pa,tja->tpij", R, np.stack([np.cos(ph), np.sin(ph)], -1), R)
    best = float(np.linalg.norm(op2.apply(Y), axis=(-2, -1)).max())
    grid_ok = abs(nu2 - best) < 1e-4
    _report(
        10,
        ok and grid_ok and checked == 100,
        f"{checked} randomized instances; grid-oracle dev {abs(nu2 - best):.2e}"
        + ("" if ok else f"; failures: {msgs[:3]}"),
    )


def test_criterion_11_onsager_ablation_regression():
    prof = model.BlockPriorProfile((RAD,), (1.0,))
    m = se.OverlapModel(prof)
    cs = model.CouplingSet.heteroskedastic(np.array([[1.5]]))
    X = model.sample_signal(prof, 4000, seed=1111)
    inst = model.synthesize_symmetric(X, cs, seed=1112, profile=prof)
    traj = se.run_se(m, se.OperatorT(cs), np.array([[0.1]]), max_iter=100)
    reports = {}
    for mode in ("divergence", "disabled"):
        cfg = amp.AMPConfig(max_iter=6, rho=0.1, seed=1113, correction=mode)
        _, seen = oracles.run_with_iterates(inst, cfg)
        reports[mode] = oracles.gaussianity_diagnostic(seen, inst, traj)
    ratio = reports["disabled"].cov_distance[4] / reports["divergence"].cov_distance[4]
    _report(
        11,
        ratio >= 4.0,
        f"residual-covariance inflation at t=5: {ratio:.1f}x (>= 4x required)",
    )
