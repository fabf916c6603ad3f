import numpy as np
import pytest

import oracles
from mvamp import amp, model, se

RAD = model.ScalarPrior.rademacher()
GAUSS = model.ScalarPrior.gaussian_unit()
PROF1 = model.BlockPriorProfile((RAD,), (1.0,))
M1 = se.OverlapModel(PROF1)


def scalar_instance(lam, n=4000, seed=0):
    X = model.sample_signal(PROF1, n, seed=seed)
    cs = model.CouplingSet.heteroskedastic(np.array([[lam]]))
    return model.synthesize_symmetric(X, cs, seed=seed + 1, profile=PROF1)


def bipartite_instance(X1, X2, gam, priors, seed):
    """The bipartite model with sides X1 (n1 x 1), X2 (n2 x 1) and coupling gam
    as a two-block instance: X = X1 (+) X2, beta = (n1/n, n2/n) and
    Lambda = [[0, sqrt(1+alpha) gam], [sqrt(1+alpha) gam, 0]] with alpha = n2/n1."""
    n1, n2 = len(X1), len(X2)
    n = n1 + n2
    prof = model.BlockPriorProfile(tuple(priors), (n1 / n, n2 / n))
    off = np.sqrt(1.0 + n2 / n1) * gam
    cs = model.CouplingSet.heteroskedastic(np.array([[0.0, off], [off, 0.0]]))
    X = np.zeros((n, 2))
    X[:n1, 0], X[n1:, 1] = np.ravel(X1), np.ravel(X2)
    return model.synthesize_symmetric(X, cs, seed, prof)


# ---------------------------------------------------------------------------
# initialization
# ---------------------------------------------------------------------------

def test_init_extremes():
    X = model.sample_signal(PROF1, 500, seed=3)
    m0 = amp.init_side_information(X, 0.0, PROF1.block_slices(500), seed=4)
    assert abs(float((X.T @ m0)[0, 0]) / 500) < 5 / np.sqrt(500)
    m1 = amp.init_side_information(X, 1.0, PROF1.block_slices(500), seed=4)
    assert np.array_equal(m1, X)
    with pytest.raises(se.DomainError):
        amp.init_side_information(X, 1.5, PROF1.block_slices(500), seed=0)


def test_init_overlap_statistics():
    prof = PROF1
    n, rho = 4000, 0.3
    X = model.sample_signal(prof, n, seed=5)
    m0 = amp.init_side_information(X, rho, prof.block_slices(n), seed=6)
    f1 = float((X.T @ m0)[0, 0]) / n
    q1 = float((m0.T @ m0)[0, 0]) / n
    assert abs(f1 - rho) < 0.02
    assert abs(q1 - rho) < 0.02
    # init noise respects the signal support pattern
    prof2 = model.BlockPriorProfile((RAD, RAD), (0.5, 0.5))
    X2 = model.sample_signal(prof2, 100, seed=7)
    m02 = amp.init_side_information(X2, 0.5, prof2.block_slices(100), seed=8)
    assert np.all(m02[X2 == 0.0] == 0.0)


# ---------------------------------------------------------------------------
# the symmetric recursion
# ---------------------------------------------------------------------------

def test_run_is_deterministic():
    inst = scalar_instance(1.5, n=600, seed=11)
    cfg = amp.AMPConfig(max_iter=8, rho=0.2, seed=12)
    a = amp.run_symmetric(inst, cfg)
    b = amp.run_symmetric(inst, cfg)
    for qa, qb in zip(a.Q_hat, b.Q_hat):
        assert np.array_equal(qa, qb)
    for ma, mb in zip(a.mse, b.mse):
        assert np.array_equal(ma, mb)


def test_zero_signal_stays_uninformative():
    n = 4000
    inst = model.synthesize_symmetric(
        np.zeros((n, 1)), model.CouplingSet.heteroskedastic(np.array([[2.0]])),
        seed=1, profile=PROF1,
    )
    tr = amp.run_symmetric(inst, amp.AMPConfig(max_iter=10, rho=0.0, seed=2))
    for F in tr.F_hat:
        assert np.abs(F).max() <= 5 / np.sqrt(n)


def test_supercritical_matches_se_fixed_point():
    inst = scalar_instance(2.0, n=4000, seed=21)
    tr = amp.run_symmetric(inst, amp.AMPConfig(max_iter=25, rho=0.1, seed=22))
    traj = se.run_se(M1, se.OperatorT(inst.couplings), np.array([[0.1]]), max_iter=200)
    q_amp = tr.Q_hat[-1][0, 0]
    assert abs(q_amp - traj.q_star[0]) < 0.03
    # empirical overlap increases along the run
    qs = [q[0, 0] for q in tr.Q_hat]
    assert qs[-1] > qs[0]


def test_subcritical_decays_to_zero():
    inst = scalar_instance(0.5, n=4000, seed=23)
    tr = amp.run_symmetric(inst, amp.AMPConfig(max_iter=20, rho=0.1, seed=24))
    assert tr.Q_hat[-1][0, 0] < 0.05


def test_q_hat_is_psd_and_norm_bounded():
    prof = model.BlockPriorProfile((RAD, GAUSS), (0.6, 0.4))
    X = model.sample_signal(prof, 1000, seed=31)
    cs = model.CouplingSet.heteroskedastic(np.array([[1.5, 0.4], [0.4, 1.0]]))
    inst = model.synthesize_symmetric(X, cs, seed=32, profile=prof)
    tr = amp.run_symmetric(inst, amp.AMPConfig(max_iter=10, rho=0.1, seed=33))
    for q in tr.Q_hat:
        assert np.linalg.eigvalsh(q).min() >= -1e-10
    # ||Q||_F <= tr Q = ||M||_F^2 / n for the last denoised M
    assert np.linalg.norm(tr.Q_hat[-1]) <= np.trace(tr.Q_hat[-1]) + 1e-10


def test_divergence_error_reports_iteration(monkeypatch):
    inst = scalar_instance(1.0, n=200, seed=51)

    def bad_denoiser(profile, S, Y):
        return amp.DenoiserEval(np.full_like(Y, np.inf), np.zeros((1, 1)))

    monkeypatch.setattr(amp, "block_denoiser", bad_denoiser)
    with pytest.raises(amp.DivergenceError) as exc:
        amp.run_symmetric(inst, amp.AMPConfig(max_iter=5, rho=0.1, seed=52))
    assert exc.value.iteration == 1


def test_overflowing_overlap_is_a_divergence(monkeypatch):
    # a finite but huge M^1 overflows Q_hat^1 to inf; S_2 = T(Q_hat^1) is then
    # not finite, which is a divergence at iteration 2, before the denoiser runs
    inst = scalar_instance(1.0, n=200, seed=51)
    calls = []

    def huge_denoiser(profile, S, Y):
        calls.append(S)
        return amp.DenoiserEval(np.full_like(Y, 1e200), np.zeros((1, 1)))

    monkeypatch.setattr(amp, "block_denoiser", huge_denoiser)
    with np.errstate(over="ignore"), pytest.raises(amp.DivergenceError) as exc:
        amp.run_symmetric(inst, amp.AMPConfig(max_iter=5, rho=0.1, seed=52))
    assert exc.value.iteration == 2
    assert len(calls) == 1 and np.isfinite(calls[0]).all()


BG01 = model.ScalarPrior.bernoulli_gaussian(0.1)
PROF_RAD_BG = model.BlockPriorProfile((RAD, BG01), (0.6, 0.4))
# two views that do not commute, so the multi-view sum is not one rescaled view
NONCOMMUTING_VIEWS = model.CouplingSet((
    np.array([[1.6, 0.6], [0.6, 1.0]]),
    np.array([[0.9, -0.7], [-0.7, 1.4]]),
))


def _assert_traces_agree(a, b, tol=1e-12):
    # a and b are (trace, iterates) pairs of oracles.run_with_iterates
    (a, seen_a), (b, seen_b) = a, b
    assert a.iterations == b.iterations
    for name in ("F_hat", "Q_hat", "mse"):
        for va, vb in zip(getattr(a, name), getattr(b, name)):
            assert np.abs(np.asarray(va) - np.asarray(vb)).max() <= tol, name
    for (_, xa), (_, xb) in zip(seen_a, seen_b):
        assert np.abs(xa - xb).max() <= tol, "iterates"


def test_block_product_equals_dense_product(monkeypatch):
    # the engine's factored product (G_k by blocks plus the rank-d spike)
    # against the dense product Y_k @ M with the formed view
    X = model.sample_signal(PROF_RAD_BG, 600, seed=101)
    inst = model.synthesize_symmetric(X, NONCOMMUTING_VIEWS, seed=102, profile=PROF_RAD_BG)
    cfg = amp.AMPConfig(max_iter=30, rho=0.05, seed=103)
    block = oracles.run_with_iterates(inst, cfg)
    assert block[0].Q_hat[-1][0, 0] > 0.3  # an informative run, not a trivial one
    rng = model.rng_from(104)
    X1, X2 = RAD.sample(rng, (400, 1)), GAUSS.sample(rng, (200, 1))
    bipartite = bipartite_instance(X1, X2, 1.8, (RAD, GAUSS), cfg.seed)
    off_diagonal = oracles.run_with_iterates(bipartite, cfg)

    monkeypatch.setattr(amp, "_view_product",
                        lambda instance, k, M, slices: instance.observations[k] @ M)
    _assert_traces_agree(block, oracles.run_with_iterates(inst, cfg))
    _assert_traces_agree(off_diagonal, oracles.run_with_iterates(bipartite, cfg))


PACKED_PROFILES = {
    1: (model.BlockPriorProfile((RAD,), (1.0,)),
        model.CouplingSet((np.array([[1.6]]), np.array([[0.9]])))),
    2: (PROF_RAD_BG, NONCOMMUTING_VIEWS),
    3: (model.BlockPriorProfile((RAD, BG01, GAUSS), (0.5, 0.3, 0.2)),
        model.CouplingSet((
            np.array([[1.5, 0.4, 0.2], [0.4, 1.1, -0.3], [0.2, -0.3, 1.3]]),
            np.array([[0.8, -0.5, 0.1], [-0.5, 1.4, 0.6], [0.1, 0.6, 0.9]]),
        ))),
}


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("n", [129, 511, 512, 513, 1100])
def test_packed_product_equals_dense_product(monkeypatch, n, d):
    # the product from the upper row panels of G_k (512 rows each) against the
    # dense Y_k @ M over a 30-iteration K = 2 trace, with panel edges (512,
    # 1024) and block edges at every offset from each other
    prof, views = PACKED_PROFILES[d]
    X = model.sample_signal(prof, n, seed=160 + d)
    inst = model.synthesize_symmetric(X, views, seed=170 + n, profile=prof)
    cfg = amp.AMPConfig(max_iter=30, rho=0.05, seed=180)
    packed = oracles.run_with_iterates(inst, cfg)
    monkeypatch.setattr(amp, "_view_product",
                        lambda instance, k, M, slices: instance.observations[k] @ M)
    _assert_traces_agree(packed, oracles.run_with_iterates(inst, cfg))


@pytest.mark.parametrize("n1, n2", [(300, 213), (700, 400)])
def test_packed_product_equals_dense_product_bipartite(monkeypatch, n1, n2):
    # the off-diagonal view of the bipartite model, whose product reads only
    # the panels' rows in one block and columns in the other
    rng = model.rng_from(190 + n1)
    X1, X2 = RAD.sample(rng, (n1, 1)), GAUSS.sample(rng, (n2, 1))
    inst = bipartite_instance(X1, X2, 1.8, (RAD, GAUSS), 191)
    cfg = amp.AMPConfig(max_iter=30, rho=0.05, seed=192)
    packed = oracles.run_with_iterates(inst, cfg)
    monkeypatch.setattr(amp, "_view_product",
                        lambda instance, k, M, slices: instance.observations[k] @ M)
    _assert_traces_agree(packed, oracles.run_with_iterates(inst, cfg))


@pytest.mark.parametrize("n", [129, 511, 512])
def test_one_panel_product_keeps_the_dense_bits(n):
    # n <= 512: one panel, the whole matrix, and the same GEMV per block
    prof, _ = PACKED_PROFILES[3]
    g = model.sample_goe(n, seed=200 + n)
    assert len(g.panels) == 1
    slices = prof.block_slices(n)
    M = np.zeros((n, 3))
    rng = model.rng_from(201)
    for j, sl in enumerate(slices):
        M[sl, j] = rng.standard_normal(sl.stop - sl.start)
    G = np.asarray(g)
    dense = np.empty((n, 3))
    for j, sl in enumerate(slices):
        dense[:, j] = G[:, sl] @ M[sl, j]
    assert np.array_equal(amp._block_product(g, M, slices), dense)


def test_block_product_rejects_signal_off_its_block():
    X = np.array(model.sample_signal(PROF_RAD_BG, 200, seed=111))
    X[5, 1] = 0.3  # row 5 lies in block 1, column 2 belongs to block 2
    inst = model.synthesize_symmetric(X, NONCOMMUTING_VIEWS, seed=112, profile=PROF_RAD_BG)
    cfg = amp.AMPConfig(max_iter=3, rho=0.1, seed=113)
    with pytest.raises(se.DomainError, match="outside block 2"):
        amp.run_symmetric(inst, cfg)


def test_init_noise_covers_bg_block():
    # M^0 carries its noise on every row of a block, also where a BG(0.1)
    # signal is zero (90% of its rows), so Q_hat^0 = rho diag(beta) = SE's Q^1
    n, rho = 4000, 0.05
    X = model.sample_signal(PROF_RAD_BG, n, seed=121)
    one_view = model.CouplingSet(NONCOMMUTING_VIEWS.matrices[:1])
    inst = model.synthesize_symmetric(X, one_view, seed=122, profile=PROF_RAD_BG)
    q0 = amp.run_symmetric(inst, amp.AMPConfig(max_iter=1, rho=rho, seed=123)).Q_hat[0]
    assert np.abs(np.diag(q0) - rho * np.asarray(PROF_RAD_BG.beta)).max() < 0.003
    assert q0[0, 1] == 0.0  # the blocks stay disjoint


def test_multiview_recursion_tracks_se():
    # K = 2 views that do not commute: the sum over views and the Onsager term
    # B_t = sum_k Lambda_k D_t Lambda_k against SE q <- psi(sum_k Lambda_k**2 q),
    # at every t with criterion 1's tolerance; one trial deviates by up to
    # ~0.057, so the trial mean of four is compared
    prof = model.BlockPriorProfile((RAD, model.ScalarPrior.bernoulli_gaussian(0.5)), (0.6, 0.4))
    n, rho, t_max = 4000, 0.05, 20
    traj = se.run_se(se.OverlapModel(prof), se.OperatorT(NONCOMMUTING_VIEWS),
                     np.diag(rho * np.asarray(prof.beta)), tol=0.0, max_iter=t_max)
    runs = []
    for trial in range(4):
        X = model.sample_signal(prof, n, seed=130 + trial)
        inst = model.synthesize_symmetric(X, NONCOMMUTING_VIEWS, seed=140 + trial, profile=prof)
        runs.append(amp.run_symmetric(inst, amp.AMPConfig(max_iter=t_max, rho=rho,
                                                          seed=150 + trial)).Q_hat)
    q_amp = np.mean(runs, axis=0)
    q_se = np.array([np.diag(q) for q in traj.q])
    assert q_amp.shape == q_se.shape == (t_max + 1, 2, 2)
    assert np.abs(q_amp - q_se).max() <= 0.05
    assert traj.q[-1][0] > 0.4  # the run leaves the uninformative start


# ---------------------------------------------------------------------------
# the bipartite (asymmetric) model as a two-block instance
# ---------------------------------------------------------------------------

def test_asymmetric_zero_coupling_uninformative():
    # a zero explicit coupling: the views are pure noise
    rng = model.rng_from(71)
    X1 = GAUSS.sample(rng, (400, 1))
    X2 = GAUSS.sample(rng, (200, 1))
    inst = bipartite_instance(X1, X2, 0.0, (GAUSS, GAUSS), seed=72)
    assert not inst.couplings.matrices[0].any()
    mse = amp.run_symmetric(inst, amp.AMPConfig(max_iter=6, rho=0.0, seed=72)).mse[-1]
    assert mse[0] > 0.7 and mse[1] > 0.7


def test_asymmetric_matches_bipartite_se_oracle():
    # Gaussian priors both sides: alternating scalar SE for the rectangular model
    n1, n2, gam, rho = 3000, 1500, 1.6, 0.2
    alpha = n2 / n1
    prof = model.BlockPriorProfile((GAUSS, GAUSS), (n1 / (n1 + n2), n2 / (n1 + n2)))
    m = se.OverlapModel(prof)
    lam = np.array([[0.0, np.sqrt(1 + alpha) * gam], [np.sqrt(1 + alpha) * gam, 0.0]])
    op = se.OperatorT(model.CouplingSet.heteroskedastic(lam))
    traj = se.run_se(m, op, np.diag(rho * np.asarray(prof.beta)), tol=1e-14, max_iter=800)
    gu = gv = rho
    for _ in range(800):
        gu, gv = (
            alpha * gam**2 * gv / (1 + alpha * gam**2 * gv),
            gam**2 * gu / (1 + gam**2 * gu),
        )
    assert abs(traj.q_star[0] - prof.beta[0] * gu) < 1e-9
    assert abs(traj.q_star[1] - prof.beta[1] * gv) < 1e-9
    # the AMP run on the two-block instance lands near the SE-predicted side MSEs
    rng = model.rng_from(73)
    X1 = GAUSS.sample(rng, (n1, 1))
    X2 = GAUSS.sample(rng, (n2, 1))
    inst = bipartite_instance(X1, X2, gam, (GAUSS, GAUSS), seed=74)
    assert inst.profile == prof and inst.couplings.matrices[0].tolist() == lam.tolist()
    mse = amp.run_symmetric(inst, amp.AMPConfig(max_iter=30, rho=rho, seed=74)).mse[-1]
    assert abs(mse[0] - (1 - gu)) < 0.05
    assert abs(mse[1] - (1 - gv)) < 0.05


def test_duplicated_symmetric_equals_direct_se():
    # X1 = X2, symmetric Gamma: the two-block SE on the duplicated signal equals
    # the direct d=1 symmetric SE
    gam, rho = 1.8, 0.1
    prof = model.BlockPriorProfile((RAD, RAD), (0.5, 0.5))
    m = se.OverlapModel(prof)
    lam = np.array([[0.0, np.sqrt(2) * gam], [np.sqrt(2) * gam, 0.0]])
    op = se.OperatorT(model.CouplingSet.heteroskedastic(lam))
    traj = se.run_se(m, op, np.diag([rho / 2, rho / 2]), max_iter=400)
    direct = se.run_se(
        M1, se.OperatorT(model.CouplingSet.heteroskedastic(np.array([[gam]]))),
        np.array([[rho]]), max_iter=400,
    )
    assert abs(2 * traj.q_star[0] - direct.q_star[0]) < 1e-10
    assert abs(2 * traj.q_star[1] - direct.q_star[0]) < 1e-10
    # AMP traces agree within Monte Carlo tolerance on matched seeds
    n = 2000
    X = model.sample_signal(PROF1, n, seed=81)
    inst = model.synthesize_symmetric(
        X, model.CouplingSet.heteroskedastic(np.array([[gam]])), seed=82, profile=PROF1
    )
    tr_sym = amp.run_symmetric(inst, amp.AMPConfig(max_iter=15, rho=rho, seed=83))
    duplicated = bipartite_instance(X, X, gam, (RAD, RAD), seed=84)
    tr_dup = amp.run_symmetric(duplicated, amp.AMPConfig(max_iter=15, rho=rho, seed=84))
    q_dup = np.array([q[0, 0] + q[1, 1] for q in tr_dup.Q_hat])
    q_sym = np.array([q[0, 0] for q in tr_sym.Q_hat])
    assert np.abs(q_dup - q_sym).max() < 0.06


# ---------------------------------------------------------------------------
# Gaussianity diagnostic and the Onsager correction
# ---------------------------------------------------------------------------

def test_iterate_seam_captures_each_denoiser_input():
    # run_with_iterates keeps the (S_t, X^t) of every block_denoiser call: one
    # pair per iteration, the last of which denoises to the M whose overlaps
    # the trace records last, bit for bit, and the run and the module name
    # are left as they were
    X = model.sample_signal(PROF_RAD_BG, 600, seed=105)
    inst = model.synthesize_symmetric(X, NONCOMMUTING_VIEWS, seed=106, profile=PROF_RAD_BG)
    cfg = amp.AMPConfig(max_iter=7, rho=0.1, seed=107)
    block_denoiser = amp.block_denoiser
    tr, seen = oracles.run_with_iterates(inst, cfg)
    assert amp.block_denoiser is block_denoiser
    assert len(seen) == cfg.max_iter == tr.iterations
    S_t, X_t = seen[-1]
    M = amp.block_denoiser(inst.profile, S_t, X_t).value
    assert np.array_equal(X.T @ M / inst.n, tr.F_hat[-1])
    Q = M.T @ M / inst.n
    assert np.array_equal((Q + Q.T) / 2.0, tr.Q_hat[-1])
    again = amp.run_symmetric(inst, cfg)
    for name in ("F_hat", "Q_hat", "mse"):
        assert all(np.array_equal(a, b) for a, b in zip(getattr(again, name), getattr(tr, name))), name


def _diagnostic_setup(correction, seed=91, n=4000, lam=1.5, t=8):
    inst = scalar_instance(lam, n=n, seed=seed)
    cfg = amp.AMPConfig(max_iter=t, rho=0.1, seed=seed + 1, correction=correction)
    _, seen = oracles.run_with_iterates(inst, cfg)
    traj = se.run_se(M1, se.OperatorT(inst.couplings), np.array([[0.1]]), max_iter=100)
    return oracles.gaussianity_diagnostic(seen, inst, traj)


# The AMP-vs-SE checks below each read 20 fresh instances at n = 4000 and
# test the trial mean of a signed statistic against its stderr, so their
# verdict does not hang on the seed. On one instance the residual variance
# C - K at t = 5 has sd 0.066 with no bias (200 instances: mean +0.001), so
# a bound of 0.05 on one instance's |C - K| failed at about half the seeds;
# |C - K| <= 0.05 at t = 5 and <= 0.08 at every t held on 8 of 20 fresh
# seeds, and the battery bound (< 0.08 on one instance) on 1 of 20. The
# z-statistics pass on 20 of 20 fresh seed bases, and both a disabled and a
# 0.9-scaled Onsager term fail them on 10 of 10 (CHANGES gives the counts).
DIAGNOSTIC_TRIALS = 20
Z_TOL = 4.0


def _diagnostic_trials(correction, base, t=8):
    return [_diagnostic_setup(correction, seed=oracles.trial_seed(base, trial), t=t)
            for trial in range(DIAGNOSTIC_TRIALS)]


def test_residual_covariance_tracks_se():
    # the empirical residual covariance C = R^T R / n of X^t - X K^t against
    # SE's K^t = Sigma^t, at every t <= 8: its trial mean within Z_TOL stderr
    gaps = [rep.cov_gap for rep in _diagnostic_trials("divergence", base=91)]
    mean, z = oracles.trial_mean_z(gaps)
    assert z.max() <= Z_TOL, (z.ravel(), mean.ravel())


def test_first_iteration_residual_variance():
    # t=1: residual variance ~ Sigma^1 = lam^2 rho
    inst = scalar_instance(1.0, n=4000, seed=95)
    cfg = amp.AMPConfig(max_iter=1, rho=0.3, seed=96)
    _, seen = oracles.run_with_iterates(inst, cfg)
    traj = se.run_se(M1, se.OperatorT(inst.couplings), np.array([[0.3]]), max_iter=10)
    rep = oracles.gaussianity_diagnostic(seen, inst, traj)
    assert abs(traj.s[0][0] - 0.3) < 1e-12  # Sigma^1 = lam^2 rho with lam = 1
    assert rep.cov_distance[0] < 0.05


def test_onsager_ablation_inflates_residuals():
    # with the Onsager term the residuals track SE; without it the trial mean
    # of C - K at t = 5 exceeds 0.2 and four times the corrected one's
    on = [rep.cov_gap for rep in _diagnostic_trials("divergence", base=97)]
    off = [rep.cov_gap for rep in _diagnostic_trials("disabled", base=97)]
    on_mean, on_z = oracles.trial_mean_z(on)
    off_mean, _ = oracles.trial_mean_z(off)
    assert on_z.max() <= Z_TOL, on_z.ravel()
    assert off_mean[4, 0, 0] >= 0.2
    assert off_mean[4, 0, 0] >= 4 * abs(on_mean[4, 0, 0])


def test_battery_predictions_close():
    # each pseudo-Lipschitz test function's empirical mean minus its SE
    # prediction, t <= 6: its trial mean within Z_TOL stderr
    reps = _diagnostic_trials("divergence", base=99, t=6)
    for name in oracles._BATTERY:
        mean, z = oracles.trial_mean_z([rep.battery[name] for rep in reps])
        assert z.max() <= Z_TOL, (name, z.ravel(), mean.ravel())


def test_diagnostic_past_se_convergence():
    # SE from zero converges in one step while AMP runs 4 iterations: the
    # later iterates are compared against the orbit's fixed point
    inst = scalar_instance(1.5, n=300, seed=103)
    _, seen = oracles.run_with_iterates(inst, amp.AMPConfig(max_iter=4, rho=0.0, seed=104))
    traj = se.run_se(M1, se.OperatorT(inst.couplings), np.zeros((1, 1)))
    assert traj.iterations == 1 and len(seen) > 2
    rep = oracles.gaussianity_diagnostic(seen, inst, traj)
    assert rep.cov_distance.shape == (len(seen),)
    assert np.all(np.isfinite(rep.cov_distance))
