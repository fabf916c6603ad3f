import numpy as np
import pytest

from mvamp import cli, denoise, limits, model, se

RAD = model.ScalarPrior.rademacher()
GAUSS = model.ScalarPrior.gaussian_unit()
BG01 = model.ScalarPrior.bernoulli_gaussian(0.1)
BG05 = model.ScalarPrior.bernoulli_gaussian(0.05)
XI = np.array([[0.7, 0.3], [0.3, 0.7]])
BETA = [0.6, 0.4]
T1_NORM = float(np.linalg.norm(np.diag(BETA) @ XI, 2))


def _overlap(priors, beta):
    return se.OverlapModel(model.BlockPriorProfile(tuple(priors), tuple(beta)))


# ---------------------------------------------------------------------------
# channel KL divergence
# ---------------------------------------------------------------------------

def test_kl_zero_snr_is_zero():
    for prior in [RAD, GAUSS, BG01]:
        assert limits.kl_channel(prior, 0.0) == 0.0


def test_kl_gaussian_closed_form():
    # BG(1) is the standard Gaussian reached through the BG mixture terms
    for prior in [GAUSS, model.ScalarPrior.bernoulli_gaussian(1.0)]:
        for s in [0.1, 1.0, 10.0, 100.0]:
            assert abs(limits.kl_channel(prior, s) - 0.5 * (s - np.log1p(s))) < 1e-8


def test_kl_rademacher_against_monte_carlo():
    # independent estimator E[log(p_s/phi)]; agreement within 5 MC standard errors
    s = 1.0
    v = limits.kl_channel(RAD, s)
    n = 10**7
    mc = limits.kl_channel_monte_carlo(RAD, s, n, seed=21)
    rng = model.rng_from(22)
    x = RAD.sample(rng, 200_000)
    y = np.sqrt(s) * x + rng.standard_normal(200_000)
    per = np.log(0.5) + np.logaddexp(np.sqrt(s) * y, -np.sqrt(s) * y) - s / 2
    band = 5 * per.std() / np.sqrt(n)
    assert abs(v - mc) < band


def test_kl_nonnegative_increasing_convex():
    grid = np.linspace(0.0, 8.0, 33)
    for prior in [RAD, GAUSS, BG01, BG05]:
        vals = np.array([limits.kl_channel(prior, s) for s in grid])
        assert np.all(vals >= 0)
        assert np.all(np.diff(vals) >= -1e-12)
        second = np.diff(vals, 2)
        assert np.all(second >= -1e-9), prior.name


def test_kl_rejects_negative_snr():
    with pytest.raises(denoise.DomainError):
        limits.kl_channel(RAD, -1.0)


# ---------------------------------------------------------------------------
# I-MMSE consistency
# ---------------------------------------------------------------------------

def test_immse_gaussian_exact():
    # dD/ds = s/(1+s)/2 for the Gaussian channel
    for s in [0.3, 2.0]:
        h = 1e-4
        fd = (limits.kl_channel(GAUSS, s + h) - limits.kl_channel(GAUSS, s - h)) / (2 * h)
        assert abs(fd - 0.5 * s / (1 + s)) < 1e-8


def test_immse_rademacher_grid():
    assert limits.immse_consistency(RAD, [0.25, 1.0, 4.0]) < 1e-5


def test_immse_bg_grid():
    assert limits.immse_consistency(BG01, [0.5, 2.0]) < 1e-4


# ---------------------------------------------------------------------------
# variational solver
# ---------------------------------------------------------------------------

def test_variational_no_observation():
    res = limits.variational_solve(_overlap([GAUSS], [1.0]), np.array([[0.0]]))
    assert np.allclose(res.q_star, 0.0)
    assert np.allclose(res.mmse_bounds, 1.0)


def test_variational_gaussian_closed_form():
    # d=1, lambda^2 = 4, beta = 1: unique interior maximizer q* = 1 - 1/4
    res = limits.variational_solve(_overlap([GAUSS], [1.0]), np.array([[4.0]]))
    assert abs(res.q_star[0] - 0.75) < 1e-8
    assert abs(res.mmse_bounds[0] - 0.25) < 1e-8
    m = se.OverlapModel(model.BlockPriorProfile((GAUSS,), (1.0,)))
    op = se.OperatorT(model.CouplingSet.heteroskedastic(np.array([[2.0]])))
    H = op.hadamard_matrix
    for q, _ in res.candidates:
        assert np.abs(q - m.psi_vector(H @ q)).max() < 1e-8


def test_variational_54_jump_discontinuity():
    # eps = 0.05: the maximizer jumps at some c with ||T_c|| < 1
    targets = np.linspace(0.4, 1.0, 13)
    rows = limits.limits_sweep(_overlap([RAD, BG05], BETA), XI, targets, grid_res=200)
    q2 = np.array([r.q_star[1] for r in rows])
    norms = np.array([r.norm_Tc for r in rows])
    jumps = np.where(np.diff(q2) > 0.1)[0]
    assert len(jumps) == 1
    assert norms[jumps[0] + 1] < 1.0
    flags = [r.branch_flag for r in rows]
    assert "transition" in flags


def test_variational_54_past_threshold_residuals():
    m = _overlap([RAD, BG05], BETA)
    c = 2.0 / T1_NORM
    res = limits.variational_solve(m, c * XI, grid_res=200)
    op = se.OperatorT(model.CouplingSet.heteroskedastic(np.sqrt(c * XI)))
    H = op.hadamard_matrix
    for q, _ in res.candidates:
        assert np.abs(q - m.psi_vector(H @ q)).max() < 1e-6


def test_bound_dominated_by_gaussian_mmse():
    # least-favorability: each block bound <= 1/(1 + s_j*) at the fixed point
    c = 2.0 / T1_NORM
    res = limits.variational_solve(_overlap([RAD, BG05], BETA), c * XI, grid_res=150)
    s_star = c * XI @ res.q_star
    assert np.all(res.mmse_bounds <= 1.0 / (1.0 + s_star) + 1e-8)


def test_sweep_monotone_in_c():
    targets = [0.5, 0.8, 1.1, 1.5, 2.0, 3.0]
    for eps, prior in [(0.5, model.ScalarPrior.bernoulli_gaussian(0.5)), (0.05, BG05)]:
        rows = limits.limits_sweep(_overlap([RAD, prior], BETA), XI, targets, grid_res=150)
        q = np.array([r.q_star for r in rows])
        assert np.all(np.diff(q, axis=0) >= -1e-7), eps


def test_variational_non_psd_fallback():
    # an indefinite Lambda**2 exercises the separable inner-inf path
    H = np.array([[1.0, 1.4], [1.4, 1.0]])  # eigenvalues 2.4, -0.4
    res = limits.variational_solve(_overlap([RAD, RAD], [0.5, 0.5]), H, grid_res=60)
    assert np.all(res.q_star >= 0) and np.all(res.q_star <= 0.5 + 1e-12)
    assert np.isfinite(res.objective)
    # a BG block's psi stays below the target up to the bracket cap on the face
    # q_2 = beta_2 of the grid, where the inner inf lies at the cap
    bg = model.ScalarPrior.bernoulli_gaussian(0.5)
    res = limits.variational_solve(_overlap([RAD, bg], [0.5, 0.5]), H, grid_res=20)
    assert np.all(res.q_star >= 0) and np.all(res.q_star <= 0.5 + 1e-12)
    assert np.isfinite(res.objective)


def test_inner_inf_grid_objective_is_bitwise_pointwise():
    H = np.array([[1.0, 1.4], [1.4, 1.0]])
    m = _overlap([RAD, model.ScalarPrior.bernoulli_gaussian(0.5)], [0.6, 0.4])
    axes = [np.linspace(0.0, b, 60) for b in m.beta]
    Q = limits._grid_points(axes, np.arange(60**2))
    vals = limits._inner_inf_grid_objective(Q, axes, m, H)
    pointwise = np.array([limits._inner_inf_objective(q, m, H) for q in Q.T])
    assert np.array_equal(vals, pointwise)


def test_non_psd_sweep_builds_no_kl_table(monkeypatch):
    # no solve of a non-PSD xi reads the spline tables
    monkeypatch.delattr(limits, "KLTable")
    rows = limits.limits_sweep(_overlap([RAD, BG05], BETA), np.array([[0.0, 1.0], [1.0, 0.0]]),
                               [0.8, 1.5], grid_res=20)
    assert len(rows) == 2


def test_variational_rejects_negative_H_and_coarse_grid():
    with pytest.raises(denoise.DomainError):
        limits.variational_solve(_overlap([RAD, RAD], [0.5, 0.5]),
                                 np.array([[1.0, -0.1], [-0.1, 1.0]]))
    for grid_res in (0, 1):
        with pytest.raises(denoise.DomainError):
            limits.variational_solve(_overlap([GAUSS], [1.0]), np.array([[4.0]]), grid_res=grid_res)
    assert limits.variational_solve(_overlap([GAUSS], [1.0]), np.array([[4.0]]),
                                    grid_res=2).grid_res == 2


def test_kl_table_envelope_bounds_the_spline():
    # the envelope at s is >= the spline at every s' <= s, on the tables of the
    # default sweep and on the s_max = 1e-6 table of a zero H, where the
    # spline itself dips
    cfg = cli.resolve_config({"sweep": {}})
    beta = np.asarray(cfg.sweep.beta)
    c_max = max(cfg.sweep.target_norms) / np.linalg.norm(np.diag(beta) @ cfg.sweep.xi, 2)
    s_cap = float((c_max * cfg.sweep.xi @ beta).max()) * 1.001
    dips = False
    for eps in cfg.sweep.eps:
        for prior in cli._eps_priors(eps):
            for s_max in (s_cap, 1e-6):
                table = limits.KLTable(prior, s_max)
                s = np.union1d(np.linspace(0.0, s_max, 100_001), table.nodes)
                spline = table(s)
                dips |= bool(np.any(np.diff(spline) < 0))
                assert np.all(table.envelope(s) >= np.maximum.accumulate(spline))
                assert np.all(np.diff(table.envelope(s)) >= 0)
    assert dips


def test_kl_table_accuracy():
    table = limits.KLTable(RAD, 8.0, n_nodes=400)
    for s in [0.123, 1.7, 5.5]:
        assert abs(table(s) - limits.kl_channel(RAD, s)) < 1e-8
    with pytest.raises(denoise.DomainError):
        table(9.0)


# ---------------------------------------------------------------------------
# pruned grid scan against a dense scan
# ---------------------------------------------------------------------------

def _dense_scan(beta, H, per_axis, tables):
    """Every point of the grid and its spline objective, as (Q, vals)."""
    axes = [np.linspace(0.0, b, per_axis) for b in beta]
    mesh = np.meshgrid(*axes, indexing="ij")
    Q = np.stack([m.ravel() for m in mesh], axis=0)
    S = H @ Q
    vals = -0.25 * np.einsum("ik,ij,jk->k", Q, H, Q)
    for j in range(len(beta)):
        vals = vals + beta[j] * tables[j](S[j])
    return Q, vals


def _check_against_dense(monkeypatch):
    """Checks every pruned scan against the dense scan of the same grid: the
    same grid max bits, the same sorted near set and equal values on every
    point it evaluates. Returns the list of (evaluated, grid) point counts."""
    counts = []
    pruned_points = limits._pruned_points

    def checked(axes, H, beta, tables):
        flat = pruned_points(axes, H, beta, tables)
        Q, dense = _dense_scan(beta, H, axes[0].size, tables)
        points = limits._grid_points(axes, flat)
        vals = limits._spline_objective(points, H, beta, tables)
        assert np.array_equal(points, Q[:, flat])
        assert np.array_equal(vals, dense[flat])
        assert vals.max() == dense.max()
        near = flat[vals >= vals.max() - 1e-10]
        assert np.array_equal(near, np.flatnonzero(dense >= dense.max() - 1e-10))
        counts.append((flat.size, dense.size))
        return flat

    monkeypatch.setattr(limits, "_pruned_points", checked)
    return counts


def test_pruned_scan_matches_dense_on_default_sweep(monkeypatch):
    counts = _check_against_dense(monkeypatch)
    cfg = cli.resolve_config({"sweep": {}})
    for eps in cfg.sweep.eps:
        limits.limits_sweep(cli._eps_model(cfg, eps), cfg.sweep.xi, cfg.sweep.target_norms,
                            grid_res=cfg.sweep.grid_res)
    assert len(counts) == 4 * 52
    evaluated, grid = np.sum(counts, axis=0)
    assert grid == 4 * 52 * 400**2 and evaluated < 0.5 * grid


def test_pruned_scan_matches_dense_in_three_blocks(monkeypatch):
    counts = _check_against_dense(monkeypatch)
    m = _overlap([RAD, BG05, GAUSS], [0.5, 0.3, 0.2])
    xi = np.array([[1.0, 0.3, 0.2], [0.3, 1.0, 0.3], [0.2, 0.3, 1.0]])
    for c in (0.5, 4.0):
        limits.variational_solve(m, c * xi, grid_res=60)
    assert [grid for _, grid in counts] == [60**3] * 2
    assert counts[1][0] < counts[1][1]


def test_pruned_scan_matches_dense_at_a_grid_tie(monkeypatch):
    # the sweep of test_variational_54_jump_discontinuity, then the c between
    # its targets 0.6 and 0.65 where the grid max of the upper branch meets
    # the value 0 at q = 0: two separated cells are both near-maximal
    counts = _check_against_dense(monkeypatch)
    m = _overlap([RAD, BG05], BETA)
    limits.limits_sweep(m, XI, np.linspace(0.4, 1.0, 13), grid_res=200)
    assert len(counts) == 13
    tables = [limits.KLTable(p, 1.0 / T1_NORM * float((XI @ BETA).max()) * 1.001)
              for p in (RAD, BG05)]
    cell = m.beta / 199
    lo, hi = 0.6 / T1_NORM, 0.65 / T1_NORM
    for _ in range(80):
        c = 0.5 * (lo + hi)
        Q, vals = _dense_scan(m.beta, c * XI, 200, tables)
        upper = vals[(Q / cell[:, None]).max(axis=0) > 2.0].max()
        if abs(upper) <= 1e-10:
            break
        lo, hi = (c, hi) if upper < 0 else (lo, c)
    assert abs(upper) <= 1e-10
    res = limits.variational_solve(m, c * XI, grid_res=200, kl_tables=tables)
    assert res.near_degenerate
    assert len(counts) == 14
