from fractions import Fraction

import numpy as np
import pytest

import oracles
from mvamp import limits, model, se

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
        assert se.kl_channel(prior, 0.0) == 0.0


def test_kl_gaussian_closed_form():
    # BG(1) is the standard Gaussian reached through the BG mixture terms
    for prior in [GAUSS, model.ScalarPrior.bernoulli_gaussian(1.0)]:
        for s in [0.1, 1.0, 10.0, 100.0]:
            assert abs(se.kl_channel(prior, s) - 0.5 * (s - np.log1p(s))) < 1e-8
    # at small s, against the exact series D = (1/2) sum_{m>=2} (-s)^m / m
    for s in [1e-6, 1e-5, 1e-4, 1e-3, 1e-2]:
        x = Fraction(s)
        exact = float(sum((-x) ** m / m for m in range(2, 12)) / 2)
        assert abs(se.kl_channel(GAUSS, s) - exact) <= 1e-9 * exact, s


def test_kl_rademacher_against_monte_carlo():
    # independent estimator E[log(p_s/phi)]; agreement within 5 MC standard errors
    s = 1.0
    v = se.kl_channel(RAD, s)
    n = 10**7
    mc = oracles.kl_channel_monte_carlo(RAD, s, n, seed=21)
    rng = model.rng_from(22)
    x = RAD.sample(rng, 200_000)
    y = np.sqrt(s) * x + rng.standard_normal(200_000)
    per = np.log(0.5) + np.logaddexp(np.sqrt(s) * y, -np.sqrt(s) * y) - s / 2
    band = 5 * per.std() / np.sqrt(n)
    assert abs(v - mc) < band


def test_kl_nonnegative_increasing_convex():
    grid = np.linspace(0.0, 8.0, 33)
    for prior in [RAD, GAUSS, BG01, BG05]:
        vals = np.array([se.kl_channel(prior, s) for s in grid])
        assert np.all(vals >= 0)
        assert np.all(np.diff(vals) >= -1e-12)
        second = np.diff(vals, 2)
        assert np.all(second >= -1e-9), prior.name


def test_kl_rejects_negative_snr():
    with pytest.raises(se.DomainError):
        se.kl_channel(RAD, -1.0)


# ---------------------------------------------------------------------------
# I-MMSE consistency
# ---------------------------------------------------------------------------

def test_immse_gaussian_exact():
    # dD/ds = s/(1+s)/2 for the Gaussian channel
    for s in [0.3, 2.0]:
        h = 1e-4
        fd = (se.kl_channel(GAUSS, s + h) - se.kl_channel(GAUSS, s - h)) / (2 * h)
        assert abs(fd - 0.5 * s / (1 + s)) < 1e-8


def test_immse_rademacher_grid():
    assert oracles.immse_consistency(RAD, [0.25, 1.0, 4.0]) < 1e-5


def test_immse_bg_grid():
    assert oracles.immse_consistency(BG01, [0.5, 2.0]) < 1e-4


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
    H = op.couplings.hadamard_square_sum()
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
    H = op.couplings.hadamard_square_sum()
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
    # an indefinite Lambda**2 is scanned by the same sup-inf formula
    H = np.array([[1.0, 1.4], [1.4, 1.0]])  # eigenvalues 2.4, -0.4
    res = limits.variational_solve(_overlap([RAD, RAD], [0.5, 0.5]), H, grid_res=60)
    assert np.all(res.q_star >= 0) and np.all(res.q_star <= 0.5 + 1e-12)
    assert np.isfinite(res.objective)
    # a BG block's psi stays far below 1 up to the end of its node table
    bg = model.ScalarPrior.bernoulli_gaussian(0.5)
    res = limits.variational_solve(_overlap([RAD, bg], [0.5, 0.5]), H, grid_res=20)
    assert np.all(res.q_star >= 0) and np.all(res.q_star <= 0.5 + 1e-12)
    assert np.isfinite(res.objective)


def test_variational_rejects_negative_H_and_coarse_grid():
    with pytest.raises(se.DomainError):
        limits.variational_solve(_overlap([RAD, RAD], [0.5, 0.5]),
                                 np.array([[1.0, -0.1], [-0.1, 1.0]]))
    for grid_res in (0, 1):
        with pytest.raises(se.DomainError):
            limits.variational_solve(_overlap([GAUSS], [1.0]), np.array([[4.0]]), grid_res=grid_res)
    assert limits.variational_solve(_overlap([GAUSS], [1.0]), np.array([[4.0]]),
                                    grid_res=2).grid_res == 2


def _sup_inf_objective(q, m, H):
    """F(q) = (1/4) q^T H q + sum_j inf_s beta_j D_j(s) - s q_j / 2, each inf
    found by a root solve of beta_j psi_j(s) = q_j (the inf's stationarity)."""
    from scipy.optimize import brentq

    total = 0.25 * float(q @ H @ q)
    for prior, b, qj in zip(m.profile.priors, m.beta, q):
        if qj > 0:
            s = brentq(lambda s: b * se.overlap_psi_scalar(prior, s, m.quad_order) - qj,
                       0.0, 1e3, xtol=1e-14, rtol=4 * np.finfo(float).eps)
            total += b * se.kl_channel(prior, s) - 0.5 * s * qj
    return total


@pytest.mark.parametrize("H", [
    1.6 / T1_NORM * XI,                          # PSD
    np.array([[0.0, 1.9], [1.9, 0.0]]),          # bipartite, eigenvalues +-1.9
], ids=["psd", "non-psd"])
def test_sup_inf_equals_psd_objective_at_fixed_points(H):
    m = _overlap([RAD, BG05], BETA)
    res = limits.variational_solve(m, H, grid_res=200)
    assert res.q_star.max() > 0.1
    for q, objective in res.candidates:
        assert np.abs(q - m.psi_vector(H @ q)).max() < 1e-10
        assert objective == limits._exact_objective(q, m, H)
        assert abs(_sup_inf_objective(q, m, H) - objective) < 1e-9


def test_kl_table_nodes_against_a_root_solve():
    # the node values are those of the inf over s, found here by a root solve:
    # q_i = beta psi(s_i) and g_i = beta D(s_i) - s_i q_i / 2
    from scipy.optimize import brentq

    b = 0.4
    for prior in (RAD, BG05, GAUSS):
        table = limits.KLTable(prior, 9.0, n_nodes=40, quad_order=61)
        assert table.nodes[0] == 0.0 and table.nodes[-1] == 9.0
        assert np.all(np.diff(table.psi) > 0)
        q = b * table.psi
        g = b * table.kl - 0.5 * table.nodes * q
        for s_i, q_i, g_i in list(zip(table.nodes, q, g))[1::6]:
            assert q_i == b * se.overlap_psi_scalar(prior, s_i, 61)
            s = brentq(lambda s: b * se.overlap_psi_scalar(prior, s, 61) - q_i, 0.0, 20.0,
                       xtol=1e-14, rtol=4 * np.finfo(float).eps)
            assert abs(s - s_i) <= 1e-9 * max(1.0, s_i)
            assert abs(b * se.kl_channel(prior, s) - 0.5 * s * q_i - g_i) < 1e-12
            # the inf: no other s does better
            for s_other in (0.5 * s_i, 2.0 * s_i):
                assert b * se.kl_channel(prior, s_other) - 0.5 * s_other * q_i > g_i


def test_variational_three_blocks():
    m = _overlap([RAD, BG05, GAUSS], [0.5, 0.3, 0.2])
    xi = np.array([[1.0, 0.3, 0.2], [0.3, 1.0, 0.3], [0.2, 0.3, 1.0]])
    for c, positive in ((0.5, False), (4.0, True)):
        H = c * xi
        res = limits.variational_solve(m, H, grid_res=60)
        assert (res.d, res.grid_res) == (3, 60)
        assert bool(res.q_star.max() > 1e-6) == positive
        assert np.all(res.q_star >= 0) and np.all(res.q_star <= m.beta)
        assert np.abs(res.q_star - m.psi_vector(H @ res.q_star)).max() < 1e-10


def test_csbm_shaped_H_solves_to_a_fixed_point():
    # a graph view on block 1 and a feature view coupling blocks 1 and 2:
    # H = [[a^2, b^2], [b^2, 0]] has determinant -b^4 < 0
    m = _overlap([RAD, GAUSS], [0.5, 0.5])
    H = np.array([[1.2**2, 1.5**2], [1.5**2, 0.0]])
    res = limits.variational_solve(m, H)
    assert np.all(res.q_star > 0.1)
    assert np.abs(res.q_star - m.psi_vector(H @ res.q_star)).max() < 1e-10
    assert res.objective == limits._exact_objective(res.q_star, m, H)


def test_result_carries_the_sweeps_residual():
    # limits_sweep checks the residual refine_fixed_point computed, the bits
    # of recomputing |q* - beta psi(H q*)|
    m = _overlap([RAD, BG05], BETA)
    for c in (0.5 / T1_NORM, 2.0 / T1_NORM):
        H = model.CouplingSet.heteroskedastic(np.sqrt(c * XI)).hadamard_square_sum()
        res = limits.variational_solve(m, H, grid_res=100)
        assert res.residual == float(np.abs(res.q_star - m.psi_vector(H @ res.q_star)).max())


def test_kl_tables_must_hold_the_grid():
    m = _overlap([GAUSS], [1.0])
    H = np.array([[4.0]])
    for table in (limits.KLTable(GAUSS, 5.0, n_nodes=50), limits.KLTable(GAUSS, 3.0, n_nodes=400)):
        with pytest.raises(se.DomainError):
            limits.variational_solve(m, H, kl_tables=[table])


def _broadcast_objective(qs, gs, H):
    # the grid objective before the diagonal was folded into the axes: the
    # sum of the g's, then one broadcast product per entry of H
    Q = np.ix_(*qs)
    vals = sum(np.ix_(*gs))
    for j, k in np.ndindex(H.shape):
        vals += 0.25 * H[j, k] * Q[j] * Q[k]
    return vals


@pytest.mark.parametrize("d, n", [(2, 400), (3, 40)])
def test_node_objective_matches_the_broadcast_form(d, n):
    rng = np.random.default_rng(d)
    qs = [np.sort(rng.uniform(0.0, 0.6, n + j)) for j in range(d)]
    gs = [rng.uniform(-0.5, 0.5, n + j) for j in range(d)]
    a = rng.uniform(0.0, 2.0, (d, d))
    for H in (a @ a.T, a + a.T - np.diag(np.diag(a + a.T)), a):  # PSD, indefinite, non-symmetric
        got = limits._node_objective(qs, gs, H)
        want = _broadcast_objective(qs, gs, H)
        assert got.shape == want.shape == tuple(n + j for j in range(d))
        assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()


def test_default_sweep_scans_the_same_near_max_cells(monkeypatch):
    # on the CLI's default 4-eps x 52-point sweep, every solve's grid cells
    # within 1e-10 of the grid max (and so its representatives and
    # near_degenerate) are those of the broadcast form
    from mvamp.cli import SweepSection

    sw = SweepSection()
    inner = limits._node_objective
    checked = []

    def both(qs, gs, H):
        got, want = inner(qs, gs, H), _broadcast_objective(qs, gs, H)
        near = [np.argwhere(v >= v.max() - 1e-10) for v in (got, want)]
        checked.append(np.array_equal(*near))
        return got

    monkeypatch.setattr(limits, "_node_objective", both)
    for eps in sw.eps:
        m = _overlap([RAD, model.ScalarPrior.bernoulli_gaussian(eps)], sw.beta)
        limits.limits_sweep(m, sw.xi, sw.target_norms, grid_res=sw.grid_res)
    assert len(checked) == len(sw.eps) * len(sw.target_norms) and all(checked)


def test_shared_tables_are_read_only():
    # one table serves every sweep that reads its prior and range, so its
    # arrays refuse writes
    table = limits._shared_table(RAD, 4.0, 40, 61)
    assert limits._shared_table(RAD, 4.0, 40, 61) is table
    for a in (table.nodes, table.psi, table.kl):
        with pytest.raises(ValueError):
            a[0] = 1.0
