import numpy as np
import pytest

import oracles
from mvamp import model, se

RAD = model.ScalarPrior.rademacher()
GAUSS = model.ScalarPrior.gaussian_unit()
BG05 = model.ScalarPrior.bernoulli_gaussian(0.05)
BG5 = model.ScalarPrior.bernoulli_gaussian(0.5)
PRIORS = [RAD, GAUSS, BG05, BG5]


def gh_expect(f, order=161):
    x, w = np.polynomial.hermite_e.hermegauss(order)
    return float(np.dot(w, f(x))) / np.sqrt(2 * np.pi)


# ---------------------------------------------------------------------------
# overlap function
# ---------------------------------------------------------------------------

def test_gaussian_overlap_closed_form():
    # BG(1) is the standard Gaussian reached through the BG mixture terms
    for prior in [GAUSS, model.ScalarPrior.bernoulli_gaussian(1.0)]:
        for s in [0.1, 1.0, 10.0, 100.0]:
            assert abs(se.overlap_psi_scalar(prior, s) - s / (1 + s)) < 1e-10


def test_overlap_zero_snr_and_range():
    for prior in PRIORS:
        assert se.overlap_psi_scalar(prior, 0.0) == 0.0
        for s in [0.2, 1.0, 5.0, 40.0]:
            v = se.overlap_psi_scalar(prior, s)
            assert 0.0 <= v <= 1.0


def test_overlap_monotone_in_snr():
    grid = np.linspace(0.0, 30.0, 40)
    for prior in PRIORS:
        vals = [se.overlap_psi_scalar(prior, s) for s in grid]
        assert np.all(np.diff(vals) >= -1e-12)


def test_rademacher_high_snr_saturates():
    assert se.overlap_psi_scalar(RAD, 25.0) >= 0.99


def test_unit_slope_at_zero():
    # psi'(0) = 1 for every unit-second-moment prior
    for prior in PRIORS:
        slope = se.overlap_psi_scalar(prior, 1e-4) / 1e-4
        assert abs(slope - 1.0) < 1e-3, prior.name


def test_quadrature_doubling_converged():
    # doubling the order changes psi by < 1e-9 across s in [0, 100]
    for prior in PRIORS:
        for s in [0.01, 0.5, 3.0, 20.0, 100.0]:
            a, b = se._psi_once(prior, s, 61)
            assert abs(a - b) < 1e-9, (prior.name, s)


def _loop_panel_sum(f, breaks, order):
    # reference: one integrand call and one dot product per panel, summed in order
    x, w = np.polynomial.legendre.leggauss(order)
    total = 0.0
    for a, b in zip(breaks[:-1], breaks[1:]):
        mid, half = (a + b) / 2.0, (b - a) / 2.0
        total += half * float(np.dot(w, f(mid + half * x)))
    return total


def _loop_pair(f, breaks, order):
    return _loop_panel_sum(f, breaks, order), _loop_panel_sum(f, breaks, 2 * order)


def test_paired_rule_keeps_the_bits(monkeypatch):
    # one call over every panel at both orders gives exactly the per-panel,
    # per-order loop's values
    grid = np.geomspace(1e-4, 80.0, 40)
    bg01, bg1 = model.ScalarPrior.bernoulli_gaussian(0.1), model.ScalarPrior.bernoulli_gaussian(1.0)
    cases = [(se._psi_once, p, 61) for p in (RAD, BG05, bg01, bg1)]
    cases += [(se._dpsi_once, p, 61) for p in (RAD, BG05, bg1)]
    cases += [(se._kl_once, p, 80) for p in (RAD, bg01)]
    paired = [[fn(p, s, order) for s in grid] for fn, p, order in cases]
    with monkeypatch.context() as m:
        m.setattr(se, "_panel_sum", _loop_pair)
        looped = [[fn(p, s, order) for s in grid] for fn, p, order in cases]
    for (fn, p, _), got, want in zip(cases, paired, looped):
        for s, g, w in zip(grid, got, want):
            assert g[0] == w[0] and g[1] == w[1], (fn.__name__, p.name, s, g, w)


# psi' three ways, on the priors and SNRs state evolution and the bound read
DPSI_PRIORS = [RAD, BG05, BG5, model.ScalarPrior.bernoulli_gaussian(1.0), GAUSS]
DPSI_GRID = np.geomspace(1e-4, 30.0, 25)


def test_psi_derivative_matches_differences_of_psi():
    # five-point central differences of psi with step 1e-3 s; on this grid
    # their truncation error plus psi's rounding over the step stays below
    # 1.4e-12
    for prior in DPSI_PRIORS:
        for s in DPSI_GRID:
            psi = lambda x: se.overlap_psi_scalar(prior, x)  # noqa: E731
            h = 1e-3 * s
            fd = (8.0 * (psi(s + h) - psi(s - h)) - (psi(s + 2 * h) - psi(s - 2 * h))) / (12.0 * h)
            dpsi = se.overlap_psi_derivative_scalar(prior, s)
            assert abs(dpsi - fd) <= 1e-8 * dpsi + 1e-11, (prior.name, s, dpsi, fd)


def test_psi_derivative_matches_an_independent_quadrature():
    # E[Var(X | y)^2] by QUADPACK over the closed-form posterior variance,
    # which shares no code with the panel kernel
    for prior in DPSI_PRIORS:
        for s in DPSI_GRID:
            dpsi = se.overlap_psi_derivative_scalar(prior, s)
            oracle = oracles.psi_derivative_quad(prior, s)
            assert abs(dpsi - oracle) <= 1e-10 * oracle, (prior.name, s, dpsi, oracle)


def test_psi_derivative_of_bg1_is_the_gaussian_one():
    # BG(1) is the standard Gaussian reached through the BG quadrature, and
    # every unit-variance prior has psi'(0) = Var(X)^2 = 1
    bg1 = model.ScalarPrior.bernoulli_gaussian(1.0)
    for s in np.concatenate([[0.0], DPSI_GRID]):
        assert abs(se.overlap_psi_derivative_scalar(bg1, s) - (1.0 + s) ** -2) <= 1e-12 * (1.0 + s) ** -2
    for prior in DPSI_PRIORS:
        assert abs(se.overlap_psi_derivative_scalar(prior, 0.0) - 1.0) < 1e-12, prior.name


def test_psi_derivative_error_paths(monkeypatch):
    # psi' has psi's doubling check; at a huge s the BG and Gaussian psi'
    # underflow to about 0 (where the BG psi overflows into a DomainError),
    # and the Rademacher panels collapse (below)
    with pytest.raises(se.DomainError, match=f"overlap of {BG5.name} overflows at s=1e"):
        se.overlap_psi_scalar(BG5, 1e300)
    for prior in (BG5, GAUSS):
        assert 0.0 <= se.overlap_psi_derivative_scalar(prior, 1e300) < 1e-290
    monkeypatch.setattr(se, "_dpsi_once", lambda prior, s, order: (0.5, 0.5 + 1e-7))
    with pytest.raises(se.PrecisionError, match=f"derivative quadrature not converged for {BG05.name} at s=2.0:"):
        se.overlap_psi_derivative_scalar(BG05, 2.0)


def test_rademacher_panels_collapse_into_a_domain_error():
    # past s ~ 2e34, sqrt(s) +- 10 rounds to sqrt(s): the panels collapse and
    # the quadrature would read 0 (psi and psi' near 1 and 0, D near s/2)
    for s in (1e36, 1e38, 1e300):
        for kernel in (se.overlap_psi_scalar, se.overlap_psi_derivative_scalar, se.kl_channel):
            with pytest.raises(se.DomainError, match=f"{RAD.name} collapse at s="):
                kernel(RAD, s)


def _log_term_psi_bg(s, eps, order):
    # the BG psi before the responsibility was read as 1 / (1 + exp(c - b y^2)):
    # the logistic of the two log mixture terms, at every node
    sig = np.sqrt(1.0 + s / eps)

    def integrand(y):
        return np.square(y) * se._bg_responsibility(y, s, eps) * np.exp(np.square(y / sig) * -0.5)

    v1, v2 = se._panel_sum(integrand, se._bg_breaks(s, eps), order)
    scale = eps * (s / (eps + s) ** 2) * 2.0 / (sig * np.sqrt(2.0 * np.pi))
    return v1 * scale, v2 * scale


def test_lean_bg_psi_matches_the_log_term_form():
    for eps in (0.05, 0.5, 1.0):
        for s in np.logspace(-6, 4, 81):
            got = se._psi_bg(s, eps, 61)
            want = _log_term_psi_bg(s, eps, 61)
            for g, w in zip(got, want):
                assert abs(g - w) <= 1e-15 * abs(w), (eps, s, g, w)


def test_one_integrand_call_per_overlap(monkeypatch):
    # a BG overlap evaluates its integrand (and with it the responsibility)
    # once for both orders and every panel
    calls = []
    inner = se._bg_inverse_responsibility

    def counted(y2, c, b):
        calls.append(np.shape(y2))
        return inner(y2, c, b)

    monkeypatch.setattr(se, "_bg_inverse_responsibility", counted)
    s = 2.0
    se.overlap_psi_scalar(BG05, s, 61)
    panels = len(se._bg_breaks(s, BG05.eps)) - 1
    assert calls == [(panels, 3 * 61)]


def test_cached_rules_are_read_only():
    # the cached nodes and weights are shared by every caller, so they refuse writes
    for a in se._paired_rule(61):
        with pytest.raises(ValueError):
            a[0] = 1.0


def test_non_finite_snr_rejected(monkeypatch):
    # psi, its finite difference and D raise on a NaN or infinite SNR, and a
    # quadrature value that is not finite fails the doubling check, which
    # names the prior and the SNR
    for s in (float("nan"), float("inf")):
        for kernel in (se.overlap_psi_scalar, se.overlap_psi_derivative_scalar, se.kl_channel):
            with pytest.raises(se.DomainError, match="finite"):
                kernel(RAD, s)
    nan_pair = lambda prior, s, order: (float("nan"), float("nan"))  # noqa: E731
    monkeypatch.setattr(se, "_psi_once", nan_pair)
    monkeypatch.setattr(se, "_kl_once", nan_pair)
    with pytest.raises(se.PrecisionError, match=f"for {RAD.name} at s=1.0:"):
        se.overlap_psi_scalar(RAD, 1.0)
    with pytest.raises(se.PrecisionError, match=f"for {RAD.name} at s=1.0:"):
        se.kl_channel(RAD, 1.0)


def test_overlap_matches_monte_carlo():
    for prior, s in [(RAD, 1.0), (BG5, 2.0), (BG05, 4.0)]:
        v = se.overlap_psi_scalar(prior, s)
        n = 10**6
        mc = oracles.overlap_psi_monte_carlo(prior, s, n, seed=7)
        # crude s.e. of the MC overlap estimate
        rng = model.rng_from(8)
        x = prior.sample(rng, 200_000)
        y = np.sqrt(s) * x + rng.standard_normal(200_000)
        eta2 = se.posterior_mean_scalar(prior, s, y)[0] ** 2
        band = 5 * eta2.std() / np.sqrt(n)
        assert abs(v - mc) < band + 1e-4, (prior.name, s, v, mc)


def test_negative_snr_rejected():
    with pytest.raises(se.DomainError):
        se.overlap_psi_scalar(RAD, -0.5)


def test_translation_rule_scalar_offset():
    # shifted prior X + mu: overlap = psi(s) + mu^2 (the Omega offset identity);
    # oracle computed by direct quadrature over the centered channel
    mu = 0.7
    for prior, s in [(RAD, 1.3), (GAUSS, 2.0)]:
        psi = se.overlap_psi_scalar(prior, s)
        rs = np.sqrt(s)
        if prior.kind == "rademacher":
            shifted = 0.5 * sum(
                gh_expect(
                    lambda z, x=x: (mu + np.tanh(rs * (rs * x + z))) ** 2
                )
                for x in (-1.0, 1.0)
            )
        else:
            c = rs / (1 + s)
            shifted = gh_expect(lambda u: (mu + c * np.sqrt(1 + s) * u) ** 2)
        assert abs(shifted - (psi + mu * mu)) < 1e-8


def test_gaussian_prior_least_favorable():
    # psi_prior(s) >= s/(1+s) - 1e-8 on a grid (MMSE <= Gaussian MMSE)
    for prior in PRIORS:
        for s in [0.1, 0.5, 1.0, 2.0, 5.0, 20.0]:
            assert se.overlap_psi_scalar(prior, s) >= s / (1 + s) - 1e-8


# ---------------------------------------------------------------------------
# coupling operator
# ---------------------------------------------------------------------------

def test_apply_T_permutation_and_identity():
    op = se.OperatorT(model.CouplingSet((np.array([[0.0, 1.0], [1.0, 0.0]]),)))
    assert np.allclose(op.apply(np.eye(2)), np.eye(2))
    op_id = se.OperatorT(model.CouplingSet((np.eye(3),)))
    Q = np.diag([1.0, 2.0, 3.0])
    assert np.allclose(op_id.apply(Q), Q)


def test_apply_T_preserves_psd():
    rng = np.random.default_rng(0)
    for _ in range(100):
        d = rng.integers(2, 4)
        mats = []
        for _ in range(rng.integers(1, 4)):
            a = rng.standard_normal((d, d))
            mats.append((a + a.T) / 2)
        op = se.OperatorT(model.CouplingSet(tuple(mats)))
        b = rng.standard_normal((d, d))
        Q = b @ b.T
        out = op.apply(Q)
        assert np.linalg.eigvalsh(out).min() >= -1e-10 * max(1.0, np.abs(out).max())


def test_apply_T_rejects_bad_input():
    op = se.OperatorT(model.CouplingSet((np.eye(2),)))
    with pytest.raises(se.DomainError):
        op.apply(np.eye(3))
    with pytest.raises(se.DomainError):
        op.apply(np.array([[0.0, 1.0], [0.0, 0.0]]))
    # a non-finite entry fails too: the symmetry gap of a NaN compares False
    for bad in ([[np.nan, 1.0], [0.0, 1.0]], [[np.inf, 0.0], [0.0, 1.0]]):
        with pytest.raises(se.DomainError, match="finite"):
            op.apply(np.array(bad))


# ---------------------------------------------------------------------------
# state evolution orbits
# ---------------------------------------------------------------------------

def _scalar_setup(lam):
    prof = model.BlockPriorProfile((RAD,), (1.0,))
    return se.OverlapModel(prof), se.OperatorT(
        model.CouplingSet.heteroskedastic(np.array([[lam]]))
    )


def test_run_se_zero_start_stays_zero():
    m, op = _scalar_setup(3.0)
    traj = se.run_se(m, op, np.zeros((1, 1)))
    assert traj.converged and traj.iterations == 1
    assert traj.q_star[0] == 0.0


def test_run_se_subcritical_decays():
    m, op = _scalar_setup(0.5)
    traj = se.run_se(m, op, np.array([[0.5]]))
    assert traj.converged
    assert abs(traj.q_star[0]) < 1e-6


def test_run_se_supercritical_monotone():
    m, op = _scalar_setup(2.0)
    traj = se.run_se(m, op, np.array([[0.01]]))
    assert traj.converged
    assert traj.q_star[0] > 0.9
    q = traj.q.ravel()
    assert np.all(np.diff(q) >= -1e-12)
    # Loewner monotonicity: min eigenvalue of Q^{t+1} - Q^t >= -1e-9
    for a, b in zip(traj.q[:-1], traj.q[1:]):
        assert np.linalg.eigvalsh(np.diag(b) - np.diag(a)).min() >= -1e-9


def test_run_se_heteroskedastic_saturates_at_beta():
    prof = model.BlockPriorProfile((RAD, BG5), (0.6, 0.4))
    m = se.OverlapModel(prof)
    xi = np.array([[0.7, 0.3], [0.3, 0.7]])
    op = se.OperatorT(model.CouplingSet.heteroskedastic(np.sqrt(400.0 * xi)))
    traj = se.run_se(m, op, np.diag([1e-3, 1e-3]), max_iter=3000)
    assert np.allclose(traj.q_star, [0.6, 0.4], atol=0.02)


def test_run_se_rejects_non_psd_start():
    m, op = _scalar_setup(1.0)
    with pytest.raises(se.DomainError):
        se.run_se(m, op, np.array([[-0.1]]))


def test_run_se_rejects_non_diagonal_or_negative_start():
    # the block recursion carries only diag(Q): an off-diagonal start entry
    # would be folded into the first step and then dropped, so it is refused
    m = se.OverlapModel(model.BlockPriorProfile((RAD, BG5), (0.6, 0.4)))
    op = se.OperatorT(model.CouplingSet((np.array([[1.6, 0.6], [0.6, 1.0]]),)))
    for Q1 in ([[0.05, 0.01], [0.01, 0.05]], [[0.05, 0.0], [0.0, -1e-3]], np.eye(3)):
        with pytest.raises(se.DomainError):
            se.run_se(m, op, np.array(Q1))
    traj = se.run_se(m, op, np.diag([0.05, 0.0]), max_iter=3)
    assert traj.q.shape == traj.s.shape == (4, 2)
    for q, s in zip(traj.q, traj.s):
        assert s.tolist() == (op.couplings.hadamard_square_sum() @ q).tolist()


def test_se_order_preserving_on_diagonals():
    prof = model.BlockPriorProfile((RAD, BG5), (0.6, 0.4))
    m = se.OverlapModel(prof)
    H = np.array([[1.4, 0.6], [0.6, 1.4]])
    rng = np.random.default_rng(3)
    for _ in range(20):
        q = rng.uniform(0, 0.5, 2) * np.array([0.6, 0.4])
        dq = rng.uniform(0, 0.3, 2)
        lo = m.psi_vector(H @ q)
        hi = m.psi_vector(H @ (q + dq))
        assert np.all(hi >= lo - 1e-12)


# ---------------------------------------------------------------------------
# MMSE gradient identity
# ---------------------------------------------------------------------------

def test_mmse_gradient_check_rademacher():
    prof = model.BlockPriorProfile((RAD, RAD), (0.6, 0.4))
    m = se.OverlapModel(prof)
    S = np.array([[1.0, 0.3], [0.3, 0.6]])
    rep = oracles.mmse_gradient_check(m, S, 50, n_samples=20_000, seed=17)
    assert rep.passed, rep.max_sigma_deviation


def test_mmse_gradient_check_guards():
    prof = model.BlockPriorProfile((RAD,), (1.0,))
    m = se.OverlapModel(prof)
    with pytest.raises(se.DomainError):
        oracles.mmse_gradient_check(m, np.array([[1.0]]), 500)
    with pytest.raises(oracles.InconclusiveCheckError):
        oracles.mmse_gradient_check(m, np.array([[1.0]]), 4, n_samples=4, seed=0)
