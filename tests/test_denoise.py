import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from mvamp import amp, model
from mvamp.se import DomainError, posterior_mean_scalar

RAD = model.ScalarPrior.rademacher()
GAUSS = model.ScalarPrior.gaussian_unit()
BG1 = model.ScalarPrior.bernoulli_gaussian(1.0)
BG01 = model.ScalarPrior.bernoulli_gaussian(0.1)

PRIORS = [RAD, GAUSS, BG01, model.ScalarPrior.bernoulli_gaussian(0.5)]


def two_point_bayes_oracle(s, y):
    # direct ratio of the two Gaussian likelihoods for X in {-1, +1}
    lp = np.exp(-np.square(y - np.sqrt(s)) / 2)
    lm = np.exp(-np.square(y + np.sqrt(s)) / 2)
    return (lp - lm) / (lp + lm)


def test_rademacher_matches_two_point_oracle():
    y = np.linspace(-8, 8, 101)
    for s in [0.1, 1.0, 4.0]:
        got, _ = posterior_mean_scalar(RAD, s, y)
        assert np.allclose(got, two_point_bayes_oracle(s, y), atol=1e-12)
        assert np.allclose(got, np.tanh(np.sqrt(s) * y))


def test_gaussian_posterior_mean():
    y = np.linspace(-5, 5, 11)
    for s in [0.3, 2.0]:
        assert np.allclose(
            posterior_mean_scalar(GAUSS, s, y)[0], np.sqrt(s) / (1 + s) * y
        )


def test_zero_snr_returns_prior_mean():
    y = np.array([-3.0, 0.0, 5.0])
    for prior in PRIORS:
        eta, deta = posterior_mean_scalar(prior, 0.0, y)
        assert np.all(eta == 0.0)
        assert np.all(deta == 0.0)


def test_bg_eps_one_equals_gaussian():
    y = np.linspace(-30, 30, 301)
    for s in [0.5, 3.0]:
        a, _ = posterior_mean_scalar(BG1, s, y)
        b, _ = posterior_mean_scalar(GAUSS, s, y)
        assert np.abs(a - b).max() < 1e-12


def test_negative_snr_rejected():
    with pytest.raises(DomainError):
        posterior_mean_scalar(RAD, -0.1, 0.0)
    with pytest.raises(DomainError):
        posterior_mean_scalar(GAUSS, -1.0, 0.0)
    # a NaN or infinite SNR is refused as well, not turned into NaN values
    for s in (float("nan"), float("inf"), float("-inf")):
        for fn in (posterior_mean_scalar, oracles.posterior_variance_scalar):
            with pytest.raises(DomainError):
                fn(RAD, s, [0.0, 1.0])


def test_derivative_matches_finite_differences():
    # centered differences, step 1e-5; relative error <= 1e-6 on |y| <= 10
    h = 1e-5
    y = np.linspace(-10, 10, 81)
    for prior in PRIORS:
        for s in [0.1, 1.0, 10.0]:
            _, a = posterior_mean_scalar(prior, s, y)
            fd = (
                posterior_mean_scalar(prior, s, y + h)[0]
                - posterior_mean_scalar(prior, s, y - h)[0]
            ) / (2 * h)
            rel = np.abs(a - fd) / np.maximum(np.abs(a), 1e-4)
            assert rel.max() < 1e-6, (prior.name, s, rel.max())


def test_rademacher_derivative_closed_form():
    y = np.linspace(-6, 6, 41)
    s = 2.3
    t = np.tanh(np.sqrt(s) * y)
    assert np.allclose(
        posterior_mean_scalar(RAD, s, y)[1], np.sqrt(s) * (1 - t * t)
    )


def test_nishimori_identity_per_prior():
    # E[eta(s, sqrt(s) X + Z) X] = E[eta^2] within Monte Carlo error
    rng = np.random.default_rng(123)
    n = 10**6
    for prior in PRIORS:
        for s in [0.5, 2.0]:
            x = prior.sample(rng, n)
            y = np.sqrt(s) * x + rng.standard_normal(n)
            eta, _ = posterior_mean_scalar(prior, s, y)
            lhs = eta * x
            rhs = eta * eta
            diff = lhs - rhs
            se = diff.std() / np.sqrt(n)
            assert abs(diff.mean()) < 4 * se + 1e-5, (prior.name, s)


def test_boundedness_and_lipschitz_bounds():
    y = np.linspace(-200, 200, 20001)
    for s in [0.25, 1.0, 9.0]:
        eta, der = posterior_mean_scalar(RAD, s, y)
        assert np.abs(eta).max() <= 1.0
        assert der.max() <= np.sqrt(s) + 1e-12
        _, derg = posterior_mean_scalar(GAUSS, s, y)
        assert derg.max() <= np.sqrt(s) / (1 + s) + 1e-12


def test_posterior_variance_forms():
    y = np.linspace(-4, 4, 9)
    s = 1.7
    assert np.allclose(
        oracles.posterior_variance_scalar(RAD, s, y), 1 - np.tanh(np.sqrt(s) * y) ** 2
    )
    assert np.allclose(oracles.posterior_variance_scalar(GAUSS, s, y), 1 / (1 + s))
    # BG variance is nonnegative and finite for large y
    v = oracles.posterior_variance_scalar(BG01, 2.0, np.array([0.0, 50.0, -80.0]))
    assert np.all(v >= 0) and np.isfinite(v).all()


def test_derivative_is_scaled_posterior_variance():
    # Tweedie: eta'(y) = sqrt(s) Var(X | y) on the channel y = sqrt(s) X + Z
    y = np.linspace(-8, 8, 161)
    for prior in (RAD, GAUSS, BG01, BG1):
        for s in (0.01, 1.7, 50.0):
            _, deta = posterior_mean_scalar(prior, s, y)
            want = np.sqrt(s) * oracles.posterior_variance_scalar(prior, s, y)
            gap = np.abs(deta - want)
            # where tanh rounds to 1 both sides are exactly 0
            assert np.all(gap <= 1e-12 * np.abs(want)), (prior.name, s, gap.max())


def _profile2():
    return model.BlockPriorProfile((RAD, BG1), (0.6, 0.4))


def test_block_denoiser_at_zero_input():
    prof = _profile2()
    n = 20
    ev = amp.block_denoiser(prof, np.diag([1.0, 2.0]), np.zeros((n, 2)))
    assert np.abs(ev.value).max() == 0.0
    # D_jj = (n_j/n) eta'(s_j, 0) / sqrt(s_j), the divergence w.r.t. the raw iterate
    for j, (sl_size, s) in enumerate([(12, 1.0), (8, 2.0)]):
        expected = sl_size / n * posterior_mean_scalar(
            prof.priors[j], s, 0.0
        )[1] / np.sqrt(s)
        assert np.isclose(ev.divergence[j, j], expected)
    assert ev.divergence[0, 1] == 0.0 == ev.divergence[1, 0]


def test_block_denoiser_single_block_matches_scalar():
    prof = model.BlockPriorProfile((RAD,), (1.0,))
    Y = np.random.default_rng(3).standard_normal((15, 1))
    ev = amp.block_denoiser(prof, np.array([[1.3]]), Y)
    # the raw iterate is y = s x + sqrt(s) z; its Rademacher posterior mean is tanh(y)
    assert np.allclose(ev.value, np.tanh(Y))


def test_block_denoiser_gaussian_blocks_divergence():
    # eps=1 both blocks: linear denoiser; D_jj = beta_j/(1+s_j) up to rounding
    prof = model.BlockPriorProfile((BG1, BG1), (0.6, 0.4))
    n = 1000
    Y = np.random.default_rng(4).standard_normal((n, 2))
    s = np.array([0.8, 2.5])
    ev = amp.block_denoiser(prof, np.diag(s), Y)
    for j in range(2):
        beta_j = prof.block_sizes(n)[j] / n
        assert np.isclose(ev.divergence[j, j], beta_j / (1 + s[j]))


def test_block_denoiser_reads_only_diag():
    prof = _profile2()
    S = np.array([[1.0, 0.2], [0.2, 1.0]])
    Y = np.ones((10, 2))
    ev = amp.block_denoiser(prof, S, Y)
    ref = amp.block_denoiser(prof, np.eye(2), Y)
    assert np.array_equal(ev.value, ref.value)
    assert np.array_equal(ev.divergence, ref.divergence)


def test_block_denoiser_is_the_exact_posterior_mean():
    # row i of block k of the raw iterate is y = x a + z with a = S[k, :],
    # z ~ N(0, S) and x ~ N(0, 1) (a BG(1) block); its posterior mean
    # a^T S^{-1} y / (1 + a^T S^{-1} a) is solved on the full non-diagonal S,
    # and its gradient S^{-1} a / (1 + a^T S^{-1} a) gives D[:, k] (n_k / n)
    prof = model.BlockPriorProfile((BG1, BG1), (0.6, 0.4))
    n = 10
    S = np.array([[1.3, 0.5], [0.5, 0.8]])
    Xt = np.random.default_rng(9).standard_normal((n, 2))
    ev = amp.block_denoiser(prof, S, Xt)
    value = np.zeros((n, 2))
    div = np.zeros((2, 2))
    for k, sl in enumerate(prof.block_slices(n)):
        a = S[k, :]
        Sinv_a = np.linalg.solve(S, a)
        w = Sinv_a / (1.0 + a @ Sinv_a)
        value[sl, k] = Xt[sl] @ w
        div[:, k] = (sl.stop - sl.start) / n * w
    assert np.abs(ev.value - value).max() < 1e-12
    assert np.abs(ev.divergence - div).max() < 1e-12


@settings(max_examples=40, deadline=None)
@given(
    s=st.floats(0.0, 50.0),
    y=st.floats(-1e3, 1e3),
)
def test_rademacher_bounded_monotone_property(s, y):
    v = float(posterior_mean_scalar(RAD, s, y)[0])
    assert -1.0 <= v <= 1.0
    v2 = float(posterior_mean_scalar(RAD, s, y + 0.5)[0])
    assert v2 >= v - 1e-12  # monotone nondecreasing in y


@settings(max_examples=30, deadline=None)
@given(s=st.floats(1e-4, 30.0), y=st.floats(-100.0, 100.0), eps=st.floats(0.01, 1.0))
def test_bg_outputs_finite_property(s, y, eps):
    prior = model.ScalarPrior.bernoulli_gaussian(eps)
    eta, deta = posterior_mean_scalar(prior, s, y)
    assert np.isfinite(eta)
    assert np.isfinite(deta)
