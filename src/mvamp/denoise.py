"""Bayes-optimal conditional-mean denoisers and their analytic derivatives.

All scalar denoisers act on the standardized channel  y = sqrt(s) X + Z  with
Z ~ N(0,1) independent of X, and return E[X | y] together with its
derivative in y from one pass over the prior; the block denoiser takes the
raw AMP iterate and standardizes each column itself. The Bernoulli-Gaussian case
is evaluated through the mixture responsibility in log space so it stays
finite for arbitrarily large |y|.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import GAUSSIAN, RADEMACHER, BlockPriorProfile, ScalarPrior


class DomainError(ValueError):
    pass


@dataclass(frozen=True)
class DenoiserEval:
    """Denoised matrix together with the averaged-derivative matrix D_hat.

    divergence[j, k] = (1/n) sum_i d/dY[i, j] value[i, k]; for separable
    block denoisers this is diagonal.
    """

    value: np.ndarray
    divergence: np.ndarray


def _check_snr(s: float) -> float:
    """s as a float; DomainError unless it is finite and nonnegative."""
    s = float(s)
    if not math.isfinite(s):
        raise DomainError(f"SNR must be finite, got {s}")
    if s < 0:
        raise DomainError(f"SNR must be nonnegative, got {s}")
    return s


def _bg_log_terms(y, s: float, eps: float):
    """(log_null, log_spike): the logs of the two BG(eps) components of the
    channel marginal, eps N(0, sig2) with sig2 = 1 + s/eps and (1 - eps) N(0, 1),
    without the shared -log(2 pi)/2; log_null is -inf when eps = 1."""
    sig2 = 1.0 + s / eps
    y2 = np.square(y)
    log_null = np.log1p(-eps) - y2 * 0.5 if eps < 1.0 else np.full_like(y, -np.inf)
    log_spike = np.log(eps) - 0.5 * np.log(sig2) - y2 / (2.0 * sig2)
    return log_null, log_spike


def _bg_responsibility(y, s: float, eps: float):
    """P(spike | y) for the BG(eps) channel, evaluated stably as a logistic
    function of log_null - log_spike."""
    if eps >= 1.0:
        return np.ones_like(np.asarray(y, float))
    log_null, log_spike = _bg_log_terms(y, s, eps)
    return 1.0 / (1.0 + np.exp(np.clip(log_null - log_spike, -745.0, 745.0)))


def posterior_mean_scalar(prior: ScalarPrior, s: float, y):
    """(eta, eta'): E[X | sqrt(s) X + Z = y] and its derivative in y,
    vectorized over y. eta' = sqrt(s) Var(X | y), the Tweedie identity."""
    s = _check_snr(s)
    y = np.asarray(y, float)
    if s == 0.0:
        return np.zeros_like(y), np.zeros_like(y)
    rs = np.sqrt(s)
    if prior.kind == RADEMACHER:
        t = np.tanh(rs * y)
        return t, rs * (1.0 - t * t)
    if prior.kind == GAUSSIAN:
        k = rs / (1.0 + s)
        return k * y, np.full_like(y, k)
    eps = prior.eps
    r = _bg_responsibility(y, s, eps)
    gamma = s / (eps + s)  # d logit / dy = gamma * y
    eta = r * rs * y / (eps + s)
    return eta, rs / (eps + s) * (r + r * (1.0 - r) * gamma * np.square(y))


def block_denoiser(profile: BlockPriorProfile, S: np.ndarray, Y: np.ndarray) -> DenoiserEval:
    """Separable Bayes denoiser of the raw AMP iterate Y = X S + Z, where the
    rows of Z are N(0, S) and column j of X is zero outside block j.

    Entry (i, j) with i in block j is the scalar posterior mean at SNR
    s_j = S[j, j] (clipped at 0) of the standardized input Y[i, j] / sqrt(s_j);
    all off-block entries are zero. The divergence is taken with respect to Y,
    so D[j, j] = (1/n) sum_i eta_j'(Y[i, j] / sqrt(s_j)) / sqrt(s_j).

    Reading only diag(S) is exact, not a projection: row i of block j is
    y = x_ij S[j, :] + z with z ~ N(0, S), whose log-likelihood in x_ij is
    x_ij S[j, :] S^{-1} y - x_ij^2 S[j, :] S^{-1} S[:, j] / 2
    = x_ij e_j^T y - x_ij^2 s_j / 2. It depends on y only through entry j,
    which is the scalar channel y_j = s_j x_ij + sqrt(s_j) N(0, 1).
    """
    d = profile.d
    S = np.asarray(S, float)
    if S.shape != (d, d):
        raise DomainError(f"SNR shape {S.shape} != ({d}, {d})")
    Y = np.asarray(Y, float)
    n = Y.shape[0]
    if Y.shape[1] != d:
        raise DomainError(f"iterate width {Y.shape[1]} != d={d}")
    s = np.clip(np.diag(S), 0.0, None)
    value = np.zeros_like(Y)
    div = np.zeros((d, d))
    for j, sl in enumerate(profile.block_slices(n)):
        scale = 1.0 / np.sqrt(s[j]) if s[j] > 0 else 0.0
        col = Y[sl, j] * scale
        value[sl, j], deta = posterior_mean_scalar(profile.priors[j], s[j], col)
        div[j, j] = scale * (deta.sum() / n)
    return DenoiserEval(value, div)
