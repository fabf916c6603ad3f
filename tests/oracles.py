"""Monte Carlo and quadrature oracles that the tests check the package against.

Nothing in ``mvamp`` calls these; they back acceptance criteria 5, 6 and 11
and the GOE, overlap, overlap-derivative, KL and Gaussianity tests:

- ``goe_upper_draw`` forms the full matrix of ``model.sample_goe`` in plain
  numpy;
- ``run_with_iterates`` runs AMP and keeps each pre-denoising iterate X^t,
  read at the ``amp.block_denoiser`` call that receives it;
- ``gaussianity_diagnostic`` compares those iterates with their SE law;
- ``trial_seed`` and ``trial_mean_z`` make a Monte Carlo check of many
  instances: one seed per trial, and each cell's trial mean in stderr units;
- ``mmse_gradient_check`` checks the MMSE gradient identity;
- ``overlap_psi_monte_carlo`` and ``kl_channel_monte_carlo`` are sampling
  estimators of the overlap and of the channel KL divergence;
- ``posterior_variance_scalar`` is the closed-form posterior variance, which
  the denoiser's derivative must equal up to the factor sqrt(s);
- ``psi_derivative_quad`` is E[Var(X | y)^2], the derivative of the overlap,
  by adaptive quadrature of that variance against the channel density;
- ``immse_consistency`` checks the I-MMSE identity dD/ds = psi(s) / 2.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from mvamp import amp
from mvamp.model import GAUSSIAN, RADEMACHER, MTPInstance, ScalarPrior, rng_from
from mvamp.se import (
    DomainError,
    OperatorT,
    OverlapModel,
    SETrajectory,
    _bg_responsibility,
    _check_snr,
    kl_channel,
    overlap_psi_derivative_scalar,
    overlap_psi_scalar,
    posterior_mean_scalar,
)


def goe_upper_draw(n: int, seed) -> np.ndarray:
    """The n x n matrix that ``model.sample_goe(n, seed)`` stores: row by row,
    in row order from one stream, G[i, i:] ~ N(0, 1); then the diagonal is
    scaled by sqrt(2) and the upper triangle mirrored into the lower one."""
    rng = np.random.default_rng(seed)
    g = np.zeros((n, n))
    for i in range(n):
        g[i, i:] = rng.standard_normal(n - i)
    g[np.diag_indices(n)] *= np.sqrt(2.0)
    return np.triu(g) + np.triu(g, 1).T


@lru_cache(maxsize=64)
def _hermegauss(order: int):
    # probabilists' Hermite nodes/weights: integral against exp(-x^2/2)
    x, w = np.polynomial.hermite_e.hermegauss(order)
    return x, w / np.sqrt(2.0 * np.pi)


def gauss_expect(f, order: int) -> float:
    """E[f(Z)] for Z ~ N(0, 1) by Gauss-Hermite quadrature."""
    x, w = _hermegauss(order)
    return float(np.dot(w, f(x)))


def overlap_psi_monte_carlo(prior: ScalarPrior, s: float, n_samples: int, seed=0) -> float:
    """Monte Carlo estimate of the overlap E[E[X | sqrt(s) X + Z]^2]."""
    rng = rng_from(seed)
    x = prior.sample(rng, n_samples)
    y = np.sqrt(s) * x + rng.standard_normal(n_samples)
    eta, _ = posterior_mean_scalar(prior, s, y)
    return float(np.mean(eta * eta))


def posterior_variance_scalar(prior: ScalarPrior, s: float, y):
    """Var(X | sqrt(s) X + Z = y); closed form per prior."""
    s = _check_snr(s)
    y = np.asarray(y, float)
    if s == 0.0:
        return np.ones_like(y)
    if prior.kind == RADEMACHER:
        t = np.tanh(np.sqrt(s) * y)
        return 1.0 - t * t
    if prior.kind == GAUSSIAN:
        return np.full_like(y, 1.0 / (1.0 + s))
    eps = prior.eps
    r = _bg_responsibility(y, s, eps)
    mean_spike = np.sqrt(s) * y / (eps + s)
    second = r * (1.0 / (eps + s) + mean_spike**2)
    return second - (r * mean_spike) ** 2


def psi_derivative_quad(prior: ScalarPrior, s: float) -> float:
    """E[Var(X | sqrt(s) X + Z)^2] = 2 int_0^L p_s(y) Var(X | y)^2 dy by
    ``scipy.integrate.quad`` (QUADPACK), breaking at the bump of p_s and at the
    BG responsibility transition. Gauss-Hermite (``gauss_expect``) cannot
    resolve that transition: at order 301 it misses BG(0.05) at s = 12.6 by
    80%."""
    from scipy.integrate import quad

    rs = np.sqrt(s)
    if prior.kind == RADEMACHER:
        def density(y):
            return 0.5 * (_normal_pdf(y - rs, 1.0) + _normal_pdf(y + rs, 1.0))

        L = rs + 12.0
        points = [rs, max(rs - 6.0, 0.0), 1.0 / max(rs, 1.0), 4.0 / max(rs, 1.0)]
    elif prior.kind == GAUSSIAN:
        def density(y):
            return _normal_pdf(y, 1.0 + s)

        L = 12.0 * np.sqrt(1.0 + s)
        points = [np.sqrt(1.0 + s)]
    else:
        eps = prior.eps
        sig2 = 1.0 + s / eps

        def density(y):
            return (1.0 - eps) * _normal_pdf(y, 1.0) + eps * _normal_pdf(y, sig2)

        L = 12.0 * np.sqrt(sig2)
        points = [1.0, np.sqrt(sig2)]
        bracket = 2.0 * (np.log((1.0 - eps) / eps) + 0.5 * np.log(sig2)) if eps < 1.0 else 0.0
        if bracket > 0 and s > 0:
            points.append(np.sqrt(bracket * (eps + s) / s))
    points = sorted({float(v) for v in points if 0.0 < v < L})
    value, _ = quad(lambda y: density(y) * float(posterior_variance_scalar(prior, s, y)) ** 2,
                    0.0, L, points=points, limit=500, epsabs=1e-15, epsrel=1e-12)
    return 2.0 * value


def _normal_pdf(y, var: float):
    return np.exp(-0.5 * y * y / var) / np.sqrt(2.0 * np.pi * var)


# ---------------------------------------------------------------------------
# channel KL divergence and the I-MMSE identity
# ---------------------------------------------------------------------------

_IMMSE_FD_REL = 1e-3  # relative finite-difference step of immse_consistency


def kl_channel_monte_carlo(prior: ScalarPrior, s: float, n_samples: int, seed=0) -> float:
    """Independent Monte Carlo estimator E_{y~p_s}[log(p_s/phi)(y)]."""
    rng = rng_from(seed)
    x = prior.sample(rng, n_samples)
    y = np.sqrt(s) * x + rng.standard_normal(n_samples)
    if prior.kind == GAUSSIAN:
        sig2 = 1.0 + s
        logratio = -0.5 * np.log(sig2) + np.square(y) * (0.5 - 0.5 / sig2)
    elif prior.kind == RADEMACHER:
        rs = np.sqrt(s)
        logratio = np.log(0.5) + np.logaddexp(rs * y, -rs * y) - s / 2.0
    else:
        eps = prior.eps
        sig2 = 1.0 + s / eps
        log_spike = np.log(eps) - 0.5 * np.log(sig2) + np.square(y) * (0.5 - 0.5 / sig2)
        if eps < 1.0:
            logratio = np.logaddexp(np.log1p(-eps) + np.zeros_like(y), log_spike)
        else:
            logratio = log_spike
    return float(np.mean(logratio))


def immse_consistency(prior: ScalarPrior, s_grid) -> float:
    """Max deviation of centered finite differences of kl_channel from half the
    scalar overlap (the I-MMSE identity dD/ds = psi(s)/2)."""
    worst = 0.0
    for s in np.asarray(s_grid, float):
        h = max(1e-4, _IMMSE_FD_REL * s)
        fd = (kl_channel(prior, s + h) - kl_channel(prior, max(s - h, 0.0))) / (
            (s + h) - max(s - h, 0.0)
        )
        worst = max(worst, abs(fd - 0.5 * overlap_psi_scalar(prior, s)))
    return worst


# ---------------------------------------------------------------------------
# MMSE gradient identity
# ---------------------------------------------------------------------------

class InconclusiveCheckError(RuntimeError):
    pass


@dataclass
class GradientCheckReport:
    max_sigma_deviation: float  # worst |fd - pred| / se, or |E[Psi] - psi'| / se
    passed: bool


_GRADIENT_FD_STEP = 1e-3   # step of the finite differences of M along each direction
_GRADIENT_SIGMA_TOL = 3.0  # pass bound on |fd - pred| in standard errors


def _psd_sqrt(S: np.ndarray) -> np.ndarray:
    evals, evecs = np.linalg.eigh(S)
    if evals.min() < -1e-10 * max(1.0, evals.max(initial=1.0)):
        raise DomainError("S must be PSD")
    return evecs @ np.diag(np.sqrt(np.clip(evals, 0.0, None))) @ evecs.T


def mmse_gradient_check(
    model: OverlapModel,
    S: np.ndarray,
    n_small: int,
    n_samples: int = 20_000,
    n_directions: int = 3,
    seed=0,
) -> GradientCheckReport:
    """Monte Carlo verification that the MMSE gradient equals -E[Psi(H_S)].

    For block priors the conditional covariance per row is scalar and closed
    form, so both sides reduce to per-block averages of posterior variances
    (for M) and squared posterior variances (for Psi). Finite differences of M
    along random PSD directions use common random numbers. The Monte Carlo
    E[Psi] of block j is also checked against the production overlap
    derivative psi_j'(S_jj) = E[Var^2] (``overlap_psi_derivative_scalar``),
    weighted by the block's share of the rows as M is.
    """
    if n_small > 100:
        raise DomainError("gradient check is meant for small n (n_small <= 100)")
    rng = rng_from(seed)
    d = model.d
    S = np.asarray(S, float)
    slices = model.profile.block_slices(n_small)

    # signal values and ambient noise, shared across all channel settings
    xs = [model.profile.priors[j].sample(rng, (n_samples, sl.stop - sl.start)) for j, sl in enumerate(slices)]
    zs = rng.standard_normal((n_samples, n_small, d))

    directions = []
    for _ in range(n_directions):
        A = rng.standard_normal((d, d))
        Delta = A @ A.T
        Delta /= np.linalg.norm(Delta)
        directions.append(Delta)

    def per_sample_stats(Smat):
        """Returns (M_diag, Psi_diag) per sample, each (n_samples, d)."""
        root = _psd_sqrt(Smat)
        Md = np.zeros((n_samples, d))
        Pd = np.zeros((n_samples, d))
        for j, sl in enumerate(slices):
            a = root[:, j]  # S^{1/2} e_j
            sj = float(Smat[j, j])
            u = xs[j] * sj + np.einsum("tik,k->ti", zs[:, sl, :], a)
            if sj <= 0:
                v = np.ones_like(u)
            else:
                v = posterior_variance_scalar(model.profile.priors[j], sj, u / np.sqrt(sj))
            Md[:, j] = v.sum(axis=1) / n_small
            Pd[:, j] = np.square(v).sum(axis=1) / n_small
        return Md, Pd

    _, Pd0 = per_sample_stats(S)
    dpsi = np.array([(sl.stop - sl.start) / n_small
                     * overlap_psi_derivative_scalar(p, float(S[j, j]), model.quad_order)
                     for j, (p, sl) in enumerate(zip(model.profile.priors, slices))])
    se0 = Pd0.std(axis=0) / np.sqrt(n_samples)
    worst = float((np.abs(Pd0.mean(axis=0) - dpsi) / np.maximum(se0, 1e-300)).max())
    for m, Delta in enumerate(directions):
        Mp, _ = per_sample_stats(S + _GRADIENT_FD_STEP * Delta)
        Mm, _ = per_sample_stats(S - _GRADIENT_FD_STEP * Delta)
        fd = (Mp - Mm) / (2.0 * _GRADIENT_FD_STEP)  # per-sample FD of M diagonal
        pred = -Pd0 * np.diag(Delta)[None, :]       # -E[Psi] vec(Delta), diagonal part
        fd_mean = fd.mean(axis=0)
        pred_mean = pred.mean(axis=0)
        se = np.sqrt(fd.var(axis=0) / n_samples + pred.var(axis=0) / n_samples)
        for j in range(d):
            scale = abs(pred_mean[j])
            bound = _GRADIENT_SIGMA_TOL * se[j]
            if scale > 1e-4 and bound > 0.5 * scale:
                raise InconclusiveCheckError(
                    f"Monte Carlo error too large to resolve gradient entry "
                    f"(direction {m}, block {j}): 3*se={bound:.2e} vs scale {scale:.2e}"
                )
            dev = abs(fd_mean[j] - pred_mean[j]) / max(se[j], 1e-300)
            worst = max(worst, dev)
    return GradientCheckReport(worst, bool(worst <= _GRADIENT_SIGMA_TOL))


# ---------------------------------------------------------------------------
# AMP iterates and their Gaussianity: residual covariance and a
# pseudo-Lipschitz battery
# ---------------------------------------------------------------------------

def run_with_iterates(instance: MTPInstance, config: amp.AMPConfig):
    """``amp.run_symmetric`` with ``amp.block_denoiser`` wrapped: returns the
    trace and the (S_t, X^t) pair of each denoiser call, t = 1, 2, ..., and
    restores the name afterwards."""
    seen = []
    inner = amp.block_denoiser

    def capturing(profile, S, Y):
        seen.append((S, Y))
        return inner(profile, S, Y)

    amp.block_denoiser = capturing
    try:
        trace = amp.run_symmetric(instance, config)
    finally:
        amp.block_denoiser = inner
    return trace, seen


def _soft(h, thr=1.0):
    return np.sign(h) * np.maximum(np.abs(h) - thr, 0.0)


_BATTERY = {
    "h2": lambda x, h: h * h,
    "xh": lambda x, h: x * h,
    "abs_h": lambda x, h: np.abs(h),
    "soft1_sq": lambda x, h: _soft(h) ** 2,
}
_BATTERY_ORDER = 121  # Gauss-Hermite nodes of each battery prediction


def _battery_prediction(prior: ScalarPrior, k: float, sigma2: float, name: str):
    """E[phi(X, k X + sigma Z)] under the SE-predicted Gaussian channel."""
    sig = np.sqrt(max(sigma2, 0.0))
    phi = _BATTERY[name]

    def for_x(x):
        return gauss_expect(lambda z: phi(x, k * x + sig * z), _BATTERY_ORDER)

    if prior.kind == "rademacher":
        return 0.5 * (for_x(1.0) + for_x(-1.0))
    xg, wg = _hermegauss(_BATTERY_ORDER)
    if prior.kind == "gaussian":
        return float(sum(w * for_x(x) for x, w in zip(xg, wg)))
    eps = prior.eps
    spike = float(sum(w * for_x(x / np.sqrt(eps)) for x, w in zip(xg, wg)))
    return (1.0 - eps) * for_x(0.0) + eps * spike


@dataclass
class GaussianityReport:
    cov_distance: np.ndarray          # per iteration ||emp residual cov - Sigma^t||_F
    cov_gap: np.ndarray               # per iteration emp residual cov - Sigma^t, (t, d, d)
    battery: dict                     # name -> (t, block) arrays of emp - predicted


def gaussianity_diagnostic(
    iterates: list,
    instance: MTPInstance,
    se_traj: SETrajectory,
) -> GaussianityReport:
    """Compare iterates X^t against their SE-predicted law X K^t + N(0, Sigma^t).

    ``iterates`` holds the (S_t, X^t) pairs of ``run_with_iterates``. For the
    recursion X^t = sum_k Y_k M^{t-1} Lambda_k^T - M^{t-2} (B^{t-1})^T that
    ``run_symmetric`` runs, K^t = Sigma^t = S^t = T(Q^t_SE) with
    Q^t_SE = diag(q^t) of the SE orbit.
    """
    X = instance.X
    n, d = X.shape
    profile = instance.profile
    slices = profile.block_slices(n)
    op = OperatorT(instance.couplings)
    n_t = len(iterates)
    cov_gap = np.zeros((n_t, d, d))
    battery = {name: np.zeros((n_t, d)) for name in _BATTERY}
    for i, (_, Xt) in enumerate(iterates):
        # S^t for t = i+1, = Sigma^t under Bayes weights; an orbit that
        # converged in fewer steps sits at its fixed point
        K = op.apply(np.diag(se_traj.q[min(i, se_traj.iterations)]))
        R = Xt - X @ K
        cov_gap[i] = R.T @ R / n - K
        for j, sl in enumerate(slices):
            for name in _BATTERY:
                emp = float(np.mean(_BATTERY[name](X[sl, j], Xt[sl, j])))
                pred = _battery_prediction(
                    profile.priors[j], float(K[j, j]), float(K[j, j]), name
                )
                battery[name][i, j] = emp - pred
    return GaussianityReport(np.linalg.norm(cov_gap, axis=(1, 2)), cov_gap, battery)


def trial_seed(base: int, trial: int) -> int:
    """The instance seed of trial ``trial`` of the seed base ``base``."""
    return int(np.random.SeedSequence([base, trial]).generate_state(1)[0])


def trial_mean_z(samples) -> tuple[np.ndarray, np.ndarray]:
    """(mean, |mean| / stderr) of each cell over the trials on axis 0. A cell
    that is the same in every trial has stderr 0: its z is 0 if it is 0, and
    inf otherwise."""
    a = np.asarray(samples, float)
    mean = a.mean(axis=0)
    stderr = a.std(axis=0, ddof=1) / np.sqrt(len(a))
    with np.errstate(divide="ignore", invalid="ignore"):
        z = np.where(mean == 0.0, 0.0, np.abs(mean) / stderr)
    return mean, z
