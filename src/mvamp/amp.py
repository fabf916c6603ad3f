"""The AMP engine: symmetric multi-view recursion with reweighting and Onsager
correction, the asymmetric recursion via the symmetric embedding, and
per-iteration empirical diagnostics.

Recursion (symmetric, rescaled observations):

    X^t = sum_k Y_k M^{t-1} (A_k^t)^T - M^{t-2} (B^{t-1})^T,   M^t = f_t(X^t),

with M^{-1} = 0, B^0 = 0, and B^t = sum_k A_k^{t+1} D^t A_k^t built from the
empirical divergence of the denoiser. In the Bayes-optimal setting A_k^t =
Lambda_k and the denoiser channel SNR is the empirical S^t = T(Q^t) with
Q^t = (1/n) (M^t)^T M^t, so a run is a deterministic function of
(instance, config).
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, replace

import numpy as np

from .denoise import (
    ChannelParams,
    DenoiserEval,
    DomainError,
    block_denoiser,
    posterior_mean_derivative_scalar,
)
from .model import (
    BlockPriorProfile,
    MTPInstance,
    ScalarPrior,
    embed_asymmetric,
    rng_from,
    tagged_stream,
)
from .se import OperatorT, SETrajectory, gauss_expect

_INIT_TAG = 0x5149  # distinguishes the side-information stream from noise views


class DivergenceError(RuntimeError):
    def __init__(self, iteration: int):
        super().__init__(f"AMP iterate diverged (NaN/Inf) at iteration {iteration}")
        self.iteration = iteration


@dataclass(frozen=True)
class AMPConfig:
    max_iter: int = 20
    rho: float = 0.1
    seed: int = 0
    correction: str = "divergence"      # "divergence" | "disabled" (ablation)
    reweighting: str | tuple = "bayes"  # "bayes" (A_k = Lambda_k) or fixed matrices
    early_stop: bool = False
    early_stop_tol: float = 1e-6
    keep_iterates: bool = False

    def __post_init__(self):
        if not (0.0 <= self.rho <= 1.0):
            raise DomainError(f"init overlap rho must lie in [0, 1], got {self.rho}")
        if self.max_iter < 1:
            raise DomainError("max_iter must be >= 1")
        if self.correction not in ("divergence", "disabled"):
            raise DomainError(f"unknown correction mode {self.correction!r}")


@dataclass
class AMPTrace:
    """Per-iteration empirical records; index i corresponds to the denoised
    iterate M^i (i = 0 is the side-information init), so Q_hat[i] is the
    empirical counterpart of the SE overlap Q^{i+1}."""

    F_hat: list
    Q_hat: list
    mse: list
    S_used: list
    n: int
    d: int
    block_sizes: list | None
    M_final: np.ndarray
    iterates: list | None = None     # pre-denoising X^t, t = 1.., when requested
    stopped_early: bool = False

    @property
    def iterations(self) -> int:
        return len(self.Q_hat) - 1

    def csv_header(self) -> list:
        d = self.d
        header = ["trial", "t"]
        header += [f"F_hat_{a + 1}{b + 1}" for a in range(d) for b in range(d)]
        header += [f"Q_hat_{a + 1}{b + 1}" for a in range(d) for b in range(d)]
        header += [f"mse_block_{j + 1}" for j in range(d)]
        return header + ["seed", "version"]

    def csv_rows(self, trial: int, seed: int | None, version: str):
        """One row per iteration, in the column order of ``csv_header``."""
        for i in range(len(self.Q_hat)):
            row = [trial, i]
            row += [repr(float(v)) for v in np.asarray(self.F_hat[i]).ravel()]
            row += [repr(float(v)) for v in np.asarray(self.Q_hat[i]).ravel()]
            row += [repr(float(v)) for v in np.asarray(self.mse[i]).ravel()]
            row += [seed if seed is not None else "", version]
            yield row

    def to_csv(self, path: str, trial: int = 0, seed: int | None = None, version: str = ""):
        with open(path, "w", newline="") as fh:
            wr = csv.writer(fh)
            wr.writerow(self.csv_header())
            wr.writerows(self.csv_rows(trial, seed, version))


def init_side_information(X: np.ndarray, rho: float, seed) -> np.ndarray:
    """M0 = rho X + sqrt(rho - rho^2) Z on the support pattern of X, so that
    both (1/n) X^T M0 and (1/n) M0^T M0 concentrate on rho * diag(beta)."""
    if not (0.0 <= rho <= 1.0):
        raise DomainError(f"rho must lie in [0, 1], got {rho}")
    X = np.asarray(X, float)
    rng = rng_from(seed)
    Z = rng.standard_normal(X.shape)
    Z[X == 0.0] = 0.0
    return rho * X + np.sqrt(max(rho - rho * rho, 0.0)) * Z


def _block_mse(X, M, slices) -> np.ndarray:
    out = np.empty(len(slices))
    for j, sl in enumerate(slices):
        diff = X[sl, j] - M[sl, j]
        out[j] = float(diff @ diff) / (sl.stop - sl.start)
    return out


def _column_mse(X, M) -> np.ndarray:
    return np.square(X - M).mean(axis=0) * X.shape[0] / np.maximum(1, (X != 0).sum(axis=0))


def run_symmetric(
    instance: MTPInstance,
    config: AMPConfig,
    denoiser=None,
) -> AMPTrace:
    """Run the symmetric AMP recursion on an instance.

    ``denoiser(Y_std, params) -> DenoiserEval`` defaults to the separable Bayes
    denoiser of the instance profile. The engine hands it the column-
    standardized iterate (column j divided by sqrt of the scalar SNR
    s_j = [T(Q_hat)]_{jj}) together with diag(s); the returned divergence is
    taken w.r.t. that standardized input and the engine chain-rules it back.
    The Onsager term always uses this empirical divergence (unless ablated).
    """
    X = instance.X
    n, d = X.shape
    lams = instance.couplings.matrices
    if config.reweighting == "bayes":
        A = [np.asarray(l) for l in lams]
    else:
        A = [np.asarray(a, float) for a in config.reweighting]
        if len(A) != len(lams):
            raise DomainError("need one reweighting matrix per view")
    op = OperatorT(instance.couplings)
    profile = instance.profile
    if denoiser is None:
        if profile is None:
            raise DomainError("instance has no profile; pass an explicit denoiser")

        def denoiser(Xt, params):
            return block_denoiser(profile, params, Xt)

    slices = profile.block_slices(n) if profile is not None else None
    M_prev = init_side_information(X, config.rho, tagged_stream(config.seed, _INIT_TAG))
    M_prev2 = np.zeros_like(M_prev)
    B_prev = np.zeros((d, d))

    def stats(M):
        F = X.T @ M / n
        Q = M.T @ M / n
        Q = (Q + Q.T) / 2.0
        mse = _block_mse(X, M, slices) if slices is not None else _column_mse(X, M)
        return F, Q, mse

    F0, Q0, mse0 = stats(M_prev)
    trace = AMPTrace([F0], [Q0], [mse0], [], n, d,
                     [sl.stop - sl.start for sl in slices] if slices else None,
                     M_prev, [] if config.keep_iterates else None)
    flat_count = 0
    for t in range(1, config.max_iter + 1):
        with np.errstate(invalid="ignore", over="ignore"):
            Xt = -M_prev2 @ B_prev.T
            for Yk, Ak in zip(instance.observations, A):
                Xt += Yk @ M_prev @ Ak.T
        if not np.isfinite(Xt).all():
            raise DivergenceError(t)
        # the iterate's law is X S_t + Z with row covariance S_t = T(Q_hat);
        # the scalar channels have SNR diag(S_t), so standardize per column
        # before denoising and chain-rule the divergence back
        S_t = op.apply(trace.Q_hat[-1])
        s_diag = np.clip(np.diag(S_t), 0.0, None)
        scale = np.zeros(d)
        scale[s_diag > 0] = 1.0 / np.sqrt(s_diag[s_diag > 0])
        ev = denoiser(Xt * scale[None, :], ChannelParams(np.diag(s_diag)))
        M_t, D_t = ev.value, np.diag(scale) @ ev.divergence
        if not (np.isfinite(M_t).all() and np.isfinite(D_t).all()):
            raise DivergenceError(t)
        if config.correction == "divergence":
            B_t = np.zeros((d, d))
            for Ak in A:
                B_t += Ak @ D_t @ Ak
        else:
            B_t = np.zeros((d, d))
        F, Q, mse = stats(M_t)
        trace.F_hat.append(F)
        trace.Q_hat.append(Q)
        trace.mse.append(mse)
        trace.S_used.append(S_t)
        if config.keep_iterates:
            trace.iterates.append(Xt)
        trace.M_final = M_t
        if config.early_stop:
            if np.linalg.norm(Q - trace.Q_hat[-2]) < config.early_stop_tol:
                flat_count += 1
            else:
                flat_count = 0
            if flat_count >= 3:
                trace.stopped_early = True
                break
        M_prev2, M_prev, B_prev = M_prev, M_t, B_t
    return trace


@dataclass
class AsymmetricResult:
    trace: AMPTrace
    instance: MTPInstance
    side1: np.ndarray   # final denoised estimate for X1
    side2: np.ndarray
    mse1: np.ndarray
    mse2: np.ndarray


def run_asymmetric(
    X1: np.ndarray,
    X2: np.ndarray,
    gammas,
    priors: tuple[ScalarPrior, ScalarPrior],
    config: AMPConfig,
) -> AsymmetricResult:
    """Asymmetric AMP via the symmetric embedding: stack X1 (+) X2, couple with
    sqrt(1+alpha) Gamma_k in the off-diagonal blocks, run the symmetric
    recursion with the block denoiser, then read the two sides back off."""
    X1 = np.atleast_2d(np.asarray(X1, float))
    X2 = np.atleast_2d(np.asarray(X2, float))
    if X1.shape[1] != 1 or X2.shape[1] != 1:
        raise DomainError("separable priors support one signal column per side")
    n1, n2 = X1.shape[0], X2.shape[0]
    n = n1 + n2
    profile = BlockPriorProfile(tuple(priors), (n1 / n, n2 / n))
    inst = embed_asymmetric(X1, X2, gammas, config.seed)
    inst = replace(inst, profile=profile)
    trace = run_symmetric(inst, config)
    emb = inst.embedding
    M = trace.M_final
    side1 = M[emb.rows1, emb.cols1]
    side2 = M[emb.rows2, emb.cols2]
    mse1 = np.square(X1 - side1).mean(axis=0)
    mse2 = np.square(X2 - side2).mean(axis=0)
    return AsymmetricResult(trace, inst, side1, side2, mse1, mse2)


# ---------------------------------------------------------------------------
# Gaussianity diagnostic: residual covariance and a pseudo-Lipschitz battery
# ---------------------------------------------------------------------------

def _soft(h, thr=1.0):
    return np.sign(h) * np.maximum(np.abs(h) - thr, 0.0)


_BATTERY = {
    "h2": lambda x, h: h * h,
    "xh": lambda x, h: x * h,
    "abs_h": lambda x, h: np.abs(h),
    "soft1_sq": lambda x, h: _soft(h) ** 2,
}


def _battery_prediction(prior: ScalarPrior, k: float, sigma2: float, name: str, order=121):
    """E[phi(X, k X + sigma Z)] under the SE-predicted Gaussian channel."""
    sig = np.sqrt(max(sigma2, 0.0))
    phi = _BATTERY[name]

    def for_x(x):
        return gauss_expect(lambda z: phi(x, k * x + sig * z), order)

    if prior.kind == "rademacher":
        return 0.5 * (for_x(1.0) + for_x(-1.0))
    if prior.kind == "gaussian":
        xg, wg = np.polynomial.hermite_e.hermegauss(order)
        wg = wg / np.sqrt(2 * np.pi)
        return float(sum(w * for_x(x) for x, w in zip(xg, wg)))
    eps = prior.eps
    xg, wg = np.polynomial.hermite_e.hermegauss(order)
    wg = wg / np.sqrt(2 * np.pi)
    spike = float(sum(w * for_x(x / np.sqrt(eps)) for x, w in zip(xg, wg)))
    return (1.0 - eps) * for_x(0.0) + eps * spike


@dataclass
class GaussianityReport:
    cov_distance: np.ndarray          # per iteration ||emp residual cov - Sigma^t||_F
    battery: dict                     # name -> (t, block) arrays of |emp - predicted|
    t_checked: list
    lipschitz_sup: np.ndarray | None = None  # measured sup |eta'| per (t, block)


def gaussianity_diagnostic(
    trace: AMPTrace,
    instance: MTPInstance,
    se_traj: SETrajectory,
    t_max: int | None = None,
) -> GaussianityReport:
    """Compare iterates X^t against their SE-predicted law X K^t + N(0, Sigma^t).

    Under Bayes-optimal reweighting K^t = Sigma^t = S^t = T(Q^t_SE). Requires
    the trace to have been run with keep_iterates=True.
    """
    if trace.iterates is None:
        raise DomainError("run AMP with keep_iterates=True for the diagnostic")
    X = instance.X
    n, d = X.shape
    profile = instance.profile
    slices = profile.block_slices(n)
    n_t = len(trace.iterates) if t_max is None else min(t_max, len(trace.iterates))
    cov_dist = np.zeros(n_t)
    battery = {name: np.zeros((n_t, d)) for name in _BATTERY}
    lip = np.zeros((n_t, d))
    for i in range(n_t):
        K = se_traj.S[i]          # S^{t} for t = i+1, = Sigma^t under Bayes weights
        Xt = trace.iterates[i]
        R = Xt - X @ K
        C = R.T @ R / n
        cov_dist[i] = float(np.linalg.norm(C - K))
        for j, sl in enumerate(slices):
            s_j = max(float(K[j, j]), 0.0)
            if s_j > 0:
                y_std = Xt[sl, j] / np.sqrt(s_j)
                lip[i, j] = float(
                    np.abs(posterior_mean_derivative_scalar(profile.priors[j], s_j, y_std)).max()
                )
            for name in _BATTERY:
                emp = float(np.mean(_BATTERY[name](X[sl, j], Xt[sl, j])))
                pred = _battery_prediction(
                    profile.priors[j], float(K[j, j]), float(K[j, j]), name
                )
                battery[name][i, j] = abs(emp - pred)
    return GaussianityReport(cov_dist, battery, list(range(1, n_t + 1)), lip)
