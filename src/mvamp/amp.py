"""The AMP engine: symmetric multi-view recursion with Bayes view weights and
Onsager correction, its separable Bayes block denoiser, and per-iteration
empirical diagnostics.

Recursion (symmetric, rescaled observations):

    X^t = sum_k Y_k M^{t-1} Lambda_k^T - M^{t-2} (B^{t-1})^T,   M^t = f_t(X^t),

with M^{-1} = 0, B^0 = 0, and B^t = sum_k Lambda_k D^t Lambda_k built from
the empirical divergence D^t of the denoiser. Each view is weighted by its
coupling Lambda_k, the Bayes choice, and the denoiser channel SNR is the
empirical S^t = T(Q^t) with Q^t = (1/n) (M^t)^T M^t; this is the recursion
state evolution describes. A run is a deterministic function of
(instance, config).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import BlockPriorProfile, MTPInstance, rng_from
from .se import DomainError, OperatorT, posterior_mean_scalar

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
    M_final: np.ndarray

    @property
    def iterations(self) -> int:
        return len(self.Q_hat) - 1


@dataclass(frozen=True)
class DenoiserEval:
    """Denoised matrix together with the averaged-derivative matrix D_hat.

    divergence[j, k] = (1/n) sum_i d/dY[i, j] value[i, k]; for separable
    block denoisers this is diagonal.
    """

    value: np.ndarray
    divergence: np.ndarray


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


def init_side_information(X: np.ndarray, rho: float, slices, seed) -> np.ndarray:
    """M0 = rho X + sqrt(rho - rho^2) Z with Z zero outside the blocks (column j
    is drawn on the rows ``slices[j]`` of block j only), so that both
    (1/n) X^T M0 and (1/n) M0^T M0 concentrate on rho * diag(beta), also for a
    block whose prior puts mass on zero."""
    if not (0.0 <= rho <= 1.0):
        raise DomainError(f"rho must lie in [0, 1], got {rho}")
    X = np.asarray(X, float)
    rng = rng_from(seed)
    draws = rng.standard_normal(X.shape)
    Z = np.zeros(X.shape)
    for j, sl in enumerate(slices):
        Z[sl, j] = draws[sl, j]
    return rho * X + np.sqrt(max(rho - rho * rho, 0.0)) * Z


def _block_mse(X, M, slices) -> np.ndarray:
    out = np.empty(len(slices))
    for j, sl in enumerate(slices):
        diff = X[sl, j] - M[sl, j]
        out[j] = float(diff @ diff) / (sl.stop - sl.start)
    return out


def _check_block_support(X, slices):
    """Raise DomainError unless column j of X is zero outside block j's rows."""
    if X.shape[1] != len(slices):
        raise DomainError(f"signal width {X.shape[1]} != d={len(slices)} of the profile")
    for j, sl in enumerate(slices):
        col = X[:, j]
        if np.any(col[:sl.start]) or np.any(col[sl.stop:]):
            raise DomainError(
                f"signal column {j + 1} has a nonzero entry outside block {j + 1} "
                f"(rows {sl.start}:{sl.stop}); the block product needs X zero off its block"
            )


def _block_product(G, M, slices) -> np.ndarray:
    """G @ M for a symmetric G stored as upper row panels (``SymmetricPanels``)
    and M zero outside its blocks. Panel P = G[a:a + h, a:] gives, for each
    block j, its own rows directly, P[:, block j] @ M[block j, j] over its
    columns in block j, and the rows below it by symmetry,
    M[rows in block j, j] @ P[rows in block j, h:]. Each stored entry off the
    diagonal blocks is read twice, so the product reads as many bytes as a
    dense one. With one panel (n <= 512) it makes the dense product's calls,
    G[:, sl_j] @ M[sl_j, j], with the same bits."""
    n = G.n
    out = np.zeros((n, len(slices)))
    for P in G.panels:
        h, a = P.shape[0], n - P.shape[1]
        for j, sl in enumerate(slices):
            lo = max(sl.start, a)
            if lo < sl.stop:
                out[a:a + h, j] += P[:, lo - a:sl.stop - a] @ M[lo:sl.stop, j]
            hi = min(sl.stop, a + h)
            if lo < hi and a + h < n:
                out[a + h:, j] += M[lo:hi, j] @ P[lo - a:hi - a, h:]
    return out


def _view_product(instance: MTPInstance, k: int, M, slices) -> np.ndarray:
    """Y_k @ M without forming Y_k: the noise part G_k M / sqrt(n) by blocks
    plus the rank-d spike X (Lambda_k (X^T M)) / n, which costs O(n d^2)."""
    X, n = instance.X, instance.n
    lam = instance.couplings.matrices[k]
    return _block_product(instance.noise[k], M, slices) / np.sqrt(n) + X @ (lam @ (X.T @ M)) / n


def run_symmetric(instance: MTPInstance, config: AMPConfig) -> AMPTrace:
    """Run the symmetric AMP recursion on an instance.

    The denoiser is the separable Bayes ``block_denoiser`` of the instance
    profile. It takes the raw iterate X^t and S_t = T(Q_hat^t) and returns M^t
    with its divergence with respect to X^t, which the Onsager term uses
    (unless ablated). It is looked up as this module's ``block_denoiser`` at
    every call, so wrapping that name sees each (S_t, X^t); the tests read
    the iterates there, and the trace keeps none. The profile's block slices also place the init noise
    and the per-block MSE. ``DivergenceError(t)`` is raised as soon as
    Q_hat^t, X^t or S_t (before the denoiser is called), or M^t or its
    divergence, is not finite.

    Y_k is never formed: each view's product Y_k M is the noise part
    G_k M / sqrt(n) plus the rank-d spike X Lambda_k (X^T M) / n. Every M^t is
    zero outside its blocks (column j lives on the rows of block j), so the
    noise part is formed block by block, column j as
    G_k[:, block j] @ M[block j, j], skipping the structural zeros of M, from
    the upper row panels G_k is stored as (``_block_product``). The sum
    equals the dense product up to the last ulps. It requires X to be zero
    outside its blocks, as every instance the package builds is (so
    M^0 = rho X + noise on the blocks is too); a DomainError naming the block
    is raised otherwise.
    """
    X = instance.X
    n, d = X.shape
    lams = instance.couplings.matrices
    op = OperatorT(instance.couplings)
    profile = instance.profile
    slices = profile.block_slices(n)
    _check_block_support(X, slices)

    M_prev = init_side_information(X, config.rho, slices, [config.seed, _INIT_TAG])
    M_prev2 = np.zeros_like(M_prev)
    B_prev = np.zeros((d, d))

    F_hat, Q_hat, mse = [], [], []

    def record(M):
        F_hat.append(X.T @ M / n)
        Q = M.T @ M / n
        Q_hat.append((Q + Q.T) / 2.0)
        mse.append(_block_mse(X, M, slices))

    record(M_prev)
    for t in range(1, config.max_iter + 1):
        if not np.isfinite(Q_hat[-1]).all():  # T takes finite overlaps only
            raise DivergenceError(t)
        with np.errstate(invalid="ignore", over="ignore"):
            Xt = -M_prev2 @ B_prev.T
            for k, lam in enumerate(lams):
                Xt += _view_product(instance, k, M_prev, slices) @ lam.T
            # the iterate's law is X S_t + Z with row covariance S_t = T(Q_hat)
            S_t = op.apply(Q_hat[-1])
        if not (np.isfinite(Xt).all() and np.isfinite(S_t).all()):
            raise DivergenceError(t)
        ev = block_denoiser(profile, S_t, Xt)
        M_t, D_t = ev.value, ev.divergence
        if not (np.isfinite(M_t).all() and np.isfinite(D_t).all()):
            raise DivergenceError(t)
        B_t = np.zeros((d, d))
        if config.correction == "divergence":
            for lam in lams:
                B_t += lam @ D_t @ lam
        record(M_t)
        M_prev2, M_prev, B_prev = M_prev, M_t, B_t
    return AMPTrace(F_hat, Q_hat, mse, M_prev)
