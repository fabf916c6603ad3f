"""Deterministic state evolution: overlap functions, the coupling operator, and
fixed-point machinery.

The overlap of a scalar prior at SNR s is psi(s) = E[E[X | sqrt(s) X + Z]^2],
a nondecreasing map from [0, inf) to [0, 1). Block profiles act diagonally:
psi_j reads only S[j, j] and carries the block fraction beta_j, so state
evolution Q^{t+1} = psi(T(Q^t)) reduces to the vector recursion
q^{t+1} = psi(sum_k Lambda_k**2 q^t).

Quadrature: Gauss-Hermite for the Rademacher and Gaussian overlaps; the
Bernoulli-Gaussian mixture is integrated with panel Gauss-Legendre split at
the responsibility transition (Gauss-Hermite converges too slowly there).
Every evaluation is re-done at doubled order and must agree to 1e-8.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .denoise import (
    DomainError,
    posterior_mean_scalar,
    posterior_variance_scalar,
)
from .model import (
    GAUSSIAN,
    RADEMACHER,
    BlockPriorProfile,
    CouplingSet,
    ScalarPrior,
    rng_from,
)


class PrecisionError(RuntimeError):
    pass


class InconclusiveCheckError(RuntimeError):
    pass


@lru_cache(maxsize=64)
def _hermegauss(order: int):
    # probabilists' Hermite nodes/weights: integral against exp(-x^2/2)
    x, w = np.polynomial.hermite_e.hermegauss(order)
    return x, w / np.sqrt(2.0 * np.pi)


@lru_cache(maxsize=64)
def _leggauss(order: int):
    return np.polynomial.legendre.leggauss(order)


def gauss_expect(f, order: int) -> float:
    """E[f(Z)] for Z ~ N(0, 1) by Gauss-Hermite quadrature."""
    x, w = _hermegauss(order)
    return float(np.dot(w, f(x)))


def _panel_gauss_expect_even(f, sigma: float, breaks, order: int) -> float:
    """2 * int_0^L f(y) phi_sigma(y) dy for even f, panel Gauss-Legendre."""
    x, w = _leggauss(order)
    total = 0.0
    norm = 1.0 / (sigma * np.sqrt(2.0 * np.pi))
    for a, b in zip(breaks[:-1], breaks[1:]):
        mid, half = (a + b) / 2.0, (b - a) / 2.0
        y = mid + half * x
        total += half * float(np.dot(w, f(y) * np.exp(-np.square(y / sigma) / 2.0)))
    return 2.0 * total * norm


def _panel_normal_expect(f, mu: float, sigma: float, features, order: int) -> float:
    """E[f(Y)] for Y ~ N(mu, sigma^2) by panel Gauss-Legendre on [mu - 10 sigma,
    mu + 10 sigma], with extra panel boundaries at the listed feature points."""
    lo, hi = mu - 10.0 * sigma, mu + 10.0 * sigma
    pts = sorted({lo, hi, *(v for v in features if lo < v < hi)})
    x, w = _leggauss(order)
    total = 0.0
    norm = 1.0 / (sigma * np.sqrt(2.0 * np.pi))
    for a, b in zip(pts[:-1], pts[1:]):
        mid, half = (a + b) / 2.0, (b - a) / 2.0
        y = mid + half * x
        total += half * float(np.dot(w, f(y) * np.exp(-np.square((y - mu) / sigma) / 2.0)))
    return total * norm


def _bg_breaks(s: float, eps: float) -> list[float]:
    """Integration breakpoints (in y) around the BG responsibility transition."""
    sig2 = 1.0 + s / eps
    sig = np.sqrt(sig2)
    L = 10.0 * sig
    pts = {0.0, L}
    gamma = s / (eps + s)
    if 0 < eps < 1:
        bracket = 2.0 * (np.log((1.0 - eps) / eps) + 0.5 * np.log(sig2))
        if bracket > 0 and gamma > 0:
            ystar = np.sqrt(bracket / gamma)
            for m in (0.5, 1.0, 1.5, 2.5):
                v = m * ystar
                if 0 < v < L:
                    pts.add(v)
    pts.update(v for v in (1.0, sig, 3.0 * sig) if 0 < v < L)
    return sorted(pts)


def _psi_bg(s: float, eps: float, order: int) -> float:
    # psi = eps * kappa^2 * E_{N(0, sig2)}[y^2 r(y)] with kappa = sqrt(s)/(eps+s),
    # using r(y) p(y) = eps * phi_spike(y) to collapse the mixture.
    sig2 = 1.0 + s / eps
    kappa2 = s / (eps + s) ** 2

    def integrand(y):
        if eps >= 1.0:
            r = np.ones_like(y)
        else:
            log_spike = np.log(eps) - 0.5 * np.log(sig2) - np.square(y) / (2.0 * sig2)
            log_null = np.log1p(-eps) - np.square(y) / 2.0
            r = 1.0 / (1.0 + np.exp(np.clip(log_null - log_spike, -745.0, 745.0)))
        return np.square(y) * r

    val = _panel_gauss_expect_even(integrand, np.sqrt(sig2), _bg_breaks(s, eps), order)
    return eps * kappa2 * val


def _psi_once(prior: ScalarPrior, s: float, order: int) -> float:
    if prior.kind == GAUSSIAN:
        # eta is linear, so the integrand is quadratic and quadrature is exact
        c = np.sqrt(s) / (1.0 + s)
        return gauss_expect(lambda u: np.square(c * np.sqrt(1.0 + s) * u), order)
    if prior.kind == RADEMACHER:
        # by symmetry condition on X = +1: E_{y~N(sqrt(s),1)}[tanh^2(sqrt(s) y)];
        # tanh transitions on scale 1/sqrt(s) around y = 0
        rs = np.sqrt(s)
        width = 4.0 / max(rs, 1.0)
        feats = [-2 * width, -width, 0.0, width, 2 * width]
        return _panel_normal_expect(
            lambda y: np.square(np.tanh(rs * y)), rs, 1.0, feats, order
        )
    return _psi_bg(s, prior.eps, order)


def overlap_psi_scalar(prior: ScalarPrior, s: float, order: int = 61) -> float:
    """E[E[X | sqrt(s) X + Z]^2] in [0, 1]; raises PrecisionError if the
    quadrature has not converged (order vs. doubled order beyond 1e-8)."""
    s = float(s)
    if s < 0:
        raise DomainError(f"SNR must be nonnegative, got {s}")
    if s == 0.0:
        return 0.0
    v1 = _psi_once(prior, s, order)
    v2 = _psi_once(prior, s, 2 * order)
    if abs(v1 - v2) > 1e-8:
        raise PrecisionError(
            f"overlap quadrature not converged for {prior.name} at s={s}: "
            f"|delta| = {abs(v1 - v2):.2e}"
        )
    return float(np.clip(v2, 0.0, 1.0))


def overlap_psi_derivative_scalar(prior: ScalarPrior, s: float, order: int = 61) -> float:
    """d psi / d s by central differences (step max(1e-5, 1e-3 s))."""
    s = float(s)
    h = max(1e-5, 1e-3 * s)
    if s - h < 0:
        return (overlap_psi_scalar(prior, s + h, order) - overlap_psi_scalar(prior, s, order)) / h
    up = overlap_psi_scalar(prior, s + h, order)
    dn = overlap_psi_scalar(prior, s - h, order)
    return (up - dn) / (2.0 * h)


def overlap_psi_monte_carlo(prior: ScalarPrior, s: float, n_samples: int, seed=0) -> float:
    """Monte Carlo fallback/oracle for the overlap (used for cross-checks)."""
    rng = rng_from(seed)
    x = prior.sample(rng, n_samples)
    y = np.sqrt(s) * x + rng.standard_normal(n_samples)
    eta = posterior_mean_scalar(prior, s, y)
    return float(np.mean(eta * eta))


@dataclass(frozen=True)
class OperatorT:
    """The coupling operator T(Q) = sum_k Lambda_k Q Lambda_k (linear, PSD-preserving)."""

    couplings: CouplingSet

    def __post_init__(self):
        self.couplings.require_symmetric()

    @property
    def d(self) -> int:
        return self.couplings.d

    def apply(self, Q: np.ndarray) -> np.ndarray:
        Q = np.asarray(Q, float)
        if Q.shape != (self.d, self.d):
            raise DomainError(f"argument shape {Q.shape} != ({self.d}, {self.d})")
        if np.abs(Q - Q.T).max() > 1e-10 * max(1.0, np.abs(Q).max()):
            raise DomainError("argument must be symmetric")
        out = np.zeros_like(Q)
        for lam in self.couplings.matrices:
            out += lam @ Q @ lam
        return (out + out.T) / 2.0

    @property
    def hadamard_matrix(self) -> np.ndarray:
        """sum_k Lambda_k**2 entrywise: the vector form of T on diagonal overlaps."""
        return self.couplings.hadamard_square_sum()


@dataclass(frozen=True)
class OverlapModel:
    """Block prior profile plus quadrature settings for the overlap map."""

    profile: BlockPriorProfile
    quad_order: int = 61

    @property
    def d(self) -> int:
        return self.profile.d

    @property
    def beta(self) -> np.ndarray:
        return np.asarray(self.profile.beta, float)

    def psi_scalar(self, j: int, s: float) -> float:
        return overlap_psi_scalar(self.profile.priors[j], s, self.quad_order)

    def psi_vector(self, s: np.ndarray) -> np.ndarray:
        """Block overlap vector: beta_j * psi_j(s_j); the SE nonlinearity."""
        s = np.asarray(s, float)
        return np.array(
            [b * self.psi_scalar(j, max(sj, 0.0)) for j, (b, sj) in enumerate(zip(self.beta, s))]
        )

    def psi_matrix(self, S: np.ndarray) -> np.ndarray:
        """Matrix overlap for block priors: reads only diag(S), returns a diagonal."""
        return np.diag(self.psi_vector(np.diag(np.asarray(S, float))))

    def dpsi_vector(self, s: np.ndarray) -> np.ndarray:
        """Diagonal of the overlap gradient: beta_j * psi_j'(s_j)."""
        s = np.asarray(s, float)
        return np.array(
            [
                b * overlap_psi_derivative_scalar(self.profile.priors[j], max(sj, 0.0), self.quad_order)
                for j, (b, sj) in enumerate(zip(self.beta, s))
            ]
        )


@dataclass
class SETrajectory:
    """State-evolution orbit: Q[i] = Q^{i+1}, S[i] = T(Q[i])."""

    Q: list
    S: list
    converged: bool
    iterations: int
    Q_star: np.ndarray

    @property
    def q_vectors(self) -> np.ndarray:
        return np.array([np.diag(q) for q in self.Q])

    @property
    def q_star(self) -> np.ndarray:
        return np.diag(self.Q_star)

    def to_csv(self, path: str, seed=None, version: str | None = None):
        d = self.Q[0].shape[0]
        extra = ([] if seed is None else ["seed"]) + ([] if version is None else ["version"])
        with open(path, "w", newline="") as fh:
            wr = csv.writer(fh)
            wr.writerow(
                ["t"]
                + [f"q_{j + 1}" for j in range(d)]
                + [f"s_{j + 1}" for j in range(d)]
                + ["converged"]
                + extra
            )
            for i, (q, s) in enumerate(zip(self.Q, self.S)):
                wr.writerow(
                    [i + 1]
                    + [repr(float(v)) for v in np.diag(q)]
                    + [repr(float(v)) for v in np.diag(s)]
                    + [int(self.converged)]
                    + ([] if seed is None else [seed])
                    + ([] if version is None else [version])
                )


def run_se(
    model: OverlapModel,
    op: OperatorT,
    Q1: np.ndarray,
    tol: float = 1e-10,
    max_iter: int = 10_000,
) -> SETrajectory:
    """Iterate Q^{t+1} = psi(T(Q^t)) from Q1 until the Frobenius step < tol."""
    Q = np.asarray(Q1, float)
    Q = (Q + Q.T) / 2.0
    lo = float(np.linalg.eigvalsh(Q).min()) if Q.size else 0.0
    if lo < -1e-10 * max(1.0, float(np.abs(Q).max())):
        raise DomainError(f"Q1 must be PSD (min eigenvalue {lo:.3e})")
    Qs = [Q]
    Ss = [op.apply(Q)]
    converged = False
    it = 0
    for it in range(1, max_iter + 1):
        Qn = model.psi_matrix(Ss[-1])
        step = float(np.linalg.norm(Qn - Qs[-1]))
        Qs.append(Qn)
        Ss.append(op.apply(Qn))
        if step < tol:
            converged = True
            break
    return SETrajectory(Qs, Ss, converged, it, Qs[-1])


def refine_fixed_point(
    model: OverlapModel,
    op: OperatorT,
    q: np.ndarray,
    tol: float = 1e-12,
    max_iter: int = 200,
) -> tuple[np.ndarray, float]:
    """Polish a block fixed point of q = psi(H q) by damped Newton with a
    fixed-point fallback; returns (q_star, residual)."""
    H = op.hadamard_matrix
    beta = model.beta
    q = np.clip(np.asarray(q, float), 0.0, beta)

    def g(qv):
        return model.psi_vector(H @ qv) - qv

    res = g(q)
    for _ in range(max_iter):
        nrm = float(np.abs(res).max())
        if nrm < tol:
            break
        J = np.diag(model.dpsi_vector(H @ q)) @ H - np.eye(model.d)
        try:
            step = np.linalg.solve(J, -res)
        except np.linalg.LinAlgError:
            step = res  # plain fixed-point move
        q_new = np.clip(q + step, 0.0, beta)
        res_new = g(q_new)
        if float(np.abs(res_new).max()) > nrm:
            q_new = np.clip(q + res, 0.0, beta)  # fall back to SE iteration
            res_new = g(q_new)
        q, res = q_new, res_new
    return q, float(np.abs(res).max())


def gaussian_overlap(V: np.ndarray, S: np.ndarray, n: int) -> np.ndarray:
    """Finite-n overlap matrix for a zero-mean Gaussian prior with vec-covariance
    V V^T (column-major vec): (1/n) tr_n{V (I+W)^{-1} W V^T}, W = V^T (S (x) I) V."""
    V = np.asarray(V, float)
    S = np.asarray(S, float)
    d = V.shape[0] // n
    if V.shape[0] != n * d:
        raise DomainError("factor rows must equal n*d")
    q = V.shape[1]
    Vb = V.reshape(d, n, q)
    W = np.zeros((q, q))
    for a in range(d):
        for b in range(d):
            if S[a, b] != 0.0:
                W += S[a, b] * (Vb[a].T @ Vb[b])
    cond = np.linalg.cond(np.eye(q) + W)
    if not np.isfinite(cond) or cond > 1e12:
        from .denoise import NumericalConditioningError

        raise NumericalConditioningError(f"inner solve ill-conditioned (cond={cond:.3e})")
    M = np.linalg.solve(np.eye(q) + W, W)
    psi = np.empty((d, d))
    for k in range(d):
        for l in range(d):
            psi[k, l] = np.einsum("ip,pq,iq->", Vb[k], M, Vb[l]) / n
    return (psi + psi.T) / 2.0


def mmse_matrix(model: OverlapModel, S: np.ndarray) -> np.ndarray:
    """Limiting matrix MMSE for centered block priors: diag(beta) - psi(S)."""
    return np.diag(model.beta) - model.psi_matrix(S)


def _psd_sqrt(S: np.ndarray) -> np.ndarray:
    evals, evecs = np.linalg.eigh(S)
    if evals.min() < -1e-10 * max(1.0, evals.max(initial=1.0)):
        raise DomainError("S must be PSD")
    return evecs @ np.diag(np.sqrt(np.clip(evals, 0.0, None))) @ evecs.T


@dataclass
class GradientCheckReport:
    directions: list
    fd_means: np.ndarray        # (n_dir, d) finite-difference diagonal of dM
    pred_means: np.ndarray      # (n_dir, d) -E[Psi] vec(Delta) diagonal entries
    combined_se: np.ndarray     # (n_dir, d)
    max_sigma_deviation: float  # worst |fd - pred| / se
    passed: bool


def mmse_gradient_check(
    model: OverlapModel,
    S: np.ndarray,
    n_small: int,
    n_samples: int = 20_000,
    n_directions: int = 3,
    fd_step: float = 1e-3,
    seed=0,
    sigma_tol: float = 3.0,
) -> GradientCheckReport:
    """Monte Carlo verification that the MMSE gradient equals -E[Psi(H_S)].

    For block priors the conditional covariance per row is scalar and closed
    form, so both sides reduce to per-block averages of posterior variances
    (for M) and squared posterior variances (for Psi). Finite differences of M
    along random PSD directions use common random numbers.
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
    fd_means = np.zeros((n_directions, d))
    pred_means = np.zeros((n_directions, d))
    ses = np.zeros((n_directions, d))
    worst = 0.0
    for m, Delta in enumerate(directions):
        Mp, _ = per_sample_stats(S + fd_step * Delta)
        Mm, _ = per_sample_stats(S - fd_step * Delta)
        fd = (Mp - Mm) / (2.0 * fd_step)          # per-sample FD of M diagonal
        pred = -Pd0 * np.diag(Delta)[None, :]     # -E[Psi] vec(Delta), diagonal part
        fd_means[m] = fd.mean(axis=0)
        pred_means[m] = pred.mean(axis=0)
        se = np.sqrt(fd.var(axis=0) / n_samples + pred.var(axis=0) / n_samples)
        ses[m] = se
        for j in range(d):
            scale = abs(pred_means[m, j])
            if scale > 1e-4 and sigma_tol * se[j] > 0.5 * scale:
                raise InconclusiveCheckError(
                    f"Monte Carlo error too large to resolve gradient entry "
                    f"(direction {m}, block {j}): 3*se={sigma_tol * se[j]:.2e} vs scale {scale:.2e}"
                )
            dev = abs(fd_means[m, j] - pred_means[m, j]) / max(se[j], 1e-300)
            worst = max(worst, dev)
    return GradientCheckReport(
        directions, fd_means, pred_means, ses, worst, bool(worst <= sigma_tol)
    )
