"""The scalar Gaussian channel y = sqrt(s) X + Z, and deterministic state
evolution: the coupling operator and fixed-point machinery.

Every quantity of the channel reads one prior at one SNR s, with Z ~ N(0,1)
independent of X:

- the posterior mean eta(y) = E[X | y] and its derivative in y, from one
  pass over the prior (AMP's denoiser);
- the overlap psi(s) = E[E[X | y]^2], a nondecreasing map from [0, inf) to
  [0, 1) (the nonlinearity of state evolution), and its derivative
  psi'(s) = E[Var(X | y)^2], the derivative of the MMSE 1 - psi (Guo, Wu,
  Shamai and Verdu 2011);
- the relative entropy D(s) = KL(law(y) || law(Z)) (the variational bound).

The Bernoulli-Gaussian posterior is evaluated through the mixture
responsibility in log space, so it stays finite for arbitrarily large |y|;
the BG quadratures read the same responsibility as 1 / (1 + exp(c - b y^2)),
with c and b computed once per s.

Block profiles act diagonally: block j sees only its own SNR s_j, so state
evolution carries the overlap vector q alone,

    q^{t+1} = beta * psi(H q^t),    s^t = H q^t,    H = sum_k Lambda_k**2,

entrywise in beta and psi, and every caller forms s the same way, as H @ q.

The Gaussian channel is closed form, psi(s) = s / (1 + s),
psi'(s) = 1 / (1 + s)^2 and D(s) = (s - log(1 + s)) / 2. The Rademacher and
Bernoulli-Gaussian psi, psi' and D are integrated with panel Gauss-Legendre,
split where the integrand turns (for BG, at the responsibility transition).
Every evaluation is also made at doubled order and must agree (psi and psi'
to 1e-8, D to max(1e-12, 1e-8 |D|)). One
integrand call covers both orders and every panel: the nodes form one
(panels, 3 * order) array, and each value is then summed panel by panel, so
it has the bits of a per-panel loop.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .model import (
    GAUSSIAN,
    RADEMACHER,
    BlockPriorProfile,
    CouplingSet,
    ScalarPrior,
)


class DomainError(ValueError):
    pass


class PrecisionError(RuntimeError):
    pass


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


def _read_only(a: np.ndarray) -> np.ndarray:
    # cached rules are shared by every caller; a write would corrupt them all
    a.setflags(write=False)
    return a


@lru_cache(maxsize=64)
def _paired_rule(order: int):
    """(nodes, w_order, w_2order): the Gauss-Legendre nodes at order and at
    2 * order concatenated, so one integrand call serves both orders."""
    x1, w1 = np.polynomial.legendre.leggauss(order)
    x2, w2 = np.polynomial.legendre.leggauss(2 * order)
    return _read_only(np.concatenate([x1, x2])), _read_only(w1), _read_only(w2)


def _panel_sum(f, breaks, order: int) -> tuple[float, float]:
    """int f(y) dy over [breaks[0], breaks[-1]] by Gauss-Legendre on each panel
    between consecutive breakpoints, at order and at 2 * order.

    f is called once, on the (panels, 3 * order) array of every panel's nodes
    at both orders. The rows are dotted with the weights by one stacked
    matmul of (1, n) @ (n, 1) blocks per order, which BLAS computes row by row
    as a dot product, and each value is summed panel by panel, so it has the
    bits of a loop that calls f per panel and per order (one matrix-vector
    product would move the last ulp)."""
    x, w1, w2 = _paired_rule(order)
    mid, half = [], []
    for lo, hi in zip(breaks[:-1], breaks[1:]):
        mid.append((lo + hi) / 2.0)
        half.append((hi - lo) / 2.0)
    fy = f(np.array(mid)[:, None] + np.array(half)[:, None] * x)[:, None]
    dots1 = np.matmul(fy[..., :order], w1[:, None]).ravel().tolist()
    dots2 = np.matmul(fy[..., order:], w2[:, None]).ravel().tolist()
    v1 = v2 = 0.0
    for h, d1, d2 in zip(half, dots1, dots2):
        v1 += h * d1
        v2 += h * d2
    return v1, v2


def _bg_breaks(s: float, eps: float) -> list[float]:
    """Integration breakpoints (in y) around the BG responsibility transition."""
    sig2 = 1.0 + s / eps
    sig = math.sqrt(sig2)
    L = 10.0 * sig
    pts = {0.0, L}
    gamma = s / (eps + s)
    if 0 < eps < 1:
        bracket = 2.0 * (np.log((1.0 - eps) / eps) + 0.5 * np.log(sig2))
        if bracket > 0 and gamma > 0:
            ystar = math.sqrt(bracket / gamma)
            for m in (0.5, 1.0, 1.5, 2.5):
                v = m * ystar
                if 0 < v < L:
                    pts.add(v)
    pts.update(v for v in (1.0, sig, 3.0 * sig) if 0 < v < L)
    return sorted(pts)


_SQRT_2PI = math.sqrt(2.0 * math.pi)


def _bg_logit(s: float, eps: float) -> tuple[float, float]:
    """(c, b) with log_null - log_spike = c - b y^2 (``_bg_log_terms``), so
    P(spike | y) = 1 / (1 + exp(c - b y^2)). c is -inf when eps = 1, where the
    null component is absent, and at most 709, so exp(c - b y^2) is finite
    (where the cap binds, the responsibility reads below 1e-307 instead of 0)."""
    b = s / (2.0 * (eps + s))
    if eps >= 1.0:
        return -math.inf, b
    c = math.log1p(-eps) - math.log(eps) + 0.5 * math.log(1.0 + s / eps)
    return min(c, 709.0), b


def _bg_inverse_responsibility(y2, c: float, b: float):
    """1 / P(spike | y) = 1 + exp(c - b y^2) at y2 = y^2, for the BG quadratures."""
    return 1.0 + np.exp(c - b * y2)


def _psi_bg(s: float, eps: float, order: int) -> tuple[float, float]:
    # psi = eps * kappa^2 * E_{N(0, sig2)}[y^2 r(y)] with kappa = sqrt(s)/(eps+s),
    # using r(y) p(y) = eps * phi_spike(y) to collapse the mixture; the
    # integrand is even, so it is integrated over [0, L] and doubled
    sig2 = 1.0 + s / eps
    kappa2 = s / (eps + s) ** 2
    c, b = _bg_logit(s, eps)
    a = -0.5 / sig2

    def integrand(y):
        y2 = y * y
        return y2 * np.exp(a * y2) / _bg_inverse_responsibility(y2, c, b)

    norm = 1.0 / (math.sqrt(sig2) * _SQRT_2PI)
    v1, v2 = _panel_sum(integrand, _bg_breaks(s, eps), order)
    return eps * kappa2 * (2.0 * v1 * norm), eps * kappa2 * (2.0 * v2 * norm)


def _dpsi_bg(s: float, eps: float, order: int) -> tuple[float, float]:
    # E[Var(X | y)^2] with Var = r (v + (1 - r) mu^2), v = 1/(eps+s) and
    # mu = sqrt(s) y/(eps+s) the spike posterior; r p = eps phi_spike
    # collapses the mixture as in _psi_bg
    sig2 = 1.0 + s / eps
    v = 1.0 / (eps + s)
    k2 = s * v * v
    c, b = _bg_logit(s, eps)
    a = -0.5 / sig2

    def integrand(y):
        y2 = y * y
        r = 1.0 / _bg_inverse_responsibility(y2, c, b)
        return r * np.square(v + (1.0 - r) * (k2 * y2)) * np.exp(a * y2)

    norm = 2.0 * eps / (math.sqrt(sig2) * _SQRT_2PI)
    v1, v2 = _panel_sum(integrand, _bg_breaks(s, eps), order)
    return v1 * norm, v2 * norm


def _rademacher_breaks(prior: ScalarPrior, s: float) -> tuple[float, list[float]]:
    """(sqrt(s), panels over sqrt(s) +- 10): conditioned on X = +1, y ~
    N(sqrt(s), 1); tanh(sqrt(s) y) transitions on scale 1/sqrt(s) around
    y = 0, so the panels also break there."""
    rs = math.sqrt(s)
    lo, hi = rs - 10.0, rs + 10.0
    if not lo < rs < hi:
        raise DomainError(f"panels of {prior.name} collapse at s={s}: sqrt(s) +- 10 rounds to sqrt(s)")
    width = 4.0 / max(rs, 1.0)
    feats = [-2 * width, -width, 0.0, width, 2 * width]
    return rs, sorted({lo, hi, *(v for v in feats if lo < v < hi)})


def _psi_once(prior: ScalarPrior, s: float, order: int) -> tuple[float, float]:
    """psi(s) by quadrature at order and at 2 * order; the Gaussian psi is
    closed form, so both of its values are exact."""
    if prior.kind == GAUSSIAN:
        psi = s / (1.0 + s)
        return psi, psi
    if prior.kind == RADEMACHER:
        # by symmetry condition on X = +1: E_{y~N(sqrt(s),1)}[tanh^2(sqrt(s) y)]
        rs, breaks = _rademacher_breaks(prior, s)

        def integrand(y):
            return np.square(np.tanh(rs * y)) * np.exp(np.square(y - rs) * -0.5)

        v1, v2 = _panel_sum(integrand, breaks, order)
        return v1 * (1.0 / _SQRT_2PI), v2 * (1.0 / _SQRT_2PI)
    return _psi_bg(s, prior.eps, order)


def _dpsi_once(prior: ScalarPrior, s: float, order: int) -> tuple[float, float]:
    """psi'(s) = E[Var(X | y)^2] by quadrature at order and at 2 * order, on
    the panels of psi; the Gaussian psi' is closed form."""
    if prior.kind == GAUSSIAN:
        g = 1.0 / (1.0 + s)
        return g * g, g * g
    if prior.kind == RADEMACHER:
        rs, breaks = _rademacher_breaks(prior, s)

        def integrand(y):
            t = np.tanh(rs * y)
            return np.square(1.0 - t * t) * np.exp(np.square(y - rs) * -0.5)

        v1, v2 = _panel_sum(integrand, breaks, order)
        return v1 * (1.0 / _SQRT_2PI), v2 * (1.0 / _SQRT_2PI)
    return _dpsi_bg(s, prior.eps, order)


def _converged(once, what: str, prior: ScalarPrior, s: float, order: int) -> float:
    """The 2 * order value of ``once(prior, s, order)``; PrecisionError unless
    it is within 1e-8 of the order value (so also if either is not finite),
    and DomainError if a finite s is so large that the quadrature overflows."""
    try:
        v1, v2 = once(prior, s, order)
    except OverflowError:
        raise DomainError(f"{what} of {prior.name} overflows at s={s}") from None
    if not abs(v1 - v2) <= 1e-8:
        raise PrecisionError(
            f"{what} quadrature not converged for {prior.name} at s={s}: "
            f"|delta| = {abs(v1 - v2):.2e}"
        )
    return v2


def overlap_psi_scalar(prior: ScalarPrior, s: float, order: int = 61) -> float:
    """E[E[X | sqrt(s) X + Z]^2] in [0, 1]; raises PrecisionError if the
    quadrature has not converged (order vs. doubled order beyond 1e-8, or a
    value that is not finite), and DomainError if a finite s is so large
    that the quadrature overflows or its panels collapse."""
    s = _check_snr(s)
    if s == 0.0:
        return 0.0
    return min(max(_converged(_psi_once, "overlap", prior, s, order), 0.0), 1.0)


def overlap_psi_derivative_scalar(prior: ScalarPrior, s: float, order: int = 61) -> float:
    """d psi / d s = E[Var(X | sqrt(s) X + Z)^2] >= 0, the derivative of the
    MMSE 1 - psi (Guo, Wu, Shamai and Verdu 2011), by the quadrature of psi
    with its doubled-order check and error paths."""
    s = _check_snr(s)
    return _converged(_dpsi_once, "overlap derivative", prior, s, order)


_LOG_NORM = -0.5 * np.log(2.0 * np.pi)
_KL_ORDER = 80  # Gauss-Legendre nodes per panel of kl_channel


def _p_log_p_over_phi(logp):
    """y -> p(y) log(p(y)/phi(y)) for the channel marginal with log-density logp."""

    def f(y):
        lp = logp(y)
        return np.exp(lp) * (lp - (_LOG_NORM - np.square(y) * 0.5))

    return f


def _kl_integrand_panels(prior: ScalarPrior, s: float):
    """(integrand, breakpoints) for 2 * int_0^L p_s(y) log(p_s/phi)(y) dy of a
    Rademacher or Bernoulli-Gaussian prior."""
    L = 12.0 + 6.0 * math.sqrt(s)
    if prior.kind == RADEMACHER:
        rs = math.sqrt(s)
        if rs + 4.0 == rs:
            raise DomainError(f"panels of {prior.name} collapse at s={s}: sqrt(s) + 4 rounds to sqrt(s)")
        f = _p_log_p_over_phi(lambda y: _LOG_NORM + np.log(0.5) + np.logaddexp(
            np.square(y - rs) * -0.5, np.square(y + rs) * -0.5
        ))
        breaks = {0.0, L}
        for v in (max(rs - 4.0, 0.0), rs, rs + 4.0):
            if 0 < v < L:
                breaks.add(v)
        return f, sorted(breaks)
    eps = prior.eps
    L = max(L, 10.0 * math.sqrt(1.0 + s / eps))
    f = _p_log_p_over_phi(lambda y: _LOG_NORM + np.logaddexp(*_bg_log_terms(y, s, eps)))
    breaks = set(_bg_breaks(s, eps))
    breaks.add(L)
    return f, sorted(v for v in breaks if v <= L)


def _kl_once(prior: ScalarPrior, s: float, order: int) -> tuple[float, float]:
    """D(s) by panel integration at order and at 2 * order; the Gaussian D is
    closed form, so both of its values are exact."""
    if prior.kind == GAUSSIAN:
        kl = 0.5 * (s - math.log1p(s))
        return kl, kl
    f, breaks = _kl_integrand_panels(prior, s)
    v1, v2 = _panel_sum(f, breaks, order)
    return 2.0 * v1, 2.0 * v2


def kl_channel(prior: ScalarPrior, s: float) -> float:
    """KL(P_{sqrt(s) X + Z} || P_Z) >= 0, by panel integration of p log(p/phi);
    the doubled-order evaluation must agree to max(1e-12, 1e-8 |D|)."""
    s = _check_snr(s)
    if s == 0.0:
        return 0.0
    v1, v2 = _kl_once(prior, s, _KL_ORDER)
    if not abs(v1 - v2) <= max(1e-12, 1e-8 * abs(v2)):
        raise PrecisionError(
            f"KL integration not converged for {prior.name} at s={s}: "
            f"|delta| = {abs(v1 - v2):.2e}"
        )
    return max(v2, 0.0)


@dataclass(frozen=True)
class OperatorT:
    """The coupling operator T(Q) = sum_k Lambda_k Q Lambda_k (linear, PSD-preserving)."""

    couplings: CouplingSet

    @property
    def d(self) -> int:
        return self.couplings.d

    def apply(self, Q: np.ndarray) -> np.ndarray:
        Q = np.asarray(Q, float)
        if Q.shape != (self.d, self.d):
            raise DomainError(f"argument shape {Q.shape} != ({self.d}, {self.d})")
        if not np.isfinite(Q).all():
            raise DomainError("argument must be finite")
        if np.abs(Q - Q.T).max() > 1e-10 * max(1.0, np.abs(Q).max()):
            raise DomainError("argument must be symmetric")
        out = np.zeros_like(Q)
        for lam in self.couplings.matrices:
            out += lam @ Q @ lam
        return (out + out.T) / 2.0


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
        return np.array([b * overlap_psi_scalar(p, max(sj, 0.0), self.quad_order)
                         for p, b, sj in zip(self.profile.priors, self.beta, np.asarray(s, float))])

    def dpsi_vector(self, s: np.ndarray) -> np.ndarray:
        """Diagonal of the overlap gradient: beta_j * psi_j'(s_j)."""
        return np.array([b * overlap_psi_derivative_scalar(p, max(sj, 0.0), self.quad_order)
                         for p, b, sj in zip(self.profile.priors, self.beta, np.asarray(s, float))])


@dataclass
class SETrajectory:
    """State-evolution orbit as (iterations + 1, d) arrays: q[i] = q^{i+1} and
    s[i] = H q[i], the SNRs that produce q[i + 1]."""

    q: np.ndarray
    s: np.ndarray
    converged: bool

    @property
    def iterations(self) -> int:
        return len(self.q) - 1

    @property
    def q_star(self) -> np.ndarray:
        return self.q[-1]


def run_se(
    model: OverlapModel,
    op: OperatorT,
    Q1: np.ndarray,
    tol: float = 1e-10,
    max_iter: int = 10_000,
) -> SETrajectory:
    """Iterate q^{t+1} = beta * psi(H q^t) from Q1 = diag(q^1) until the
    Euclidean step < tol. Q1 must be diagonal and nonnegative: the block
    recursion has no off-diagonal state to carry."""
    Q1 = np.asarray(Q1, float)
    d = op.d
    if Q1.shape != (d, d) or model.d != d:
        raise DomainError(f"Q1 shape {Q1.shape} and {model.d} blocks do not match d={d}")
    q = np.diag(Q1).copy()
    if np.any(Q1 != np.diag(q)) or np.any(q < 0):
        raise DomainError(f"Q1 must be diagonal and nonnegative, got {Q1.tolist()}")
    H = op.couplings.hadamard_square_sum()
    beta, priors, order = model.beta, model.profile.priors, model.quad_order
    qs, ss = [q], [H @ q]
    converged = False
    for _ in range(max_iter):
        # model.psi_vector(ss[-1]), with beta and the priors read once per run
        qn = np.array([b * overlap_psi_scalar(p, max(sj, 0.0), order)
                       for p, b, sj in zip(priors, beta, ss[-1])])
        diff = qn - qs[-1]
        step = math.sqrt(diff @ diff)  # np.linalg.norm's sum of squares and root
        qs.append(qn)
        ss.append(H @ qn)
        if step < tol:
            converged = True
            break
    return SETrajectory(np.array(qs), np.array(ss), converged)


_REFINE_TOL = 1e-12      # max-norm residual at which refine_fixed_point stops
_REFINE_MAX_ITER = 200


def refine_fixed_point(
    model: OverlapModel,
    H: np.ndarray,
    q: np.ndarray,
) -> tuple[np.ndarray, float]:
    """Polish a block fixed point of q = beta * psi(H q) by damped Newton with
    a fixed-point fallback; returns (q_star, residual)."""
    beta = model.beta
    q = np.clip(np.asarray(q, float), 0.0, beta)

    def g(qv):
        return model.psi_vector(H @ qv) - qv

    res = g(q)
    for _ in range(_REFINE_MAX_ITER):
        nrm = float(np.abs(res).max())
        if nrm < _REFINE_TOL:
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
