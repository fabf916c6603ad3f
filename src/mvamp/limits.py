"""Fundamental-limits solver for the block rank-one model.

The Gaussian-channel relative entropy per block,

    D_j(s) = KL( law(sqrt(s) X_j + Z) || law(Z) ),

is computed by numerical integration of p_s log(p_s / phi) with the mixture
marginal p_s. The achievable-overlap formula is the box-constrained program

    max_{q in [0, beta]}  <beta, D(H q)> - (1/4) <q, H q>,    H = sum_k Lambda_k**2,

whose interior critical points are exactly the fixed points q = psi(H q) of
state evolution; the block MMSE lower bound is 1 - q_j*/beta_j. The solvers
take the ``OverlapModel`` and the H of state evolution, so both read the
same numbers. ``variational_solve`` finds the near-maximal points of a grid
by an exact branch-and-bound over tiles (H >= 0 entrywise and D is
nondecreasing, so a tile's corners bound it) and Newton-polishes each branch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.interpolate import CubicSpline

from .denoise import DomainError, _bg_log_terms
from .model import (
    GAUSSIAN,
    RADEMACHER,
    CouplingSet,
    ScalarPrior,
    rng_from,
)
from .se import (
    OverlapModel,
    PrecisionError,
    _bg_breaks,
    _panel_sum,
    _snr,
    overlap_psi_scalar,
    refine_fixed_point,
)


_LOG_NORM = -0.5 * np.log(2.0 * np.pi)


def _p_log_p_over_phi(logp):
    """y -> p(y) log(p(y)/phi(y)) for the channel marginal with log-density logp."""

    def f(y):
        lp = logp(y)
        return np.exp(lp) * (lp - (_LOG_NORM - np.square(y) * 0.5))

    return f


def _kl_integrand_panels(prior: ScalarPrior, s: float):
    """(integrand, breakpoints) for 2 * int_0^L p_s(y) log(p_s/phi)(y) dy."""
    L = 12.0 + 6.0 * math.sqrt(s)
    if prior.kind == GAUSSIAN:
        sig2 = 1.0 + s
        L = max(L, 10.0 * math.sqrt(sig2))
        f = _p_log_p_over_phi(
            lambda y: _LOG_NORM - 0.5 * np.log(sig2) - np.square(y) / (2.0 * sig2)
        )
        return f, sorted({0.0, math.sqrt(sig2), 3.0 * math.sqrt(sig2), L})
    if prior.kind == RADEMACHER:
        rs = math.sqrt(s)
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
    """D(s) by panel integration at order and at 2 * order."""
    f, breaks = _kl_integrand_panels(prior, s)
    v1, v2 = _panel_sum(f, breaks, order)
    return 2.0 * v1, 2.0 * v2


def kl_channel(prior: ScalarPrior, s: float, order: int = 80) -> float:
    """KL(P_{sqrt(s) X + Z} || P_Z) >= 0, by panel integration of p log(p/phi);
    the doubled-order evaluation must agree to max(1e-12, 1e-8 |D|)."""
    s = _snr(s)
    if s == 0.0:
        return 0.0
    v1, v2 = _kl_once(prior, s, order)
    if not abs(v1 - v2) <= max(1e-12, 1e-8 * abs(v2)):
        raise PrecisionError(
            f"KL integration not converged for {prior.name} at s={s}: "
            f"|delta| = {abs(v1 - v2):.2e}"
        )
    return max(v2, 0.0)


def kl_channel_monte_carlo(prior: ScalarPrior, s: float, n_samples: int, seed=0) -> float:
    """Independent Monte Carlo estimator E_{y~p_s}[log(p_s/phi)(y)] (oracle)."""
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


def immse_consistency(prior: ScalarPrior, s_grid, fd_rel: float = 1e-3) -> float:
    """Max deviation of centered finite differences of kl_channel from half the
    scalar overlap (the I-MMSE identity dD/ds = psi(s)/2)."""
    worst = 0.0
    for s in np.asarray(s_grid, float):
        h = max(1e-4, fd_rel * s)
        fd = (kl_channel(prior, s + h) - kl_channel(prior, max(s - h, 0.0))) / (
            (s + h) - max(s - h, 0.0)
        )
        worst = max(worst, abs(fd - 0.5 * overlap_psi_scalar(prior, s)))
    return worst


class KLTable:
    """Cubic-spline table of D(s) on [0, s_max] for fast sweep evaluation.

    ``envelope(s)`` is a nondecreasing upper bound on the spline over [0, s].
    The spline itself is not monotone: some pieces near s = 0 slope slightly
    downwards, so pruning bounds read this envelope, not the spline."""

    def __init__(self, prior: ScalarPrior, s_max: float, n_nodes: int = 600):
        self.prior = prior
        self.s_max = float(s_max)
        # quadratic node spacing: denser near 0 where D bends
        u = np.linspace(0.0, 1.0, n_nodes)
        self.nodes = self.s_max * u * u
        vals = np.array([kl_channel(prior, s) for s in self.nodes])
        self._spline = CubicSpline(self.nodes, vals)
        # each piece c0 t^3 + c1 t^2 + c2 t + c3 on [0, h] peaks at an end or
        # at a root of its derivative; the running max over pieces bounds the
        # spline on [0, end of piece i]. Summed in the spline's own order, so
        # the ends are the spline's values bit for bit.
        c0, c1, c2, c3 = self._spline.c
        h = np.diff(self._spline.x)
        with np.errstate(divide="ignore", invalid="ignore"):
            root = np.sqrt(c1 * c1 - 3.0 * c0 * c2)
            ts = [np.zeros_like(h), h, (-c1 + root) / (3.0 * c0),
                  (-c1 - root) / (3.0 * c0), -c2 / (2.0 * c1)]
        peaks = [c3 + c2 * t + c1 * (t * t) + c0 * (t * t * t)
                 for t in (np.clip(np.nan_to_num(t), 0.0, h) for t in ts)]
        self._envelope = np.maximum.accumulate(np.max(peaks, axis=0))

    def _domain(self, s):
        s = np.asarray(s, float)
        if np.any(s > self.s_max * (1.0 + 1e-9)):
            raise DomainError("KL table evaluated beyond its range")
        return np.clip(s, 0.0, self.s_max)

    def __call__(self, s):
        return self._spline(self._domain(s))

    def envelope(self, s):
        """Max of the spline over [0, end of the piece holding s] >= spline(s')
        for every s' <= s, up to rounding."""
        piece = np.searchsorted(self._spline.x, self._domain(s), side="right") - 1
        return self._envelope[np.clip(piece, 0, self._envelope.size - 1)]


@dataclass
class VariationalResult:
    q_star: np.ndarray
    objective: float
    mmse_bounds: np.ndarray
    grid_res: int
    candidates: list            # (q, objective) for all near-optimal branches
    near_degenerate: bool       # multiple separated cells within 1e-10 of the max

    @property
    def d(self) -> int:
        return self.q_star.shape[0]


def _is_psd(H) -> bool:
    """Whether H takes the spline-table scan (else the non-PSD inner inf)."""
    return bool(np.linalg.eigvalsh((H + H.T) / 2.0).min() >= -1e-10)


def _exact_objective(q, model: OverlapModel, H) -> float:
    s = H @ q
    return float(
        sum(b * kl_channel(p, si) for p, b, si in zip(model.profile.priors, model.beta, s))
        - 0.25 * q @ H @ q
    )


def _inner_inf_term(model: OverlapModel, j: int, qj: float) -> float:
    """Block j's term inf_{s >= 0} beta_j D_j(s) - s q_j / 2 of the non-PSD
    objective, for q_j > 0. The minimizer solves beta_j psi_j(s) = q_j
    (monotone, bisection). The derivative of b D(s) - s q_j / 2 is
    (b / 2)(psi(s) - q_j / b), so when psi stays below the target on the whole
    bracket (q_j at or near beta_j) the term decreases there and its inf over
    the bracket is at its top."""
    from scipy.optimize import brentq

    b = model.beta[j]
    target = qj / b
    if target >= 1.0 - 1e-12:
        target = 1.0 - 1e-12
    g = lambda s: model.psi_scalar(j, s) - target
    hi = 1.0
    below = g(hi) < 0
    while below and hi < 1e8:
        hi *= 4.0
        below = g(hi) < 0
    sj = hi if below else brentq(g, 0.0, hi, xtol=1e-12)
    return b * kl_channel(model.profile.priors[j], sj) - 0.5 * sj * qj


def _inner_inf_objective(q, model: OverlapModel, H) -> float:
    """Non-PSD fallback: the inner inf over s >= 0 separates per coordinate,
    (1/4) q^T H q + sum_j of ``_inner_inf_term``; a block with q_j <= 0 adds
    nothing (its inf is at s_j = 0)."""
    total = 0.25 * float(q @ H @ q)
    for j, qj in enumerate(q):
        if qj > 0:
            total += _inner_inf_term(model, j, qj)
    return total


def _spline_objective(Q, H, beta, kl_tables) -> np.ndarray:
    """The PSD objective at the columns q of the (d, npts) array Q, with D
    read from the spline tables."""
    S = H @ Q
    val = -0.25 * np.einsum("ik,ij,jk->k", Q, H, Q)
    for j in range(len(beta)):
        val = val + beta[j] * kl_tables[j](S[j])
    return val


def _inner_inf_grid_objective(Q, axes, model: OverlapModel, H) -> np.ndarray:
    """``_inner_inf_objective`` at the columns of Q, points of the grid
    product(axes), bit for bit: each block term is root-solved once per
    distinct axis value, not once per grid point."""
    terms = [{qj: _inner_inf_term(model, j, qj) for qj in ax if qj > 0}
             for j, ax in enumerate(axes)]
    vals = np.empty(Q.shape[1])
    for k, q in enumerate(Q.T):
        total = 0.25 * float(q @ H @ q)
        for j, qj in enumerate(q):
            if qj > 0:
                total += terms[j][qj]
        vals[k] = total
    return vals


def _grid_points(axes, flat) -> np.ndarray:
    """The (d, len(flat)) points of the grid product(axes) at C-order flat indices."""
    index = np.unravel_index(flat, [ax.size for ax in axes])
    return np.stack([ax[i] for ax, i in zip(axes, index)])


def _pruned_points(axes, H, beta, kl_tables) -> np.ndarray:
    """Ascending flat indices of the grid points that may lie within 1e-10 of
    the grid max of the PSD objective: every point of every tile not pruned.

    The grid is cut into tiles of about sqrt(per_axis) points a side. Tile
    [lo, hi] holds no point above U = sum_j beta_j Dbar_j((H hi)_j) -
    (1/4) lo^T H lo, with Dbar the tables' nondecreasing envelope, because
    H >= 0 entrywise and q >= 0. The low corners are grid points, so their max
    vlo bounds the grid max from below; a tile with U < vlo - 1e-10 - 1e-9
    max(1, |vlo|) cannot hold a near-maximal point (the last term covers
    rounding)."""
    per_axis, d = axes[0].size, len(axes)
    side = max(1, int(round(np.sqrt(per_axis))))
    starts = np.arange(0, per_axis, side)
    ends = np.minimum(starts + side, per_axis) - 1
    n_tiles = (starts.size,) * d
    lo = _grid_points([ax[starts] for ax in axes], np.arange(starts.size ** d))
    hi = _grid_points([ax[ends] for ax in axes], np.arange(starts.size ** d))
    vlo = float(_spline_objective(lo, H, beta, kl_tables).max())
    S = H @ hi
    upper = -0.25 * np.einsum("ik,ij,jk->k", lo, H, lo)
    for j in range(d):
        upper = upper + beta[j] * kl_tables[j].envelope(S[j])
    keep = upper >= vlo - 1e-10 - 1e-9 * max(1.0, abs(vlo))
    tile = np.arange(per_axis) // side
    return np.flatnonzero(keep.reshape(n_tiles)[np.ix_(*[tile] * d)])


def variational_solve(
    model: OverlapModel,
    H: np.ndarray,
    grid_res: int = 400,
    kl_tables: list | None = None,
) -> VariationalResult:
    """Maximize <beta, D(H q)> - (1/4) <q, H q> over the box [0, beta].

    The priors and beta are those of ``model.profile`` and H = sum_k
    Lambda_k**2 is the matrix state evolution iterates with, so the bound
    and SE read the same numbers. A grid scan (spline-tabulated D,
    ``grid_res`` >= 2 points per axis) finds every grid point within 1e-10 of
    the grid max, and each separated group of them is Newton-polished against
    the exact fixed-point equation q = psi(H q) at ``model.quad_order``. The
    scan is an exact branch-and-bound (``_pruned_points``): it evaluates only
    the tiles of the grid that can hold such a point, and finds the same
    points, the same values and so the same result as scanning every point.
    The candidates also include the Newton polishes (``refine_fixed_point``)
    from a near-zero and a near-saturated start, so jump discontinuities are
    resolved by exact objective comparison. A non-PSD H has no spline tables:
    its objective splits into one root solve per block and axis value, every
    grid point is scanned, and ``grid_res`` is capped at 60 per axis (the
    grid its bounds have always been read from).
    """
    beta = model.beta
    H = np.asarray(H, float)
    d = beta.shape[0]
    if np.any(H < 0):
        raise DomainError("Lambda**2 must be entrywise nonnegative")
    if grid_res < 2:
        raise DomainError(f"grid_res must be >= 2, got {grid_res}")

    psd = _is_psd(H)
    objective = _exact_objective if psd else _inner_inf_objective
    per_axis = min(grid_res, max(8, int(round(4e6 ** (1.0 / d)))))
    if not psd:
        per_axis = min(per_axis, 60)
    axes = [np.linspace(0.0, b, per_axis) for b in beta]
    if psd:
        if kl_tables is None:
            kl_tables = [KLTable(p, max(float(c) * 1.001, 1e-6))
                         for p, c in zip(model.profile.priors, H @ beta)]
        Q = _grid_points(axes, _pruned_points(axes, H, beta, kl_tables))
        vals = _spline_objective(Q, H, beta, kl_tables)
    else:
        Q = _grid_points(axes, np.arange(per_axis ** d))
        vals = _inner_inf_grid_objective(Q, axes, model, H)
    vmax = float(vals.max())
    cell = np.array([ax[1] - ax[0] for ax in axes])

    reps = []
    for qv in Q[:, vals >= vmax - 1e-10].T:
        if all(np.max(np.abs(qv - r) / cell) > 2.0 for r in reps):
            reps.append(qv)
    near_degenerate = len(reps) > 1

    # branch candidates: grid representatives plus polishes from both ends
    cand_starts = [r.copy() for r in reps]
    cand_starts.append(np.full(d, 1e-8) * beta)
    cand_starts.append(beta * (1.0 - 1e-6))
    candidates = []
    for q0 in cand_starts:
        qr, _ = refine_fixed_point(model, H, q0)
        if all(np.abs(qr - qc).max() > 1e-7 for qc, _ in candidates):
            candidates.append((qr, objective(qr, model, H)))
    candidates.sort(key=lambda t: -t[1])
    q_star, best = candidates[0]
    bounds = np.clip(1.0 - q_star / beta, 0.0, 1.0)
    return VariationalResult(
        q_star, best, bounds, per_axis, candidates, near_degenerate
    )


@dataclass
class SweepRow:
    c: float
    norm_Tc: float
    q_star: np.ndarray
    mmse_bounds: np.ndarray
    branch_flag: str  # "lower" | "upper" | "transition"
    couplings: CouplingSet  # the view sqrt(c Xi) whose H the bound was solved on


def limits_sweep(
    model: OverlapModel,
    xi: np.ndarray,
    target_norms,
    grid_res: int = 400,
    indices=None,
) -> list[SweepRow]:
    """Variational solve along the single-scalar SNR sweep Lambda**2 = c Xi,
    reporting the implied SNR ||T_c||op = c ||diag(beta) Xi||op per point.

    Each point builds its couplings sqrt(c Xi) once; the solve, its 1e-5
    SE fixed-point residual check and a state evolution run on the returned
    ``SweepRow.couplings`` all read the same H = sqrt(c Xi)**2. The priors,
    beta and quadrature order are those of ``model``.

    Returns the rows of the target positions ``indices`` (default: all), in
    target order. A row needs only its own solve and that of the previous
    target, whose sign of q* sets the transition flag; the KL table range
    comes from the whole target list, so a row does not depend on which
    other rows are asked for."""
    beta = model.beta
    xi = np.asarray(xi, float)
    base_norm = float(np.linalg.norm(np.diag(beta) @ xi, 2))
    targets = np.asarray(target_norms, float)
    cs = targets / base_norm
    s_cap = float((cs.max() * xi @ beta).max()) * 1.001
    tables = None  # built at the first PSD H; a non-PSD H reads none
    wanted = set(range(len(cs)) if indices is None else indices)
    rows = []
    prev_positive = None
    for i, (c, t) in enumerate(zip(cs, targets)):
        if i not in wanted and i + 1 not in wanted:
            continue
        couplings = CouplingSet.heteroskedastic(np.sqrt(c * xi))
        H = couplings.hadamard_square_sum()
        if tables is None and _is_psd(H):
            tables = [KLTable(p, max(s_cap, 1e-6)) for p in model.profile.priors]
        res = variational_solve(model, H, grid_res=grid_res, kl_tables=tables)
        resid = float(np.abs(res.q_star - model.psi_vector(H @ res.q_star)).max())
        if resid > 1e-5:
            raise PrecisionError(
                f"sweep maximizer violates the SE fixed-point inclusion "
                f"(residual {resid:.2e} at c={c:.4f})"
            )
        positive = bool(res.q_star.max() > 1e-6)
        flag = "upper" if positive else "lower"
        if res.near_degenerate or (
            len(res.candidates) > 1
            and abs(res.candidates[0][1] - res.candidates[1][1]) < 1e-6
            and np.abs(res.candidates[0][0] - res.candidates[1][0]).max() > 1e-3
        ):
            flag = "transition"
        elif prev_positive is not None and positive != prev_positive:
            flag = "transition"
        prev_positive = positive
        if i in wanted:
            rows.append(SweepRow(float(c), float(t), res.q_star, res.mmse_bounds, flag,
                                 couplings))
    return rows
