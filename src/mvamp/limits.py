"""Fundamental-limits solver for the block rank-one model.

The bound reads the Gaussian-channel relative entropy per block,

    D_j(s) = KL( law(sqrt(s) X_j + Z) || law(Z) ),

from ``se.kl_channel``, next to the overlap psi of state evolution. The
achievable-overlap formula is the box-constrained program

    max_{q in [0, beta]}  <beta, D(H q)> - (1/4) <q, H q>,    H = sum_k Lambda_k**2,

whose interior critical points are exactly the fixed points q = psi(H q) of
state evolution; the block MMSE lower bound is 1 - q_j*/beta_j. The solvers
take the ``OverlapModel`` and the H of state evolution, so both read the
same numbers. ``variational_solve`` scans the sup-inf form of the program,
one formula for every H, on exact per-prior (psi, D) node tables and
Newton-polishes each branch.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .model import CouplingSet, ScalarPrior
from .se import (
    DomainError,
    OverlapModel,
    PrecisionError,
    kl_channel,
    overlap_psi_scalar,
    refine_fixed_point,
)


class KLTable:
    """Exact values of one prior's scalar channel at the nodes of [0, s_max]:
    the overlap ``psi[i]`` = psi(s_i), at the quadrature order of state
    evolution, and the relative entropy ``kl[i]`` = D(s_i). The nodes are
    spaced quadratically, denser near 0 where psi and D bend. Nothing is
    interpolated: ``variational_solve`` reads the values at the nodes only."""

    def __init__(self, prior: ScalarPrior, s_max: float, n_nodes: int = 400,
                 quad_order: int = 61):
        self.prior = prior
        self.s_max = float(s_max)
        u = np.linspace(0.0, 1.0, n_nodes)
        self.nodes = self.s_max * u * u
        self.psi = np.array([overlap_psi_scalar(prior, s, quad_order) for s in self.nodes])
        self.kl = np.array([kl_channel(prior, s) for s in self.nodes])
        for a in (self.nodes, self.psi, self.kl):
            a.setflags(write=False)  # a table is shared by every sweep that reads it


@lru_cache(maxsize=16)
def _shared_table(prior: ScalarPrior, s_max: float, n_nodes: int, quad_order: int) -> KLTable:
    """The one ``KLTable`` of these arguments in this process: every sweep
    with the same prior and range reads the same (read-only) values. The class
    is looked up at call time, so a wrapper installed on ``KLTable`` sees
    each build."""
    return KLTable(prior, s_max, n_nodes, quad_order)


@dataclass
class VariationalResult:
    q_star: np.ndarray
    objective: float
    mmse_bounds: np.ndarray
    grid_res: int               # nodes per axis of the scanned grid
    candidates: list            # (q, objective) for all near-optimal branches
    near_degenerate: bool       # multiple separated cells within 1e-10 of the max
    residual: float             # max |beta psi(H q*) - q*| of the polished q*

    @property
    def d(self) -> int:
        return self.q_star.shape[0]


def _exact_objective(q, model: OverlapModel, H) -> float:
    s = H @ q
    return float(
        sum(b * kl_channel(p, si) for p, b, si in zip(model.profile.priors, model.beta, s))
        - 0.25 * q @ H @ q
    )


def nodes_per_axis(grid_res: int, d: int) -> int:
    """grid_res, capped so that the grid holds about 4e6 points."""
    return min(grid_res, max(8, int(round(4e6 ** (1.0 / d)))))


def _node_objective(qs, gs, H) -> np.ndarray:
    """F(q) = (1/4) q^T H q + sum_j g_j(q_j) at every point of the grid
    product(qs), as an array of shape (len(qs[0]), ..., len(qs[-1])).

    Each diagonal term (1/4) H_jj q_j^2 is folded into its axis vector a_j and
    each pair j < k into one product of (1/4) (H_jk + H_kj) q_j with q_k. The
    grid is built one axis at a time, from the last: F_j = q_j (x) L_j + a_j
    + F_{j+1}, where L_j = sum_{k > j} (1/4) (H_jk + H_kj) q_k lies on the grid
    of the axes after j. Each step writes its grid once and adds to it twice,
    so for every d the full grid takes 3 passes and is the only array of its
    size."""
    axes = [g + 0.25 * H[j, j] * np.square(q) for j, (q, g) in enumerate(zip(qs, gs))]
    vals = axes[-1]
    for j in range(len(qs) - 2, -1, -1):
        rest = np.ix_(*qs[j + 1:])
        lin = sum(0.25 * (H[j, k] + H[k, j]) * rest[k - j - 1] for k in range(j + 1, len(qs)))
        grid = np.multiply.outer(qs[j], lin)
        grid += axes[j].reshape((-1,) + (1,) * vals.ndim)
        grid += vals
        vals = grid
    return vals


def variational_solve(
    model: OverlapModel,
    H: np.ndarray,
    grid_res: int = 400,
    kl_tables: list | None = None,
) -> VariationalResult:
    """Maximize <beta, D(H q)> - (1/4) <q, H q> over the box [0, beta].

    The priors and beta are those of ``model.profile`` and H = sum_k
    Lambda_k**2 is the matrix state evolution iterates with, so the bound
    and SE read the same numbers. The scan maximizes the sup-inf form

        F(q) = (1/4) q^T H q + sum_j g_j(q_j),  g_j(q_j) = inf_s beta_j D_j(s) - s q_j / 2,

    for every H, PSD or not. Taking s = (H q)_j shows F <= P, the objective
    above; at a fixed point q = beta psi(H q) the inf is attained there, so
    F = P, and the maximizer of P is a fixed point. Block j's axis is the
    node set q_i = beta_j psi_j(s_i) of its ``KLTable`` (``grid_res`` >= 2
    nodes per axis, from s = 0 to past (H beta)_j, so every fixed point lies
    inside), where the inf is exact: g_j(q_i) = beta_j D_j(s_i) - s_i q_i / 2,
    because psi is increasing. Every grid point within 1e-10 of the grid max
    is found, and each group of them separated by more than 2 nodes on some
    axis is Newton-polished against the exact fixed-point equation at
    ``model.quad_order``. The candidates also include the polishes
    (``refine_fixed_point``) from a near-zero and a near-saturated start, so
    jump discontinuities are resolved by comparing the exact objective P of
    each polished fixed point.
    """
    beta = model.beta
    H = np.asarray(H, float)
    d = beta.shape[0]
    if np.any(H < 0):
        raise DomainError("Lambda**2 must be entrywise nonnegative")
    if grid_res < 2:
        raise DomainError(f"grid_res must be >= 2, got {grid_res}")

    per_axis = nodes_per_axis(grid_res, d)
    s_need = H @ beta
    if kl_tables is None:
        kl_tables = [_shared_table(p, max(float(c) * 1.001, 1e-6), per_axis, model.quad_order)
                     for p, c in zip(model.profile.priors, s_need)]
    if any(t.nodes.size != per_axis or t.s_max < c for t, c in zip(kl_tables, s_need)):
        raise DomainError("each KL table needs the grid's nodes per axis and s_max >= (H beta)_j")
    qs = [b * t.psi for b, t in zip(beta, kl_tables)]
    gs = [b * t.kl - 0.5 * t.nodes * q for b, t, q in zip(beta, kl_tables, qs)]
    vals = _node_objective(qs, gs, H)

    reps = []
    for idx in np.argwhere(vals >= vals.max() - 1e-10):
        if all(np.abs(idx - r).max() > 2 for r in reps):
            reps.append(idx)
    near_degenerate = len(reps) > 1

    # branch candidates: grid representatives plus polishes from both ends
    cand_starts = [np.array([q[i] for q, i in zip(qs, r)]) for r in reps]
    cand_starts.append(np.full(d, 1e-8) * beta)
    cand_starts.append(beta * (1.0 - 1e-6))
    candidates = []
    for q0 in cand_starts:
        qr, resid = refine_fixed_point(model, H, q0)
        if all(np.abs(qr - qc).max() > 1e-7 for qc, _, _ in candidates):
            candidates.append((qr, _exact_objective(qr, model, H), resid))
    candidates.sort(key=lambda t: -t[1])
    q_star, best, residual = candidates[0]
    bounds = np.clip(1.0 - q_star / beta, 0.0, 1.0)
    return VariationalResult(q_star, best, bounds, per_axis,
                             [(q, v) for q, v, _ in candidates], near_degenerate, residual)


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
    target, whose sign of q* sets the transition flag; the KL tables take
    their range from the whole target list, so a row does not depend on which
    other rows are asked for, and a sweep of another eps with the same Xi,
    beta and targets reads the same Rademacher table (``_shared_table``)."""
    beta = model.beta
    xi = np.asarray(xi, float)
    base_norm = float(np.linalg.norm(np.diag(beta) @ xi, 2))
    targets = np.asarray(target_norms, float)
    cs = targets / base_norm
    s_cap = float((cs.max() * xi @ beta).max()) * 1.001
    tables = [_shared_table(p, max(s_cap, 1e-6), nodes_per_axis(grid_res, model.d), model.quad_order)
              for p in model.profile.priors]
    wanted = set(range(len(cs)) if indices is None else indices)
    rows = []
    prev_positive = None
    for i, (c, t) in enumerate(zip(cs, targets)):
        if i not in wanted and i + 1 not in wanted:
            continue
        couplings = CouplingSet.heteroskedastic(np.sqrt(c * xi))
        res = variational_solve(model, couplings.hadamard_square_sum(), grid_res=grid_res,
                                kl_tables=tables)
        if res.residual > 1e-5:
            raise PrecisionError(
                f"sweep maximizer violates the SE fixed-point inclusion "
                f"(residual {res.residual:.2e} at c={c:.4f})"
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
