"""Completely positive operator toolkit and stability classification of
state-evolution fixed points.

A map T(X) = sum_k L_k X L_k^T is completely positive; its Choi matrix
sum_k vec(L_k) vec(L_k)^T encodes a canonical Kraus form, and when T commutes
with transposition its eigenbasis splits into d(d+1)/2 symmetric and
d(d-1)/2 skew-symmetric matrices.

Stability of a fixed point is decided by the norm of the linearized SE map.
For block profiles state evolution is the vector recursion
q <- beta * psi(H q) with s = H q and H = sum_k Lambda_k**2, so the
linearization at q* is the nonnegative matrix J = diag(beta_j psi_j'(s_j)) H.
Admissible perturbations form the nonnegative orthant, and by
Perron-Frobenius the norm of a nonnegative J over that orthant is ||J||_2,
read off its singular value decomposition (at zero overlap this is the
diag(beta) Lambda**2 weak-recovery threshold).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .denoise import DomainError
from .model import rng_from
from .se import OperatorT, OverlapModel


class NonconvergenceError(RuntimeError):
    pass


class FixedPointPreconditionError(ValueError):
    pass


def _vec(M: np.ndarray) -> np.ndarray:
    return np.asarray(M, float).reshape(-1, order="F")


def _unvec(v: np.ndarray, d: int) -> np.ndarray:
    return np.asarray(v, float).reshape(d, d, order="F")


@dataclass(frozen=True)
class CPOperator:
    """T(X) = sum_k L_k X L_k^T given by its Kraus factors."""

    kraus: tuple

    def __post_init__(self):
        if len(self.kraus) == 0:
            raise DomainError("need at least one Kraus factor")
        mats = tuple(np.array(m, float) for m in self.kraus)
        d = mats[0].shape[0]
        for m in mats:
            if m.shape != (d, d):
                raise DomainError("Kraus factors must be square of equal size")
        object.__setattr__(self, "kraus", mats)

    @property
    def d(self) -> int:
        return self.kraus[0].shape[0]

    def apply(self, X: np.ndarray) -> np.ndarray:
        X = np.asarray(X, float)
        out = np.zeros_like(X)
        for L in self.kraus:
            out += L @ X @ L.T
        return out

    def matrix_rep(self) -> np.ndarray:
        """d^2 x d^2 representation on column-major vec: sum_k L_k (x) L_k."""
        return sum(np.kron(L, L) for L in self.kraus)


@dataclass
class SpectralForm:
    """Choi matrix, canonical Kraus factors, and symmetric/skew eigenbasis."""

    choi: np.ndarray
    theta: np.ndarray                  # nonnegative Choi eigenvalues, descending
    canonical_kraus: list              # orthonormal V_i with theta_i > 1e-12
    kraus_rank: int
    eigenvalues: np.ndarray | None     # present when the map is self-adjoint
    eigenvectors: list | None          # orthonormal matrices U_i
    symmetric_flags: np.ndarray | None # True where U_i is symmetric


def choi_and_kraus(op: CPOperator) -> SpectralForm:
    """Assemble and eigendecompose the Choi matrix; recombine the operator
    eigenbasis into symmetric / skew-symmetric elements when possible."""
    d = op.d
    choi = np.zeros((d * d, d * d))
    for L in op.kraus:
        v = _vec(L)
        choi += np.outer(v, v)
    theta, vecs = np.linalg.eigh(choi)
    idx = np.argsort(theta)[::-1]
    theta = np.clip(theta[idx], 0.0, None)
    vecs = vecs[:, idx]
    canonical = [_unvec(vecs[:, i], d) for i in range(d * d) if theta[i] > 1e-12]
    rank = len(canonical)

    M = op.matrix_rep()
    eigenvalues = eigenvectors = flags = None
    if np.abs(M - M.T).max() <= 1e-10 * max(1.0, np.abs(M).max()):
        lam, U = np.linalg.eigh(M)
        order = np.argsort(lam)[::-1]
        lam, U = lam[order], U[:, order]
        eigenvalues, eigenvectors, flags = _symmetric_skew_basis(lam, U, d)
    return SpectralForm(choi, theta, canonical, rank, eigenvalues, eigenvectors, flags)


def _symmetric_skew_basis(lam: np.ndarray, U: np.ndarray, d: int):
    """Recombine eigenvectors within each eigenvalue cluster so that each basis
    matrix is exactly symmetric or skew-symmetric (possible when the operator
    commutes with transposition)."""
    out_vals, out_mats, out_flags = [], [], []
    scale = max(1.0, float(np.abs(lam).max()))
    i = 0
    while i < len(lam):
        j = i
        while j + 1 < len(lam) and abs(lam[j + 1] - lam[i]) <= 1e-8 * scale:
            j += 1
        group = [_unvec(U[:, k], d) for k in range(i, j + 1)]
        sym_parts = [(g + g.T) / 2.0 for g in group]
        skew_parts = [(g - g.T) / 2.0 for g in group]
        for parts, flag in ((sym_parts, True), (skew_parts, False)):
            A = np.column_stack([_vec(p) for p in parts])
            # orthonormal basis of the span via SVD
            u, sv, _ = np.linalg.svd(A, full_matrices=False)
            for k in range(len(sv)):
                if sv[k] > 1e-9:
                    out_vals.append(lam[i])
                    out_mats.append(_unvec(u[:, k], d))
                    out_flags.append(flag)
        i = j + 1
    return np.array(out_vals), out_mats, np.array(out_flags, bool)


def _project_psd(Y: np.ndarray) -> np.ndarray:
    Y = (Y + Y.T) / 2.0
    evals, evecs = np.linalg.eigh(Y)
    evals = np.clip(evals, 0.0, None)
    return (evecs * evals) @ evecs.T


def _symmetric_basis(d: int) -> np.ndarray:
    cols = []
    for a in range(d):
        for b in range(a, d):
            E = np.zeros((d, d))
            if a == b:
                E[a, a] = 1.0
            else:
                E[a, b] = E[b, a] = 1.0 / np.sqrt(2.0)
            cols.append(_vec(E))
    return np.column_stack(cols)


def restricted_psd_norm(
    op: CPOperator,
    tol: float = 1e-8,
    restarts: int = 20,
    max_iter: int = 3000,
    seed=0,
    return_direction: bool = False,
):
    """max { ||op(Y)||_F : Y PSD, ||Y||_F = 1 } by projected power ascent.

    The iteration runs on op* op with a PSD-cone projection, from ``restarts``
    random PSD starts, and is cross-checked against the leading singular value
    of op restricted to the symmetric subspace (an upper bound). If the
    unconstrained symmetric maximizer is itself (+/-) PSD the bound is attained
    and returned directly.
    """
    d = op.d
    M = op.matrix_rep()
    B = _symmetric_basis(d)
    MB = M @ B
    u, sv, vt = np.linalg.svd(MB, full_matrices=False)
    upper = float(sv[0])
    if upper == 0.0:
        return (0.0, np.eye(d) / np.sqrt(d)) if return_direction else 0.0
    top = _unvec(B @ vt[0], d)
    evs = np.linalg.eigvalsh(top)
    if evs.min() >= -1e-10 or evs.max() <= 1e-10:
        Ybest = _project_psd(top if evs.min() >= -1e-10 else -top)
        Ybest /= np.linalg.norm(Ybest)
        return (upper, Ybest) if return_direction else upper

    G = M.T @ M
    rng = rng_from(seed)
    best_val, best_dir = -np.inf, None
    failures = 0
    for _ in range(restarts):
        A0 = rng.standard_normal((d, d))
        Y = _project_psd(A0 @ A0.T)
        Y /= np.linalg.norm(Y)
        prev = -np.inf
        converged = False
        for _ in range(max_iter):
            Z = _project_psd(_unvec(G @ _vec(Y), d))
            nz = np.linalg.norm(Z)
            if nz == 0.0:
                break
            Y = Z / nz
            val = float(np.linalg.norm(M @ _vec(Y)))
            if abs(val - prev) < tol * max(1.0, val):
                converged = True
                prev = val
                break
            prev = val
        if not converged:
            failures += 1
        if prev > best_val:
            best_val, best_dir = prev, Y
    if failures > restarts // 2:
        raise NonconvergenceError(f"{failures}/{restarts} ascent restarts failed to converge")
    if best_val > upper * (1.0 + 10.0 * tol):
        raise NonconvergenceError(
            f"cone maximum {best_val} exceeds symmetric-subspace bound {upper}"
        )
    return (best_val, best_dir) if return_direction else best_val


@dataclass
class StabilityVerdict:
    fixed_point: np.ndarray
    nu: float
    classification: str  # "stable" | "unstable" | "marginal"
    margin: float
    maximizing_direction: np.ndarray | None

    def to_dict(self) -> dict:
        """The verdict as plain JSON-ready values (arrays become lists)."""
        return {
            "fixed_point": np.asarray(self.fixed_point).tolist(),
            "nu": self.nu,
            "classification": self.classification,
            "margin": self.margin,
            "maximizing_direction": (
                None
                if self.maximizing_direction is None
                else np.asarray(self.maximizing_direction).tolist()
            ),
        }


def classify_fixed_point(
    model: OverlapModel,
    op: OperatorT,
    q_star,
    delta: float = 0.02,
) -> StabilityVerdict:
    """Classify a block SE fixed point by the norm of the linearized map.

    q_star is the overlap vector, shape (d,). The linearization at q* is
    J = diag(beta_j psi_j'(s_j)) H with s = H q* (H = sum_k Lambda_k**2).
    psi is nondecreasing, so the weights are clipped at 0 (a negative finite
    difference is rounding) and J is entrywise nonnegative. By
    Perron-Frobenius on J^T J its norm over the nonnegative orthant is then
    nu = ||J||_2, attained at the top right singular vector taken
    nonnegative; nu < 1 - delta is stable, nu > 1 + delta unstable,
    otherwise marginal.
    """
    q = np.asarray(q_star, float)
    if q.shape != (op.d,):
        raise DomainError(f"q_star must be an overlap vector of shape ({op.d},), got {q.shape}")
    H = op.hadamard_matrix
    s = H @ q
    resid = float(np.abs(model.psi_vector(s) - q).max())
    if resid >= 1e-8:
        raise FixedPointPreconditionError(
            f"q_star is not a fixed point (residual {resid:.3e})"
        )
    J = np.diag(np.clip(model.dpsi_vector(s), 0.0, None)) @ H
    v = np.linalg.svd(J)[2][0]
    if v.max() < 0:
        v = -v
    # a degenerate top singular value may come back with mixed signs; J >= 0
    # gives (J |v|)_i >= |(J v)_i|, so |v| attains ||J||_2 as well
    direction = np.clip(v, 0.0, None) if v.min() >= -1e-12 else np.abs(v)
    direction /= np.linalg.norm(direction)
    nu = float(np.linalg.norm(J @ direction))
    if nu < 1.0 - delta:
        cls = "stable"
    elif nu > 1.0 + delta:
        cls = "unstable"
    else:
        cls = "marginal"
    return StabilityVerdict(q, nu, cls, delta, direction)
