"""Completely positive operator toolkit and stability classification of
state-evolution fixed points.

A map T(X) = sum_k L_k X L_k^T is completely positive; its Choi matrix
sum_k vec(L_k) vec(L_k)^T encodes a canonical Kraus form. Every Kraus form
has T(X^T) = T(X)^T, so T maps the d(d+1)/2-dimensional symmetric matrices
and the d(d-1)/2-dimensional skew-symmetric ones into themselves, and when T
is self-adjoint its eigenbasis is the union of the eigenbases of the two
restrictions. The PSD-cone norm max { ||T(Y)||_F : Y PSD, ||Y||_F = 1 } is
the top singular value of T on symmetric matrices: T* T is again completely
positive, so it maps the PSD cone into itself, and by Krein-Rutman its top
eigenvalue has a PSD eigenvector.

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

from .se import DomainError
from .se import OperatorT, OverlapModel


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
    """Choi eigenvalues, canonical Kraus factors, and symmetric/skew eigenbasis."""

    theta: np.ndarray                  # nonnegative Choi eigenvalues, descending
    canonical_kraus: list              # orthonormal V_i with theta_i > 1e-12
    kraus_rank: int
    eigenvalues: np.ndarray | None     # present when the map is self-adjoint
    eigenvectors: list | None          # orthonormal matrices U_i
    symmetric_flags: np.ndarray | None # True where U_i is symmetric


def _symmetric_basis(d: int, skew: bool = False) -> np.ndarray:
    """Orthonormal vec basis, one column per matrix, of the symmetric d x d
    matrices (E_aa and (E_ab + E_ba) / sqrt(2)) or, with ``skew``, of the
    skew-symmetric ones ((E_ab - E_ba) / sqrt(2)). Any combination of the
    columns is exactly symmetric or exactly skew."""
    cols = []
    for a in range(d):
        for b in range(a + 1 if skew else a, d):
            E = np.zeros((d, d))
            if a == b:
                E[a, a] = 1.0
            else:
                E[a, b] = 1.0 / np.sqrt(2.0)
                E[b, a] = -E[a, b] if skew else E[a, b]
            cols.append(_vec(E))
    return np.array(cols).reshape(-1, d * d).T


def choi_and_kraus(op: CPOperator) -> SpectralForm:
    """Assemble and eigendecompose the Choi matrix; when the map is
    self-adjoint, eigendecompose it on the symmetric and on the skew matrices
    separately, so each basis matrix is exactly symmetric or skew."""
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
        vals, mats, sym = [], [], []
        for skew in (False, True):
            B = _symmetric_basis(d, skew)
            lam, W = np.linalg.eigh(B.T @ M @ B)
            vals.append(lam)
            mats += [_unvec(B @ w, d) for w in W.T]
            sym.append(np.full(lam.size, not skew))
        vals, sym = np.concatenate(vals), np.concatenate(sym)
        order = np.argsort(-vals, kind="stable")
        eigenvalues, flags = vals[order], sym[order]
        eigenvectors = [mats[i] for i in order]
    return SpectralForm(theta, canonical, rank, eigenvalues, eigenvectors, flags)


def restricted_psd_norm(op: CPOperator, return_direction: bool = False):
    """max { ||op(Y)||_F : Y PSD, ||Y||_F = 1 }, exactly.

    It is nu = ||A||_2 for A, the map restricted to symmetric matrices in the
    basis of ``_symmetric_basis``. The maximizing direction is the normalized
    orthogonal projection of I onto the top eigenspace of A^T A (eigenvalues
    within 1e-10 relative of the top): A^T A preserves the PSD cone, so its
    power iteration from I stays PSD and converges to that projection. The
    zero map gives 0.0 with direction I / sqrt(d).
    """
    d = op.d
    B = _symmetric_basis(d)
    A = B.T @ op.matrix_rep() @ B
    w, V = np.linalg.eigh(A.T @ A)
    nu = float(np.sqrt(max(w[-1], 0.0)))
    if nu == 0.0:
        return (0.0, np.eye(d) / np.sqrt(d)) if return_direction else 0.0
    if not return_direction:
        return nu
    top = V[:, w >= w[-1] * (1.0 - 1e-10)]
    Y = _unvec(B @ (top @ (top.T @ (B.T @ _vec(np.eye(d))))), d)
    return nu, Y / np.linalg.norm(Y)


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
    Each weight psi_j' = E[Var(X | y)^2] is a quadrature of nonnegative
    values, so J is entrywise nonnegative. By
    Perron-Frobenius on J^T J its norm over the nonnegative orthant is then
    nu = ||J||_2, attained at the top right singular vector taken
    nonnegative; nu < 1 - delta is stable, nu > 1 + delta unstable,
    otherwise marginal.
    """
    q = np.asarray(q_star, float)
    if q.shape != (op.d,):
        raise DomainError(f"q_star must be an overlap vector of shape ({op.d},), got {q.shape}")
    H = op.couplings.hadamard_square_sum()
    s = H @ q
    resid = float(np.abs(model.psi_vector(s) - q).max())
    if resid >= 1e-8:
        raise FixedPointPreconditionError(
            f"q_star is not a fixed point (residual {resid:.3e})"
        )
    J = np.diag(model.dpsi_vector(s)) @ H
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
