"""Stability classification of state-evolution fixed points.

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


@dataclass
class StabilityVerdict:
    fixed_point: np.ndarray
    nu: float
    classification: str  # "stable" | "unstable" | "marginal"
    margin: float
    maximizing_direction: np.ndarray

    def to_dict(self) -> dict:
        """The verdict as plain JSON-ready values (arrays become lists)."""
        return {
            "fixed_point": np.asarray(self.fixed_point).tolist(),
            "nu": self.nu,
            "classification": self.classification,
            "margin": self.margin,
            "maximizing_direction": np.asarray(self.maximizing_direction).tolist(),
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
