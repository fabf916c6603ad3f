import numpy as np
import pytest

import oracles
from mvamp import model, se, stability

RAD = model.ScalarPrior.rademacher()
XI = np.array([[0.7, 0.3], [0.3, 0.7]])
BETA = (0.6, 0.4)
T1_NORM = float(np.linalg.norm(np.diag(BETA) @ XI, 2))


def random_symmetric_kraus(rng, d, k):
    mats = []
    for _ in range(k):
        a = rng.standard_normal((d, d))
        mats.append((a + a.T) / 2)
    return oracles.CPOperator(tuple(mats))


# ---------------------------------------------------------------------------
# Choi matrix and canonical Kraus form
# ---------------------------------------------------------------------------

def test_choi_identity_kraus():
    sf = oracles.choi_and_kraus(oracles.CPOperator((np.eye(2),)))
    assert sf.kraus_rank == 1
    assert np.allclose(sf.theta, [2.0, 0.0, 0.0, 0.0])
    V1 = sf.canonical_kraus[0]
    assert np.allclose(np.abs(V1), np.eye(2) / np.sqrt(2))


def test_choi_full_rank_span():
    # Kraus factors spanning R^{dxd} in vec form give Kraus rank d^2
    d = 2
    basis = [np.eye(d), np.array([[0.0, 1.0], [0.0, 0.0]]),
             np.array([[0.0, 0.0], [1.0, 0.0]]), np.diag([1.0, -1.0])]
    sf = oracles.choi_and_kraus(oracles.CPOperator(tuple(basis)))
    assert sf.kraus_rank == d * d


def test_choi_reconstruction_and_eigencounts():
    rng = np.random.default_rng(5)
    op = random_symmetric_kraus(rng, 2, 2)
    sf = oracles.choi_and_kraus(op)
    for _ in range(10):
        x = rng.standard_normal((2, 2))
        x = (x + x.T) / 2
        rec = sum(t * V @ x @ V.T for t, V in zip(sf.theta, sf.canonical_kraus))
        assert np.abs(rec - op.apply(x)).max() < 1e-10
    assert sf.symmetric_flags.sum() == 3
    assert (~sf.symmetric_flags).sum() == 1
    # each basis matrix is exactly symmetric or exactly skew, the basis is
    # orthonormal, and each matrix is an eigenvector of the map
    assert np.all(sf.eigenvalues[:-1] >= sf.eigenvalues[1:])
    M = op.matrix_rep()
    vecs = np.column_stack([U.reshape(-1, order="F") for U in sf.eigenvectors])
    assert np.abs(vecs.T @ vecs - np.eye(4)).max() < 1e-12
    for lam, U, sym in zip(sf.eigenvalues, sf.eigenvectors, sf.symmetric_flags):
        assert np.array_equal(U, U.T) if sym else np.array_equal(U, -U.T)
        u = U.reshape(-1, order="F")
        assert np.abs(M @ u - lam * u).max() < 1e-12


# ---------------------------------------------------------------------------
# restricted cone norms
# ---------------------------------------------------------------------------

def test_restricted_norm_identity_map():
    assert abs(oracles.restricted_psd_norm(oracles.CPOperator((np.eye(2),))) - 1.0) < 1e-10


def test_restricted_norm_diagonal_conjugation():
    op = oracles.CPOperator((np.diag([2.0, 1.0]),))
    nu, Y = oracles.restricted_psd_norm(op, return_direction=True)
    assert abs(nu - 4.0) < 1e-8
    assert abs(Y[0, 0] - 1.0) < 1e-6  # maximizer e1 e1^T


def test_restricted_norm_matches_grid_oracle_d2():
    # brute-force over rotations x eigenvalue splits of unit-Frobenius PSD Y,
    # for symmetric Kraus factors and for general ones
    rng = np.random.default_rng(7)
    symmetric = random_symmetric_kraus(rng, 2, 2)
    general = oracles.CPOperator(tuple(rng.standard_normal((2, 2, 2))))
    for op in (symmetric, general):
        nu = oracles.restricted_psd_norm(op)
        assert abs(nu - oracles.psd_grid_norm_d2(op)) < 1e-4


def test_restricted_norm_degenerate_top_singular_value():
    # the top singular value is repeated, so the maximizer is not one singular
    # vector; the direction must still be PSD, unit and attain nu. The last map
    # is the one before it conjugated by a rotation, so its top eigenspace is
    # not spanned by coordinate matrices
    Q = np.linalg.qr(np.random.default_rng(3).standard_normal((3, 3)))[0]
    flip = (np.eye(3), np.diag([1.0, -1.0, 1.0]))
    for kraus in ((np.eye(2),), (np.eye(3),), flip, tuple(Q @ L @ Q.T for L in flip)):
        op = oracles.CPOperator(kraus)
        nu, Y = oracles.restricted_psd_norm(op, return_direction=True)
        assert np.linalg.eigvalsh(Y).min() >= -1e-12
        assert abs(np.linalg.norm(Y) - 1.0) < 1e-12
        assert abs(np.linalg.norm(op.apply(Y)) - nu) < 1e-12


def test_restricted_norm_scaling_law():
    rng = np.random.default_rng(9)
    op = random_symmetric_kraus(rng, 3, 2)
    base = oracles.restricted_psd_norm(op)
    scaled = oracles.CPOperator(tuple(np.sqrt(2.7) * L for L in op.kraus))
    assert abs(oracles.restricted_psd_norm(scaled) - 2.7 * base) < 1e-8 * max(1, base)
    zero = oracles.CPOperator((np.zeros((2, 2)),))
    assert oracles.restricted_psd_norm(zero) == 0.0


# ---------------------------------------------------------------------------
# classification
# ---------------------------------------------------------------------------

def _hetero(eps, target_norm):
    prof = model.BlockPriorProfile((RAD, model.ScalarPrior.bernoulli_gaussian(eps)), BETA)
    c = target_norm / T1_NORM
    op = se.OperatorT(model.CouplingSet.heteroskedastic(np.sqrt(c * XI)))
    return se.OverlapModel(prof), op


def test_classify_nu_equals_operator_norm_at_zero():
    # J = diag(beta psi'(0)) H is entrywise nonnegative, so its norm over the
    # nonnegative orthant is ||J||_2, attained at a nonnegative unit direction
    m, op = _hetero(0.5, 1.3)
    v = stability.classify_fixed_point(m, op, np.zeros(2))
    J = np.diag(m.dpsi_vector(np.zeros(2))) @ op.couplings.hadamard_square_sum()
    assert abs(v.nu - np.linalg.norm(J, 2)) < 1e-12
    assert np.all(v.maximizing_direction >= 0)
    assert abs(np.linalg.norm(v.maximizing_direction) - 1.0) < 1e-12


def test_classify_scalar_bbp_threshold():
    prof = model.BlockPriorProfile((RAD,), (1.0,))
    m = se.OverlapModel(prof)
    for lam, expected in [(0.8, "stable"), (1.2, "unstable")]:
        op = se.OperatorT(model.CouplingSet.heteroskedastic(np.array([[lam]])))
        v = stability.classify_fixed_point(m, op, np.zeros(1))
        assert v.classification == expected
        assert abs(v.nu - lam * lam) < 1e-3  # nu = lam^2 psi'(0)


def test_classify_heteroskedastic_scaling():
    m, op1 = _hetero(0.5, T1_NORM)  # c = 1
    v1 = stability.classify_fixed_point(m, op1, np.zeros(2))
    assert abs(v1.nu - T1_NORM) < 1e-3
    m, op2 = _hetero(0.5, 2.0)
    v2 = stability.classify_fixed_point(m, op2, np.zeros(2))
    assert abs(v2.nu - 2.0) < 2e-3  # nu(c) = c nu(1)


def test_classify_saturated_fixed_point_is_stable():
    # very high SNR: q* ~ beta, psi' ~ 0, nu ~ 0
    m, op = _hetero(0.5, 40.0)
    traj = se.run_se(m, op, np.diag([1e-4, 1e-4]), max_iter=5000)
    q, resid = se.refine_fixed_point(m, op.couplings.hadamard_square_sum(), traj.q_star)
    assert resid < 1e-9
    v = stability.classify_fixed_point(m, op, q)
    assert v.classification == "stable"
    assert v.nu < 0.2


def test_classify_requires_fixed_point():
    m, op = _hetero(0.5, 2.0)
    with pytest.raises(stability.FixedPointPreconditionError):
        stability.classify_fixed_point(m, op, np.array([0.3, 0.1]))


def test_classify_requires_overlap_vector():
    # a matrix or a vector of the wrong length is refused, not read for its diagonal
    m, op = _hetero(0.5, 2.0)
    for q in (np.zeros((2, 2)), np.zeros(3), np.zeros((2, 1))):
        with pytest.raises(se.DomainError):
            stability.classify_fixed_point(m, op, q)


def test_classify_marginal_band():
    prof = model.BlockPriorProfile((RAD,), (1.0,))
    m = se.OverlapModel(prof)
    op = se.OperatorT(model.CouplingSet.heteroskedastic(np.array([[1.0]])))
    v = stability.classify_fixed_point(m, op, np.zeros(1), delta=0.02)
    assert v.classification == "marginal"


def test_verdict_json_round_trip():
    import json

    m, op = _hetero(0.5, 0.9)
    v = stability.classify_fixed_point(m, op, np.zeros(2))
    payload = json.loads(json.dumps(v.to_dict()))
    assert payload == v.to_dict()
    assert payload["classification"] == "stable"
    assert abs(payload["nu"] - 0.9) < 1e-3


# ---------------------------------------------------------------------------
# structural invariants
# ---------------------------------------------------------------------------

def test_cp_operator_positivity_and_order():
    rng = np.random.default_rng(13)
    for _ in range(100):
        d = int(rng.integers(2, 4))
        op = random_symmetric_kraus(rng, d, int(rng.integers(1, 4)))
        a = rng.standard_normal((d, d))
        X = a @ a.T
        out = op.apply(X)
        assert np.linalg.eigvalsh(out).min() >= -1e-10 * max(1.0, np.abs(out).max())
        b = rng.standard_normal((d, d))
        Y = X + b @ b.T  # X <= Y in Loewner order
        diff = op.apply(Y) - op.apply(X)
        assert np.linalg.eigvalsh(diff).min() >= -1e-10 * max(1.0, np.abs(diff).max())


def test_eigenvalue_sufficient_condition_implies_stable():
    # whenever max |lambda_i| over symmetric eigenvectors < 1, the classifier
    # must return stable at the zero fixed point
    rng = np.random.default_rng(29)
    count = 0
    for _ in range(60):
        d = 2
        eps = float(rng.uniform(0.1, 1.0))
        beta = rng.uniform(0.2, 0.8, 1)
        beta = (float(beta[0]), float(1 - beta[0]))
        a = np.abs(rng.standard_normal((d, d)))
        lam = (a + a.T) / 2 * rng.uniform(0.1, 0.8)
        cs = model.CouplingSet.heteroskedastic(lam)
        sf = oracles.choi_and_kraus(oracles.CPOperator(cs.matrices))
        lam_max = np.abs(sf.eigenvalues[sf.symmetric_flags]).max()
        if lam_max >= 1.0:
            continue
        count += 1
        prof = model.BlockPriorProfile(
            (RAD, model.ScalarPrior.bernoulli_gaussian(eps)), beta
        )
        v = stability.classify_fixed_point(
            se.OverlapModel(prof), se.OperatorT(cs), np.zeros(d)
        )
        assert v.classification == "stable", (lam_max, v.nu)
    assert count > 10  # the sufficient condition fired often enough to be a test


def test_unstable_zero_point_escape():
    # nu > 1 + delta at zero: SE started at a small positive multiple of the
    # maximizing direction ends an orbit bounded well away from zero
    m, op = _hetero(0.5, 1.3)
    v = stability.classify_fixed_point(m, op, np.zeros(2))
    assert v.classification == "unstable"
    epsilon = 1e-3
    q0 = epsilon * v.maximizing_direction
    traj = se.run_se(m, op, np.diag(q0), max_iter=4000)
    assert np.linalg.norm(traj.q_star) > 10 * epsilon
