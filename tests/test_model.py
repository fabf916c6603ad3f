import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from mvamp import model


def test_goe_symmetric_and_deterministic():
    g1 = np.asarray(model.sample_goe(32, seed=5))
    g2 = np.asarray(model.sample_goe(32, seed=5))
    assert np.array_equal(g1, g2)
    assert np.array_equal(g1, g1.T)
    assert not np.array_equal(g1, np.asarray(model.sample_goe(32, seed=6)))


def test_goe_rejects_empty():
    with pytest.raises(model.InvalidDimensionError):
        model.sample_goe(0, seed=1)


def test_goe_draws_only_the_upper_triangle(monkeypatch):
    # the draw takes n (n + 1)/2 normals from its stream, one row's upper part
    # after the other, and starts no thread
    def no_thread(self):
        raise AssertionError("sample_goe started a thread")

    monkeypatch.setattr(threading.Thread, "start", no_thread)
    for n in (1, 2, 600):
        rng, ref = model.rng_from(60 + n), model.rng_from(60 + n)
        g = model.sample_goe(n, seed=rng)
        ref.standard_normal(n * (n + 1) // 2)
        assert rng.standard_normal() == ref.standard_normal(), n
        assert np.array_equal(np.asarray(g), oracles.goe_upper_draw(n, 60 + n)), n


@pytest.mark.parametrize("threads", [1, 2])
def test_goe_panels_keep_the_bits(threads):
    # the upper row panels G[a:a + 512, a:] hold the plain-numpy oracle's
    # upper-triangle draw bit for bit, with one to four panels and on either
    # side of a panel edge, whether the views are drawn one after the other
    # or on concurrent threads as an instance's views are
    from concurrent.futures import ThreadPoolExecutor

    sizes = (1, 127, 128, 129, 511, 512, 513, 1100, 1537)
    with ThreadPoolExecutor(max_workers=threads) as pool:
        views = list(pool.map(lambda n: model.sample_goe(n, seed=40 + n), sizes))
    for n, g in zip(sizes, views):
        full = oracles.goe_upper_draw(n, 40 + n)
        assert np.array_equal(np.asarray(g), full), n
        starts = range(0, n, 512)
        assert len(g.panels) == len(starts)
        for p, a in zip(g.panels, starts):
            assert np.array_equal(p, full[a:a + 512, a:]) and not p.flags.writeable
        assert g.nbytes == 8 * sum(min(512, n - a) * (n - a) for a in starts)


def test_goe_1x1_diagonal_variance():
    # single entry is sqrt(2) * standard normal: variance 2 over seeds
    vals = np.array([np.asarray(model.sample_goe(1, seed=s))[0, 0] for s in range(4000)])
    assert abs(vals.mean()) < 0.1
    assert abs(vals.var() - 2.0) < 0.15


def test_goe_ensemble_entry_variances():
    # >= 500 seeds at n=64: off-diagonal variance in [0.9, 1.1], diagonal in [1.8, 2.2]
    n = 64
    off_acc, diag_acc = [], []
    mask = ~np.eye(n, dtype=bool)
    for s in range(500):
        g = np.asarray(model.sample_goe(n, seed=s))
        off_acc.append(g[mask].var())
        diag_acc.append(np.diag(g).var())
    assert 0.9 < np.mean(off_acc) < 1.1
    assert 1.8 < np.mean(diag_acc) < 2.2


def test_goe_operator_norm_law():
    # ||G/sqrt(n)||op concentrates at 2 under the unit off-diagonal variance
    # normalization; require the 3% band on >= 95% of 50 seeds at n=4000
    from scipy.sparse.linalg import eigsh

    n = 4000
    hits = 0
    vals = []
    for s in range(50):
        g = np.asarray(model.sample_goe(n, seed=1000 + s))
        # a Ritz-value accuracy of 1e-8, six orders below the 3% band
        top = float(np.abs(eigsh(g, k=1, which="LM", tol=1e-8,
                                 return_eigenvectors=False))[0])
        v = top / np.sqrt(n)
        vals.append(v)
        if 2.0 * 0.97 <= v <= 2.0 * 1.03:
            hits += 1
    assert hits >= 48, (hits, min(vals), max(vals))
    # the single-instance example band: within 5% of 2
    assert 1.9 <= vals[0] <= 2.1


def test_scalar_prior_moments():
    rng = np.random.default_rng(0)
    for prior in [
        model.ScalarPrior.rademacher(),
        model.ScalarPrior.gaussian_unit(),
        model.ScalarPrior.bernoulli_gaussian(0.1),
        model.ScalarPrior.bernoulli_gaussian(1.0),
    ]:
        x = prior.sample(rng, 400_000)
        # mean -> 0 and second moment -> 1 within 3 standard errors
        se_mean = x.std() / np.sqrt(x.size)
        assert abs(x.mean()) < 3 * se_mean + 1e-12
        se_m2 = np.square(x).std() / np.sqrt(x.size)
        assert abs(np.square(x).mean() - 1.0) < 3 * se_m2 + 1e-12


def test_prior_name_round_trip():
    for name in ["rademacher", "gaussian", "bg:0.05"]:
        assert model.ScalarPrior.from_name(name).name == name
    with pytest.raises(model.InvalidProfileError):
        model.ScalarPrior.from_name("cauchy")
    with pytest.raises(model.InvalidProfileError):
        model.ScalarPrior.bernoulli_gaussian(0.0)


def test_profile_block_sizes_and_validation():
    prof = model.BlockPriorProfile(
        (model.ScalarPrior.rademacher(), model.ScalarPrior.gaussian_unit()), (0.6, 0.4)
    )
    assert prof.block_sizes(10) == [6, 4]
    assert prof.block_sizes(7) == [4, 3]  # last block absorbs rounding
    with pytest.raises(model.InvalidProfileError):
        model.BlockPriorProfile((model.ScalarPrior.rademacher(),), (0.9,))
    with pytest.raises(model.InvalidProfileError):
        model.BlockPriorProfile((), ())


def test_profile_refuses_non_finite_fractions():
    # NaN compares False with every bound, so only a finiteness check sees it
    rad = model.ScalarPrior.rademacher()
    for priors, beta in (((rad,), (np.nan,)), ((rad, rad), (np.nan, 1.0)),
                         ((rad, rad), (np.inf, 0.5))):
        with pytest.raises(model.InvalidProfileError, match="finite"):
            model.BlockPriorProfile(priors, beta)


def test_couplings_refuse_non_finite_matrices():
    # a NaN matrix is not finite (not "not symmetric"), and an inf one is refused
    for bad in (np.nan, np.inf):
        lam = np.array([[1.0, 0.2], [0.2, bad]])
        with pytest.raises(model.CouplingValidationError, match="coupling matrix 1 is not finite"):
            model.CouplingSet((np.eye(2), lam))


def test_sample_signal_support_pattern():
    prof = model.BlockPriorProfile(
        (model.ScalarPrior.rademacher(), model.ScalarPrior.rademacher()), (0.6, 0.4)
    )
    X = model.sample_signal(prof, 10, seed=3)
    assert X.shape == (10, 2)
    assert np.all(X[:6, 1] == 0) and np.all(X[:6, 0] != 0)
    assert np.all(X[6:, 0] == 0) and np.all(X[6:, 1] != 0)
    # d=1 Rademacher: two-point support
    prof1 = model.BlockPriorProfile((model.ScalarPrior.rademacher(),), (1.0,))
    x = model.sample_signal(prof1, 10, seed=4)
    assert set(np.unique(x)) <= {-1.0, 1.0}


def test_sample_signal_gram_matrix_lln():
    prof = model.BlockPriorProfile(
        (model.ScalarPrior.bernoulli_gaussian(0.2), model.ScalarPrior.gaussian_unit()),
        (0.6, 0.4),
    )
    n = 40_000
    X = model.sample_signal(prof, n, seed=9)
    gram = X.T @ X / n
    assert abs(gram[0, 1]) < 1e-12  # disjoint supports: exactly diagonal
    # 3 standard errors of the block average of x^2 (fourth moment 3/eps for BG)
    for j, (m4, beta) in enumerate([(3 / 0.2, 0.6), (3.0, 0.4)]):
        se = np.sqrt((m4 - 1.0) * beta / n)
        assert abs(gram[j, j] - beta) < 3 * se


def test_synthesize_symmetric_contracts():
    prof = model.BlockPriorProfile((model.ScalarPrior.rademacher(),), (1.0,))
    X = model.sample_signal(prof, 50, seed=0)
    cs = model.CouplingSet.heteroskedastic(np.array([[1.5]]))
    inst = model.synthesize_symmetric(X, cs, seed=1, profile=prof)
    Y = inst.observations[0]
    assert np.array_equal(Y, Y.T)  # bit-level symmetry
    # zero signal -> pure noise, mean 0
    inst0 = model.synthesize_symmetric(np.zeros((50, 1)), cs, seed=2, profile=prof)
    assert np.abs(inst0.X @ cs.matrices[0] @ inst0.X.T / 50).max() == 0.0
    with pytest.raises(model.CouplingValidationError):
        model.synthesize_symmetric(
            X, model.CouplingSet((np.array([[0.0, 1.0], [0.0, 0.0]]),)), 3, profile=prof
        )


def test_instance_holds_only_the_noise():
    import tracemalloc

    prof = model.BlockPriorProfile(
        (model.ScalarPrior.rademacher(), model.ScalarPrior.gaussian_unit()), (0.5, 0.5)
    )
    n = 300
    X = model.sample_signal(prof, n, seed=19)
    cs = model.CouplingSet((np.array([[1.0, 0.5], [0.5, 2.0]]), np.array([[0.3, 0.0], [0.0, 0.7]])))
    inst = model.synthesize_symmetric(X, cs, seed=20, profile=prof)
    # each view is stored once, as its upper row panels G[a:a + 512, a:]
    # (one panel of n x n here, n <= 512)
    assert sum(g.nbytes for g in inst.noise) == (
        8 * cs.K * sum(min(512, n - a) * (n - a) for a in range(0, n, 512)))
    assert all(not p.flags.writeable for g in inst.noise for p in g.panels)
    # the synthesized noise is taken as is; an array passed in is packed (a copy)
    again = model.MTPInstance(X, inst.noise, cs, prof)
    assert all(a is b for a, b in zip(again.noise, inst.noise))
    mine = np.asarray(inst.noise[1])
    copied = model.MTPInstance(X, (inst.noise[0], mine), cs, prof)
    assert not any(np.shares_memory(p, mine) for p in copied.noise[1].panels)
    assert not any(p.flags.writeable for p in copied.noise[1].panels)
    assert np.array_equal(np.asarray(copied.noise[1]), mine)
    tracemalloc.start()
    try:
        assert len(inst.observations) == cs.K
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * n * n
    with pytest.raises(model.InvalidDimensionError):
        model.MTPInstance(X, inst.noise[:1], cs, prof)
    with pytest.raises(TypeError):  # the block profile is required
        model.MTPInstance(X, inst.noise, cs)


def test_instance_refuses_non_symmetric_noise():
    # a view is stored as its upper triangle, so a lower triangle that differs
    # would be lost: such an array is refused, naming the view
    prof = model.BlockPriorProfile((model.ScalarPrior.rademacher(),), (1.0,))
    n = 40
    X = model.sample_signal(prof, n, seed=21)
    cs = model.CouplingSet((np.eye(1), 2.0 * np.eye(1)))
    sym = np.asarray(model.sample_goe(n, seed=22))
    skewed = sym.copy()
    skewed[30, 3] += 1e-12
    with pytest.raises(model.InvalidDimensionError, match="noise view 1 is not symmetric"):
        model.MTPInstance(X, (sym, skewed), cs, prof)
    with pytest.raises(model.InvalidDimensionError, match="noise view 0"):
        model.MTPInstance(X, (sym[:, :-1], sym), cs, prof)
    inst = model.MTPInstance(X, (sym, sym), cs, prof)
    assert np.array_equal(np.asarray(inst.noise[1]), sym)


@pytest.mark.parametrize("cores", [1, 2])
def test_packed_noise_memory(monkeypatch, cores):
    # K = 2 views at n = 4000: the panels hold at most (n^2 + 512 n)/2 doubles per view
    # (0.5625 of the full matrices), and one synthesis never holds a full
    # n x n array: its traced peak is the panels plus the few MB that
    # mirroring a 512-row diagonal block takes, per view drawn at a time
    # (1 core: one view after the other; 2 cores: both views at once).
    import tracemalloc

    monkeypatch.setattr(model, "usable_cores", lambda: cores)
    prof = model.BlockPriorProfile((model.ScalarPrior.rademacher(),), (1.0,))
    n, K = 4000, 2
    X = model.sample_signal(prof, n, seed=23)
    cs = model.CouplingSet((np.eye(1), 2.0 * np.eye(1)))
    full = 8 * n * n * K
    tracemalloc.start()
    try:
        inst = model.synthesize_symmetric(X, cs, seed=24, profile=prof)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert sum(g.nbytes for g in inst.noise) <= 0.57 * full
    assert peak < 0.6 * full, peak / full


def test_synthesize_symmetric_bit_level_d2():
    # matmul round-off must not break exact symmetry for d >= 2
    prof = model.BlockPriorProfile(
        (model.ScalarPrior.gaussian_unit(), model.ScalarPrior.rademacher()), (0.5, 0.5)
    )
    X = model.sample_signal(prof, 64, seed=17)
    cs = model.CouplingSet.heteroskedastic(np.array([[1.1, 0.6], [0.6, 0.9]]))
    inst = model.synthesize_symmetric(X, cs, seed=18, profile=prof)
    Y = inst.observations[0]
    assert np.array_equal(Y, Y.T)
    P = X @ cs.matrices[0] @ X.T
    part = (P + P.T) / 2.0 / 64
    assert np.array_equal(Y - part, (Y - part).T)


@pytest.mark.parametrize("cores", [1, 2, 3])
def test_synthesize_symmetric_parallel_keeps_the_bits(monkeypatch, cores):
    # views on concurrent threads give the bits of an independent serial
    # upper-triangle draw per spawned child, for any core count
    monkeypatch.setattr(model, "usable_cores", lambda: cores)
    prof = model.BlockPriorProfile((model.ScalarPrior.rademacher(),), (1.0,))
    start = threading.active_count()
    for n in (129, 300):
        X = model.sample_signal(prof, n, seed=n)
        for K in (1, 2, 3):
            cs = model.CouplingSet(tuple(np.full((1, 1), k + 1.0) for k in range(K)))
            inst = model.synthesize_symmetric(X, cs, seed=70 + K, profile=prof)
            children = np.random.SeedSequence(70 + K).spawn(K)
            assert len(inst.noise) == K
            for g, child in zip(inst.noise, children):
                assert np.array_equal(g, oracles.goe_upper_draw(n, child)), (n, K)
            assert threading.active_count() == start


def test_synthesis_worker_error_propagates_and_frees_threads(monkeypatch):
    # an error in a view thread reaches the caller and every thread is joined
    monkeypatch.setattr(model, "usable_cores", lambda: 3)
    real = model.sample_goe
    calls = []

    def flaky(*args):
        calls.append(args)
        if len(calls) == 2:
            raise RuntimeError("worker failed")
        return real(*args)

    monkeypatch.setattr(model, "sample_goe", flaky)
    prof = model.BlockPriorProfile((model.ScalarPrior.rademacher(),), (1.0,))
    cs = model.CouplingSet(tuple(np.full((1, 1), k + 1.0) for k in range(3)))
    start = threading.active_count()
    with pytest.raises(RuntimeError, match="worker failed"):
        model.synthesize_symmetric(np.ones((300, 1)), cs, seed=3, profile=prof)
    assert threading.active_count() == start


def test_synthesize_noise_averages_out():
    # mean over 200 seeds converges to the noiseless part, error O(1/sqrt(200 n))
    prof = model.BlockPriorProfile((model.ScalarPrior.rademacher(),), (1.0,))
    n = 30
    X = model.sample_signal(prof, n, seed=7)
    cs = model.CouplingSet.heteroskedastic(np.array([[2.0]]))
    acc = np.zeros((n, n))
    for s in range(200):
        acc += model.synthesize_symmetric(X, cs, seed=s, profile=prof).observations[0]
    acc /= 200
    resid = acc - 2.0 * X @ X.T / n
    # entry std: sqrt(1/n)/sqrt(200) off-diagonal, sqrt(2) larger on diagonal
    assert np.abs(resid).max() < 6 * np.sqrt(2.0 / n / 200)


def test_heteroskedastic_matches_hadamard_form():
    prof = model.BlockPriorProfile(
        (model.ScalarPrior.rademacher(), model.ScalarPrior.gaussian_unit()), (0.6, 0.4)
    )
    n = 20
    X = model.sample_signal(prof, n, seed=11)
    x = X.sum(axis=1)  # the spike; its block j is column j of X
    lam = np.array([[1.2, 0.5], [0.5, 0.8]])
    inst = model.synthesize_symmetric(X, model.CouplingSet.heteroskedastic(lam), seed=5,
                                      profile=prof)
    block = np.repeat([0, 1], [12, 8])
    delta = lam[np.ix_(block, block)]  # the n x n SNR matrix, Lambda tiled over blocks
    assert np.allclose(inst.X @ lam @ inst.X.T / n, np.outer(x, x) * delta / n)
    # Lambda^{o2} parametrization: entrywise square recovers c * Xi
    xi = np.array([[0.7, 0.3], [0.3, 0.7]])
    lam2 = np.sqrt(2.5 * xi)
    assert np.allclose(lam2 * lam2, 2.5 * xi)


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 40))
def test_goe_symmetry_property(seed, n):
    g = np.asarray(model.sample_goe(n, seed=seed))
    assert np.array_equal(g, g.T)
    assert np.isfinite(g).all()


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_instance_determinism_property(seed):
    prof = model.BlockPriorProfile((model.ScalarPrior.gaussian_unit(),), (1.0,))
    X = model.sample_signal(prof, 12, seed=seed)
    cs = model.CouplingSet.heteroskedastic(np.array([[0.7]]))
    a = model.synthesize_symmetric(X, cs, seed=seed, profile=prof)
    b = model.synthesize_symmetric(X, cs, seed=seed, profile=prof)
    assert np.array_equal(a.observations[0], b.observations[0])
