"""Signal priors, coupling structures, and synthesis of multi-view spiked-matrix data.

Observation convention (rescaled): for a signal X in R^{n x d} and symmetric
couplings Lambda_k,

    Y_k = (1/n) X Lambda_k X^T + (1/sqrt(n)) G_k,

with G_k drawn from a Gaussian Orthogonal Ensemble normalized so off-diagonal
entries have unit variance (diagonal variance 2), i.e. G = (W + W^T)/sqrt(2).
An instance stores X and the unscaled G_k only: AMP multiplies by G_k and by
the rank-d spike, and Y_k is formed only when ``observations[k]`` is read.

Randomness is driven by ``numpy.random.SeedSequence`` spawning: every consumer
(signal, each of the K noise views, side-information init) gets its own child
stream, so instances are bit-reproducible and views are independent even when
trials run concurrently.
"""

from __future__ import annotations

import os
import threading
from collections.abc import Sequence
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass
from operator import index

import numpy as np


class InvalidDimensionError(ValueError):
    pass


class InvalidProfileError(ValueError):
    pass


class CouplingValidationError(ValueError):
    pass


RADEMACHER = "rademacher"
BERNOULLI_GAUSSIAN = "bg"
GAUSSIAN = "gaussian"


def rng_from(seed) -> np.random.Generator:
    """Accept an int seed, a sequence of ints (SeedSequence entropy, so
    [seed, tag] keys a stream by a tag) or an existing Generator."""
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(np.random.SeedSequence(seed))


@dataclass(frozen=True)
class ScalarPrior:
    """Zero-mean, unit-second-moment scalar signal law.

    Supported kinds: "rademacher" (uniform on {-1, +1}), "bg" (Bernoulli-
    Gaussian: X = B*N with B ~ Be(eps), N ~ N(0, 1/eps)), "gaussian"
    (standard normal). BG with eps = 1 coincides with the Gaussian law.
    """

    kind: str
    eps: float | None = None

    def __post_init__(self):
        if self.kind not in (RADEMACHER, BERNOULLI_GAUSSIAN, GAUSSIAN):
            raise InvalidProfileError(f"unknown prior kind {self.kind!r}")
        if self.kind == BERNOULLI_GAUSSIAN:
            if self.eps is None or not (0.0 < self.eps <= 1.0):
                raise InvalidProfileError(
                    f"bernoulli-gaussian sparsity must lie in (0, 1], got {self.eps}"
                )
        elif self.eps is not None:
            raise InvalidProfileError(f"prior {self.kind!r} takes no sparsity parameter")

    @staticmethod
    def rademacher() -> "ScalarPrior":
        return ScalarPrior(RADEMACHER)

    @staticmethod
    def bernoulli_gaussian(eps: float) -> "ScalarPrior":
        return ScalarPrior(BERNOULLI_GAUSSIAN, float(eps))

    @staticmethod
    def gaussian_unit() -> "ScalarPrior":
        return ScalarPrior(GAUSSIAN)

    @staticmethod
    def from_name(name: str) -> "ScalarPrior":
        """Parse CLI identifiers: "rademacher", "gaussian", "bg:<eps>"."""
        name = name.strip().lower()
        if name == RADEMACHER:
            return ScalarPrior.rademacher()
        if name == GAUSSIAN:
            return ScalarPrior.gaussian_unit()
        if name.startswith("bg:"):
            return ScalarPrior.bernoulli_gaussian(float(name[3:]))
        raise InvalidProfileError(f"unknown prior identifier {name!r}")

    @property
    def name(self) -> str:
        if self.kind == BERNOULLI_GAUSSIAN:
            return f"bg:{self.eps:g}"
        return self.kind

    def sample(self, rng: np.random.Generator, size) -> np.ndarray:
        if self.kind == RADEMACHER:
            return rng.integers(0, 2, size=size).astype(float) * 2.0 - 1.0
        if self.kind == GAUSSIAN:
            return rng.standard_normal(size)
        mask = rng.random(size) < self.eps
        return mask * rng.normal(0.0, 1.0 / np.sqrt(self.eps), size=size)


@dataclass(frozen=True)
class BlockPriorProfile:
    """Per-block signal laws with limiting block fractions beta (sum to 1)."""

    priors: tuple[ScalarPrior, ...]
    beta: tuple[float, ...]

    def __post_init__(self):
        if len(self.priors) == 0:
            raise InvalidProfileError("profile needs at least one block")
        if len(self.priors) != len(self.beta):
            raise InvalidProfileError("priors and beta length mismatch")
        b = np.asarray(self.beta, float)
        if np.any(b <= 0) or np.any(b > 1):
            raise InvalidProfileError(f"block fractions must lie in (0, 1], got {self.beta}")
        if abs(b.sum() - 1.0) > 1e-8:
            raise InvalidProfileError(f"block fractions must sum to 1, got {b.sum()}")

    @property
    def d(self) -> int:
        return len(self.priors)

    def block_sizes(self, n: int) -> list[int]:
        """n_j = round(beta_j * n); the last block absorbs the rounding remainder."""
        sizes = [int(round(bj * n)) for bj in self.beta[:-1]]
        sizes.append(n - sum(sizes))
        if any(s <= 0 for s in sizes):
            raise InvalidProfileError(f"n={n} too small for fractions {self.beta}")
        return sizes

    def block_slices(self, n: int) -> list[slice]:
        sizes = self.block_sizes(n)
        offsets = np.concatenate([[0], np.cumsum(sizes)])
        return [slice(int(offsets[j]), int(offsets[j + 1])) for j in range(self.d)]


def _freeze(a: np.ndarray) -> np.ndarray:
    """A read-only float array: one that is already read-only and owns its
    memory is taken as is, anything else is copied."""
    if (isinstance(a, np.ndarray) and a.dtype == np.float64 and a.flags.owndata
            and not a.flags.writeable):
        return a
    a = np.array(a, dtype=float, copy=True)
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class CouplingSet:
    """The K symmetric coupling matrices Lambda_k (d x d) defining the multi-view model."""

    matrices: tuple[np.ndarray, ...]

    def __post_init__(self):
        if len(self.matrices) == 0:
            raise CouplingValidationError("need at least one coupling matrix")
        mats = tuple(_freeze(m) for m in self.matrices)
        d = mats[0].shape[0]
        for k, m in enumerate(mats):
            if m.ndim != 2 or m.shape != (d, d):
                raise CouplingValidationError("coupling matrices must be square with equal size")
            if not np.array_equal(m, m.T):
                raise CouplingValidationError(f"coupling matrix {k} is not symmetric")
        object.__setattr__(self, "matrices", mats)

    @property
    def d(self) -> int:
        return self.matrices[0].shape[0]

    @property
    def K(self) -> int:
        return len(self.matrices)

    def hadamard_square_sum(self) -> np.ndarray:
        """sum_k Lambda_k**2 (entrywise); drives the block-diagonal SNR reduction."""
        return sum(m * m for m in self.matrices)

    @staticmethod
    def heteroskedastic(lam: np.ndarray) -> "CouplingSet":
        return CouplingSet((lam,))


@dataclass(frozen=True)
class MTPInstance:
    """A sampled multi-view instance: signal X (n x d), the unscaled GOE noise
    G_k of each coupling Lambda_k, and the block profile of X.

    The views Y_k = (1/n) X Lambda_k X^T + (1/sqrt(n)) G_k are not stored;
    ``observations[k]`` forms Y_k on demand."""

    X: np.ndarray
    noise: tuple[np.ndarray, ...]
    couplings: CouplingSet
    profile: BlockPriorProfile

    def __post_init__(self):
        X = _freeze(self.X)
        noise = tuple(_freeze(g) for g in self.noise)
        n = X.shape[0]
        if len(noise) != self.couplings.K or any(g.shape != (n, n) for g in noise):
            raise InvalidDimensionError(
                f"need {self.couplings.K} noise matrices of shape ({n}, {n})"
            )
        object.__setattr__(self, "X", X)
        object.__setattr__(self, "noise", noise)

    @property
    def n(self) -> int:
        return self.X.shape[0]

    @property
    def d(self) -> int:
        return self.X.shape[1]

    @property
    def K(self) -> int:
        return len(self.noise)

    @property
    def observations(self) -> "_Observations":
        return _Observations(self)


class _Observations(Sequence):
    """The views Y_k of an instance, each formed when it is indexed."""

    def __init__(self, instance: MTPInstance):
        self._inst = instance

    def __len__(self) -> int:
        return self._inst.K

    def __getitem__(self, k) -> np.ndarray:
        k = index(k)
        inst = self._inst
        X, lam = inst.X, inst.couplings.matrices[k]
        y = _exact_sym(X @ lam @ X.T) / inst.n + inst.noise[k] / np.sqrt(inst.n)
        y.flags.writeable = False
        return y


def _exact_sym(a: np.ndarray) -> np.ndarray:
    """Bit-exact symmetrization (matmul round-off breaks A == A.T for d >= 2)."""
    return (a + a.T) / 2.0


def usable_cores() -> int:
    """The cores this process may run on (its affinity mask where the OS has one)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


class CoreBudget:
    """The cores of the process that no thread has claimed. A thread that
    calls ``claim`` already runs on a core of its own, so at most
    ``usable_cores() - 1`` are spare; a thread that waits on the threads it
    starts lends them its own. The budget is process-wide because cores are:
    concurrent trials and the helper threads of synthesis share one count, so
    synthesis starts a thread only on a core that no trial or other helper
    holds."""

    def __init__(self):
        self._lock = threading.Lock()
        self._claimed = 0

    @contextmanager
    def claim(self, k: int):
        """Take up to k spare cores; yield how many were granted (possibly 0)
        and return them on exit."""
        with self._lock:
            got = max(0, min(k, usable_cores() - 1 - self._claimed))
            self._claimed += got
        try:
            yield got
        finally:
            with self._lock:
                self._claimed -= got


CORES = CoreBudget()

# panel height of the GOE draw and tile side of its fold; a matrix of one
# panel takes no thread: it is drawn in less time than a thread takes to start
_GOE_TILE = 128


def _fold_panel(w: np.ndarray, j: int) -> None:
    """w <- (w + w.T)/sqrt(2) on the tile pairs (i, j), i <= j, of row panel j:
    the strided reads of w.T stay in cache, and the sum of each entry pair is
    formed once (addition commutes exactly, so the bits do not change). Each
    pair is folded once and pairs are disjoint, so panels fold in any order."""
    s = np.sqrt(2.0)
    rj = slice(j, j + _GOE_TILE)
    for i in range(0, j + 1, _GOE_TILE):
        ri = slice(i, i + _GOE_TILE)
        tile = w[ri, rj] + w[rj, ri].T
        tile /= s
        w[ri, rj] = tile
        w[rj, ri] = tile.T


def _touch_panel(w: np.ndarray, j: int) -> None:
    """Write one entry per 4 KiB page of row panel j (none past the last row),
    so its pages are mapped before the generator fills them."""
    w[j:j + _GOE_TILE].reshape(-1)[::512] = 0.0


def sample_goe(n: int, seed) -> np.ndarray:
    """Symmetric Gaussian matrix (W + W^T)/sqrt(2): off-diagonal variance 1, diagonal 2.

    W is drawn one row panel at a time, the same stream as one (n, n) draw.
    With a spare core and more than one panel, a helper thread maps the pages
    of the next panel and folds each drawn panel's tile pairs while the
    generator fills the next one; otherwise the calling thread folds them
    itself. The bits are the same either way."""
    if n < 1:
        raise InvalidDimensionError(f"GOE size must be >= 1, got {n}")
    rng = rng_from(seed)
    w = np.empty((n, n))
    with CORES.claim(1 if n > _GOE_TILE else 0) as helpers:
        if not helpers:
            for j in range(0, n, _GOE_TILE):
                rng.standard_normal(out=w[j:j + _GOE_TILE])
                _fold_panel(w, j)
            return w
        # one helper runs its tasks in order: the touch of panel j + 1 is
        # queued before the fold of panel j, so the generator never waits
        # behind a fold
        with ThreadPoolExecutor(1) as pool:
            touched, folds = pool.submit(_touch_panel, w, 0), []
            for j in range(0, n, _GOE_TILE):
                touched.result()
                touched = pool.submit(_touch_panel, w, j + _GOE_TILE)
                rng.standard_normal(out=w[j:j + _GOE_TILE])
                folds.append(pool.submit(_fold_panel, w, j))
            for f in [touched, *folds]:
                f.result()
    return w


def sample_signal(profile: BlockPriorProfile, n: int, seed) -> np.ndarray:
    """Block-diagonal signal: row i in block j has its only nonzero in column j."""
    if not isinstance(profile, BlockPriorProfile) or profile.d == 0:
        raise InvalidProfileError("empty or invalid profile")
    if n < profile.d:
        raise InvalidDimensionError(f"n={n} smaller than block count d={profile.d}")
    rng = rng_from(seed)
    X = np.zeros((n, profile.d))
    for j, sl in enumerate(profile.block_slices(n)):
        X[sl, j] = profile.priors[j].sample(rng, sl.stop - sl.start)
    return X


def synthesize_symmetric(
    X: np.ndarray,
    couplings: CouplingSet,
    seed: int,
    profile: BlockPriorProfile,
) -> MTPInstance:
    """Y_k = (1/n) X Lambda_k X^T + (1/sqrt(n)) G_k with independent GOE noise
    per view; the instance keeps G_k only, read-only and not copied.

    Each view draws from its own child of ``seed``, so views of more than
    one panel are drawn concurrently on the spare cores (the calling thread
    waits and lends its own) with the bits of a serial draw."""
    X = np.asarray(X, float)
    n, d = X.shape
    if couplings.d != d:
        raise CouplingValidationError(f"coupling size {couplings.d} != signal width {d}")
    children = np.random.SeedSequence(seed).spawn(couplings.K)

    def view(child) -> np.ndarray:
        g = sample_goe(n, np.random.default_rng(child))
        g.flags.writeable = False
        return g

    with CORES.claim(len(children) - 1 if n > _GOE_TILE else 0) as extra:
        if not extra:
            noise = tuple(map(view, children))
        else:
            with ThreadPoolExecutor(extra + 1) as pool:
                noise = tuple(pool.map(view, children))
    return MTPInstance(X, noise, couplings, profile)

