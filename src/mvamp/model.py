"""Signal priors, coupling structures, and synthesis of multi-view spiked-matrix data.

Observation convention (rescaled): for a signal X in R^{n x d} and symmetric
couplings Lambda_k,

    Y_k = (1/n) X Lambda_k X^T + (1/sqrt(n)) G_k,

with G_k drawn from a Gaussian Orthogonal Ensemble normalized so off-diagonal
entries have unit variance (diagonal variance 2), the law of (W + W^T)/sqrt(2).
An instance stores X and the unscaled G_k only: AMP multiplies by G_k and by
the rank-d spike, and Y_k is formed only when ``observations[k]`` is read.
Each G_k is stored once, as its upper row panels G[a:a + 512, a:]
(``SymmetricPanels``): at most (n^2 + 512 n)/2 * 8 bytes, 72 MB instead of
128 MB at n = 4000. ``sample_goe`` draws only the upper triangle, row by row
straight into the panels, and mirrors the diagonal blocks, so it draws
n (n + 1)/2 normals and forms no n x n array.

Randomness is driven by ``numpy.random.SeedSequence`` spawning: every consumer
(signal, each of the K noise views, side-information init) gets its own child
stream, so instances are bit-reproducible and views are independent. The K
views of an instance are drawn on up to min(K, cores) threads, inside a trial
worker thread or not, with the bits of a serial draw.
"""

from __future__ import annotations

import os
from collections.abc import Sequence
from concurrent.futures import ThreadPoolExecutor
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
        if not np.isfinite(b).all():
            raise InvalidProfileError(f"block fractions must be finite, got {self.beta}")
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
            if not np.isfinite(m).all():
                raise CouplingValidationError(f"coupling matrix {k} is not finite")
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


class SymmetricPanels:
    """A symmetric n x n matrix G stored once, as its upper row panels
    ``panels[p] = G[a:a + h, a:]`` with a = 512 p and h = min(512, n - a).
    They hold at most (n^2 + 512 n)/2 doubles where G has n^2 (72 MB
    instead of 128 MB at n = 4000); panel p starts at row and column
    a = n - panels[p].shape[1]. The panels are read-only, and
    ``np.asarray`` forms the full matrix."""

    def __init__(self, panels):
        self.panels = tuple(_freeze(p) for p in panels)
        self.n = self.panels[0].shape[1]

    @classmethod
    def pack(cls, g: np.ndarray) -> "SymmetricPanels":
        """The panels of a symmetric (n, n) array (its lower triangle
        outside the diagonal blocks is not read)."""
        return cls(g[a:a + _PANEL_ROWS, a:] for a in range(0, g.shape[0], _PANEL_ROWS))

    @property
    def nbytes(self) -> int:
        return sum(p.nbytes for p in self.panels)

    def __array__(self, dtype=None, copy=None):
        if copy is False:
            raise ValueError("the full matrix of SymmetricPanels is always a new array")
        g = np.empty((self.n, self.n))
        for p in self.panels:
            h, a = p.shape[0], self.n - p.shape[1]
            g[a:a + h, a:] = p
            g[a + h:, a:a + h] = p[:, h:].T
        return g if dtype is None else g.astype(dtype, copy=False)


def _as_panels(g, n: int, k: int) -> SymmetricPanels:
    """Noise view k as panels: ``SymmetricPanels`` are taken as is, an
    exactly symmetric (n, n) array is packed (a copy)."""
    if not isinstance(g, SymmetricPanels):
        g = np.asarray(g, dtype=float)
        if g.shape != (n, n):
            raise InvalidDimensionError(f"noise view {k} has shape {g.shape}, need ({n}, {n})")
        if not np.array_equal(g, g.T):
            raise InvalidDimensionError(
                f"noise view {k} is not symmetric; a view is stored as its upper triangle")
        g = SymmetricPanels.pack(g)
    if g.n != n:
        raise InvalidDimensionError(f"noise view {k} has size {g.n}, need {n}")
    return g


@dataclass(frozen=True)
class MTPInstance:
    """A sampled multi-view instance: signal X (n x d), the unscaled GOE noise
    G_k of each coupling Lambda_k, and the block profile of X.

    Each G_k is held once, as the upper row panels of ``SymmetricPanels``
    (at most (n^2 + 512 n)/2 doubles); an (n, n) array passed in is packed
    and must be exactly symmetric. The views
    Y_k = (1/n) X Lambda_k X^T + (1/sqrt(n)) G_k are not stored;
    ``observations[k]`` forms Y_k on demand."""

    X: np.ndarray
    noise: tuple[SymmetricPanels, ...]
    couplings: CouplingSet
    profile: BlockPriorProfile

    def __post_init__(self):
        X = _freeze(self.X)
        n = X.shape[0]
        if len(self.noise) != self.couplings.K:
            raise InvalidDimensionError(
                f"need {self.couplings.K} noise matrices of shape ({n}, {n})"
            )
        object.__setattr__(self, "X", X)
        object.__setattr__(self, "noise",
                           tuple(_as_panels(g, n, k) for k, g in enumerate(self.noise)))

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
        y = _exact_sym(X @ lam @ X.T) / inst.n + np.asarray(inst.noise[k]) / np.sqrt(inst.n)
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


# a view of at most this many rows takes no thread: it is drawn in less time
# than a thread takes to start
_SERIAL_ROWS = 128
# rows per stored panel of a noise view
_PANEL_ROWS = 512


def sample_goe(n: int, seed) -> "SymmetricPanels":
    """Symmetric Gaussian matrix G, off-diagonal variance 1 and diagonal
    variance 2 (the law of (W + W^T)/sqrt(2)), stored as the upper row
    panels of ``SymmetricPanels``.

    Only the upper triangle is drawn. Row by row, in row order and from the
    one stream, G[i, i:] is drawn as N(0, 1) straight into its panel row (a
    contiguous slice); then each panel scales its diagonal by sqrt(2) and
    copies the strict upper part of its diagonal block into the lower part.
    No n x n array and no buffer is formed."""
    if n < 1:
        raise InvalidDimensionError(f"GOE size must be >= 1, got {n}")
    rng = rng_from(seed)
    panels = []
    for a in range(0, n, _PANEL_ROWS):
        p = np.empty((min(_PANEL_ROWS, n - a), n - a))
        h = p.shape[0]
        for r in range(h):
            rng.standard_normal(out=p[r, r:])
        diag = np.arange(h)
        p[diag, diag] *= np.sqrt(2.0)
        block = p[:, :h]
        np.copyto(block, block.T, where=np.tri(h, k=-1, dtype=bool))
        p.flags.writeable = False
        panels.append(p)
    return SymmetricPanels(panels)


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
    per view; the instance keeps G_k only, as the panels ``sample_goe`` drew.

    Each view draws from its own child of ``seed``, so views of more than
    128 rows are drawn on min(K, ``usable_cores()``) threads with the bits
    of a serial draw; smaller views, or one view, are drawn inline."""
    X = np.asarray(X, float)
    n, d = X.shape
    if couplings.d != d:
        raise CouplingValidationError(f"coupling size {couplings.d} != signal width {d}")
    children = np.random.SeedSequence(seed).spawn(couplings.K)

    def view(child) -> SymmetricPanels:
        return sample_goe(n, np.random.default_rng(child))

    threads = min(len(children), usable_cores()) if n > _SERIAL_ROWS else 1
    if threads == 1:
        noise = tuple(map(view, children))
    else:
        with ThreadPoolExecutor(threads) as pool:
            noise = tuple(pool.map(view, children))
    return MTPInstance(X, noise, couplings, profile)

