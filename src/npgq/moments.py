"""Samples, their Jacobi matrices, standardization, and Gaussian mixtures.

Data is standardized (mean 0, std 1, population divisor ``1/I``) before
any rule is built; Gaussian quadrature commutes with affine maps, so
nodes are mapped back afterwards at no cost in accuracy.  The mean and
variance are exactly rounded sums, taken by :func:`_exact_sum`: error-free
extraction splits blocks of the data into parts on power-of-two grids
whose sums are exact, added as one integer: ``math.fsum``'s value bit for
bit.  One pass usually settles the rounding: the remainders' float sums,
widened by a rigorous bound on their error, enclose the exact sum, and
only an enclosure that straddles a rounding boundary takes further
passes.  A :class:`Sample` keeps, on first use, its data's standardization
(``transform`` and ``z``, the package's one route to it) and, up to
:data:`_LANCZOS_BLOCK` points, the Lanczos state of its empirical measure
(:class:`_Lanczos`), shared by every discretizer handed the same
``Sample``.  k Lanczos steps fix the first 2k moments, so np-gq's rules
and np-me's moment targets read one Jacobi matrix; a shorter request is a
prefix of it, a longer one extends it.  A longer sample's matrix is
merged from its blocks' Gauss rules (:func:`_merged_jacobi`), which is
why the Golub-Welsch eigensolve (:func:`_gauss_rule`) lives here.
:func:`sample_moments` (raw moments summed by ``math.fsum``) is the
independent reference ``npgq discretize --verify`` checks against.
"""
from __future__ import annotations

import contextlib
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.linalg.lapack import dstevd

from .errors import DegenerateDataError, InputError, NumericalError

# Lanczos breakdown floor: an off-diagonal entry at or below this fraction
# of max|x| (the norm of diag(x)) is rounding noise, meaning the measure's
# Krylov space, and so its support, is exhausted.
_BREAKDOWN_RTOL = 1e-12
# A residual whose measured projection on the earlier Lanczos rows is at
# most this fraction of its norm is orthogonal to them at rounding level.
_ORTH_RTOL = 2.0**-47
# Most bytes a Lanczos basis (N rows of T doubles) may take: a larger one
# is refused before it is allocated.
_MAX_BASIS_BYTES = 2**30
# Most data points one Lanczos run takes (C): a longer sample is split into
# blocks of C values, merged through their Gauss rules (:func:`_merged_jacobi`).
# At 10 000 every study sample is one block, run directly, and C is below the
# size from which the bundled OpenBLAS splits a product's sum over threads,
# so the bits do not depend on the thread count.  Not a user option.
_LANCZOS_BLOCK = 10_000

# Values per block of a pass over the data: a block and the temporaries
# built from it stay in cache, where a full-size temporary of a large
# sample is a fresh allocation per pass.
_BLOCK = 2**13

__all__ = [
    "AffineTransform",
    "Sample",
    "GaussianMixture",
    "sample_moments",
]


@dataclass(frozen=True)
class AffineTransform:
    """Location/scale map between standardized and original data units.

    ``to_original(z) = shift + scale * z`` and ``to_standardized`` is its
    inverse; ``scale`` must be positive.
    """

    shift: float
    scale: float

    def __post_init__(self):
        if not (math.isfinite(self.shift) and math.isfinite(self.scale)):
            raise InputError("affine transform parameters must be finite")
        if self.scale <= 0.0:
            raise InputError(f"scale must be positive, got {self.scale}")

    def to_original(self, z):
        return self.shift + self.scale * np.asarray(z, dtype=float)

    def to_standardized(self, x):
        return (np.asarray(x, dtype=float) - self.shift) / self.scale


@dataclass(frozen=True)
class GaussianMixture:
    """Finite Gaussian mixture: component proportions, means, and stds."""

    proportions: tuple[float, ...]
    means: tuple[float, ...]
    stds: tuple[float, ...]

    def __post_init__(self):
        p = tuple(float(v) for v in self.proportions)
        mu = tuple(float(v) for v in self.means)
        sd = tuple(float(v) for v in self.stds)
        if len(p) == 0:
            raise InputError("mixture needs at least one component")
        if not (len(p) == len(mu) == len(sd)):
            raise InputError("mixture parameter arrays must have equal length")
        if any(not math.isfinite(v) for v in p + mu + sd):
            raise InputError("mixture parameters must be finite")
        if any(v <= 0.0 or v > 1.0 for v in p):
            raise InputError("mixture proportions must lie in (0, 1]")
        if abs(sum(p) - 1.0) > 1e-10:
            raise InputError(f"mixture proportions must sum to 1, got {sum(p)}")
        if any(v < 0.0 for v in sd):
            raise InputError("mixture stds must be nonnegative")
        object.__setattr__(self, "proportions", p)
        object.__setattr__(self, "means", mu)
        object.__setattr__(self, "stds", sd)


def _as_clean_array(data) -> np.ndarray:
    if np.iscomplexobj(data):  # a cast to float would drop the imaginary parts
        raise InputError("data must be real, not complex")
    x = np.asarray(data, dtype=float)
    if x.ndim != 1:
        x = x.reshape(-1)
    if x.size == 0:
        raise InputError("data must be nonempty")
    if not np.all(np.isfinite(x)):
        raise InputError("data contains non-finite entries")
    return x


def sample_moments(data, max_order: int) -> np.ndarray:
    """Raw sample moments ``(1/I) * sum_i x_i^k`` of nonempty, finite data,
    as a read-only float64 array ``[m_0, ..., m_K]``, ``K = max_order``, with
    ``m_0`` exactly 1 and each sum exactly rounded (``math.fsum``).  A
    moment past the float range raises :class:`InputError` naming its order.
    """
    if max_order < 0:
        raise InputError(f"max_order must be >= 0, got {max_order}")
    x = _as_clean_array(data)
    n = x.size
    out = [1.0]
    power = np.ones_like(x)
    for k in range(1, max_order + 1):
        with np.errstate(over="ignore"):  # an overflow is reported below
            power = power * x
        try:
            total = math.fsum(memoryview(power))  # Python floats, not numpy scalars
        except (ValueError, OverflowError):  # inf - inf, or a sum past the float range
            total = math.inf
        if not math.isfinite(total):
            raise InputError(f"sample moment of order {k} overflows; rescale the data")
        out.append(total / n)
    moments = np.array(out)
    moments.setflags(write=False)
    return moments


def _blocks(x: np.ndarray):
    return (x[i : i + _BLOCK] for i in range(0, x.size, _BLOCK))


def _units(value) -> int:
    """A float as an integer in units of 2**-1074, of which every double is a whole number."""
    num, den = float(value).as_integer_ratio()
    return num << (1075 - den.bit_length())  # den is a power of two


def _exact_sum(blocks, bound: float) -> float:
    """Exactly rounded sum of the finite values in the arrays that each call
    of ``blocks()`` yields afresh, each of at most :data:`_BLOCK` float64
    values of magnitude at most ``bound``: the value ``math.fsum`` gives,
    bit for bit.  Raises :class:`OverflowError` when the sum is past the
    float range.

    Error-free extraction (Rump, Ogita & Oishi, SIAM J. Sci. Comput. 31,
    2008): for values within ``2**e``, ``hi = (v + 2**(e+13)) - 2**(e+13)``
    puts each on the ``2**(e-40)`` grid, ``v - hi`` is exact and within
    ``2**(e-40)``, and 2**13 such ``hi`` sum exactly in any order.  The
    sums are added as one integer in units of 2**-1074, rounded once.

    The first pass adds each block's ``m`` remainders as one float sum,
    which in any order errs by less than ``m**2 * 2**(e-92)`` (an addition
    that lands in the subnormal range is exact).  With that slack, rounded
    up to whole units, the exact sum lies between two bounds; where both
    round to the same double, that double is the result.  Otherwise (the
    bounds round apart or past the float range, or ``bound`` is past
    2**1010) the blocks are taken again, and each pass peels the remainders
    40 bits lower; two finish every value within 2**27 of the bound, so
    later passes take only the nonzero ones.  Where ``2**(e+13)`` would
    overflow, a block's values from 2**1000 up are summed in units of
    2**-100 apart from the rest.
    """
    top = math.frexp(bound)[1]  # 2**(top-1) <= bound < 2**top
    high, low = np.empty(_BLOCK), np.empty(_BLOCK)

    def peel(v, e):  # the sum of v's parts on the 2**(e-40) grid, in units, and the remainders
        sigma = 2.0 ** (e + 13)
        hi = np.add(v, sigma, out=high[: v.size])
        hi -= sigma
        return _units(np.add.reduce(hi)), np.subtract(v, hi, out=low[: v.size])

    if top <= 1010:
        total = squares = 0
        for block in blocks():
            exact, rest = peel(block, top)
            total += exact + _units(np.add.reduce(rest))
            squares += block.size * block.size
        shift = top + 982  # the slack squares * 2**(top-92) in units, rounded up
        slack = squares << shift if shift >= 0 else -(-squares >> -shift)
        with contextlib.suppress(OverflowError):  # a bound past the float range
            if (lower := (total - slack) / (1 << 1074)) == (total + slack) / (1 << 1074):
                return lower
    total = 0
    for block in blocks():
        parts = ((block, top, 0),)
        if top > 1010:
            big = np.abs(block) >= 2.0**1000
            parts = ((block[big] * 2.0**-100, 924, 100), (block[~big], 1000, 0))
        for v, e, scale in parts:
            while v.size:
                exact, v = peel(v, e)
                total += exact << scale
                if e < top:  # from the second pass on, few remainders are left
                    v = v[v != 0]
                e -= 40
    return total / (1 << 1074)


def _mean_std(x: np.ndarray) -> tuple[float, float]:
    """Sample mean and population std (divisor ``I``) of a clean array.

    Both sums are exactly rounded (:func:`_exact_sum`), bounded by the
    extremes; each is settled by one pass over the data unless its
    remainders could move the rounding.  The squared deviations are formed
    one block at a time in one buffer, and formed again for a further pass.
    """
    n = x.size
    xmax, xmin = float(x.max()), float(x.min())
    try:
        mean = _exact_sum(lambda: _blocks(x), max(xmax, -xmin)) / n
        widest = max(xmax - mean, mean - xmin)
        # Every squared deviation is finite, and at most ``bound``, when the widest one is.
        if math.isinf(bound := widest * widest):
            raise OverflowError
        d = np.empty(min(n, _BLOCK))
        var = _exact_sum(lambda: (np.square(np.subtract(b, mean, out=d[: b.size]), out=d[: b.size])
                                  for b in _blocks(x)), bound) / n
    except OverflowError:  # a sum or a square past the float range
        var = math.inf
    if not math.isfinite(var):
        raise InputError("standardizing the data overflows; rescale the data")
    if var <= 0.0:
        raise DegenerateDataError("data has zero sample variance; cannot standardize", support=1)
    return mean, math.sqrt(var)


def _gauss_rule(diag, offdiag) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the Gaussian rule of a Jacobi matrix, of total mass 1.

    The nodes are the eigenvalues, ascending; the weights are the squared first
    components of the unit eigenvectors, by LAPACK ``dstevd``: the bytes of
    ``scipy.linalg.eigh_tridiagonal``, which runs it, without that wrapper's checks.
    An outer weight underflowing to 0 (large N) or the eigensolver not
    converging (unreachable for positive off-diagonals) raises :class:`NumericalError`.
    """
    nodes, vecs, info = dstevd(diag, offdiag if len(diag) > 1 else (0.0,), compute_v=1)  # f2py wants max(N-1, 1)
    if info:  # pragma: no cover - defensive
        raise NumericalError(f"tridiagonal eigensolver failed: LAPACK dstevd info {info}")
    weights = vecs[0, :] ** 2
    if not np.all(weights > 0.0):
        raise NumericalError(f"a weight of the {nodes.size}-node rule underflows to 0 -- reduce N")
    return nodes, weights


class _Lanczos:
    """Jacobi matrix of the discrete measure with point ``x[i]`` of mass
    ``start[i]**2``, extended step by step as longer prefixes are asked for.

    ``start`` is the unit start vector, or one scalar for equal masses
    (``1/sqrt(T)`` for an empirical measure).  Lanczos on ``diag(x)``:
    row k of ``q`` holds the k-th orthonormal polynomial at the points
    times ``start``.  A step takes the three-term recurrence, then projects
    its residual on the earlier rows again, at most twice, while the measured
    projection is above :data:`_ORTH_RTOL` of its norm (Parlett & Scott's
    selective reorthogonalization).  A step is the same arithmetic whatever
    the requests before it, so every prefix equals a fresh run bit for bit.
    The caller bounds the basis (``N`` rows of ``T`` doubles) it may build.
    """

    def __init__(self, x: np.ndarray, start):
        self._x, self._support = x, x.size  # a measure on T points has at most T
        self._floor = _BREAKDOWN_RTOL * max(float(x.max()), -float(x.min()))  # max|x|, with no temporary
        self._q = np.full((1, x.size), start)
        self._diag, self._offdiag = [], []
        self._w, self._s = np.empty(x.size), np.empty(x.size)  # x * q[k] of the last row k; scratch
        self.passes = 0  # reorthogonalization passes taken

    def jacobi(self, n: int) -> tuple[np.ndarray, np.ndarray]:
        """``(diag, offdiag)`` after ``min(n, T)`` steps (``n >= 1``), or after
        k steps when the measure has only k support points (breakdown)."""
        n = min(n, self._support)
        if self._q.shape[0] < n:  # room for n rows, as a fresh n-step run has
            self._q, rows = np.empty((n, self._x.size)), self._q
            self._q[: rows.shape[0]] = rows
        while len(self._diag) < n:
            k = len(self._diag)
            if k:  # finish the previous step: its residual becomes row k
                w, s, q = self._w, self._s, self._q[:k]
                w -= np.multiply(q[k - 1], self._diag[k - 1], out=s)
                if k > 1:
                    w -= np.multiply(q[k - 2], self._offdiag[k - 2], out=s)
                b = math.sqrt(w.dot(w))  # np.linalg.norm's bits, without its dispatch
                for _ in range(2):
                    # Not q.T @ (q @ w): matmul loops itself on the k = 1 view.
                    c = q.dot(w)
                    if c.dot(c) <= (_ORTH_RTOL * b) ** 2:
                        break
                    w -= c.dot(q, out=s)
                    self.passes += 1
                    b = math.sqrt(w.dot(w))
                if b <= self._floor:
                    self._support = n = k
                    break
                self._offdiag.append(b)
                np.divide(w, b, out=self._q[k])
            np.multiply(self._x, self._q[k], out=self._w)
            self._diag.append(self._q[k] @ self._w)
        return np.array(self._diag[:n]), np.array(self._offdiag[: n - 1])


def _check_basis(n: int, points: int) -> None:
    """Refuse an ``n``-row Lanczos basis on ``points`` points past :data:`_MAX_BASIS_BYTES`."""
    if (size := 8 * n * points) > _MAX_BASIS_BYTES:
        raise InputError(f"a {n}-step Lanczos basis on {points} points needs {size} bytes, "
                         f"past the {_MAX_BASIS_BYTES}-byte limit -- reduce N")


def _merged_jacobi(blocks, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Jacobi matrix of the empirical measure of the concatenated ``blocks``
    after at most ``n`` steps, with no Lanczos run on more than one block.

    A block's n-point Gauss rule has the block's moments up to order
    ``2n - 1``, so the union of the block rules, each weight scaled by its
    block's share of the points, has the data's; an n-step Jacobi matrix
    depends on nothing else (Gautschi, *Orthogonal Polynomials*, 2004,
    section 2.2).  A block of at most n points, or whose Lanczos breaks down
    before n steps, or whose rule has a weight underflowing to 0, enters as
    its atoms instead, each of mass count / T: a rule rounded from tied
    data would spread each atom into a cluster that no longer breaks down.
    Equal points of the union are merged, and Lanczos runs on the union.
    """
    total = sum(block.size for block in blocks)
    points, masses = [], []
    for block in blocks:
        rule = None
        if block.size > n and (jacobi := _Lanczos(block, 1.0 / math.sqrt(block.size)).jacobi(n))[0].size == n:
            with contextlib.suppress(NumericalError):  # a weight underflowed
                nodes, weights = _gauss_rule(*jacobi)
                rule = nodes, weights * (block.size / total)
        if rule is None:
            atoms, counts = np.unique(block, return_counts=True)
            rule = atoms, counts / total
        points.append(rule[0])
        masses.append(rule[1])
    nodes, at = np.unique(np.concatenate(points), return_inverse=True)
    _check_basis(n, nodes.size)  # past the caller's count only where a rule underflowed
    return _Lanczos(nodes, np.sqrt(np.bincount(at, np.concatenate(masses)))).jacobi(n)


class Sample:
    """One data set and the statistics every discretizer derives from it.

    Nothing is computed at construction: each statistic is computed on
    first use and kept, so invalid or degenerate data raises its
    :class:`InputError` or :class:`DegenerateDataError` from the call that
    first needs it, and raises again on every later call.  The data must
    not be modified while the sample is in use.
    """

    def __init__(self, data):
        self._data = data

    @classmethod
    def of(cls, data) -> "Sample":
        """``data`` itself if it is a :class:`Sample`, else a new one."""
        return data if isinstance(data, cls) else cls(data)

    @cached_property
    def x(self) -> np.ndarray:
        """The data as a nonempty, finite, one-dimensional float array."""
        return _as_clean_array(self._data)

    @cached_property
    def transform(self) -> AffineTransform:
        """Map from standardized to original units: the sample mean and the
        population std (divisor ``I``) of the data.  Raises
        :class:`DegenerateDataError` when the std is zero and
        :class:`InputError` when the mean or variance overflows."""
        return AffineTransform(*_mean_std(self.x))

    @cached_property
    def z(self) -> np.ndarray:
        """The standardized data (read-only): mean 0, std 1 by :attr:`transform`."""
        z = self.transform.to_standardized(self.x)
        z.setflags(write=False)
        return z

    @cached_property
    def _lanczos(self) -> _Lanczos:
        return _Lanczos(self.z, 1.0 / math.sqrt(self.z.size))

    def jacobi(self, n: int) -> tuple[np.ndarray, np.ndarray]:
        """Jacobi matrix ``(diag, offdiag)`` of the empirical measure of
        :attr:`z` after ``min(n, T)`` steps, or fewer at a breakdown.

        Up to :data:`_LANCZOS_BLOCK` points (C) it is the sample's one kept
        Lanczos run, so a shorter request is a prefix of a longer one bit
        for bit; a longer request reallocates the basis and copies its rows:
        ask for the largest N first.  Past C, every call merges the blocks'
        rules afresh (:func:`_merged_jacobi`), depends only on the data and
        ``n``, and takes ``n * C`` doubles plus the union of the rules: at
        most ``n`` points per block, so at most C points while ``T * n`` is
        below about ``C**2`` (10**8).  A basis on that union past
        :data:`_MAX_BASIS_BYTES` raises :class:`InputError` before it is
        allocated.
        """
        if n < 1:
            raise InputError(f"Jacobi matrix order must be >= 1, got {n}")
        z = self.z
        n = min(n, z.size)
        if z.size <= _LANCZOS_BLOCK:  # a basis of at most 8 * C**2 bytes, under the limit
            return self._lanczos.jacobi(n)
        blocks = [z[i : i + _LANCZOS_BLOCK] for i in range(0, z.size, _LANCZOS_BLOCK)]
        _check_basis(n, sum(min(n, block.size) for block in blocks))
        return _merged_jacobi(blocks, n)
