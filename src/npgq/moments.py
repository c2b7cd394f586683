"""Samples, their Jacobi matrices, standardization, and Gaussian mixtures.

Data is standardized (mean 0, std 1, population divisor ``1/I``) before
any rule is built; Gaussian quadrature commutes with affine maps, so
nodes are mapped back afterwards at no cost in accuracy.  The mean and
variance are exactly rounded sums, taken by :func:`_exact_sum`: integer
mantissa halves summed per binary exponent over cache-sized blocks of
the data (a superaccumulator), which gives ``math.fsum``'s value bit for
bit.  A :class:`Sample` keeps, on first use, its data's standardization
(``transform`` and ``z``, the package's one route to it) and the Lanczos
state of its empirical measure (:class:`_Lanczos`), shared by every
discretizer handed the same ``Sample``.  k Lanczos steps fix the first
2k moments, so np-gq's rules and np-me's moment targets read one Jacobi
matrix; a shorter request is a prefix of it, a longer one extends it.
:func:`sample_moments` (raw moments summed by ``math.fsum``) is the
independent reference ``npgq discretize --verify`` checks against.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DegenerateDataError, InputError

# Lanczos breakdown floor: an off-diagonal entry at or below this fraction
# of max|x| (the norm of diag(x)) is rounding noise, meaning the measure's
# Krylov space, and so its support, is exhausted.
_BREAKDOWN_RTOL = 1e-12
# A residual whose measured projection on the earlier Lanczos rows is at
# most this fraction of its norm is orthogonal to them at rounding level.
_ORTH_RTOL = 2.0**-47

# Values per block of a pass over the data: a block and the temporaries
# built from it stay in cache, where a full-size temporary of a large
# sample is a fresh allocation per pass.
_BLOCK = 2**13
# frexp exponents of nonzero doubles run from -1073 to 1024.
_EXP_BIAS = 1073
_EXP_BINS = _EXP_BIAS + 1025

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

    def mean(self) -> float:
        return math.fsum(p * m for p, m in zip(self.proportions, self.means))

    def variance(self) -> float:
        mu = self.mean()
        second = math.fsum(
            p * (m * m + s * s)
            for p, m, s in zip(self.proportions, self.means, self.stds)
        )
        return second - mu * mu


def _as_clean_array(data, *, name: str = "data") -> np.ndarray:
    x = np.asarray(data, dtype=float)
    if x.ndim != 1:
        x = x.reshape(-1)
    if x.size == 0:
        raise InputError(f"{name} must be nonempty")
    if not np.all(np.isfinite(x)):
        raise InputError(f"{name} contains non-finite entries")
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


def _exact_sum(blocks) -> float:
    """Exactly rounded sum of the finite values in ``blocks``, arrays of at
    most :data:`_BLOCK` float64 values: the value ``math.fsum`` gives, bit
    for bit.  Raises :class:`OverflowError` when the sum is past the float
    range.

    Each value is ``m * 2**e`` with ``0.5 <= |m| < 1`` (``np.frexp``), and
    ``m * 2**27`` splits into an integer below 2**27 and a fraction on the
    2**-26 grid.  ``np.bincount`` sums each part per exponent ``e``, over
    the exponents the block holds only; a sum of at most 2**13 such terms
    needs fewer than 53 bits, so it is exact, and the block totals are
    kept as integers (``hi``, and ``lo`` in units of 2**-26; int64 holds
    them for any array below 2**36 values).  The per-exponent totals are
    then added as one Python integer and divided by a power of two once,
    which rounds correctly.
    """
    hi = np.zeros(_EXP_BINS, np.int64)
    lo = np.zeros(_EXP_BINS, np.int64)
    first, last = _EXP_BINS, 0
    for block in blocks:
        part, e = np.frexp(block)
        part *= 2.0**27
        whole = np.trunc(part)
        part -= whole
        low = int(np.minimum.reduce(e))
        e -= low
        span = int(np.maximum.reduce(e)) + 1
        bins = slice(low + _EXP_BIAS, low + _EXP_BIAS + span)
        hi[bins] += np.bincount(e, whole, span).astype(np.int64)
        lo[bins] += (np.bincount(e, part, span) * 2.0**26).astype(np.int64)
        first, last = min(first, bins.start), max(last, bins.stop)
    # Bucket j holds (hi * 2**26 + lo) * 2**(j - _EXP_BIAS - 53).
    total = sum(
        ((h << 26) + l) << j
        for j, h, l in zip(range(first, last), hi[first:last].tolist(), lo[first:last].tolist())
    )
    return total / (1 << (_EXP_BIAS + 53))


def _mean_std(x: np.ndarray) -> tuple[float, float]:
    """Sample mean and population std (divisor ``I``) of a clean array.

    Both sums are exactly rounded (:func:`_exact_sum`); the squared
    deviations are formed one block at a time.
    """
    n = x.size
    try:
        mean = _exact_sum(_blocks(x)) / n
        # Every squared deviation is finite when the widest one is.
        widest = max(float(x.max()) - mean, mean - float(x.min()))
        if math.isinf(widest * widest):
            raise OverflowError
        var = _exact_sum((b - mean) ** 2 for b in _blocks(x)) / n
    except OverflowError:  # a sum or a square past the float range
        var = math.inf
    if not math.isfinite(var):
        raise InputError("standardizing the data overflows; rescale the data")
    if var <= 0.0:
        raise DegenerateDataError(
            "data has zero sample variance; cannot standardize"
        )
    return mean, math.sqrt(var)


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
    """

    def __init__(self, x: np.ndarray, start):
        self._x, self._support = x, x.size  # a measure on T points has at most T
        self._floor = _BREAKDOWN_RTOL * float(np.max(np.abs(x)))
        self._q = np.full((1, x.size), start)
        self._diag, self._offdiag = [], []
        self._w, self._s = np.empty(x.size), np.empty(x.size)  # x * q[k] of the last row k; scratch

    def jacobi(self, n: int) -> tuple[np.ndarray, np.ndarray]:
        """``(diag, offdiag)`` after ``min(n, T)`` steps (``n >= 1``), or after
        k steps when the measure has only k support points (breakdown)."""
        if n < 1:
            raise InputError(f"Jacobi matrix order must be >= 1, got {n}")
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
                b = float(np.linalg.norm(w))
                for _ in range(2):
                    # Not q.T @ (q @ w): matmul loops itself on the k = 1 view.
                    c = q.dot(w)
                    if c.dot(c) <= (_ORTH_RTOL * b) ** 2:
                        break
                    w -= c.dot(q, out=s)
                    b = float(np.linalg.norm(w))
                if b <= self._floor:
                    self._support = n = k
                    break
                self._offdiag.append(b)
                np.divide(w, b, out=self._q[k])
            np.multiply(self._x, self._q[k], out=self._w)
            self._diag.append(self._q[k] @ self._w)
        return np.array(self._diag[:n]), np.array(self._offdiag[: n - 1])


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
        :attr:`z` after ``min(n, T)`` steps, or fewer at a breakdown."""
        return self._lanczos.jacobi(n)


def _standardized_mixture(mix: GaussianMixture) -> tuple[AffineTransform, GaussianMixture]:
    """Affinely rescale a mixture to mean 0, variance 1.

    If ``X`` follows the mixture then ``(X - shift)/scale`` follows the
    returned one.  Requires positive mixture variance.
    """
    mu = mix.mean()
    var = mix.variance()
    if var <= 0.0:
        raise DegenerateDataError("mixture has zero variance; cannot standardize")
    scale = math.sqrt(var)
    transform = AffineTransform(shift=mu, scale=scale)
    rescaled = GaussianMixture(
        proportions=mix.proportions,
        means=tuple((m - mu) / scale for m in mix.means),
        stds=tuple(s / scale for s in mix.stds),
    )
    return transform, rescaled
