"""Raw sample moments, standardization, and Gaussian mixtures.

The np-me baseline and ``npgq discretize --verify`` read raw moments
``m_k = E[X^k]`` as a read-only float array ``[m_0, ..., m_K]``.
Sample moments use the population divisor ``1/I`` and exactly rounded
summation.  Data is standardized (mean 0, std 1) before any rule is
built; Gaussian quadrature commutes with affine maps, so nodes are
mapped back afterwards at no cost in accuracy.  No rule is built from
moments: the quadrature takes its Jacobi matrices by Lanczos
(:mod:`npgq.quadrature`).

:class:`Sample` holds one data set's derived statistics (the validated
array, its standardization and the standardized moments up to the
highest order asked for so far), computed on first use and shared by
every discretizer handed the same ``Sample``.  Moments of order ``k``
are a prefix of those of any higher order, so a lower-order request
costs no pass over the data; np-me asks for order 4 whatever its node
count, so one pass serves every N.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DegenerateDataError, InputError

__all__ = [
    "AffineTransform",
    "Sample",
    "GaussianMixture",
    "sample_moments",
    "standardize",
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
    """Raw sample moments ``(1/I) * sum_i x_i^k`` for ``k = 0..max_order``.

    Parameters
    ----------
    data : array_like
        Observations ``x_1..x_I``; must be nonempty and finite.
    max_order : int
        Highest moment order K.

    Returns
    -------
    numpy.ndarray
        Read-only float64 array ``[m_0, ..., m_K]`` with ``m_0`` exactly 1;
        each sum is exactly rounded (``math.fsum``).  A moment past the
        float range raises :class:`InputError` naming its order.
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


def _mean_std(x: np.ndarray) -> tuple[float, float]:
    """Sample mean and population std (divisor ``I``) of a clean array."""
    n = x.size
    try:
        # A memoryview iterates Python floats: the same sum, without numpy scalars.
        mean = math.fsum(memoryview(x)) / n
        with np.errstate(over="ignore"):  # an overflow is reported below
            var = math.fsum(memoryview((x - mean) ** 2)) / n
    except OverflowError:  # a partial sum past the float range
        var = math.inf
    if not math.isfinite(var):
        raise InputError("standardizing the data overflows; rescale the data")
    if var <= 0.0:
        raise DegenerateDataError(
            "data has zero sample variance; cannot standardize"
        )
    return mean, math.sqrt(var)


def standardize(data) -> tuple[AffineTransform, np.ndarray]:
    """Map data to mean 0, std 1 (population divisor ``I``).

    Returns the transform that maps standardized values back to the
    original units, together with the standardized array.  Raises
    :class:`DegenerateDataError` when the sample std is zero and
    :class:`InputError` when the mean or variance overflows.
    """
    x = _as_clean_array(data)
    mean, scale = _mean_std(x)
    transform = AffineTransform(shift=mean, scale=scale)
    return transform, (x - mean) / scale


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
        self._moments = None

    @classmethod
    def of(cls, data) -> "Sample":
        """``data`` itself if it is a :class:`Sample`, else a new one."""
        return data if isinstance(data, cls) else cls(data)

    @cached_property
    def x(self) -> np.ndarray:
        """The data as a nonempty, finite, one-dimensional float array."""
        return _as_clean_array(self._data)

    @cached_property
    def _standardized(self) -> tuple[AffineTransform, np.ndarray]:
        transform, z = standardize(self.x)
        z.setflags(write=False)
        return transform, z

    @property
    def transform(self) -> AffineTransform:
        """Map from standardized to original units, as :func:`standardize`."""
        return self._standardized[0]

    @property
    def z(self) -> np.ndarray:
        """The standardized data (read-only), as :func:`standardize`."""
        return self._standardized[1]

    def moments(self, max_order: int) -> np.ndarray:
        """Raw moments of :attr:`z` up to ``max_order``, as :func:`sample_moments`.

        A request at or below the highest order computed so far is a
        read-only view of that array's prefix; a higher one computes a new
        array.
        """
        if max_order < 0:
            raise InputError(f"max_order must be >= 0, got {max_order}")
        if self._moments is None or self._moments.size <= max_order:
            self._moments = sample_moments(self.z, max_order)
        return self._moments[: max_order + 1]


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
