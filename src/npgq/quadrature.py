"""Moment-based Gaussian quadrature and the data-driven discretizer.

The pipeline: raw moments ``m_0..m_2N`` -> Hankel moment matrix ->
Cholesky factor -> recurrence coefficients of the monic orthogonal
polynomials -> symmetric tridiagonal eigenproblem.  Eigenvalues are the
quadrature nodes; squared first eigenvector components (times ``m_0``)
are the weights.  An N-point rule built this way integrates polynomials
up to degree ``2N - 1`` exactly, so feeding in sample moments yields an
N-point distribution matching the first ``2N - 1`` sample moments.
:func:`discretize_data` takes those moments from a
:class:`~npgq.moments.Sample`, so rules for several N on one data set
share one standardization and one moment pass.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.linalg import eigh_tridiagonal

from .errors import (
    DegenerateDataError,
    InputError,
    NotPositiveDefiniteError,
    NumericalError,
)
from .moments import MomentSequence, Sample

__all__ = [
    "DiscreteDistribution",
    "JacobiMatrix",
    "CholeskyFactor",
    "DEFAULT_MAX_NODES",
    "hankel_matrix",
    "cholesky",
    "jacobi_from_cholesky",
    "tridiagonal_eigen",
    "golub_welsch",
    "discretize_data",
    "expectation",
]

# Conditioning of the standardized Hankel matrix degrades quickly past
# this point; callers can raise the cap explicitly via ``max_nodes``.
DEFAULT_MAX_NODES = 9

# Relative pivot floor: a Cholesky pivot below this fraction of its own
# row's diagonal entry is treated as loss of positive definiteness.  (The
# row's entry, not the global maximum: Hankel diagonals grow as m_{2k},
# which for standardized moments spans ten orders of magnitude by k = 11,
# and a global floor would reject the well-conditioned leading rows.)
_PIVOT_RTOL = 1e-12


@dataclass(frozen=True)
class DiscreteDistribution:
    """An N-point distribution: strictly increasing nodes, positive weights."""

    nodes: tuple[float, ...]
    weights: tuple[float, ...]

    def __post_init__(self):
        nodes = tuple(float(v) for v in self.nodes)
        weights = tuple(float(v) for v in self.weights)
        if len(nodes) == 0 or len(nodes) != len(weights):
            raise InputError("nodes and weights must be nonempty and equal-length")
        if not all(math.isfinite(v) for v in nodes + weights):
            raise InputError("nodes and weights must be finite")
        if any(b <= a for a, b in zip(nodes, nodes[1:])):
            raise InputError("nodes must be strictly increasing")
        if any(w <= 0.0 for w in weights):
            raise InputError("weights must be strictly positive")
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "weights", weights)

    def __len__(self) -> int:
        return len(self.nodes)

    def moment(self, order: int) -> float:
        return math.fsum(w * x**order for x, w in zip(self.nodes, self.weights))


@dataclass(frozen=True)
class JacobiMatrix:
    """Symmetric tridiagonal matrix of recurrence coefficients.

    ``diag`` holds the N diagonal entries and ``offdiag`` the N-1
    off-diagonal entries, all of which must be positive.
    """

    diag: tuple[float, ...]
    offdiag: tuple[float, ...]

    def __post_init__(self):
        d = tuple(float(v) for v in self.diag)
        e = tuple(float(v) for v in self.offdiag)
        if len(d) == 0:
            raise InputError("Jacobi matrix needs at least one diagonal entry")
        if len(e) != len(d) - 1:
            raise InputError("off-diagonal must be one entry shorter than diagonal")
        if not all(math.isfinite(v) for v in d + e):
            raise InputError("Jacobi matrix entries must be finite")
        if any(v <= 0.0 for v in e):
            raise InputError("off-diagonal entries must be positive")
        object.__setattr__(self, "diag", d)
        object.__setattr__(self, "offdiag", e)

    @property
    def size(self) -> int:
        return len(self.diag)

    def dense(self) -> np.ndarray:
        t = np.diag(np.asarray(self.diag, dtype=float))
        e = np.asarray(self.offdiag, dtype=float)
        if e.size:
            t += np.diag(e, 1) + np.diag(e, -1)
        return t


@dataclass(frozen=True)
class CholeskyFactor:
    """Upper-triangular factor R with positive diagonal, M = R'R.

    The entry conventionally written ``r_{ij}`` (1-based) lives at
    ``matrix[i-1, j-1]``.  When built by :func:`golub_welsch` the final
    diagonal entry may be zero: the recurrence coefficients never use it,
    which is what lets a measure with exactly N support points produce an
    N-point rule.
    """

    matrix: np.ndarray

    def __post_init__(self):
        r = np.array(self.matrix, dtype=float)
        if r.ndim != 2 or r.shape[0] != r.shape[1]:
            raise InputError("Cholesky factor must be square")
        object.__setattr__(self, "matrix", r)
        self.matrix.setflags(write=False)

    @property
    def size(self) -> int:
        return self.matrix.shape[0]

    def entry(self, i: int, j: int) -> float:
        """1-based access to r_{ij}."""
        return float(self.matrix[i - 1, j - 1])


def hankel_matrix(m: MomentSequence, n: int) -> np.ndarray:
    """(N+1)-square matrix of moments with ``M[i, j] = m_{i+j}`` (0-based).

    Requires moments up to order ``2n``.
    """
    if n < 1:
        raise InputError(f"node count must be >= 1, got {n}")
    if m.max_order < 2 * n:
        raise InputError(
            f"need moments up to order {2 * n}, have only {m.max_order}"
        )
    vals = np.asarray(m.values, dtype=float)
    idx = np.arange(n + 1)
    return vals[idx[:, None] + idx[None, :]]


def _cholesky_upper(mat: np.ndarray, *, semidefinite_tail: bool) -> tuple[np.ndarray, int | None]:
    """Row-wise upper Cholesky with a relative pivot floor.

    Returns ``(R, failed_pivot)`` where ``failed_pivot`` is the 1-based
    index of the first pivot at or below the floor, or None.  With
    ``semidefinite_tail`` a failure at the final pivot is tolerated: the
    offending diagonal entry is clamped to zero and no failure reported.
    """
    n = mat.shape[0]
    r = np.zeros_like(mat)
    for i in range(n):
        pivot = mat[i, i] - r[:i, i] @ r[:i, i]
        if pivot <= _PIVOT_RTOL * mat[i, i]:
            if semidefinite_tail and i == n - 1:
                r[i, i] = 0.0
                return r, None
            return r, i + 1
        rii = math.sqrt(pivot)
        r[i, i] = rii
        if i + 1 < n:
            r[i, i + 1 :] = (mat[i, i + 1 :] - r[:i, i] @ r[:i, i + 1 :]) / rii
    return r, None


def cholesky(mat) -> CholeskyFactor:
    """Factor a symmetric positive definite matrix as ``M = R'R``.

    A pivot at or below ``1e-12`` times its row's diagonal entry raises
    :class:`NotPositiveDefiniteError` carrying the 1-based pivot index.
    For a Hankel moment matrix that failure means the underlying measure
    has fewer effective support points than requested.
    """
    m = np.asarray(mat, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise InputError("matrix must be square")
    if not np.all(np.isfinite(m)):
        raise InputError("matrix contains non-finite entries")
    scale = float(np.max(np.abs(m))) or 1.0
    if float(np.max(np.abs(m - m.T))) > 1e-10 * scale:
        raise InputError("matrix must be symmetric")
    r, failed = _cholesky_upper(m, semidefinite_tail=False)
    if failed is not None:
        raise NotPositiveDefiniteError(
            f"matrix is not positive definite (pivot {failed} of {m.shape[0]})",
            pivot=failed,
        )
    return CholeskyFactor(r)


def jacobi_from_cholesky(factor: CholeskyFactor, n: int) -> JacobiMatrix:
    """Recurrence coefficients from the Cholesky factor of an (N+1)-square
    Hankel moment matrix.

    With 1-based entries: ``diag[0] = r_12/r_11``,
    ``diag[k] = r_{k+1,k+2}/r_{k+1,k+1} - r_{k,k+1}/r_{k,k}``, and
    ``offdiag[k] = r_{k+2,k+2}/r_{k+1,k+1}``.
    """
    if factor.size != n + 1:
        raise InputError(
            f"factor size {factor.size} does not match node count {n} (+1)"
        )
    r = factor.matrix
    diag = [r[0, 1] / r[0, 0]]
    for k in range(1, n):
        diag.append(r[k, k + 1] / r[k, k] - r[k - 1, k] / r[k - 1, k - 1])
    offdiag = [r[k + 1, k + 1] / r[k, k] for k in range(n - 1)]
    return JacobiMatrix(diag=tuple(diag), offdiag=tuple(offdiag))


def tridiagonal_eigen(jac: JacobiMatrix) -> tuple[np.ndarray, np.ndarray]:
    """Full eigendecomposition of a Jacobi matrix.

    Returns eigenvalues in ascending order and the matching unit-norm
    eigenvectors as columns, each sign-normalized so its first component
    is positive.  Positive off-diagonals guarantee simple eigenvalues and
    nonzero first components.  Uses a symmetric-tridiagonal-specific
    solver; non-convergence (which should be unreachable for a valid
    Jacobi matrix) surfaces as :class:`NumericalError`.
    """
    d = np.asarray(jac.diag, dtype=float)
    e = np.asarray(jac.offdiag, dtype=float)
    if d.size == 1:
        return d.copy(), np.array([[1.0]])
    try:
        vals, vecs = eigh_tridiagonal(d, e)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - defensive
        raise NumericalError(f"tridiagonal eigensolver failed: {exc}") from exc
    flip = vecs[0, :] < 0.0
    vecs[:, flip] *= -1.0
    return vals, vecs


def golub_welsch(m: MomentSequence, n: int) -> DiscreteDistribution:
    """N-point Gaussian quadrature rule from raw moments ``m_0..m_2N``.

    Nodes are the eigenvalues of the Jacobi matrix; the weight at node k
    is ``m_0`` times the squared first component of the k-th unit
    eigenvector.  The rule reproduces the input moments up to order
    ``2N - 1``.  Raises :class:`NotPositiveDefiniteError` when the
    underlying measure has fewer than N support points.
    """
    hank = hankel_matrix(m, n)
    r, failed = _cholesky_upper(hank, semidefinite_tail=True)
    if failed is not None:
        raise NotPositiveDefiniteError(
            f"moment matrix is not positive definite at pivot {failed}; "
            f"the measure supports at most {failed - 1} nodes -- reduce N",
            pivot=failed,
        )
    jac = jacobi_from_cholesky(CholeskyFactor(r), n)
    nodes, vecs = tridiagonal_eigen(jac)
    weights = m.values[0] * vecs[0, :] ** 2
    return DiscreteDistribution(nodes=tuple(nodes), weights=tuple(weights))


def discretize_data(data, n: int, *, max_nodes: int = DEFAULT_MAX_NODES) -> DiscreteDistribution:
    """Fit an N-point discrete distribution to raw data.

    Standardizes the data, feeds its first ``2N`` sample moments through
    :func:`golub_welsch`, and maps the nodes back to data units.  The
    result matches the raw sample moments of ``data`` up to order
    ``2N - 1``.

    Parameters
    ----------
    data : array_like or Sample
        Observations; need at least N distinct values.  A
        :class:`~npgq.moments.Sample` reuses its standardization and
        moments across calls.
    n : int
        Number of nodes.  Capped at ``max_nodes`` (default 9) because the
        standardized Hankel matrix becomes badly conditioned for large N;
        pass a larger ``max_nodes`` to override.
    """
    if n < 1:
        raise InputError(f"node count must be >= 1, got {n}")
    if n > max_nodes:
        raise InputError(
            f"node count {n} exceeds the cap {max_nodes}; pass max_nodes={n} "
            "to override (conditioning degrades for large N)"
        )
    sample = Sample.of(data)
    try:
        transform = sample.transform
    except DegenerateDataError:
        # Constant data carries a single support point: representable
        # exactly when one node is requested.
        if n == 1:
            return DiscreteDistribution(nodes=(float(sample.x[0]),), weights=(1.0,))
        raise DegenerateDataError(
            "data is constant; only a single node is representable -- reduce N to 1"
        )
    rule = golub_welsch(sample.moments(2 * n), n)
    nodes = transform.to_original(np.asarray(rule.nodes))
    return DiscreteDistribution(nodes=tuple(nodes), weights=rule.weights)


def expectation(dist: DiscreteDistribution, g: Callable) -> float:
    """Expectation ``sum_n w_n g(x_n)`` under a discrete distribution.

    ``g`` may be vectorized over a numpy array of nodes or a plain scalar
    function.
    """
    nodes = np.asarray(dist.nodes, dtype=float)
    try:
        vals = np.asarray(g(nodes), dtype=float)
        if vals.shape != nodes.shape:
            raise TypeError
    except (TypeError, ValueError):
        vals = np.array([float(g(x)) for x in dist.nodes])
    return math.fsum(w * v for w, v in zip(dist.weights, vals))
