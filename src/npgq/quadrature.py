"""Gaussian quadrature from a Jacobi matrix, and the data-driven discretizer.

One pipeline: a Jacobi matrix, held as its diagonal and off-diagonal
float arrays, then one symmetric-tridiagonal eigensolve (Golub-Welsch):
the eigenvalues are the nodes, and the total mass times the squared first
eigenvector components are the weights.  The rule integrates polynomials
up to degree ``2N - 1`` exactly, so it depends only on the first ``2N``
moments of the measure.  One route to the Jacobi matrix per input:

* moments (Gaussian and mixture laws): :func:`jacobi_from_moments`
  factors the Hankel moment matrix and reads the recurrence coefficients
  off the Cholesky factor; :func:`golub_welsch` gives the rule.
* data: :func:`discretize_data` runs Lanczos on ``diag(z)`` for the
  standardized data ``z`` of a :class:`~npgq.moments.Sample`, which gives
  the Jacobi matrix of the empirical measure without forming the
  ill-conditioned sample-moment/Hankel chain.  The rule matches the first
  ``2N - 1`` sample moments.  Lanczos breaks down after k steps when the
  data has only k support points: that is the node limit for that data.

:func:`expectation` integrates a scalar function against a rule.
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
    "jacobi_from_moments",
    "golub_welsch",
    "discretize_data",
    "expectation",
]

# Relative pivot floor: a Cholesky pivot below this fraction of its own
# row's diagonal entry is treated as loss of positive definiteness.  (The
# row's entry, not the global maximum: Hankel diagonals grow as m_{2k},
# which for standardized moments spans ten orders of magnitude by k = 11,
# and a global floor would reject the well-conditioned leading rows.)
_PIVOT_RTOL = 1e-12

# Lanczos breakdown floor: an off-diagonal entry at or below this fraction
# of max|z| (the norm of diag(z)) is rounding noise, meaning the data's
# Krylov space, and so its support, is exhausted.
_BREAKDOWN_RTOL = 1e-12


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


def jacobi_from_moments(m: MomentSequence, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Diagonal (N) and off-diagonal (N-1) of the Jacobi matrix of the
    measure with raw moments ``m_0..m_2N``.

    Factors the Hankel moment matrix ``H[i, j] = m_{i+j}`` as ``R'R`` row
    by row and reads the recurrence coefficients of the monic orthogonal
    polynomials off ``R``.  With 1-based entries: ``diag[0] = r_12/r_11``,
    ``diag[k] = r_{k+1,k+2}/r_{k+1,k+1} - r_{k,k+1}/r_{k,k}`` and
    ``offdiag[k] = r_{k+2,k+2}/r_{k+1,k+1}``.  The last pivot ``r_{N+1,N+1}``
    is never used, which is what lets a measure with exactly N support
    points give an N-point rule.  A pivot at or below ``1e-12`` times its
    row's diagonal entry raises :class:`NotPositiveDefiniteError` carrying
    its 1-based index: the measure supports fewer nodes than that index.
    """
    if n < 1:
        raise InputError(f"node count must be >= 1, got {n}")
    if m.max_order < 2 * n:
        raise InputError(f"need moments up to order {2 * n}, have only {m.max_order}")
    vals = np.asarray(m.values, dtype=float)
    idx = np.arange(n + 1)
    hank = vals[idx[:n, None] + idx[None, :]]  # the first N rows of H
    r = np.zeros_like(hank)
    for i in range(n):
        pivot = hank[i, i] - r[:i, i] @ r[:i, i]
        if pivot <= _PIVOT_RTOL * hank[i, i]:
            raise NotPositiveDefiniteError(
                f"moment matrix is not positive definite at pivot {i + 1}; "
                f"the measure supports at most {i} nodes -- reduce N",
                pivot=i + 1,
            )
        r[i, i] = math.sqrt(pivot)
        r[i, i + 1 :] = (hank[i, i + 1 :] - r[:i, i] @ r[:i, i + 1 :]) / r[i, i]
    d = np.diag(r)
    ratio = np.diag(r, 1) / d
    diag, offdiag = ratio - np.concatenate(([0.0], ratio[:-1])), d[1:] / d[:-1]
    if not (np.isfinite(diag).all() and np.isfinite(offdiag).all()):
        raise InputError("Jacobi matrix entries must be finite")
    return diag, offdiag


def _lanczos(z: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Jacobi matrix ``(diag, offdiag)`` of the empirical measure of ``z``.

    Each point has mass 1/T.  Lanczos on ``diag(z)`` from the start vector ``1/sqrt(T)``, with full
    reorthogonalization (twice, against every earlier vector).  Row k of
    ``q`` holds the k-th orthonormal polynomial at the data points over
    ``sqrt(T)``.  Breakdown after k steps means the data has only k support
    points; it raises :class:`NotPositiveDefiniteError` with ``pivot=k+1``.
    """
    q = np.empty((n, z.size))
    q[0] = 1.0 / math.sqrt(z.size)
    floor = _BREAKDOWN_RTOL * float(np.max(np.abs(z)))
    diag, offdiag = np.empty(n), np.empty(n - 1)
    for k in range(n):
        w = z * q[k]
        diag[k] = q[k] @ w
        if k == n - 1:
            break
        for _ in range(2):
            w -= q[: k + 1].T @ (q[: k + 1] @ w)
        b = float(np.linalg.norm(w))
        if b <= floor:
            raise NotPositiveDefiniteError(
                f"Lanczos broke down at step {k + 1}; the data supports at "
                f"most {k + 1} nodes -- reduce N",
                pivot=k + 2,
            )
        offdiag[k] = b
        q[k + 1] = w / b
    return diag, offdiag


def _gauss_rule(diag, offdiag, mass: float) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the Gaussian rule of a Jacobi matrix.

    The nodes are the eigenvalues, ascending; the weights are ``mass``
    times the squared first components of the unit eigenvectors.
    Non-convergence of the symmetric-tridiagonal solver (unreachable for
    positive off-diagonals) surfaces as :class:`NumericalError`.
    """
    try:
        nodes, vecs = eigh_tridiagonal(diag, offdiag)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - defensive
        raise NumericalError(f"tridiagonal eigensolver failed: {exc}") from exc
    return nodes, mass * vecs[0, :] ** 2


def golub_welsch(m: MomentSequence, n: int) -> DiscreteDistribution:
    """N-point Gaussian quadrature rule from raw moments ``m_0..m_2N``.

    Nodes are the eigenvalues of :func:`jacobi_from_moments`; the weight
    at node k is ``m_0`` times the squared first component of the k-th
    unit eigenvector.  The rule reproduces the input moments up to order
    ``2N - 1``.  Raises :class:`NotPositiveDefiniteError` when the
    underlying measure has fewer than N support points.
    """
    nodes, weights = _gauss_rule(*jacobi_from_moments(m, n), m.values[0])
    return DiscreteDistribution(nodes=tuple(nodes), weights=tuple(weights))


def discretize_data(data, n: int) -> DiscreteDistribution:
    """Fit an N-point discrete distribution to raw data.

    Builds the Jacobi matrix of the standardized data's empirical measure
    by Lanczos, takes its Gaussian rule, and maps the nodes back to data
    units.  The result matches the raw sample moments of ``data`` up to
    order ``2N - 1``.

    Parameters
    ----------
    data : array_like or Sample
        Observations; need at least N distinct values, otherwise
        :class:`NotPositiveDefiniteError` says how many nodes the data
        supports.  A :class:`~npgq.moments.Sample` reuses its
        standardization across calls.
    n : int
        Number of nodes.
    """
    if n < 1:
        raise InputError(f"node count must be >= 1, got {n}")
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
    nodes, weights = _gauss_rule(*_lanczos(sample.z, n), 1.0)
    return DiscreteDistribution(
        nodes=tuple(transform.to_original(nodes)), weights=tuple(weights)
    )


def expectation(dist: DiscreteDistribution, g: Callable) -> float:
    """Expectation ``sum_n w_n g(x_n)`` under a discrete distribution.

    ``g`` is called once per node, on a float64 scalar, and must return a
    real number; the products are summed exactly rounded.
    """
    nodes = np.asarray(dist.nodes, dtype=float)
    return math.fsum(w * float(g(x)) for x, w in zip(nodes, dist.weights))
