"""Gaussian quadrature from a Jacobi matrix, and the data-driven discretizer.

One pipeline: a Jacobi matrix, held as its diagonal and off-diagonal
float arrays, then one symmetric-tridiagonal eigensolve (Golub-Welsch):
the eigenvalues are the nodes, and the total mass times the squared first
eigenvector components are the weights.  The rule integrates polynomials
up to degree ``2N - 1`` exactly, so it depends only on the first ``2N``
moments of the measure.

One route to the Jacobi matrix: Lanczos on a discrete measure
(:func:`_lanczos`), which works on the points themselves and never forms
their ill-conditioned high-order moments.  :func:`discretize_data` runs
it on the empirical measure of the standardized data of a
:class:`~npgq.moments.Sample`, so the rule matches the first ``2N - 1``
sample moments; the true optimal share's rule runs it on the component
Gauss-Hermite nodes of a Gaussian mixture.  Lanczos breaks down after k
steps when the measure has only k support points: that is the node limit
for that measure.  The Gauss-Hermite baseline needs no Lanczos, since
the standard normal's Jacobi matrix is known exactly.

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
from .moments import Sample

__all__ = [
    "DiscreteDistribution",
    "discretize_data",
    "expectation",
]

# Lanczos breakdown floor: an off-diagonal entry at or below this fraction
# of max|x| (the norm of diag(x)) is rounding noise, meaning the measure's
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


def _lanczos(x: np.ndarray, start, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Jacobi matrix ``(diag, offdiag)`` of the discrete measure with point
    ``x[i]`` of mass ``start[i]**2``, for at most N steps.

    ``start`` is the unit start vector, or one scalar for equal masses
    (``1/sqrt(T)`` for an empirical measure).  Lanczos on ``diag(x)``,
    with full reorthogonalization (twice, against every earlier vector):
    row k of ``q`` holds the k-th orthonormal polynomial at the points
    times ``start``.  Breakdown after k < N steps means the measure has
    only k support points; the k-step matrix is returned.  A measure on
    T points has at most T, so at most ``min(N, T)`` steps are run.
    """
    n = min(n, x.size)
    q = np.empty((n, x.size))
    q[0] = start
    floor = _BREAKDOWN_RTOL * float(np.max(np.abs(x)))
    diag, offdiag = np.empty(n), np.empty(n - 1)
    for k in range(n):
        w = x * q[k]
        diag[k] = q[k] @ w
        if k == n - 1:
            break
        for _ in range(2):
            w -= q[: k + 1].T @ (q[: k + 1] @ w)
        b = float(np.linalg.norm(w))
        if b <= floor:
            return diag[: k + 1], offdiag[:k]
        offdiag[k] = b
        q[k + 1] = w / b
    return diag, offdiag


def _gauss_rule(diag, offdiag, mass: float) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the Gaussian rule of a Jacobi matrix.

    The nodes are the eigenvalues, ascending; the weights are ``mass``
    times the squared first components of the unit eigenvectors.
    An outer weight underflowing to 0 (large N) or the eigensolver not
    converging (unreachable for positive off-diagonals) raises :class:`NumericalError`.
    """
    try:
        nodes, vecs = eigh_tridiagonal(diag, offdiag)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - defensive
        raise NumericalError(f"tridiagonal eigensolver failed: {exc}") from exc
    weights = mass * vecs[0, :] ** 2
    if not np.all(weights > 0.0):
        raise NumericalError(f"a weight of the {nodes.size}-node rule underflows to 0 -- reduce N")
    return nodes, weights


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
    diag, offdiag = _lanczos(sample.z, 1.0 / math.sqrt(sample.z.size), n)
    if diag.size < n:
        raise NotPositiveDefiniteError(
            f"Lanczos broke down at step {diag.size}; the data supports at "
            f"most {diag.size} nodes -- reduce N",
            pivot=diag.size + 1,
        )
    nodes, weights = _gauss_rule(diag, offdiag, 1.0)
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
