"""Gaussian quadrature from a Jacobi matrix: every rule the package uses.

One pipeline: a Jacobi matrix, held as its diagonal and off-diagonal
float arrays, then one symmetric-tridiagonal eigensolve (Golub-Welsch, one
LAPACK ``dstevd`` call, :func:`~npgq.moments._gauss_rule`, which sits next
to Lanczos because merging a long sample's blocks needs it too): the
eigenvalues are the nodes, and the squared first eigenvector components
are the weights.  The rule integrates polynomials up to degree ``2N - 1``
exactly, so it depends only on the first ``2N`` moments of the measure.

One route to a data set's Jacobi matrix: Lanczos on its empirical
measure (:class:`~npgq.moments.Sample`), which works on the points
themselves and never forms their ill-conditioned high-order moments.
:func:`discretize_data` takes the N-step Jacobi matrix of a
:class:`~npgq.moments.Sample`'s standardized data, so the rule matches the
first ``2N - 1`` sample moments; up to 10 000 points every node count
shares one Lanczos run, and past that the matrix is merged from blocks.
Lanczos breaks down after k steps when the measure has only k support
points: that is the node limit for that measure.  The Gauss-Hermite rule
(:func:`_standard_normal_rule`) needs no Lanczos: its Jacobi matrix is
known.  The true optimal share's rule
(:func:`_mixture_rule`) needs neither: it is the union of the mixture's
component Gauss-Hermite rules, exact for each component and so for the
mixture.

:func:`expectation` integrates a scalar function against a rule.  Stacked
solvers hold ragged rules or problems as the padded columns of one array
(:func:`_columns`), summed down in index order (:func:`_sum0`).
"""
from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np

from .errors import (
    DegenerateDataError,
    InputError,
    NotPositiveDefiniteError,
)
from .moments import GaussianMixture, Sample, _gauss_rule

__all__ = [
    "DiscreteDistribution",
    "discretize_data",
    "expectation",
]

# Gauss-Hermite nodes per component of the true optimal share's rule, exact to degree 21:
# for the default mixture its shares at gamma 2, 4, 6 are within 1.7e-15 (relative) of a
# 2 x 200-node component-wise Gauss-Hermite integration's.
_THETA_STAR_NODES = 11

@dataclass(frozen=True)
class DiscreteDistribution:
    """An N-point distribution: strictly increasing nodes, positive weights."""

    nodes: tuple[float, ...]
    weights: tuple[float, ...]

    def __post_init__(self):
        nodes, weights = (tuple(map(float, v.tolist() if isinstance(v, np.ndarray) else v))
                          for v in (self.nodes, self.weights))
        if len(nodes) == 0 or len(nodes) != len(weights):
            raise InputError("nodes and weights must be nonempty and equal-length")
        if not all(map(math.isfinite, nodes + weights)):
            raise InputError("nodes and weights must be finite")
        if not all(map(operator.lt, nodes, nodes[1:])):
            raise InputError("nodes must be strictly increasing")
        if not min(weights) > 0.0:
            raise InputError("weights must be strictly positive")
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "weights", weights)

    def __len__(self) -> int:
        return len(self.nodes)


def _node_count_error(n, least: int) -> InputError | None:
    """The error for a node count that is not an integer of at least ``least``."""
    try:
        n = operator.index(n)
    except TypeError:
        return InputError(f"node count must be an integer, got {n!r}")
    return InputError(f"node count must be >= {least}, got {n}") if n < least else None


@lru_cache(maxsize=32)
def _standard_normal_rule(n: int) -> DiscreteDistribution:
    """N-point Gauss-Hermite rule of N(0, 1), from its exact Jacobi matrix:
    the monic Hermite recurrence, diagonal 0 and off-diagonal sqrt(1..N-1)."""
    nodes, weights = _gauss_rule(np.zeros(n), np.sqrt(np.arange(1.0, n)))
    return DiscreteDistribution(nodes=nodes, weights=weights)


def _mixture_rule(mix: GaussianMixture) -> DiscreteDistribution:
    """The quadrature rule :func:`~npgq.portfolio.theoretical_portfolio` solves on:
    each component's Gauss-Hermite rule, nodes ``m + s * x`` of weight
    ``p * w``, with equal nodes (an atom's, or equal components') merged."""
    base = _standard_normal_rule(_THETA_STAR_NODES)
    points = np.array(mix.means)[:, None] + np.multiply.outer(mix.stds, base.nodes)
    nodes, at = np.unique(points.ravel(), return_inverse=True)
    weights = np.bincount(at, np.multiply.outer(mix.proportions, base.weights).ravel())
    return DiscreteDistribution(nodes=nodes, weights=weights)


def _columns(values, sizes, fill: float) -> np.ndarray:
    """Ragged columns, end to end in the flat ``values`` with lengths ``sizes``,
    as one (longest x count) float array, each padded at its end with ``fill``."""
    real = np.arange(max(sizes))[:, None] < sizes
    out = np.full(real.shape, fill)
    out.T[real.T] = values
    return out


def _sum0(a: np.ndarray) -> np.ndarray:
    """Sum over the first axis in index order: the same grouping whatever
    the other axes hold."""
    return np.add.accumulate(a, axis=0)[-1]


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
        standardization and Lanczos state across calls.
    n : int
        Number of nodes.
    """
    if error := _node_count_error(n, 1):
        raise error
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
    if n > sample.z.size:  # d distinct values bound the support, with no Lanczos step
        d = np.unique(sample.z).size
        raise NotPositiveDefiniteError(
            f"the data has {d} distinct values, so it supports at most {d} nodes -- reduce N",
            pivot=d + 1,
        )
    diag, offdiag = sample.jacobi(n)
    if diag.size < n:
        raise NotPositiveDefiniteError(
            f"Lanczos broke down at step {diag.size}; the data supports at "
            f"most {diag.size} nodes -- reduce N",
            pivot=diag.size + 1,
        )
    nodes, weights = _gauss_rule(diag, offdiag)
    return DiscreteDistribution(nodes=transform.to_original(nodes), weights=weights)


def expectation(dist: DiscreteDistribution, g: Callable) -> float:
    """Expectation ``sum_n w_n g(x_n)`` under a discrete distribution.

    ``g`` is called once per node, on a float64 scalar, and must return a
    real number; the products are summed exactly rounded.
    """
    nodes = np.asarray(dist.nodes, dtype=float)
    return math.fsum(w * float(g(x)) for x, w in zip(nodes, dist.weights))
