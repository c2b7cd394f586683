"""Competitor discretizers: Gauss-Hermite on a fitted Gaussian, and
maximum-entropy moment matching on an even grid with a kernel-density prior.

Both serve as comparison points for the moment-fed quadrature method.
The Gauss-Hermite baseline is what one would use under a (log)normality
assumption; the maximum-entropy baseline ("np-me") tilts a kernel density
estimate on a fixed grid until low-order sample moments match.  np-me
reads those moments, m1..m4, from the first three Lanczos steps of the
sample's Jacobi matrix, the same state np-gq builds its rules from.
Every data-taking function here also accepts a
:class:`~npgq.moments.Sample`, whose standardization and Lanczos state
are then computed only once.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import InfeasibleError, InputError, NumericalError
from .moments import _BLOCK, Sample, _as_clean_array
from .quadrature import DiscreteDistribution, _gauss_rule

__all__ = [
    "MaxEntSolution",
    "fit_gaussian_mle",
    "gauss_hermite_discretize",
    "kde_pdf",
    "maxent_solve",
    "maxent_discretize",
]

_SQRT_2PI = math.sqrt(2.0 * math.pi)

# Damped-Newton settings for the tilting dual.
_NEWTON_MAX_ITER = 200
_NEWTON_GRAD_TOL = 1e-10
_LAMBDA_DIVERGENCE = 1e6


def fit_gaussian_mle(data) -> tuple[float, float]:
    """Maximum-likelihood Gaussian fit: sample mean and population std.

    The std uses divisor I (the MLE), consistent with the population
    moment convention used everywhere else in the package: the fit is the
    shift and scale of the data's standardization.  Raises
    :class:`DegenerateDataError` for constant data.
    """
    transform = Sample.of(data).transform
    return transform.shift, transform.scale


@lru_cache(maxsize=32)
def _standard_normal_rule(n: int) -> DiscreteDistribution:
    """N-point Gauss-Hermite rule of N(0, 1), from its exact Jacobi matrix:
    the monic Hermite recurrence, diagonal 0 and off-diagonal sqrt(1..N-1)."""
    nodes, weights = _gauss_rule(np.zeros(n), np.sqrt(np.arange(1.0, n)), 1.0)
    return DiscreteDistribution(nodes=tuple(nodes), weights=tuple(weights))


def gauss_hermite_discretize(data, n: int) -> DiscreteDistribution:
    """N-point Gauss-Hermite rule for the MLE Gaussian fit of the data.

    The standard-normal rule scaled to ``N(mean, std^2)``: the Gaussian
    rule of the fitted Gaussian.
    """
    if n < 1:
        raise InputError(f"node count must be >= 1, got {n}")
    mean, std = fit_gaussian_mle(data)
    base = _standard_normal_rule(n)
    nodes = tuple(mean + std * x for x in base.nodes)
    return DiscreteDistribution(nodes=nodes, weights=base.weights)


def _silverman(std: float, size: int) -> float:
    return 1.06 * std * size ** (-0.2)


def kde_pdf(data, bandwidth: float, x):
    """Gaussian-kernel density value(s) ``(1/(I h)) sum_i phi((x - x_i)/h)``
    of nonempty, finite data, at a positive bandwidth ``h``."""
    data = _as_clean_array(data)
    if not (math.isfinite(bandwidth) and bandwidth > 0.0):
        raise InputError(f"bandwidth must be positive, got {bandwidth}")
    pts = np.asarray(x, dtype=float)
    scalar = pts.ndim == 0
    pts = np.atleast_1d(pts)
    # Blocks of whole grid rows of about _BLOCK values, or of one row when
    # the data is longer, each row summed as one contiguous run, with two
    # temporaries per block updated in place.  A block stays in cache, and
    # a longer row's temporaries take the data's size rather than N times
    # it: against whole grids in blocks of 2**20 values, np-me's N = 3..9
    # priors took 0.6 ms rather than 1.2 ms on 10 000 points, and 18 ms
    # rather than 21 ms, at a peak of 2.3 MB rather than 20.6 MB, on 100 000.
    rows = max(1, _BLOCK // data.size)
    sums = np.empty(pts.size)
    for i in range(0, pts.size, rows):
        z = pts[i : i + rows, None] - data[None, :]
        z /= bandwidth
        k = -0.5 * z
        k *= z
        sums[i : i + rows] = np.exp(k, out=k).sum(axis=1)
    vals = sums / (data.size * bandwidth * _SQRT_2PI)
    return float(vals[0]) if scalar else vals


def _jacobi_moments(diag, offdiag) -> list[float]:
    """Moments m1..m4, ``e0' J^k e0``, of the measure whose Jacobi matrix
    ``J`` begins ``diag``, ``offdiag``; an entry cut by a breakdown is 0."""
    a0, a1 = (diag.tolist() + [0.0])[:2]
    b1, b2 = (offdiag.tolist() + [0.0, 0.0])[:2]
    # J e0 = (a0, b1) and J^2 e0 = v; m_{i+j} = (J^i e0) . (J^j e0).
    v = (a0 * a0 + b1 * b1, b1 * (a0 + a1), b1 * b2)
    return [a0, v[0], a0 * v[0] + b1 * v[1], v[0] * v[0] + v[1] * v[1] + v[2] * v[2]]


def _even_grid(n: int) -> np.ndarray:
    half_span = math.sqrt(2.0 * (n - 1))
    return np.linspace(-half_span, half_span, n)


def _dual_terms(nodes, prior, targets) -> tuple[np.ndarray, np.ndarray]:
    """Centered monomials ``T(x_n) - tbar`` on the grid (L x N) and the log prior."""
    targets = np.asarray(targets, dtype=float)
    powers = np.vander(np.asarray(nodes, dtype=float), targets.size + 1, increasing=True).T[1:]
    return powers - targets[:, None], np.log(np.asarray(prior, dtype=float))


def _dual(lam: np.ndarray, feat: np.ndarray, log_prior: np.ndarray):
    """Dual value, gradient and tilted weights at ``lam``."""
    logits = log_prior + lam @ feat
    top = float(np.max(logits))
    expo = np.exp(logits - top)
    total = float(expo.sum())
    w = expo / total
    return top + math.log(total), feat @ w, w


@dataclass(frozen=True)
class MaxEntSolution:
    """Result of the grid tilting problem.

    ``weights`` are the tilted probabilities on ``nodes``; ``prior`` is
    the normalized kernel-density prior; ``lam`` solves the dual for the
    ``n_matched`` monomial moments.  ``downgraded`` records a fallback
    from four matched moments to two after an infeasible first attempt.
    """

    nodes: tuple[float, ...]
    prior: tuple[float, ...]
    lam: tuple[float, ...]
    weights: tuple[float, ...]
    n_matched: int
    downgraded: bool
    iterations: int

    def distribution(self) -> DiscreteDistribution:
        return DiscreteDistribution(nodes=self.nodes, weights=self.weights)


def _solve_dual(nodes, prior, targets) -> tuple[np.ndarray, np.ndarray, int]:
    """Damped Newton on the tilting dual from lam = 0.

    Returns (lam, tilted weights, iterations).  Divergence of the iterates
    signals unattainable targets and raises :class:`InfeasibleError`;
    failure to converge within the cap raises :class:`NumericalError`.
    """
    feat, log_prior = _dual_terms(nodes, prior, targets)
    lam = np.zeros(feat.shape[0])
    value, grad, w = _dual(lam, feat, log_prior)
    for iteration in range(_NEWTON_MAX_ITER):
        if float(np.linalg.norm(grad)) <= _NEWTON_GRAD_TOL:
            return lam, w, iteration
        hess = (feat * w) @ feat.T - np.outer(grad, grad)
        try:
            step = np.linalg.solve(hess, -grad)
        except np.linalg.LinAlgError:
            step = np.linalg.lstsq(hess, -grad, rcond=None)[0]
        slope = float(grad @ step)
        if slope >= 0.0:  # not a descent direction; fall back to gradient
            step = -grad
            slope = -float(grad @ grad)
        # Sufficient decrease with a machine-precision allowance: near the
        # optimum the true decrease per step falls below the resolution of
        # the dual value, and without the slack the full Newton steps that
        # drive the gradient to zero would be rejected.
        roundoff = 1e-15 * max(1.0, abs(value))
        t = 1.0
        for _ in range(60):
            cand = lam + t * step
            cand_value, cand_grad, cand_w = _dual(cand, feat, log_prior)
            if cand_value <= value + 1e-4 * t * slope + roundoff:
                break
            t *= 0.5
        else:
            raise NumericalError("tilting dual line search stalled")
        lam, value, grad, w = cand, cand_value, cand_grad, cand_w
        if float(np.linalg.norm(lam)) > _LAMBDA_DIVERGENCE:
            raise InfeasibleError(
                "tilting dual diverged; moment targets are unattainable on the grid"
            )
    raise NumericalError(
        f"tilting dual did not converge within {_NEWTON_MAX_ITER} iterations"
    )


def maxent_solve(data, n: int) -> MaxEntSolution:
    """Tilt a kernel-density prior on an even grid to match sample moments.

    Works in standardized units, where the data has mean 0 and std 1
    exactly: the grid is ``linspace(-h, h, N)`` with ``h = sqrt(2(N-1))``
    and the prior is the standardized data's kernel density with
    Silverman's bandwidth ``1.06 * I^(-1/5)``.  Four moments are matched
    when N >= 5 (two otherwise), read from the sample's three-step Jacobi
    matrix whatever N; if four are unattainable the solver
    retries with two and flags the downgrade.  Nodes are mapped back to
    data units.  N must be at least 3: at N = 2 the grid is +-sqrt(2),
    where every tilt has second moment 2, not the data's 1.
    """
    if n < 3:
        raise InputError(f"node count must be >= 3, got {n}")
    sample = Sample.of(data)
    transform, z = sample.transform, sample.z
    grid = _even_grid(n)
    prior = kde_pdf(z, _silverman(1.0, z.size), grid)
    prior = prior / prior.sum()
    n_match = 4 if n >= 5 else 2
    targets = _jacobi_moments(*sample.jacobi(3))[:n_match]
    downgraded = False
    try:
        lam, weights, iterations = _solve_dual(grid, prior, targets)
    except (InfeasibleError, NumericalError):
        if n_match == 2:
            raise
        n_match = 2
        downgraded = True
        targets = targets[:2]
        lam, weights, iterations = _solve_dual(grid, prior, targets)
    return MaxEntSolution(
        nodes=tuple(transform.to_original(grid)),
        prior=tuple(prior),
        lam=tuple(lam),
        weights=tuple(weights),
        n_matched=n_match,
        downgraded=downgraded,
        iterations=iterations,
    )


def maxent_discretize(data, n: int) -> DiscreteDistribution:
    """N-point distribution from the maximum-entropy grid method."""
    return maxent_solve(data, n).distribution()
