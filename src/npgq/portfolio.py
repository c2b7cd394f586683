"""One-period portfolio choice for a CRRA investor under discrete returns.

States are log excess returns; the gross stock return in state n is
``R_n = R_f * exp(x_n)``.  The investor picks the risky share to maximize
expected CRRA utility of portfolio gross return.  The first-order
condition falls strictly from +inf to -inf across the feasible set, so
the optimum is its unique root, and its sign at zero tells which side of
zero to bisect: bisection is exact and deterministic.

Every caller has a grid: some discretized rules, some risk aversions,
one risk-free rate.  :func:`solve_portfolios` solves the whole grid in
one vectorized bisection and returns one row per rule and one
column per risk aversion; :func:`solve_portfolio` is its one-by-one case.
The (rule, risk aversion) pairs are stacked as a (nodes x pairs) array,
shorter rules padded with zero-weight nodes, and each pair's first-order
terms are summed in node order, so a share is the same whatever else
shares the call.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .baselines import _standard_normal_rule
from .errors import InputError, NpgqError, NumericalError, UnboundedError
from .moments import GaussianMixture, _Lanczos, _standardized_mixture
from .quadrature import DiscreteDistribution, _gauss_rule

__all__ = [
    "PortfolioSolution",
    "solve_portfolio",
    "solve_portfolios",
    "theoretical_portfolio",
]

_BISECT_RTOL = 1e-12

# Nodes of the rule the true optimal share is solved on.  For the default
# mixture, eleven agree with a 2 x 200-node component-wise Gauss-Hermite
# integration to 1.1e-12 (relative) at gamma 2, 4 and 6.
_THETA_STAR_NODES = 11


@dataclass(frozen=True)
class PortfolioSolution:
    """Optimal risky share with solver diagnostics.

    ``degenerate`` marks the flat-objective case (every state return
    equals the risk-free rate), where the share is fixed at zero by
    convention.  ``foc_residual`` and ``foc_scale`` report the first-order
    condition at the optimum and the sum of its absolute terms.
    """

    theta: float
    degenerate: bool = False
    foc_residual: float = 0.0
    foc_scale: float = 0.0


def solve_portfolio(dist: DiscreteDistribution, risk_free: float, gamma: float) -> PortfolioSolution:
    """Unique root of the first-order condition by bisection.

    The feasible interval keeps every state's portfolio return positive;
    bisection runs on its part between zero and the wipe-out bound on the
    side the condition at zero points to.  If every excess return has the
    same sign the problem has no finite optimum (:class:`UnboundedError`);
    if all are zero the objective is flat and the zero share is returned
    with the degenerate flag set.  :class:`NumericalError` reports a
    condition that overflows at the optimum, and :class:`InputError` a
    rate or risk aversion that is not finite and positive.  This is
    :func:`solve_portfolios` on one rule and one risk aversion.
    """
    ((result,),) = solve_portfolios([dist], risk_free, [gamma])
    if isinstance(result, NpgqError):
        raise result
    return result


def solve_portfolios(dists, risk_free: float, gammas) -> list[list[PortfolioSolution | NpgqError]]:
    """Solve every (rule, risk aversion) pair at one rate in one vectorized bisection.

    Row i, column j is what ``solve_portfolio(dists[i], risk_free,
    gammas[j])`` returns, or the :class:`NpgqError` it raises, as a value:
    a risk aversion that is not finite and positive is an
    :class:`InputError` in its own column.  A bad rate raises.  A share
    does not depend on the other rules or risk aversions in the call.
    """
    if not (math.isfinite(risk_free) and risk_free > 0.0):
        raise InputError(f"risk-free rate must be positive, got {risk_free}")
    dists, gammas = list(dists), list(gammas)
    if not dists:
        return []
    sizes = np.array([len(d.nodes) for d in dists])
    # (nodes x rules); shorter rules are padded with zero-weight nodes at
    # zero log excess return, whose excess return is exactly zero.
    real = np.arange(sizes.max())[:, None] < sizes
    nodes, weights = np.zeros(real.shape), np.zeros(real.shape)
    nodes.T[real.T] = [x for d in dists for x in d.nodes]
    weights.T[real.T] = [w for d in dists for w in d.weights]
    excess = risk_free * np.exp(nodes) - risk_free
    d_min, d_max = excess.min(axis=0), excess.max(axis=0)
    degenerate = np.maximum(np.abs(d_min), np.abs(d_max)) <= 1e-14 * risk_free
    unbounded = ~degenerate & ((d_min >= 0.0) | (d_max <= 0.0))
    good = [math.isfinite(g) and g > 0.0 for g in gammas]
    # One column per (live rule, good gamma), rule-major.
    pairs = [(i, j) for i in np.flatnonzero(~(degenerate | unbounded)) for j in np.flatnonzero(good)]
    rules = [i for i, _ in pairs]
    theta, residual, scale = _bisect_stack(
        excess[:, rules], weights[:, rules], np.full(len(pairs), float(risk_free)),
        np.array([gammas[j] for _, j in pairs], dtype=float),
    )
    out: list = [[PortfolioSolution(theta=0.0, degenerate=True) if ok
                  else InputError(f"risk aversion must be positive, got {g}")
                  for g, ok in zip(gammas, good)] for _ in dists]
    for i in np.flatnonzero(unbounded):
        for j in np.flatnonzero(good):
            out[i][j] = UnboundedError(
                "all state returns lie on one side of the risk-free rate; "
                "expected utility has no interior maximum"
            )
    for c, (i, j) in enumerate(pairs):
        if not math.isfinite(scale[c]):
            out[i][j] = NumericalError("first-order condition overflows at the optimum")
        else:
            out[i][j] = PortfolioSolution(
                theta=float(theta[c]),
                degenerate=False,
                foc_residual=float(residual[c]),
                foc_scale=float(scale[c]),
            )
    return out


def _foc(theta, excess, wd, rf, neg_gamma):
    """Marginal expected utility of each column's share; decreasing in theta.

    Terms are summed in node order, so trailing padding adds exact zeros.
    Where the sum is not finite (a term overflowed near a feasibility
    boundary) its sign is the binding state's: the one with the smallest
    portfolio return.
    """
    f = np.add.accumulate(wd * (rf + theta * excess) ** neg_gamma, axis=0)[-1]
    if not np.isfinite(f).all():
        bad = np.flatnonzero(~np.isfinite(f))
        base = rf[bad] + theta[bad] * excess[:, bad]
        d_bind = excess[np.argmin(base, axis=0), bad]
        f[bad] = np.where(d_bind > 0.0, math.inf, -math.inf)
    return f


def _bisect_stack(excess, weights, rf, gamma):
    """Bisect the first-order condition of every column at once.

    On the feasible interval ``(lower, upper)``, where every state's
    portfolio return is positive, the condition falls from +inf to -inf, so
    a column's root lies in ``[0, upper)`` if the condition at zero is
    positive and in ``(lower, 0]`` otherwise.  Bisection halves that
    half-interval until ``_BISECT_RTOL`` or until the midpoint equals an
    end.  Returns theta, and the condition and the sum of its absolute
    terms at theta.
    """
    wd = weights * excess
    # A full-size exponent: numpy rounds a broadcast exponent of -1 as an
    # exact reciprocal, so a one-column stack would round differently.
    neg_gamma = np.tile(-gamma, (excess.shape[0], 1))
    upper = -rf / excess.min(axis=0)  # > 0: wipe-out leverage against the worst state
    lower = -rf / excess.max(axis=0)  # < 0: wipe-out short position against the best state
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        f0 = _foc(np.zeros_like(rf), excess, wd, rf, neg_gamma)
        # Bisect every column with f0 != 0, dropping each one as it stops.
        theta = np.zeros_like(rf)
        cols = np.flatnonzero(f0 != 0.0)
        lo = np.where(f0 > 0.0, 0.0, lower)[cols]
        hi = np.where(f0 > 0.0, upper, 0.0)[cols]
        args = excess[:, cols], wd[:, cols], rf[cols], neg_gamma[:, cols]
        # No column can stop in its first `free` halvings, so they skip the
        # stop test.  A column stops when hi - lo <= tol, its tolerance
        # _BISECT_RTOL * max(-lo, hi, 1), or when the midpoint is an end.
        # The bracket nests, so the tolerance never grows past its first
        # value tol0.  A halving leaves hi - lo within half an ulp of
        # max(-lo, hi) of half its width, so after k halvings the width is
        # at least w0 / 2**k - 2 * eps * max(-lo, hi).  With
        # k < floor(log2(w0 / tol0)) - 1, w0 / 2**k >= 4 * tol0, and since
        # eps * max(-lo, hi) < tol0 / 4000, the width stays above 3 * tol0:
        # neither the width test nor an end midpoint (which needs a width of
        # a few ulps) can fire.  The halvings are the same arithmetic, so
        # every column keeps its bits.
        ratio = float(np.min((hi - lo) / (_BISECT_RTOL * np.maximum(np.maximum(-lo, hi), 1.0)),
                             initial=math.inf))
        free = int(math.log2(ratio)) - 1 if 4.0 <= ratio < math.inf else 0
        while cols.size:
            mid = 0.5 * (lo + hi)
            if free:
                free -= 1
            else:
                # lo < hi, so max(|lo|, |hi|) == max(-lo, hi).
                tol = _BISECT_RTOL * np.maximum(np.maximum(-lo, hi), 1.0)
                stop = (hi - lo <= tol) | (mid <= lo) | (mid >= hi)
                if np.count_nonzero(stop):
                    theta[cols[stop]] = mid[stop]
                    keep = ~stop
                    cols, lo, hi, mid = cols[keep], lo[keep], hi[keep], mid[keep]
                    args = tuple(a[..., keep] for a in args)
                    if not cols.size:
                        break
            up = _foc(mid, *args) > 0.0
            np.copyto(lo, mid, where=up)
            np.copyto(hi, mid, where=~up)
        residual = _foc(theta, excess, wd, rf, neg_gamma)
        scale = np.add.accumulate(np.abs(wd) * (rf + theta * excess) ** neg_gamma, axis=0)[-1]
    return theta, residual, scale


def theoretical_portfolio(mix: GaussianMixture, risk_free: float, gamma: float) -> float:
    """Optimal risky share when log excess returns follow a known mixture.

    The mixture is discretized by its 11-point Gaussian quadrature rule
    (standardized first for conditioning, nodes mapped back), and the
    resulting discrete problem is solved exactly.  A mixture supported on
    fewer than 11 points is recovered exactly with its own support size.
    """
    return solve_portfolio(_mixture_rule(mix), risk_free, gamma).theta


def _mixture_jacobi(mix: GaussianMixture, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Jacobi matrix ``(diag, offdiag)`` of a mixture, at most N steps.

    Lanczos on the mixture's component N-point Gauss-Hermite nodes, each
    of mass proportion times Gauss-Hermite weight.  That discrete measure
    shares the mixture's moments up to order ``2N - 1``, which are all an
    N-step Jacobi matrix depends on, so the matrix is the mixture's own.
    A mixture with fewer than N support points gives a smaller matrix.
    """
    base = _standard_normal_rule(n)
    x, w = np.asarray(base.nodes), np.asarray(base.weights)
    points = np.concatenate([m + s * x for m, s in zip(mix.means, mix.stds)])
    mass = np.concatenate([p * w for p in mix.proportions])
    return _Lanczos(points, np.sqrt(mass / mass.sum())).jacobi(n)


def _mixture_rule(mix: GaussianMixture) -> DiscreteDistribution:
    """The quadrature rule :func:`theoretical_portfolio` solves on."""
    transform, std_mix = _standardized_mixture(mix)
    nodes, weights = _gauss_rule(*_mixture_jacobi(std_mix, _THETA_STAR_NODES), 1.0)
    return DiscreteDistribution(nodes=transform.to_original(nodes), weights=weights)
