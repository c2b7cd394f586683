"""One-period portfolio choice for a CRRA investor under discrete returns.

States are log excess returns; the gross stock return in state n is
``R_n = R_f * exp(x_n)``.  The investor picks the risky share to maximize
expected CRRA utility of portfolio gross return.  The first-order
condition is ``R_f**(1 - gamma)`` times ``sum_n w_n e_n (1 + theta
e_n)**-gamma`` with ``e_n = expm1(x_n)``, so the share does not depend on
the rate's scale, and it is solved at rate 1.  The condition falls
strictly from +inf to -inf across the feasible set, so the optimum is its
unique root, and its sign at zero tells which side of zero holds it.
Safeguarded Newton keeps a bracket of the root and stops only when the
bracket is as narrow as bisection's last one, so it is as sure as
bisection, and deterministic.

Every caller has a grid: some discretized rules, some risk aversions,
one risk-free rate.  :func:`solve_portfolios` solves the whole grid in
one vectorized solve and returns one row per rule and one
column per risk aversion; :func:`solve_portfolio` is its one-by-one case.
The (rule, risk aversion) pairs are quadrature's padded (nodes x pairs)
columns, summed in node order, so a share is the same whatever else
shares the call, up to the sign of a zero sum.  This module builds no
rule: :func:`theoretical_portfolio` solves on quadrature's mixture rule.
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import InputError, NpgqError, NumericalError, UnboundedError
from .moments import GaussianMixture
from .quadrature import DiscreteDistribution, _columns, _mixture_rule, _sum0

__all__ = [
    "PortfolioSolution",
    "solve_portfolio",
    "solve_portfolios",
    "theoretical_portfolio",
]

_THETA_RTOL = 1e-12


@dataclass(frozen=True)
class PortfolioSolution:
    """Optimal risky share with solver diagnostics.

    ``degenerate`` marks the flat-objective case (every state return
    equals the risk-free rate), where the share is fixed at zero by
    convention.  ``foc_residual`` and ``foc_scale`` report the first-order
    condition at the optimum, over ``R_f**(1 - gamma)``, and the sum of its
    absolute terms.
    """

    theta: float
    degenerate: bool = False
    foc_residual: float = 0.0
    foc_scale: float = 0.0


def solve_portfolio(dist: DiscreteDistribution, risk_free: float, gamma: float) -> PortfolioSolution:
    """Unique root of the first-order condition by safeguarded Newton.

    The feasible interval keeps every state's portfolio return positive;
    the search runs on its part between zero and the wipe-out bound on the
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
    """Solve every (rule, risk aversion) pair at one rate in one vectorized solve.

    Row i, column j is what ``solve_portfolio(dists[i], risk_free,
    gammas[j])`` returns, or the :class:`NpgqError` it raises, as a value: a
    risk aversion that is not finite and positive is an :class:`InputError`
    in its own column.  A bad rate raises; a good one changes no share.  A
    share does not depend on the other rules or risk aversions in the call,
    up to the sign of a zero sum.
    A node past ``log(max double)`` overflows its rule's condition.
    """
    if not (math.isfinite(risk_free) and risk_free > 0.0):
        raise InputError(f"risk-free rate must be positive, got {risk_free}")
    dists, gammas = list(dists), list(gammas)
    if not dists:
        return []
    # (nodes x rules); shorter rules are padded with zero-weight nodes at
    # zero log excess return, whose excess return is exactly zero.
    sizes = [len(d) for d in dists]
    nodes = _columns([v for d in dists for v in d.nodes], sizes, 0.0)
    weights = _columns([w for d in dists for w in d.weights], sizes, 0.0)
    with np.errstate(over="ignore"):  # inf past log(max double), about 709.78
        excess = np.expm1(nodes)
    d_min, d_max = excess.min(axis=0), excess.max(axis=0)
    degenerate = np.maximum(np.abs(d_min), np.abs(d_max)) <= 1e-14
    # An excess return smaller than the smallest normal double counts as
    # zero: its wipe-out bound would overflow.
    unbounded = ~degenerate & ((d_min > -sys.float_info.min) | (d_max < sys.float_info.min))
    good = [math.isfinite(g) and g > 0.0 for g in gammas]
    # One column per (live rule, good gamma), rule-major.
    pairs = [(i, j) for i in np.flatnonzero(~(degenerate | unbounded)) for j in np.flatnonzero(good)]
    rules = [i for i, _ in pairs]
    theta, residual, scale = _newton_stack(
        excess[:, rules], weights[:, rules], np.array([gammas[j] for _, j in pairs], dtype=float)
    )
    degenerate, unbounded = degenerate.tolist(), unbounded.tolist()
    out: list = [[InputError(f"risk aversion must be positive, got {g}") if not ok
                  else PortfolioSolution(theta=0.0, degenerate=True) if degenerate[i]
                  else UnboundedError("all state returns lie on one side of the risk-free rate; "
                                      "expected utility has no interior maximum") if unbounded[i]
                  else None for g, ok in zip(gammas, good)] for i in range(len(dists))]
    for (i, j), t, r, s in zip(pairs, theta.tolist(), residual.tolist(), scale.tolist()):
        out[i][j] = (PortfolioSolution(theta=t, foc_residual=r, foc_scale=s) if math.isfinite(s)
                     else NumericalError("first-order condition overflows at the optimum"))
    return out


def _foc(theta, excess, wd, neg_gamma):
    """Marginal expected utility of each column's share at rate 1, and its
    slope ``-gamma * sum w d**2 u**(-gamma - 1)`` from the same powers; the
    condition falls in theta.

    Terms are summed in node order, so trailing padding adds exact zeros:
    a column's sums do not depend on its stack, up to the sign of a zero
    sum (``-0.0`` plus padding is ``+0.0``).
    Where the condition's sum is not finite (a term overflowed near a
    feasibility boundary) its sign is the binding state's: the one with the
    smallest portfolio return.
    """
    wealth = 1.0 + theta * excess
    terms = wd * wealth**neg_gamma
    f = _sum0(terms)
    terms *= excess
    terms /= wealth
    slope = neg_gamma[0] * _sum0(terms)
    if not np.isfinite(f).all():
        bad = np.flatnonzero(~np.isfinite(f))
        d_bind = excess[np.argmin(wealth[:, bad], axis=0), bad]
        f[bad] = np.where(d_bind > 0.0, math.inf, -math.inf)
    return f, slope


def _newton_stack(excess, weights, gamma):
    """Solve the first-order condition of every column at once, at rate 1.

    On the feasible interval ``(lower, upper)``, where every state's
    portfolio return is positive, the condition falls from +inf to -inf.
    Each column runs safeguarded Newton (``rtsafe``, Numerical Recipes
    9.4) from zero, inside a bracket of its root that starts as that
    interval.  An evaluation at x moves the bracket's lower end to x where
    the condition is >= 0 and its upper end where it is <= 0, so the first
    leaves the half-interval between zero and a wipe-out bound.  The next
    point is the Newton point where the condition and its slope are finite,
    the step is at most half the last one and the point lies strictly
    inside the bracket, and the bracket's midpoint otherwise.  A Newton
    step shorter than half the resolution ``_THETA_RTOL * max(1, |x|)`` is
    lengthened to it, so that the next evaluation lands across the root;
    a step of the whole resolution would leave, after rounding, a bracket
    just wider than it about half the time.  A column stops once its
    bracket is at most the resolution wide, at its last point, an end of
    the bracket.  Returns theta, and the condition and the sum of its
    absolute terms at theta.
    """
    wd = weights * excess
    # A full-size exponent: numpy rounds a broadcast exponent of -1 as an
    # exact reciprocal, so a one-column stack would round differently.
    neg_gamma = np.tile(-gamma, (excess.shape[0], 1))
    theta, residual = np.zeros(excess.shape[1]), np.zeros(excess.shape[1])
    x, cols, half_step = theta.copy(), np.arange(theta.size), np.full(theta.size, math.inf)
    hi = -1.0 / excess.min(axis=0)  # > 0: wipe-out leverage against the worst state
    lo = -1.0 / excess.max(axis=0)  # < 0: wipe-out short position against the best state
    args = excess, wd, neg_gamma
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        while cols.size:
            f, slope = _foc(x, *args)
            np.copyto(lo, x, where=f >= 0.0)
            np.copyto(hi, x, where=f <= 0.0)
            half_res = 0.5 * _THETA_RTOL * np.maximum(np.abs(x), 1.0)
            d = f / slope
            ad = np.abs(d)
            newton = np.isfinite(slope) & (ad <= half_step)
            t = x - np.where(ad < half_res, np.copysign(half_res, d), d)
            newton &= (lo < t) & (t < hi)
            half_width = 0.5 * (hi - lo)
            t = np.where(newton, t, lo + half_width)
            stop = half_width <= half_res
            if stop.any():
                theta[cols[stop]], residual[cols[stop]] = x[stop], f[stop]
                keep = ~stop
                cols, x, t, lo, hi = cols[keep], x[keep], t[keep], lo[keep], hi[keep]
                args = tuple(a[:, keep] for a in args)
            half_step, x = 0.5 * np.abs(t - x), t
        scale = _sum0(np.abs(wd) * (1.0 + theta * excess) ** neg_gamma)
    return theta, residual, scale


def theoretical_portfolio(mix: GaussianMixture, risk_free: float, gamma: float) -> float:
    """Optimal risky share when log excess returns follow a known mixture.

    The mixture is discretized by its components' 11-point Gauss-Hermite
    rules, each node at its component's mean plus its std times a standard
    node, and the resulting discrete problem is solved exactly.  The rule
    integrates polynomials up to degree 21 exactly; an atom is one node.
    A mixture of one atom has no interior optimum
    (:class:`UnboundedError`), or the degenerate share 0 at an atom at 0.
    """
    return solve_portfolio(_mixture_rule(mix), risk_free, gamma).theta
