"""Independent oracle implementations used to derive expected test values.

Everything here deliberately avoids the code paths under test: moments by
plain one-pass accumulation, optimal shares by objective-only grid search
plus golden-section refinement, random problem generators for property
tests.  ``reference_solve_portfolio`` is the scalar bracketed bisection the
vectorized portfolio engine replaced, kept as its step-for-step reference;
``crra_objective`` is the expected utility it maximizes, and
``maxent_dual`` exposes np-me's tilting dual for finite-difference checks.
"""
import math

import numpy as np

from npgq import (
    DiscreteDistribution,
    GaussianMixture,
    InputError,
    NumericalError,
    PortfolioSolution,
    UnboundedError,
)
from npgq.baselines import _dual, _dual_terms
from npgq.portfolio import _BISECT_RTOL, _BOUNDARY_MARGIN


def state_returns(dist, risk_free):
    """Gross stock return per state: ``R_f * exp(x_n)``."""
    if not (math.isfinite(risk_free) and risk_free > 0.0):
        raise InputError(f"risk-free rate must be positive, got {risk_free}")
    return risk_free * np.exp(np.asarray(dist.nodes, dtype=float))


def crra_objective(problem, theta):
    """Expected CRRA utility of gross portfolio return at risky share theta.

    Log utility is the exact limit at unit risk aversion.  Raises
    :class:`InputError` when some state's portfolio return is not positive.
    """
    rf, gamma = problem.risk_free, problem.gamma
    weights = problem.dist.weights
    wealth = [rf + theta * d for d in (state_returns(problem.dist, rf) - rf).tolist()]
    if min(wealth) <= 0.0:
        raise InputError(
            f"risky share {theta} is infeasible: some state's portfolio return is <= 0"
        )
    if gamma == 1.0:
        return math.fsum(w * math.log(v) for w, v in zip(weights, wealth))
    p = 1.0 - gamma
    return math.fsum(w * v**p for w, v in zip(weights, wealth)) / p


def maxent_dual(lam, nodes, prior, targets):
    """Value and gradient of np-me's tilting dual at ``lam``."""
    value, grad, _ = _dual(np.asarray(lam, dtype=float), *_dual_terms(nodes, prior, targets))
    return value, grad


def naive_moments(data, max_order):
    """Plain one-pass accumulation, no compensation, no numpy reductions."""
    n = len(data)
    sums = [0.0] * (max_order + 1)
    for x in data:
        p = 1.0
        for k in range(max_order + 1):
            sums[k] += p
            p *= x
    return [s / n for s in sums]


def golden_section_theta(dist, risk_free, gamma, grid_points=20001, tol=1e-9):
    """Optimal risky share from objective values only.

    Coarse grid over the feasible interval picks a bracket; golden-section
    search refines it to the requested width.  Never evaluates the
    derivative, so it is independent of the production solver.
    """
    returns = risk_free * np.exp(np.asarray(dist.nodes))
    weights = np.asarray(dist.weights)
    excess = returns - risk_free
    hi = -risk_free / excess.min()
    lo = -risk_free / excess.max()
    pad = 1e-9 * (hi - lo)
    lo, hi = lo + pad, hi - pad

    def objective(theta):
        wealth = risk_free + theta * excess
        if wealth.min() <= 0.0:
            return -np.inf
        if gamma == 1.0:
            return float(weights @ np.log(wealth))
        return float(weights @ wealth ** (1.0 - gamma)) / (1.0 - gamma)

    grid = np.linspace(lo, hi, grid_points)
    values = np.array([objective(t) for t in grid])
    best = int(np.argmax(values))
    a = grid[max(best - 1, 0)]
    b = grid[min(best + 1, grid_points - 1)]
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    c, d = b - invphi * (b - a), a + invphi * (b - a)
    fc, fd = objective(c), objective(d)
    while b - a > tol:
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = objective(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = objective(d)
    return 0.5 * (a + b)


def reference_solve_portfolio(problem):
    """Scalar bracketed bisection: one exactly summed (``math.fsum``)
    first-order condition per step, otherwise the steps of
    :func:`npgq.solve_portfolio`."""
    rf, gamma = problem.risk_free, problem.gamma
    weights = problem.dist.weights
    excess = tuple(float(r - rf) for r in state_returns(problem.dist, rf))
    d_min, d_max = min(excess), max(excess)
    if max(abs(d_min), abs(d_max)) <= 1e-14 * rf:
        return PortfolioSolution(theta=0.0, degenerate=True)
    if d_min >= 0.0 or d_max <= 0.0:
        raise UnboundedError(
            "all state returns lie on one side of the risk-free rate; "
            "expected utility has no interior maximum"
        )
    upper = -rf / d_min
    lower = -rf / d_max
    margin_up = min(_BOUNDARY_MARGIN * max(1.0, abs(upper)), 0.5 * upper)
    margin_dn = min(_BOUNDARY_MARGIN * max(1.0, abs(lower)), 0.5 * abs(lower))
    pairs = tuple(zip(weights, excess))

    def foc(theta):
        try:
            return math.fsum(w * d * (rf + theta * d) ** -gamma for w, d in pairs)
        except OverflowError:
            _, d_bind = min(pairs, key=lambda p: rf + theta * p[1])
            return math.inf if d_bind > 0.0 else -math.inf

    def expand_bracket(func, limit):
        step = min(1.0, 0.5 * limit)
        prev = 0.0
        for k in range(200):
            b = min(limit, step * 2.0**k)
            if func(b) <= 0.0:
                return prev, b
            prev = b
            if b >= limit:
                break
        raise NumericalError("failed to bracket the first-order condition root")

    f0 = foc(0.0)
    if f0 == 0.0:
        theta = 0.0
    else:
        if f0 > 0.0:
            lo, hi = expand_bracket(foc, upper - margin_up)
        else:
            neg_lo, neg_hi = expand_bracket(lambda t: -foc(-t), -(lower + margin_dn))
            lo, hi = -neg_hi, -neg_lo
        while hi - lo > _BISECT_RTOL * max(1.0, abs(lo), abs(hi)):
            mid = 0.5 * (lo + hi)
            if mid <= lo or mid >= hi:
                break
            if foc(mid) > 0.0:
                lo = mid
            else:
                hi = mid
        theta = 0.5 * (lo + hi)
    residual = foc(theta)
    scale = math.fsum(abs(w * d) * (rf + theta * d) ** -gamma for w, d in pairs)
    return PortfolioSolution(theta=theta, degenerate=False, foc_residual=residual, foc_scale=scale)


def random_mixture(rng, max_components=3, standardized=False):
    """Random valid Gaussian mixture with O(1) parameters."""
    k = int(rng.integers(1, max_components + 1))
    props = rng.dirichlet(np.ones(k))
    props = props / props.sum()
    mix = GaussianMixture(
        proportions=tuple(props),
        means=tuple(rng.uniform(-2.0, 2.0, size=k)),
        stds=tuple(rng.uniform(0.1, 1.5, size=k)),
    )
    if not standardized:
        return mix
    mu = mix.mean()
    sd = math.sqrt(mix.variance())
    return GaussianMixture(
        proportions=mix.proportions,
        means=tuple((m - mu) / sd for m in mix.means),
        stds=tuple(s / sd for s in mix.stds),
    )


def random_portfolio_problem(rng, max_states=8):
    """Random discrete log-excess-return law with both up and down states."""
    while True:
        n = int(rng.integers(2, max_states + 1))
        nodes = np.sort(rng.uniform(-0.6, 0.6, size=n))
        if np.min(np.diff(nodes)) < 1e-3:
            continue
        if nodes.min() >= 0.0 or nodes.max() <= 0.0:
            continue
        w = rng.dirichlet(np.ones(n))
        if w.min() < 1e-3:
            continue
        risk_free = float(rng.uniform(0.98, 1.05))
        return DiscreteDistribution(nodes=tuple(nodes), weights=tuple(w)), risk_free


def mp_data_rules(data, node_counts, dps=80):
    """Gaussian rules of the empirical measure of ``data`` at ``dps`` digits.

    The moment route throughout, in arbitrary precision: exact-ish
    standardization, sample moments, Hankel matrix, Cholesky factor,
    recurrence coefficients, and ``mpmath.eigsy`` on each N's leading
    block of the Jacobi matrix.  Returns ``{N: (nodes, weights)}`` in data
    units, as floats, nodes ascending.
    """
    import mpmath

    with mpmath.workdps(dps):
        x = [mpmath.mpf(float(v)) for v in data]
        size = len(x)
        mean = mpmath.fsum(x) / size
        std = mpmath.sqrt(mpmath.fsum((v - mean) ** 2 for v in x) / size)
        z = [(v - mean) / std for v in x]
        n_max = max(node_counts)
        moments, power = [mpmath.mpf(1)], [mpmath.mpf(1)] * size
        for _ in range(2 * n_max):
            power = [p * v for p, v in zip(power, z)]
            moments.append(mpmath.fsum(power) / size)
        hankel = mpmath.matrix(n_max + 1, n_max + 1)
        for i in range(n_max + 1):
            for j in range(n_max + 1):
                hankel[i, j] = moments[i + j]
        r = mpmath.cholesky(hankel).T
        diag = [r[0, 1] / r[0, 0]] + [
            r[k, k + 1] / r[k, k] - r[k - 1, k] / r[k - 1, k - 1] for k in range(1, n_max)
        ]
        offdiag = [r[k + 1, k + 1] / r[k, k] for k in range(n_max - 1)]
        rules = {}
        for n in node_counts:
            jac = mpmath.matrix(n, n)
            for i in range(n):
                jac[i, i] = diag[i]
            for i in range(n - 1):
                jac[i, i + 1] = jac[i + 1, i] = offdiag[i]
            vals, vecs = mpmath.eigsy(jac)
            order = sorted(range(n), key=lambda i: vals[i])
            rules[n] = (
                [float(mean + std * vals[i]) for i in order],
                [float(vecs[0, i] ** 2) for i in order],
            )
    return rules
