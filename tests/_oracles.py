"""Independent oracle implementations used to derive expected test values.

Everything here deliberately avoids the code paths under test: moments by
plain one-pass accumulation, optimal shares by objective-only grid search
plus golden-section refinement, random problem generators for property
tests.  ``reference_solve_portfolio`` is a scalar bisection at rate 1,
on the half-interval the portfolio engine's safeguarded Newton starts
from and with exactly rounded sums, kept as its reference: each share
the engine finds lies within two resolutions of it; ``crra_objective``
is the expected utility it maximizes and ``crra_foc`` its exactly summed
derivative at rate 1, which checks a share whatever steps found it;
``maxent_dual`` exposes np-me's tilting dual for finite-difference
checks.  ``one_shot_lanczos`` is the
fixed-length Lanczos run the incremental Lanczos state replaced, kept as
its bit-for-bit reference, and ``merged_lanczos`` the block-merged route
past ``_LANCZOS_BLOCK`` points built from it; ``cgs2_lanczos`` is the same run with full
reorthogonalization (classical Gram-Schmidt twice against every earlier
row) in place of the three-term recurrence and its measured projections,
kept as the accuracy reference; and ``fsum_mean_std`` the two ``math.fsum``
passes the blocked exact sum of the standardization replaced.
``summarize_cell`` is the per-cell summary the study's array stage
replaced, and ``interior_margin`` decides whether np-me's targets are
reachable by a linear program, in place of the cyclic polytope's facets.
``eigh_tridiagonal_rule`` is the Gaussian rule by scipy's
``eigh_tridiagonal``, which ``_gauss_rule``'s direct LAPACK ``dstevd``
call replaced, and ``searchsorted_components`` the binary-search component
pick that ``sample_mixture``'s edge count replaced: each is kept as its
bit-for-bit reference.

The moment route is the reference for the library's Lanczos route:
``gaussian_moments`` and ``mixture_moments`` give raw moments as a
validated :class:`MomentSequence` (``mixture_mean`` and
``mixture_variance`` its mean and variance),
``jacobi_from_moments`` reads a Jacobi matrix off the Cholesky factor of
their Hankel matrix, and ``golub_welsch`` takes its Gaussian rule.
``mp_data_rules`` and ``mp_mixture_rule`` run the same route in mpmath.
``mixture_jacobi`` runs the library's Lanczos, with a weighted start
vector, on a mixture's component Gauss-Hermite nodes, for those routes
to check.
"""
import math
import sys
from dataclasses import dataclass

import numpy as np
from scipy.linalg import eigh_tridiagonal
from scipy.optimize import linprog

from npgq import (
    DegenerateDataError,
    DiscreteDistribution,
    GaussianMixture,
    InputError,
    PortfolioSolution,
    UnboundedError,
)
from npgq.baselines import _MOMENTS, _stack, _values
from npgq.moments import _BREAKDOWN_RTOL, _LANCZOS_BLOCK, _ORTH_RTOL, _Lanczos
from npgq.portfolio import _THETA_RTOL
from npgq.quadrature import _gauss_rule, _standard_normal_rule

# Relative pivot floor: a Cholesky pivot below this fraction of its own
# row's diagonal entry is treated as loss of positive definiteness.  (The
# row's entry, not the global maximum: Hankel diagonals grow as m_{2k},
# which for standardized moments spans ten orders of magnitude by k = 11,
# and a global floor would reject the well-conditioned leading rows.)
_PIVOT_RTOL = 1e-12


@dataclass(frozen=True)
class MomentSequence:
    """Raw moments ``m_0..m_K`` of a (possibly unnormalized) measure.

    ``values[k]`` is the k-th raw moment; ``values[0]`` is the total mass,
    which must be positive (and is exactly 1 for probability data).  Any
    iterable of numbers is accepted, e.g. a :func:`npgq.sample_moments`
    array, and held as a tuple of floats.
    """

    values: tuple[float, ...]

    def __post_init__(self):
        vals = tuple(float(v) for v in self.values)
        if len(vals) == 0:
            raise InputError("moment sequence must contain at least m_0")
        if not all(math.isfinite(v) for v in vals):
            raise InputError("moment sequence contains non-finite entries")
        if vals[0] <= 0.0:
            raise InputError(f"m_0 must be positive, got {vals[0]}")
        object.__setattr__(self, "values", vals)

    @property
    def max_order(self) -> int:
        return len(self.values) - 1

    def __getitem__(self, k: int) -> float:
        return self.values[k]

    def __len__(self) -> int:
        return len(self.values)


def gaussian_moments(mean, std, max_order):
    """Raw moments of ``N(mean, std^2)`` up to ``max_order``.

    Uses the stable recursion
    ``m_k = mean * m_{k-1} + (k - 1) * std^2 * m_{k-2}`` with ``m_0 = 1``;
    ``std = 0`` yields the point-mass moments ``mean^k``.
    """
    if max_order < 0:
        raise InputError(f"max_order must be >= 0, got {max_order}")
    if not (math.isfinite(mean) and math.isfinite(std)):
        raise InputError("mean and std must be finite")
    if std < 0.0:
        raise InputError(f"std must be nonnegative, got {std}")
    out = [1.0]
    if max_order >= 1:
        out.append(mean)
    var = std * std
    for k in range(2, max_order + 1):
        out.append(mean * out[k - 1] + (k - 1) * var * out[k - 2])
    return MomentSequence(tuple(out))


def mixture_moments(mix, max_order):
    """Raw moments of a Gaussian mixture: proportion-weighted component moments."""
    if max_order < 0:
        raise InputError(f"max_order must be >= 0, got {max_order}")
    per_component = [
        gaussian_moments(m, s, max_order).values
        for m, s in zip(mix.means, mix.stds)
    ]
    out = [
        math.fsum(p * comp[k] for p, comp in zip(mix.proportions, per_component))
        for k in range(max_order + 1)
    ]
    out[0] = 1.0
    return MomentSequence(tuple(out))


def mixture_mean(mix):
    return math.fsum(p * m for p, m in zip(mix.proportions, mix.means))


def mixture_variance(mix):
    mu = mixture_mean(mix)
    second = math.fsum(p * (m * m + s * s) for p, m, s in zip(mix.proportions, mix.means, mix.stds))
    return second - mu * mu


def jacobi_from_moments(m, n):
    """Diagonal (N) and off-diagonal (N-1) of the Jacobi matrix of the
    measure with raw moments ``m_0..m_2N``.

    Factors the Hankel moment matrix ``H[i, j] = m_{i+j}`` as ``R'R`` row
    by row and reads the recurrence coefficients of the monic orthogonal
    polynomials off ``R``.  With 1-based entries: ``diag[0] = r_12/r_11``,
    ``diag[k] = r_{k+1,k+2}/r_{k+1,k+1} - r_{k,k+1}/r_{k,k}`` and
    ``offdiag[k] = r_{k+2,k+2}/r_{k+1,k+1}``.  The last pivot ``r_{N+1,N+1}``
    is never used, which is what lets a measure with exactly N support
    points give an N-point rule.  A pivot at or below ``_PIVOT_RTOL`` times
    its row's diagonal entry raises :class:`DegenerateDataError`: the
    measure supports fewer nodes than that pivot's 1-based index, its
    ``support``.
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
            raise DegenerateDataError(
                f"moment matrix is not positive definite at pivot {i + 1}; "
                f"the measure supports at most {i} nodes -- reduce N",
                support=i,
            )
        r[i, i] = math.sqrt(pivot)
        r[i, i + 1 :] = (hank[i, i + 1 :] - r[:i, i] @ r[:i, i + 1 :]) / r[i, i]
    d = np.diag(r)
    ratio = np.diag(r, 1) / d
    diag, offdiag = ratio - np.concatenate(([0.0], ratio[:-1])), d[1:] / d[:-1]
    if not (np.isfinite(diag).all() and np.isfinite(offdiag).all()):
        raise InputError("Jacobi matrix entries must be finite")
    return diag, offdiag


def golub_welsch(m, n):
    """N-point Gaussian quadrature rule from raw moments ``m_0..m_2N``.

    Nodes are the eigenvalues of :func:`jacobi_from_moments`; the weight
    at node k is ``m_0`` times the squared first component of the k-th
    unit eigenvector.  The rule reproduces the input moments up to order
    ``2N - 1``.  Raises :class:`DegenerateDataError` when the
    underlying measure has fewer than N support points.
    """
    nodes, weights = _gauss_rule(*jacobi_from_moments(m, n))
    return DiscreteDistribution(nodes=tuple(nodes), weights=tuple(m.values[0] * weights))


def eigh_tridiagonal_rule(diag, offdiag):
    """Nodes and weights (squared first eigenvector components) of a Jacobi
    matrix's Gaussian rule by ``scipy.linalg.eigh_tridiagonal``, with no
    underflow check: a weight may be 0."""
    nodes, vecs = eigh_tridiagonal(diag, offdiag)
    return nodes, vecs[0, :] ** 2


def searchsorted_components(proportions, u):
    """Component index of each uniform ``u``: the first cumulative-proportion
    edge above it, by binary search, capped at the last component."""
    edges = np.cumsum(np.asarray(proportions))
    return np.minimum(np.searchsorted(edges, u, side="right"), len(edges) - 1)


def one_shot_lanczos(x, start, n):
    """Jacobi matrix ``(diag, offdiag)`` of the measure with mass
    ``start[i]**2`` at ``x[i]``: at most ``min(n, T)`` Lanczos steps in one
    run, each with the library's product calls: the three-term recurrence,
    then at most two projections on the earlier rows, each taken only when
    the measured one is above ``_ORTH_RTOL`` times the residual's norm, and
    the library's relative breakdown floor.  The last step's residual is
    never formed.
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
        w -= diag[k] * q[k]
        if k:
            w -= offdiag[k - 1] * q[k - 1]
        b = float(np.linalg.norm(w))
        for _ in range(2):
            c = q[: k + 1].dot(w)
            if c.dot(c) <= (_ORTH_RTOL * b) ** 2:
                break
            w -= c.dot(q[: k + 1])
            b = float(np.linalg.norm(w))
        if b <= floor:
            return diag[: k + 1], offdiag[:k]
        offdiag[k] = b
        q[k + 1] = w / b
    return diag, offdiag


def merged_lanczos(z, n):
    """Jacobi matrix of the empirical measure of ``z`` after at most ``n``
    steps, merged from blocks of ``_LANCZOS_BLOCK`` values: each block's
    :func:`one_shot_lanczos` run and :func:`eigh_tridiagonal_rule`, its
    weights times the block's share of the points; a block of at most ``n``
    points, broken down before ``n`` steps or with a zero weight, as its
    atoms, each of mass count / T.  Equal points add their masses in block
    order, and :func:`one_shot_lanczos` runs on the sorted union.
    """
    union = {}
    for i in range(0, z.size, _LANCZOS_BLOCK):
        block = z[i : i + _LANCZOS_BLOCK]
        rule = None
        if block.size > n:
            diag, offdiag = one_shot_lanczos(block, 1.0 / math.sqrt(block.size), n)
            if diag.size == n:
                nodes, weights = eigh_tridiagonal_rule(diag, offdiag)
                if min(weights) > 0.0:
                    rule = zip(nodes.tolist(), (weights * (block.size / z.size)).tolist())
        if rule is None:
            atoms, counts = np.unique(block, return_counts=True)
            rule = zip(atoms.tolist(), (counts / z.size).tolist())
        for point, mass in rule:
            union[point] = union.get(point, 0.0) + mass
    points = sorted(union)
    return one_shot_lanczos(np.array(points), np.sqrt([union[p] for p in points]), n)


def cgs2_lanczos(x, start, n):
    """:func:`one_shot_lanczos` with full reorthogonalization in place of
    the recurrence and its measured projections: classical Gram-Schmidt
    twice against every earlier row, in two matmuls.  The accuracy
    reference; on tied data its residual at the breakdown step can stay
    above the floor, so it may run past the measure's support.
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


def state_returns(dist, risk_free):
    """Gross stock return per state: ``R_f * exp(x_n)``."""
    if not (math.isfinite(risk_free) and risk_free > 0.0):
        raise InputError(f"risk-free rate must be positive, got {risk_free}")
    return risk_free * np.exp(np.asarray(dist.nodes, dtype=float))


def crra_objective(dist, rf, gamma, theta):
    """Expected CRRA utility of gross portfolio return at risky share theta.

    Log utility is the exact limit at unit risk aversion.  Raises
    :class:`InputError` when some state's portfolio return is not positive.
    """
    weights = dist.weights
    wealth = [rf + theta * d for d in (state_returns(dist, rf) - rf).tolist()]
    if min(wealth) <= 0.0:
        raise InputError(
            f"risky share {theta} is infeasible: some state's portfolio return is <= 0"
        )
    if gamma == 1.0:
        return math.fsum(w * math.log(v) for w, v in zip(weights, wealth))
    p = 1.0 - gamma
    return math.fsum(w * v**p for w, v in zip(weights, wealth)) / p


def crra_foc(dist, rf, gamma, theta):
    """Derivative of :func:`crra_objective` in theta over ``R_f**(1 - gamma)``,
    exactly summed: ``sum w e (1 + theta e)**-gamma`` with ``e = expm1(x)``,
    whose root does not depend on the rate's scale.

    Where a term overflows, or some state's portfolio return is not
    positive, it is the limit at that binding state's wipe-out bound:
    +inf if the state's excess return is positive, else -inf.
    """
    state_returns(dist, rf)  # validates the rate
    pairs = list(zip(dist.weights, np.expm1(np.asarray(dist.nodes, dtype=float)).tolist()))
    d_bind = min(pairs, key=lambda p: 1.0 + theta * p[1])[1]
    if 1.0 + theta * d_bind > 0.0:
        try:
            return math.fsum(w * d * (1.0 + theta * d) ** -gamma for w, d in pairs)
        except OverflowError:
            pass
    return math.inf if d_bind > 0.0 else -math.inf


def maxent_dual(lam, nodes, prior, targets):
    """Value of np-me's tilting dual at ``lam``, as the stacked solver
    evaluates it, and its gradient: the mismatch of the tilted moments."""
    nodes, targets = np.asarray(nodes, dtype=float), np.asarray(targets, dtype=float)
    stacked = np.zeros((_MOMENTS, 1))
    stacked[: targets.size, 0] = lam
    data = _stack([nodes], [np.asarray(prior, dtype=float)], [targets])
    value, w = _values(stacked, data)
    feats = np.vander(nodes, targets.size + 1, increasing=True).T[1:] - targets[:, None]
    return float(value[0]), feats @ w[:, 0]


def interior_margin(grid, targets):
    """The largest ``t`` such that weights ``w_i >= t`` on the grid sum to 1
    and have raw moments ``targets``, by ``scipy.optimize.linprog``: the
    targets are interior to the hull of the grid's moment curve, so a tilt
    of a positive prior reaches them, iff it is positive."""
    grid = np.asarray(grid, dtype=float)
    n, k = grid.size, len(targets)
    # Variables (w_1..w_N, t); maximize t subject to V w = (1, m) and t - w_i <= 0.
    a_eq = np.hstack([np.vander(grid, k + 1, increasing=True).T, np.zeros((k + 1, 1))])
    a_ub = np.hstack([-np.eye(n), np.ones((n, 1))])
    c = np.zeros(n + 1)
    c[-1] = -1.0
    res = linprog(c, A_ub=a_ub, b_ub=np.zeros(n), A_eq=a_eq, b_eq=[1.0, *targets],
                  bounds=[(None, None)] * (n + 1), method="highs")
    assert res.status == 0, res.message
    return -res.fun


def summarize_cell(ratios_minus_one):
    """bias, mae, failures, n_used, and standard errors from one cell's errors."""
    total = ratios_minus_one.size
    good = ratios_minus_one[np.isfinite(ratios_minus_one)]
    failures = total - good.size
    if good.size == 0:
        return math.nan, math.nan, failures, 0, math.nan, math.nan
    bias = float(np.mean(good))
    mae = float(np.mean(np.abs(good)))
    if good.size > 1:
        bias_se = float(np.std(good, ddof=1) / math.sqrt(good.size))
        mae_se = float(np.std(np.abs(good), ddof=1) / math.sqrt(good.size))
    else:
        bias_se = mae_se = math.nan
    return bias, mae, failures, good.size, bias_se, mae_se


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


def fsum_mean_std(x):
    """Mean and population std of a float array by two ``math.fsum`` passes."""
    mean = math.fsum(x) / x.size
    return mean, math.sqrt(math.fsum((x - mean) ** 2) / x.size)


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

    # The coarse scan: every grid point at once, as a (grid x nodes) array.
    grid = np.linspace(lo, hi, grid_points)
    wealth = risk_free + grid[:, None] * excess
    feasible = wealth.min(axis=1) > 0.0
    safe = np.where(feasible[:, None], wealth, 1.0)
    if gamma == 1.0:
        values = np.log(safe) @ weights
    else:
        values = (safe ** (1.0 - gamma) @ weights) / (1.0 - gamma)
    values = np.where(feasible, values, -np.inf)
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


def reference_solve_portfolio(dist, rf, gamma):
    """Scalar bisection at rate 1, one exactly summed (``math.fsum``)
    first-order condition per step, on the half-interval and to the
    resolution of :func:`npgq.solve_portfolio`."""
    state_returns(dist, rf)  # validates the rate
    excess = np.expm1(np.asarray(dist.nodes, dtype=float)).tolist()
    if not (math.isfinite(gamma) and gamma > 0.0):
        raise InputError(f"risk aversion must be positive, got {gamma}")
    d_min, d_max = min(excess), max(excess)
    if max(abs(d_min), abs(d_max)) <= 1e-14:
        return PortfolioSolution(theta=0.0, degenerate=True)
    if d_min > -sys.float_info.min or d_max < sys.float_info.min:
        raise UnboundedError(
            "all state returns lie on one side of the risk-free rate; "
            "expected utility has no interior maximum"
        )
    f0 = crra_foc(dist, rf, gamma, 0.0)
    if f0 == 0.0:
        theta = 0.0
    else:
        # The root lies between zero and the wipe-out bound f0 points to.
        lo, hi = (0.0, -1.0 / d_min) if f0 > 0.0 else (-1.0 / d_max, 0.0)
        while hi - lo > _THETA_RTOL * max(1.0, abs(lo), abs(hi)):
            mid = 0.5 * (lo + hi)
            if mid <= lo or mid >= hi:
                break
            if crra_foc(dist, rf, gamma, mid) > 0.0:
                lo = mid
            else:
                hi = mid
        theta = 0.5 * (lo + hi)
    residual = crra_foc(dist, rf, gamma, theta)
    scale = math.fsum(abs(w * d) * (1.0 + theta * d) ** -gamma for w, d in zip(dist.weights, excess))
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
    mu = mixture_mean(mix)
    sd = math.sqrt(mixture_variance(mix))
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


def _mp_moment_rules(moments, node_counts):
    """Gaussian rules ``{N: (nodes, weights)}`` of the probability measure
    with mpmath raw moments ``m_0 = 1, m_1, ..., m_2N``, at the working
    precision.

    The moment route: Hankel matrix, Cholesky factor, recurrence
    coefficients, and ``mpmath.eigsy`` on each N's leading block of the
    Jacobi matrix.  Nodes ascending, as mpf.
    """
    import mpmath

    n_max = max(node_counts)
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
        rules[n] = ([vals[i] for i in order], [vecs[0, i] ** 2 for i in order])
    return rules


def mp_data_rules(data, node_counts, dps=80):
    """Gaussian rules of the empirical measure of ``data`` at ``dps`` digits.

    The moment route throughout, in arbitrary precision: exact-ish
    standardization, sample moments, then :func:`_mp_moment_rules`.
    Returns ``{N: (nodes, weights)}`` in data units, as floats, nodes
    ascending.
    """
    import mpmath

    with mpmath.workdps(dps):
        x = [mpmath.mpf(float(v)) for v in data]
        size = len(x)
        mean = mpmath.fsum(x) / size
        std = mpmath.sqrt(mpmath.fsum((v - mean) ** 2 for v in x) / size)
        z = [(v - mean) / std for v in x]
        moments, power = [mpmath.mpf(1)], [mpmath.mpf(1)] * size
        for _ in range(2 * max(node_counts)):
            power = [p * v for p, v in zip(power, z)]
            moments.append(mpmath.fsum(power) / size)
        return {
            n: ([float(mean + std * v) for v in nodes], [float(w) for w in weights])
            for n, (nodes, weights) in _mp_moment_rules(moments, node_counts).items()
        }


def mixture_jacobi(mix, n):
    """Jacobi matrix ``(diag, offdiag)`` of a mixture, at most N steps: the
    library's Lanczos on the mixture's component N-point Gauss-Hermite
    nodes, each of mass proportion times Gauss-Hermite weight.

    That discrete measure shares the mixture's moments up to order
    ``2N - 1``, which are all an N-step Jacobi matrix depends on, so the
    matrix is the mixture's own; a mixture with fewer than N support
    points gives a smaller matrix.  It runs Lanczos with a weighted start
    vector, for the moment-route and recurrence oracles to check.
    """
    base = _standard_normal_rule(n)
    x, w = np.asarray(base.nodes), np.asarray(base.weights)
    points = np.concatenate([m + s * x for m, s in zip(mix.means, mix.stds)])
    mass = np.concatenate([p * w for p in mix.proportions])
    return _Lanczos(points, np.sqrt(mass / mass.sum())).jacobi(n)


def mp_mixture_rule(mix, n, dps=80):
    """N-point Gaussian rule of a Gaussian mixture at ``dps`` digits.

    The mixture's parameters are taken as exact; its moments, normalized
    by the total proportion, come from :func:`gaussian_moments`'s
    recursion in mpmath, then :func:`_mp_moment_rules`.  Returns
    ``(nodes, weights)`` as floats, nodes ascending.
    """
    import mpmath

    with mpmath.workdps(dps):
        moments = [mpmath.mpf(0)] * (2 * n + 1)
        for p, mean, std in zip(mix.proportions, mix.means, mix.stds):
            mean, var = mpmath.mpf(mean), mpmath.mpf(std) ** 2
            comp = [mpmath.mpf(1), mean]
            for k in range(2, 2 * n + 1):
                comp.append(mean * comp[k - 1] + (k - 1) * var * comp[k - 2])
            moments = [acc + mpmath.mpf(p) * c for acc, c in zip(moments, comp)]
        moments = [v / moments[0] for v in moments]
        nodes, weights = _mp_moment_rules(moments, [n])[n]
        return [float(v) for v in nodes], [float(w) for w in weights]
