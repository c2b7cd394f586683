"""Competitor discretizers: Gauss-Hermite on a fitted Gaussian, and
maximum-entropy moment matching on an even grid with a kernel-density prior.

Both serve as comparison points for the moment-fed quadrature method.
The Gauss-Hermite baseline, what one would use under a (log)normality
assumption, moves quadrature's standard-normal rule to the fitted Gaussian;
the maximum-entropy baseline ("np-me") tilts a kernel density
estimate on a fixed grid until low-order sample moments match.  np-me
reads those moments, m1..m4, from the first three Lanczos steps of the
sample's Jacobi matrix, the same state np-gq builds its rules from.
Every data-taking function here also accepts a
:class:`~npgq.moments.Sample`, whose standardization and Lanczos state
are then computed only once.

np-me's tilting duals are solved many at a time, in one stacked damped
Newton (:func:`_solve_duals`) on quadrature's stacked columns, and
:func:`maxent_solve` is its one-problem case, as :func:`~npgq.portfolio.solve_portfolio`
is that of :func:`~npgq.portfolio.solve_portfolios`.  The Monte Carlo study
stacks every np-me problem of a block, and one closed-form facet test
(:func:`_reach`) decides before Newton which targets each is solved on.
A kernel term below the smallest normal double counts as 0 (:func:`kde_pdf`).
From 2**16 data values and 4 points, :func:`kde_pdf` has a helper thread,
started and joined by the call, compute every other row; below that gate
the interpreter-lock handoffs around each short numpy loop cost more than
the second CPU saves.  The values do not depend on the split.
"""
from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import InfeasibleError, InputError, NpgqError, NumericalError
from .moments import _BLOCK, Sample, _as_clean_array
from .quadrature import DiscreteDistribution, _columns, _node_count_error, _standard_normal_rule, _sum0

__all__ = [
    "MaxEntSolution",
    "gauss_hermite_discretize",
    "kde_pdf",
    "maxent_solve",
    "maxent_discretize",
]

_SQRT_2PI = math.sqrt(2.0 * math.pi)
_LOG_TINY = math.log(np.finfo(float).tiny)  # exp below this is subnormal or 0

# Damped-Newton settings for the tilting dual.
_NEWTON_MAX_ITER = 200
_NEWTON_GRAD_TOL = 1e-10
_LAMBDA_DIVERGENCE = 1e6
# Moments a tilt matches at most: the width of the stacked duals.
_MOMENTS = 4
# kde_pdf splits its rows over two threads from this many data values (a
# row is then a block) and this many rows.  Measured at 5 to 9 rows, the
# split took up to 1.9x the serial time at 20 000 values and 1.2x at
# 40 000, and was 1.03-1.4x faster at 65 536 and 1.25-1.55x from 100 000;
# 3 rows, split 2 + 1, gained at most 1.06x below 200 000.  Not a user option.
_SPLIT_VALUES = 2**16
_SPLIT_ROWS = 4


def gauss_hermite_discretize(data, n: int) -> DiscreteDistribution:
    """N-point Gauss-Hermite rule for the MLE Gaussian fit of the data.

    The fit is the data's standardization: the sample mean and the
    population std (divisor I).  The standard-normal rule scaled to
    ``N(mean, std^2)`` is the Gaussian rule of the fitted Gaussian.
    Raises :class:`DegenerateDataError` for data of zero variance.
    """
    if error := _node_count_error(n, 1):
        raise error
    fit = Sample.of(data).transform
    base = _standard_normal_rule(n)
    return DiscreteDistribution(nodes=fit.to_original(base.nodes), weights=base.weights)


def _silverman(std: float, size: int) -> float:
    return 1.06 * std * size ** (-0.2)


def kde_pdf(data, bandwidth: float, x):
    """Gaussian-kernel density values ``(1/(I h)) sum_i phi((x - x_i)/h)``, in the shape
    of ``x``, of nonempty, finite data, at a finite normal bandwidth ``h > 0`` and real,
    finite ``x``; a kernel term below the smallest normal double (``|u| > 37.64``) is 0.

    From :data:`_SPLIT_VALUES` (2**16) data values and :data:`_SPLIT_ROWS` (4)
    points on, one helper thread, started and joined by the call, computes every
    other row, and an error in its rows is raised from the call.  Each row is the
    same operations on the same values in either thread, so the values do not
    depend on the split or the CPU count.  Below the gate the handoffs of the
    interpreter lock around each short numpy loop cost more than they save.
    """
    data = _as_clean_array(data)
    if not (np.finfo(float).tiny <= bandwidth < math.inf):  # so each value, <= 1/(h sqrt(2 pi)), is finite
        raise InputError(f"bandwidth must be positive, finite and a normal float, got {bandwidth}")
    if np.iscomplexobj(x):  # a cast to float would drop the imaginary parts
        raise InputError("evaluation points must be real, not complex")
    pts = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(pts)):
        raise InputError("evaluation points contain non-finite entries")
    shape, pts = pts.shape, pts.ravel()
    # Blocks of whole grid rows of about _BLOCK values (one row when the data
    # is longer), each row summed as one contiguous run: a block stays in
    # cache.  numpy's exp leaves its vector path for a vector with one
    # subnormal or 0 result, so those lanes take the argument 0, then the
    # term 0.  Rounding is monotone, so a block's lowest k is at its largest
    # point less the data's min or its smallest less the data's max: a block
    # with neither past the cut skips the search for far lanes.  Each thread's
    # two block buffers are allocated here, once per call: a fresh pair per
    # row of a long sample is fresh memory from the allocator, page faults
    # and all.
    lo, hi, points = float(data.min()), float(data.max()), pts.tolist()
    rows = max(1, _BLOCK // data.size)
    starts = range(0, pts.size, rows)
    split = data.size >= _SPLIT_VALUES and pts.size >= _SPLIT_ROWS  # so one row per block
    sums = np.empty(pts.size)
    buffers = np.empty((4 if split else 2, min(rows, pts.size), data.size))

    def run(part, zbuf, kbuf):  # each thread sets its own errstate
        with np.errstate(over="ignore"):  # an overflowed lane is a far lane: its term is 0
            for i in part:
                z = np.subtract(pts[i : i + rows, None], data[None, :], out=zbuf[: min(rows, pts.size - i)])
                z /= bandwidth
                k = np.multiply(-0.5, z, out=kbuf[: z.shape[0]])
                k *= z
                u, v = (max(points[i : i + rows]) - lo) / bandwidth, (min(points[i : i + rows]) - hi) / bandwidth
                far = np.flatnonzero(k < _LOG_TINY) if min(-0.5 * u * u, -0.5 * v * v) < _LOG_TINY else slice(0)
                flat = k.reshape(-1)
                flat[far] = 0.0
                np.exp(k, out=k)
                flat[far] = 0.0
                sums[i : i + rows] = k.sum(axis=1)

    if split:
        failed = []

        def helper():
            try:
                run(starts[1::2], *buffers[2:])
            except BaseException as exc:  # re-raised by the caller after the join
                failed.append(exc)

        thread = threading.Thread(target=helper, name="npgq-kde")
        thread.start()
        try:
            run(starts[::2], *buffers[:2])
        finally:
            thread.join()
        if failed:
            raise failed[0]
    else:
        run(starts, *buffers)
    vals = sums / (data.size * bandwidth * _SQRT_2PI)
    return vals.reshape(shape) if shape else float(vals[0])


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


@dataclass(frozen=True)
class MaxEntSolution(DiscreteDistribution):
    """An np-me rule: the tilted probabilities ``weights`` on the grid
    ``nodes``, and how the tilt was reached.

    ``n_matched`` monomial moments are matched; ``downgraded`` records
    that four were asked for but no tilt reaches them, so two were
    matched; ``iterations`` counts the Newton steps of the solve.
    """

    n_matched: int
    downgraded: bool
    iterations: int


@lru_cache(maxsize=32)
def _grid_layout(ns: tuple[int, ...]) -> tuple[tuple[np.ndarray, ...], np.ndarray, tuple[np.ndarray, ...]]:
    """np-me's grids at node counts ``ns``, their distinct points, and per
    grid the index of each of its points among them: read-only arrays,
    built once per tuple of node counts."""
    grids = tuple(_even_grid(n) for n in ns)
    points, where = np.unique(np.concatenate(grids), return_inverse=True)
    indices = tuple(np.split(where, np.cumsum(ns[:-1])))
    for array in (*grids, points, *indices):
        array.setflags(write=False)
    return grids, points, indices


def _maxent_problems(sample: Sample, node_counts) -> list:
    """np-me's tilting problem on one sample at each node count, as
    ``(transform, grid, prior, targets)`` in standardized units, or the
    :class:`NpgqError` that N or the sample raises.

    The kernel density is evaluated in one call, at the distinct points
    of all the grids; each value is its own sum over the data, so a prior
    does not depend on the other grids.
    """
    out = [_node_count_error(n, 3) for n in node_counts]
    ns = tuple(n for n, o in zip(node_counts, out) if o is None)
    if not ns:
        return out
    try:
        transform, z = sample.transform, sample.z
    except NpgqError as exc:
        return [exc if o is None else o for o in out]
    moments = _jacobi_moments(*sample.jacobi(3))
    grids, points, indices = _grid_layout(ns)
    density = kde_pdf(z, _silverman(1.0, z.size), points)
    priors = (density[index] for index in indices)
    problems = iter(
        (transform, grid, prior / prior.sum(), moments[: 4 if grid.size >= 5 else 2])
        for grid, prior in zip(grids, priors)
    )
    return [next(problems) if o is None else o for o in out]


@lru_cache(maxsize=64)
def _pair_quadratics(grid: tuple) -> np.ndarray:
    """Rows c_0, c_1, c_2 of ``q_i(x) = (x - x_i)(x - x_{i+1})`` for each pair
    of neighbours of a grid, ``x_{N+1} = x_1``: the sign of ``x_{i+1} - x_i``
    negates the wrap pair's, so each q_i is positive on the grid off its pair."""
    x, y = np.array(grid), np.roll(grid, -1)
    c = np.array([x * y, -(x + y), np.ones_like(x)]) * np.sign(y - x)
    c.setflags(write=False)  # one cached array serves every caller
    return c


def _reach(grid: np.ndarray, targets) -> int:
    """How many leading targets, 4, 2 or 0, a tilt of a positive prior on
    the grid matches: k where m1..mk lie inside the hull of ``(x, .., x^k)``
    over the grid (Tanaka & Toda 2013), iff each facet polynomial has a
    positive expectation.  The hull is a cyclic polytope, whose facets by
    Gale's evenness condition (Ziegler 1995, Thm 0.7) give the q_i of
    :func:`_pair_quadratics` for k = 2 and the q_i q_j of pairs sharing no
    point for k = 4.  Every q_i q_j is nonnegative on the grid and not all 0
    there (N >= 5), so all of ``c' H c`` is tested, ``H`` m's Hankel matrix.
    """
    c = _pair_quadratics(tuple(grid.tolist()))
    m = np.array([1.0, *targets])
    if m.size == 5 and (c.T @ np.array([m[:3], m[1:4], m[2:]]) @ c).min() > 0.0:
        return 4
    return 2 if (m[:3] @ c).min() > 0.0 else 0


def _underflow_error(n: int) -> NumericalError:
    return NumericalError(f"a weight of the {n}-point np-me rule underflows to 0 -- reduce N")


def _maxent_solutions(problems) -> list[MaxEntSolution | NpgqError]:
    """Solve np-me tilting problems, from :func:`_maxent_problems`, in one
    stacked damped Newton (:func:`_solve_duals`), and map each grid back
    to data units.  Each problem is solved once, on the targets a tilt
    can reach (:func:`_reach`): all of them, or else the first two of
    four, and the rule is ``downgraded``.  Failures are values: an
    :class:`NpgqError` entry passes through, a problem whose first two
    targets are out of reach is an :class:`InfeasibleError` with no Newton
    step, a problem that cannot be solved gets its error, and a tilt with
    a weight that underflows to 0 is a :class:`NumericalError`, as is a
    prior with a weight of 0, before any facet test: no tilt lifts it.
    """
    out = list(problems)
    live, duals = [], []
    for i, problem in enumerate(problems):
        if isinstance(problem, NpgqError):
            continue
        grid, prior, targets = problem[1:]
        if not prior.all():
            out[i] = _underflow_error(grid.size)
            continue
        if k := _reach(grid, targets):
            live.append(i)
            duals.append((grid, prior, targets[:k]))
        else:
            out[i] = InfeasibleError(f"moment targets are unattainable on the {grid.size}-point np-me grid")
    for i, result in zip(live, _solve_duals(duals)):
        transform, grid, _, targets = problems[i]
        if isinstance(result, NpgqError):
            out[i] = result
        elif min(result[1]) == 0.0:
            out[i] = _underflow_error(grid.size)
        else:
            lam, weights, iterations = result
            out[i] = MaxEntSolution(
                nodes=transform.to_original(grid),
                weights=weights,
                n_matched=len(lam),
                downgraded=len(lam) < len(targets),
                iterations=iterations,
            )
    return out


def _stack(grids, priors, targets) -> np.ndarray:
    """Tilting problems as one (grid points x terms x problems) array.

    Per point: the log prior, the centered monomials ``f_k = x^k - tbar_k``
    (``x^k`` by repeated multiplication, as ``np.vander`` takes it), and
    the products ``f_i f_j``, row-major.  A moment past the targets has
    ``f_k = 0`` and ``f_k f_k = 1``, so its Hessian row is the total weight
    on the diagonal.  A grid is padded to the longest with points of log
    prior -inf and all-zero terms.
    """
    sizes, lengths = [g.size for g in grids], [len(t) for t in targets]
    real = np.arange(max(sizes))[:, None] < sizes
    used = np.arange(_MOMENTS)[:, None] < lengths
    data = np.zeros((real.shape[0], 1 + _MOMENTS + _MOMENTS**2, real.shape[1]))
    with np.errstate(divide="ignore"):  # a padding point's prior 0 has log -inf
        data[:, 0] = np.log(_columns(np.concatenate(priors), sizes, 0.0))
    feat = data[:, 1 : 1 + _MOMENTS]
    feat[:] = _columns(np.concatenate(grids), sizes, 0.0)[:, None]
    np.multiply.accumulate(feat, axis=1, out=feat)
    tbar = _columns([v for t in targets for v in t], lengths, 0.0)
    feat[:, : tbar.shape[0]] -= tbar
    feat *= used & real[:, None]
    data[:, 1 + _MOMENTS :] = (feat[:, :, None] * feat[:, None]).reshape(feat.shape[0], -1, feat.shape[2])
    data[:, 1 + _MOMENTS :: _MOMENTS + 1] += ~used & real[:, None]
    return data


def _values(lam, data):
    """Dual value and tilted weights of each stacked problem at ``lam``."""
    logits = np.add.accumulate(data[:, 1 : 1 + _MOMENTS] * lam, axis=1)[:, -1] + data[:, 0]
    top = logits.max(axis=0)
    expo = np.exp(logits - top)
    total = _sum0(expo)
    return top + np.log(total), expo / total


def _newton_steps(hess, grad, n_match) -> np.ndarray:
    """Solve each Hessian system on its own.  A stacked solve raises as a
    whole, so after a singular one every column is solved alone, and a
    singular column takes the least-squares step on its matched moments."""
    hess, rhs = hess.transpose(2, 0, 1), -grad.T
    try:
        return np.linalg.solve(hess, rhs[:, :, None])[:, :, 0].T
    except np.linalg.LinAlgError:
        steps = np.zeros_like(rhs)
        for c, (h, g, k) in enumerate(zip(hess, rhs, n_match)):
            try:
                steps[c] = np.linalg.solve(h, g)
            except np.linalg.LinAlgError:
                steps[c, :k] = np.linalg.lstsq(h[:k, :k], g[:k], rcond=None)[0]
        return steps.T


def _solve_duals(problems) -> list:
    """Damped Newton on the tilting dual of every ``(grid, prior, targets)``
    problem at once, from lam = 0, in standardized units.

    Returns ``(lam, tilted weights, iterations)`` per problem, or an error
    value.  Divergence of the iterates signals unattainable targets
    (:class:`InfeasibleError`); a stalled line search or no convergence
    within the cap is a :class:`NumericalError`.

    One column per problem (:func:`_stack`).  Every sum runs in index
    order, so padding adds exact zeros; each Hessian is solved on its own,
    and each column keeps its own line search, iteration count and stop.
    So a problem's result does not depend on what shares the stack, up to
    the sign of a zero sum (``-0.0`` plus padding is ``+0.0``).  Columns
    leave at the top of a step, with the first that holds of: the last line
    search stalled, the multipliers diverged, the gradient test, the cap.
    """
    if not problems:
        return []
    grids, priors, targets = zip(*problems)
    sizes = [g.size for g in grids]
    n_match = np.array([len(t) for t in targets])
    data = _stack(grids, priors, targets)
    out: list = [None] * len(problems)
    cols = np.arange(len(problems))
    lam = np.zeros((_MOMENTS, cols.size))
    value, w = _values(lam, data)
    stalled = np.zeros(cols.size, dtype=bool)
    # One gradient test after each of the _NEWTON_MAX_ITER steps, and one before them.
    for iteration in range(_NEWTON_MAX_ITER + 1):
        # Tilted means of the features and of their pair products.
        sums = _sum0(data[:, 1:] * w[:, None])
        converged = np.sqrt(_sum0(sums[:_MOMENTS] ** 2)) <= _NEWTON_GRAD_TOL
        diverged = np.sqrt(_sum0(lam * lam)) > _LAMBDA_DIVERGENCE
        leave = stalled | diverged | converged | (iteration == _NEWTON_MAX_ITER)
        for c in leave.nonzero()[0]:
            p = cols[c]
            if stalled[c]:
                out[p] = NumericalError("tilting dual line search stalled")
            elif diverged[c]:
                out[p] = InfeasibleError("tilting dual diverged; moment targets are unattainable on the grid")
            elif converged[c]:
                out[p] = (tuple(lam[: n_match[p], c].tolist()), tuple(w[: sizes[p], c].tolist()), iteration)
            else:
                out[p] = NumericalError(f"tilting dual did not converge within {_NEWTON_MAX_ITER} iterations")
        if np.count_nonzero(leave):
            if leave.all():
                return out
            cols, lam, value, w, sums, data = (a[..., ~leave] for a in (cols, lam, value, w, sums, data))
        grad = sums[:_MOMENTS]
        hess = sums[_MOMENTS:].reshape(_MOMENTS, _MOMENTS, -1) - grad[:, None] * grad
        step = _newton_steps(hess, grad, n_match[cols])
        slope = _sum0(grad * step)
        uphill = slope >= 0.0  # not a descent direction; fall back to the gradient
        if np.count_nonzero(uphill):
            step[:, uphill] = -grad[:, uphill]
            slope[uphill] = -_sum0(grad[:, uphill] ** 2)
        # Sufficient decrease with a machine-precision allowance: near the
        # optimum the true decrease per step falls below the resolution of
        # the dual value, and without the slack the full Newton steps that
        # drive the gradient to zero would be rejected.
        roundoff = 1e-15 * np.maximum(1.0, np.abs(value))
        # Each column's full step, then halved until it decreases enough.
        t, stalled = np.ones(slope.size), np.ones(slope.size, dtype=bool)
        cand = lam + step
        for trial in range(1, 61):
            c_value, c_w = _values(cand, data)
            ok = stalled & (c_value <= value + 1e-4 * t * slope + roundoff)
            np.copyto(lam, cand, where=ok)
            np.copyto(value, c_value, where=ok)
            np.copyto(w, c_w, where=ok)
            stalled &= ~ok
            if not np.count_nonzero(stalled) or trial == 60:
                break
            t *= 0.5
            cand = lam + t * step


def maxent_solve(data, n: int) -> MaxEntSolution:
    """Tilt a kernel-density prior on an even grid to match sample moments.

    Works in standardized units, where the data has mean 0 and std 1
    exactly: the grid is ``linspace(-h, h, N)`` with ``h = sqrt(2(N-1))``
    and the prior is the standardized data's kernel density with
    Silverman's bandwidth ``1.06 * I^(-1/5)``.  Four moments are matched
    when N >= 5 (two otherwise), read from the sample's three-step Jacobi
    matrix whatever N; if no tilt reaches four, two are matched and the
    rule is ``downgraded``.  Nodes are mapped back to
    data units.  N must be at least 3: at N = 2 the grid is +-sqrt(2),
    where every tilt has second moment 2, not the data's 1.  This is the
    stacked solve of :func:`_maxent_solutions` on one problem.
    """
    (result,) = _maxent_solutions(_maxent_problems(Sample.of(data), [n]))
    if isinstance(result, NpgqError):
        raise result
    return result


def maxent_discretize(data, n: int) -> MaxEntSolution:
    """N-point distribution from the maximum-entropy grid method: the
    rule of :func:`maxent_solve`."""
    return maxent_solve(data, n)
