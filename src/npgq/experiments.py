"""Monte Carlo accuracy study for the competing discretizers.

For each (sample size, node count) the harness draws samples from a
known Gaussian-mixture law of log excess returns, discretizes them with
each method, solves the portfolio problem for each risk aversion, and
reports the relative bias and mean absolute error of the resulting risky
share against the share computed from the true mixture.

Each replication's sample is wrapped in one :class:`~npgq.moments.Sample`
that every method and node count shares, so the data is standardized once
and Lanczos runs once, to the largest N: np-gq takes each rule from a
prefix of that Jacobi matrix and np-me its moment targets from the first
three steps, with no separate moment pass.  The study works in
blocks of replications that span every sample size: a block builds all its
rules, np-me's as one stacked solve of every tilting problem of the block,
then solves them at every configured risk aversion in one call of
:func:`~npgq.portfolio.solve_portfolios`, which returns one row of shares
per rule.  The true optimal shares, :func:`~npgq.portfolio.theoretical_portfolio`
at each risk aversion, are computed once per (mixture, rate, grid) per process.
The summary is one array stage over (cell x replication) rows of errors.

Reproducibility: every replication draws from its own counter-based
substream keyed by (seed, sample size, replication index), and sampling
is inverse-CDF on uniforms, and neither an np-me rule nor a share
depends on the other problems solved with it, so reports are
bit-identical across runs and across serial/parallel execution (whose
blocks differ) on one platform.
"""
from __future__ import annotations

import io
import itertools
import math
import operator
import os
from dataclasses import dataclass
from functools import cached_property, lru_cache
from multiprocessing import Pool

import numpy as np
from scipy.special import ndtri

from .baselines import _maxent_problems, _maxent_solutions, gauss_hermite_discretize, maxent_discretize
from .errors import InputError, NpgqError
from .moments import GaussianMixture, Sample
from .portfolio import _THETA_RTOL, solve_portfolios, theoretical_portfolio
from .quadrature import discretize_data

__all__ = [
    "DEFAULT_MIXTURE",
    "DEFAULT_RISK_FREE",
    "ExperimentConfig",
    "CellResult",
    "ExperimentReport",
    "sample_mixture",
    "replication_rng",
    "run_experiment",
    "parse_config",
]

# Two-component mixture calibrated to annual U.S. log excess stock
# returns; the default ground truth for the accuracy study.
DEFAULT_MIXTURE = GaussianMixture(
    proportions=(0.1392, 0.8608),
    means=(-0.2242, 0.1064),
    stds=(0.2164, 0.1453),
)

# Average real gross risk-free rate from the same annual data.
DEFAULT_RISK_FREE = 1.0045

_DISCRETIZERS = {
    "np-gq": discretize_data,
    "gauss-hermite": gauss_hermite_discretize,
    "np-me": maxent_discretize,
}


@dataclass(frozen=True)
class ExperimentConfig:
    """Full specification of one accuracy-study run."""

    mixture: GaussianMixture = DEFAULT_MIXTURE
    risk_free: float = DEFAULT_RISK_FREE
    sample_sizes: tuple[int, ...] = (100, 1000, 10000)
    node_counts: tuple[int, ...] = (3, 5, 7, 9)
    gammas: tuple[float, ...] = (2.0, 4.0, 6.0)
    methods: tuple[str, ...] = tuple(_DISCRETIZERS)
    replications: int = 1000
    seed: int = 20170927

    def __post_init__(self):
        for name in ("sample_sizes", "node_counts"):
            try:  # an integer type, never a float that int() would truncate
                object.__setattr__(self, name, tuple(operator.index(v) for v in getattr(self, name)))
            except TypeError:
                raise InputError(f"{name} must be integers, got {list(getattr(self, name))}") from None
        for name in ("replications", "seed"):
            try:
                object.__setattr__(self, name, operator.index(getattr(self, name)))
            except TypeError:
                raise InputError(f"{name} must be an integer, got {getattr(self, name)!r}") from None
        object.__setattr__(self, "gammas", tuple(float(g) for g in self.gammas))
        object.__setattr__(self, "methods", tuple(self.methods))
        if self.replications < 1:
            raise InputError("replications must be >= 1")
        if self.seed < 0:
            raise InputError(f"seed must be >= 0, got {self.seed}")
        # A repeated value would run its cells twice, and report them twice.
        for name in ("sample_sizes", "node_counts", "gammas", "methods"):
            values = getattr(self, name)
            if not values:
                raise InputError(f"{name} must not be empty")
            if len(set(values)) != len(values):
                raise InputError(f"{name} must not repeat a value, got {list(values)}")
        if any(t < 2 for t in self.sample_sizes):
            raise InputError("sample sizes must be >= 2")
        if any(n < 1 for n in self.node_counts):
            raise InputError("node counts must be >= 1")
        if not (math.isfinite(self.risk_free) and self.risk_free > 0.0):
            raise InputError(f"risk-free rate must be positive, got {self.risk_free}")
        bad = [g for g in self.gammas if not (math.isfinite(g) and g > 0.0)]
        if bad:
            raise InputError(f"risk aversions must be finite and positive, got {bad}")
        unknown = [m for m in self.methods if m not in _DISCRETIZERS]
        if unknown:
            raise InputError(
                f"unknown methods {unknown}; available: {sorted(_DISCRETIZERS)}"
            )


@dataclass(frozen=True, slots=True)
class CellResult:
    """Bias/MAE summary of one (method, T, N, gamma) cell."""

    method: str
    sample_size: int
    node_count: int
    gamma: float
    bias: float
    mae: float
    failures: int
    n_used: int
    bias_se: float
    mae_se: float


@dataclass(frozen=True, eq=False)
class ExperimentReport:
    """All cells of a run plus the configuration that produced them.

    A study keeps many reports, so one keeps its cells as two read-only
    arrays in cell order (methods x sample sizes x node counts x gammas):
    ``stats``, whose rows are the bias, the MAE and their standard errors
    (NaN where a cell lacks one), and ``n_used``.  :attr:`cells` builds the
    :class:`CellResult` objects on each access: a default-grid report keeps
    about 5 KB, not the 19 KB of its 108 cells.
    """

    config: ExperimentConfig
    theta_star: dict[float, float]
    stats: np.ndarray
    n_used: np.ndarray

    def __post_init__(self):
        self.stats.setflags(write=False)
        self.n_used.setflags(write=False)

    def __eq__(self, other):
        if not isinstance(other, ExperimentReport):
            return NotImplemented
        return (self.config, self.theta_star, self.cells) == (other.config, other.theta_star, other.cells)

    @property
    def cells(self) -> tuple[CellResult, ...]:
        """Every cell in report order, built afresh on each access."""
        cfg = self.config
        keys = itertools.product(cfg.methods, cfg.sample_sizes, cfg.node_counts, cfg.gammas)
        # The one shared math.nan where a cell lacks a statistic.
        stats = ([math.nan if v != v else v for v in row] for row in self.stats.tolist())
        return tuple(
            CellResult(method, t, n, gamma, bias, mae, cfg.replications - used, used, bias_se, mae_se)
            for (method, t, n, gamma), bias, mae, bias_se, mae_se, used
            in zip(keys, *stats, self.n_used.tolist())
        )

    @cached_property
    def _index(self) -> dict:
        # Built on first lookup: a study keeps many reports it never indexes.
        return {(c.method, c.sample_size, c.node_count, c.gamma): c for c in self.cells}

    def cell(self, method: str, sample_size: int, node_count: int, gamma: float) -> CellResult:
        key = (method, int(sample_size), int(node_count), float(gamma))
        if key not in self._index:
            raise KeyError(f"no cell for {key}")
        return self._index[key]

    def to_csv(self) -> str:
        out = io.StringIO()
        out.write("method,T,N,gamma,bias,mae,failures\n")
        for c in self.cells:
            out.write(
                f"{c.method},{c.sample_size},{c.node_count},{c.gamma:.12g},"
                f"{c.bias:.12g},{c.mae:.12g},{c.failures}\n"
            )
        return out.getvalue()

    def format_tables(self) -> str:
        lines: list[str] = []
        lines.append(self._one_table("Relative bias of the optimal risky share", "bias"))
        lines.append("")
        lines.append(self._one_table("Mean absolute error of the optimal risky share", "mae"))
        failing = [c for c in self.cells if c.failures]
        if failing:
            lines.append("")
            lines.append("Excluded replications (discretization or solve failed):")
            for c in failing:
                lines.append(
                    f"  {c.method}  T={c.sample_size}  N={c.node_count}  "
                    f"gamma={c.gamma:g}: {c.failures} of {self.config.replications}"
                )
        return "\n".join(lines) + "\n"

    def _one_table(self, title: str, attr: str) -> str:
        cfg = self.config
        width = 8
        lines = [title]
        head1 = " " * 12
        head2 = f"{'T':>6}{'N':>6}"
        for method in cfg.methods:
            block = width * len(cfg.gammas)
            head1 += f"{method:^{block}}"
            head2 += "".join(f"{'g=' + format(g, 'g'):>{width}}" for g in cfg.gammas)
        lines.append(head1.rstrip())
        lines.append(head2)
        for t in cfg.sample_sizes:
            for n in cfg.node_counts:
                row = f"{t:>6}{n:>6}"
                for method in cfg.methods:
                    for g in cfg.gammas:
                        c = self._index.get((method, t, n, g))
                        val = getattr(c, attr) if c is not None else math.nan
                        row += f"{val:>{width}.3f}" if math.isfinite(val) else f"{'--':>{width}}"
                lines.append(row)
        return "\n".join(lines)


def replication_rng(seed: int, sample_size: int, index: int) -> np.random.Generator:
    """Counter-based generator for one replication's substream.

    Keyed by (seed, sample size, replication index) so that every cell
    sharing a sample size sees the same draws, mirroring a design where
    one simulated data set is handed to all methods.
    """
    ss = np.random.SeedSequence(seed, spawn_key=(int(sample_size), int(index)))
    return np.random.Generator(np.random.Philox(ss))


def sample_mixture(mix: GaussianMixture, size: int, rng: np.random.Generator) -> np.ndarray:
    """I.i.d. draws from a Gaussian mixture by inverse-CDF sampling.

    Consumes exactly two uniform arrays (component picks, then normal
    quantiles) regardless of the mixture, so the draw sequence is stable
    across mixtures and platforms.  A draw ``u`` picks the component whose index is the count
    of inner cumulative-proportion edges at or below ``u``: a capped binary search's index.
    """
    if size < 1:
        raise InputError(f"sample size must be >= 1, got {size}")
    inner = np.cumsum(mix.proportions)[:-1]
    comp = (rng.random(size) >= inner[:, None]).sum(axis=0)
    u = np.clip(rng.random(size), 1e-300, None)
    z = ndtri(u)
    means = np.asarray(mix.means)[comp]
    stds = np.asarray(mix.stds)[comp]
    return means + stds * z


def _replication_block(cfg: ExperimentConfig, start: int, stop: int) -> np.ndarray:
    """theta-hat array of shape (stop-start, sample sizes, methods, node counts, gammas).

    Every rule of the block is built first, one shared sample per
    (replication, T): np-gq and gauss-hermite rule by rule, and np-me as
    one stacked solve of all the block's tilting problems.  Then one call
    solves every rule at every risk aversion.  A failed discretization or
    solve leaves NaN.
    """
    shape = (stop - start, len(cfg.sample_sizes), len(cfg.methods),
             len(cfg.node_counts), len(cfg.gammas))
    out = np.full(shape, np.nan)
    rules, slots, tilts, tilt_slots = [], [], [], []
    for i, m in enumerate(range(start, stop)):
        for s, t in enumerate(cfg.sample_sizes):
            sample = Sample(sample_mixture(cfg.mixture, t, replication_rng(cfg.seed, t, m)))
            for j, method in enumerate(cfg.methods):
                if method == "np-me":
                    tilts += _maxent_problems(sample, cfg.node_counts)
                    tilt_slots += [(i, s, j, k) for k in range(len(cfg.node_counts))]
                    continue
                # Largest N first: np-gq's first Lanczos run (none for an N
                # past T) allocates the one basis, and the rest read prefixes.
                for n, k in sorted(zip(cfg.node_counts, itertools.count()), reverse=True):
                    try:
                        rules.append(_DISCRETIZERS[method](sample, n))
                    except NpgqError:
                        continue
                    slots.append((i, s, j, k))
    for slot, solution in zip(tilt_slots, _maxent_solutions(tilts)):
        if not isinstance(solution, NpgqError):
            rules.append(solution)
            slots.append(slot)
    for slot, row in zip(slots, solve_portfolios(rules, cfg.risk_free, cfg.gammas)):
        out[slot] = [math.nan if isinstance(r, NpgqError) else r.theta for r in row]
    return out


@lru_cache(maxsize=16)
def _theta_star_table(mixture: GaussianMixture, risk_free: float, gammas: tuple[float, ...]) -> tuple[float, ...]:
    """The true optimal share at each gamma, once per (mixture, rate, gamma
    grid) per process.  A tuple, so no caller can change what the next one
    reads; a configuration that raises is not cached, and raises again."""
    try:
        row = tuple(theoretical_portfolio(mixture, risk_free, g) for g in gammas)
    except NpgqError as exc:
        raise InputError(f"cannot compute the true optimal share for this configuration: {exc}") from exc
    # The solver cannot tell a share within _THETA_RTOL of 0 from 0.
    zeros = [g for g, theta in zip(gammas, row) if abs(theta) <= _THETA_RTOL]
    if zeros:
        raise InputError(f"true optimal share is zero for gamma={zeros}; relative errors undefined")
    return row


def _grid_tasks(cfg: ExperimentConfig, jobs: int):
    block = max(1, math.ceil(cfg.replications / max(8 * jobs, 1)))
    for start in range(0, cfg.replications, block):
        yield start, min(start + block, cfg.replications)


def run_experiment(cfg: ExperimentConfig, jobs: int = 1) -> ExperimentReport:
    """Full grid of cells; failures are excluded per cell, never fatal.

    ``jobs`` > 1 distributes replication blocks over a pool of at most
    ``os.cpu_count()`` worker processes under the default start method;
    results are reassembled in replication order, so serial and parallel
    runs produce identical reports.
    """
    try:
        jobs = operator.index(jobs)
    except TypeError:
        raise InputError(f"jobs must be an integer, got {jobs!r}") from None
    if jobs < 1:
        raise InputError("jobs must be >= 1")
    theta_star = _theta_star_table(cfg.mixture, cfg.risk_free, cfg.gammas)
    tasks = [(cfg, start, stop) for start, stop in _grid_tasks(cfg, jobs)]
    if jobs == 1:
        blocks = [_replication_block(*task) for task in tasks]
    else:
        with Pool(processes=min(jobs, os.cpu_count() or 1)) as pool:
            blocks = pool.starmap(_replication_block, tasks, chunksize=1)
    # Blocks come back in task order, which is replication order.  One row of
    # relative errors per cell, in the report's order; the rows with n finite
    # errors are compacted to one (rows x n) array, reduced along its rows.
    errors = np.concatenate(blocks) / np.array(theta_star) - 1.0
    rows = np.ascontiguousarray(errors.transpose(2, 1, 3, 4, 0)).reshape(-1, cfg.replications)
    finite = np.isfinite(rows)
    n_used = np.count_nonzero(finite, axis=1)
    stats = np.full((4, rows.shape[0]), math.nan)  # bias, mae, bias_se, mae_se
    for n in np.unique(n_used[n_used > 0]).tolist():
        group = n_used == n
        good = rows[group][finite[group]].reshape(-1, n)
        for row, values in enumerate((good, np.abs(good))):
            stats[row, group] = np.mean(values, axis=1)
            if n > 1:
                stats[row + 2, group] = np.std(values, axis=1, ddof=1) / math.sqrt(n)
    return ExperimentReport(config=cfg, theta_star=dict(zip(cfg.gammas, theta_star)), stats=stats, n_used=n_used)


# --- flat key=value configuration files ---------------------------------

_LIST_KEYS = {
    "sample_sizes": int,
    "node_counts": int,
    "gammas": float,
    "methods": str,
    "mixture_proportions": float,
    "mixture_means": float,
    "mixture_stds": float,
}
_SCALAR_KEYS = {"seed": int, "replications": int, "risk_free": float}


def parse_config(text: str) -> ExperimentConfig:
    """Build a configuration from flat ``key = value`` lines.

    Lists are comma-separated; ``#`` starts a comment; keys not present
    keep their defaults; unknown keys are rejected.
    """
    raw: dict[str, object] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise InputError(f"config line {lineno}: expected 'key = value'")
        key, _, value = stripped.partition("=")
        key, value = key.strip(), value.strip()
        try:
            if key in _SCALAR_KEYS:
                raw[key] = _SCALAR_KEYS[key](value)
            elif key in _LIST_KEYS:
                conv = _LIST_KEYS[key]
                raw[key] = tuple(conv(v.strip()) for v in value.split(",") if v.strip())
            else:
                raise InputError(f"config line {lineno}: unknown key {key!r}")
        except ValueError as exc:
            raise InputError(f"config line {lineno}: bad value for {key!r}: {exc}") from exc
    mix_keys = {"mixture_proportions", "mixture_means", "mixture_stds"}
    if mix_keys & raw.keys():
        if not mix_keys <= raw.keys():
            raise InputError("mixture_* keys must be given together")
        mixture = GaussianMixture(
            proportions=raw.pop("mixture_proportions"),
            means=raw.pop("mixture_means"),
            stds=raw.pop("mixture_stds"),
        )
        raw["mixture"] = mixture
    return ExperimentConfig(**raw)
