"""Seeded inputs for the benchmark workloads.

Everything here depends only on the seed and on numpy, never on npgq, so
the inputs stay byte-identical across versions of the program under test.
"""
from __future__ import annotations

import numpy as np

# Two-component Gaussian mixture of annual U.S. log excess stock returns
# (proportions, means, stds): the calibration behind
# ``npgq.experiments.DEFAULT_MIXTURE``, copied so inputs do not move when
# the program does.
MIXTURE = ((0.1392, 0.8608), (-0.2242, 0.1064), (0.2164, 0.1453))
REAL_RISK_FREE = 1.0045

LARGE_T = 100_000
PORTFOLIO_FILES = 15  # odd, so alternating methods covers every (file, method) pair
PORTFOLIO_ROWS = (80, 150)
PORTFOLIO_COLUMNS = ("year", "stock", "riskfree", "inflation")


def mixture_draws(rng: np.random.Generator, size: int) -> np.ndarray:
    """I.i.d. draws from :data:`MIXTURE`."""
    (p_first, _), means, stds = MIXTURE
    comp = (rng.random(size) >= p_first).astype(np.intp)
    z = rng.standard_normal(size)
    return np.asarray(means)[comp] + np.asarray(stds)[comp] * z


def large_series(seed: int) -> np.ndarray:
    """The ``large_sample`` series: :data:`LARGE_T` mixture draws."""
    return mixture_draws(np.random.default_rng([seed, 1]), LARGE_T)


def portfolio_tables(seed: int) -> list[dict[str, np.ndarray]]:
    """Annual gross nominal returns whose log excess returns follow the mixture.

    Each table has 80-150 rows.  Per row, ``log(stock / riskfree)`` is one
    mixture draw; the real risk-free rate and inflation get small
    lognormal noise so that every CLI column matters.
    """
    rng = np.random.default_rng([seed, 2])
    tables = []
    for _ in range(PORTFOLIO_FILES):
        rows = int(rng.integers(PORTFOLIO_ROWS[0], PORTFOLIO_ROWS[1] + 1))
        excess = mixture_draws(rng, rows)
        real_rf = REAL_RISK_FREE * np.exp(rng.normal(0.0, 0.02, rows))
        inflation = np.exp(rng.normal(0.03, 0.02, rows))
        riskfree = real_rf * inflation
        tables.append(
            {
                "year": np.arange(1900, 1900 + rows, dtype=float),
                "stock": np.exp(excess) * riskfree,
                "riskfree": riskfree,
                "inflation": inflation,
            }
        )
    return tables


def table_csv(table: dict[str, np.ndarray]) -> str:
    """CSV text with a header row; ``repr`` keeps every float exact."""
    lines = [",".join(PORTFOLIO_COLUMNS)]
    cols = [table[c] for c in PORTFOLIO_COLUMNS]
    for row in zip(*cols):
        lines.append(",".join(repr(float(v)) for v in row))
    return "\n".join(lines) + "\n"


def study_seed(seed: int, op: int) -> int:
    """``ExperimentConfig.seed`` of study operation ``op`` (-1 is the warm-up)."""
    return seed * 1_000_000 + (op if op >= 0 else 999_999)
