"""Command-line front end.

Subcommands: ``discretize`` (fit an N-point distribution to a CSV
column), ``portfolio`` (the returns-data pipeline: real log excess
returns -> discretize -> optimal risky share per risk aversion),
``experiment`` (the Monte Carlo accuracy study), and ``plotdata``
(histogram/KDE/fitted-Gaussian curves as CSV for plotting elsewhere).
The parser is built once per process; a program that calls :func:`main`
many times pays for it once.

Exit codes: 0 on success, 2 for input/parse/config problems, 3 when the
numerics reject the request (too few support points for the nodes,
constant data included; infeasible tilting).  Numbers are printed with 12
significant digits, except the nodes and weights ``discretize`` writes:
those are written at round-trip precision, so the file holds exactly the
rule that ``--verify`` checks.
"""
from __future__ import annotations

import argparse
import csv
import functools
import io
import math
import sys
from dataclasses import replace

import numpy as np

from .baselines import _silverman, kde_pdf
from .errors import DegenerateDataError, InputError, NpgqError
from .experiments import (
    ExperimentConfig,
    parse_config,
    run_experiment,
    _DISCRETIZERS,
)
from .moments import AffineTransform, Sample, sample_moments
from .portfolio import solve_portfolios
from .quadrature import DiscreteDistribution, expectation

__all__ = ["main", "entry"]

_NUM = "{:.12g}".format


def _read_text(path: str, newline: str | None = None) -> str:
    """The text of ``path``; an unreadable or non-UTF-8 file is an InputError."""
    try:
        with open(path, encoding="utf-8", newline=newline) as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc


def _open_output(path: str):
    try:
        return open(path, "w", newline="")
    except OSError as exc:
        raise InputError(f"cannot write {path}: {exc}") from exc


def _read_csv(path: str) -> tuple[list[str], list[list[str]]]:
    try:
        rows = list(csv.reader(io.StringIO(_read_text(path, newline=""))))
    except csv.Error as exc:  # e.g. a field past csv's length limit
        raise InputError(f"{path}: {exc}") from exc
    if len(rows) < 2:
        raise InputError(f"{path}: need a header row and at least one data row")
    header, data = rows[0], rows[1:]
    width = len(header)
    if any(len(r) != width for r in data):
        raise InputError(f"{path}: ragged rows (all rows must match the header)")
    return header, data


def _column_values(header: list[str], rows: list[list[str]], selector: str, path: str) -> np.ndarray:
    if selector in header:
        idx = header.index(selector)
    else:
        try:
            idx = int(selector)
        except ValueError:
            raise InputError(
                f"{path}: no column named {selector!r} (and not an index); "
                f"columns: {header}"
            ) from None
        if not 0 <= idx < len(header):
            raise InputError(f"{path}: column index {idx} out of range 0..{len(header) - 1}")
    try:
        return np.array([float(r[idx]) for r in rows])
    except ValueError as exc:
        raise InputError(f"{path}: non-numeric entry in column {selector!r}: {exc}") from exc


def _write_rows(path: str | None, header: list[str], rows) -> None:
    out = sys.stdout if path in (None, "-") else _open_output(path)
    try:
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
    finally:
        if out is not sys.stdout:
            out.close()


def _gamma_grid(spec: str) -> list[float]:
    """Parse '1,2,3' or 'start:stop:step' (stop inclusive up to rounding)."""
    if ":" in spec:
        parts = spec.split(":")
        if len(parts) not in (2, 3):
            raise InputError(f"bad gamma range {spec!r}; use start:stop[:step]")
        try:
            start, stop = float(parts[0]), float(parts[1])
            step = float(parts[2]) if len(parts) == 3 else 1.0
        except ValueError as exc:
            raise InputError(f"bad gamma range {spec!r}: {exc}") from exc
        if not all(map(math.isfinite, (start, stop, step))) or step <= 0 or stop < start:
            raise InputError(f"bad gamma range {spec!r}")
        count = int(math.floor((stop - start) / step + 1e-9)) + 1
        return [start + i * step for i in range(count)]
    try:
        grid = [float(v) for v in spec.split(",") if v.strip()]
    except ValueError as exc:
        raise InputError(f"bad gamma list {spec!r}: {exc}") from exc
    if not grid:
        raise InputError("empty gamma grid")
    return grid


def cmd_discretize(args) -> int:
    header, rows = _read_csv(args.input)
    sample = Sample(_column_values(header, rows, args.column, args.input))
    dist = _DISCRETIZERS[args.method](sample, args.n)
    # The highest moment order each method matches: np-gq 2N - 1, np-me
    # what its tilt reached (2 or 4), gauss-hermite the mean and variance
    # (the mean alone at N = 1).
    if args.method == "np-me":
        top = dist.n_matched
    else:
        top = 2 * args.n - 1 if args.method == "np-gq" else min(2, 2 * args.n - 1)
    # Round-trip precision: reading the file back gives the rule computed.
    written = [[repr(float(x)), repr(float(w))] for x, w in zip(dist.nodes, dist.weights)]
    _write_rows(args.output, ["node", "weight"], written)
    if args.verify:
        # The rule as written, in standardized units, so the verdict does
        # not depend on the data's location or scale.  Constant data (whose
        # rule is its own point mass) has no scale: it is only centred.
        try:
            transform, z = sample.transform, sample.z
        except DegenerateDataError:
            transform = AffineTransform(shift=float(sample.x[0]), scale=1.0)
            z = sample.x - transform.shift
        target = sample_moments(z, top)
        rule = DiscreteDistribution(
            nodes=transform.to_standardized([float(x) for x, _ in written]),
            weights=[float(w) for _, w in written],
        )
        worst = max(
            abs(expectation(rule, lambda x: x**k) - target[k]) / max(1.0, abs(target[k]))
            for k in range(top + 1)
        )
        print(f"max relative moment error (orders 0..{top}): {_NUM(worst)}")
    return 0


def cmd_portfolio(args) -> int:
    gammas = _gamma_grid(args.gamma)  # an input error, before any rule is built
    header, rows = _read_csv(args.input)
    stock = _column_values(header, rows, args.stock, args.input)
    riskfree = _column_values(header, rows, args.riskfree, args.input)
    if np.any(stock <= 0) or np.any(riskfree <= 0):
        raise InputError("gross returns must be positive")
    if args.inflation is not None:
        deflator = _column_values(header, rows, args.inflation, args.input)
        if np.any(deflator <= 0):
            raise InputError("gross inflation must be positive")
        with np.errstate(over="ignore"):  # a real return past the float range is rejected below
            stock, riskfree = stock / deflator, riskfree / deflator
        for name, real in ((args.stock, stock), (args.riskfree, riskfree)):
            if not np.all(np.isfinite(real) & (real > 0.0)):
                raise InputError(f"real returns of column {name!r} are not finite and positive")
    risk_free = float(np.exp(np.mean(np.log(riskfree))))
    log_excess = Sample(np.log(stock) - math.log(risk_free))
    dist_np = _DISCRETIZERS[args.method](log_excess, args.n)
    dist_g = _DISCRETIZERS["gauss-hermite"](log_excess, args.n)
    # A gamma the solver rejects is an error in both rows' column.
    rows_np, rows_g = solve_portfolios((dist_np, dist_g), risk_free, gammas)
    out_rows = []
    for gamma, sol_np, sol_g in zip(gammas, rows_np, rows_g):
        row = [_NUM(gamma)]
        failure = next((r for r in (sol_np, sol_g) if isinstance(r, NpgqError)), None)
        if failure is not None:
            row += ["error", "error", str(failure)]
        else:
            theta_np, theta_g = sol_np.theta, sol_g.theta
            error = theta_g / theta_np - 1.0 if theta_np != 0.0 else math.nan
            row += [_NUM(theta_np), _NUM(theta_g), _NUM(error)]
        out_rows.append(row)
    print(f"# risk_free = {_NUM(risk_free)}", file=sys.stderr)
    _write_rows(args.output, ["gamma", "theta_np", "theta_gaussian", "error"], out_rows)
    return 0


def cmd_experiment(args) -> int:
    if args.config is not None:
        cfg = parse_config(_read_text(args.config))
    else:
        cfg = ExperimentConfig()
    if args.seed is not None:
        cfg = replace(cfg, seed=args.seed)
    if args.smoke:
        cfg = replace(cfg, replications=10)
    if args.jobs < 1:
        raise InputError("jobs must be >= 1")
    csv_path = args.output + ".csv"
    txt_path = args.output + ".txt"
    # Both outputs are opened before the study runs, so a bad path fails fast.
    with _open_output(csv_path) as csv_fh, _open_output(txt_path) as txt_fh:
        report = run_experiment(cfg, jobs=args.jobs)
        csv_fh.write(report.to_csv())
        tables = report.format_tables()
        txt_fh.write(tables)
    print(tables, end="")
    print(f"wrote {csv_path} and {txt_path}", file=sys.stderr)
    return 0


def cmd_plotdata(args) -> int:
    header, rows = _read_csv(args.input)
    data = _column_values(header, rows, args.column, args.input)
    if args.bins < 1:
        raise InputError("bins must be >= 1")
    # The Gaussian fit validates the data first, so its range is finite.
    fit = Sample(data).transform
    mean, std = fit.shift, fit.scale
    bandwidth = _silverman(std, data.size)
    try:
        heights, edges = np.histogram(data, bins=args.bins, density=True)
    except ValueError:  # numpy: "Too many bins for data range"
        raise InputError(
            f"the data range is too narrow for {args.bins} finite-sized histogram bins"
        ) from None
    lo = data.min() - 3.0 * bandwidth
    hi = data.max() + 3.0 * bandwidth
    grid = np.linspace(lo, hi, 512)
    kde_vals = kde_pdf(data, bandwidth, grid)
    gauss_vals = np.exp(-0.5 * ((grid - mean) / std) ** 2) / (std * math.sqrt(2 * math.pi))
    out = [
        ["histogram", _NUM(a), _NUM(b), _NUM(h)]
        for a, b, h in zip(edges[:-1], edges[1:], heights)
    ]
    out += [["kde", _NUM(x), "", _NUM(v)] for x, v in zip(grid, kde_vals)]
    out += [["gaussian", _NUM(x), "", _NUM(v)] for x, v in zip(grid, gauss_vals)]
    _write_rows(args.output, ["series", "x", "x2", "y"], out)
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The ``npgq`` parser, built once per process: parsing reads it and
    never changes it, so every :func:`main` call shares it."""
    parser = argparse.ArgumentParser(
        prog="npgq",
        description="Moment-based discretization of empirical distributions, "
        "baseline discretizers, and a CRRA portfolio application.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("discretize", help="fit an N-point distribution to a CSV column")
    p.add_argument("input", help="CSV file with a header row")
    p.add_argument("--column", required=True, help="column name or 0-based index")
    p.add_argument("--n", type=int, default=5, help="number of nodes (default 5)")
    p.add_argument(
        "--method",
        choices=sorted(_DISCRETIZERS),
        default="np-gq",
        help="discretizer (default np-gq)",
    )
    p.add_argument("--output", default=None, help="output CSV path (default stdout)")
    p.add_argument(
        "--verify",
        action="store_true",
        help="print the worst relative error, for the rule as written, of the standardized "
        "sample moments the method matches (np-gq: orders up to 2N-1; np-me: 2 or 4; "
        "gauss-hermite: 2)",
    )
    p.set_defaults(func=cmd_discretize)

    p = sub.add_parser("portfolio", help="optimal risky share from a returns CSV")
    p.add_argument("input", help="CSV with gross stock and risk-free return columns")
    p.add_argument("--stock", required=True, help="gross stock return column (name or index)")
    p.add_argument("--riskfree", required=True, help="gross risk-free return column")
    p.add_argument("--inflation", default=None, help="optional gross inflation column")
    p.add_argument("--gamma", default="1:7:0.5", help="risk aversion grid: list or start:stop[:step]")
    p.add_argument("--n", type=int, default=5, help="number of nodes (default 5)")
    p.add_argument(
        "--method",
        choices=["np-gq", "np-me"],
        default="np-gq",
        help="nonparametric discretizer to compare against the Gaussian fit",
    )
    p.add_argument("--output", default=None, help="output CSV path (default stdout)")
    p.set_defaults(func=cmd_portfolio)

    p = sub.add_parser("experiment", help="run the Monte Carlo accuracy study")
    p.add_argument("--config", default=None, help="flat key=value config file (default: full study)")
    p.add_argument("--output", default="experiment", help="output path prefix (default 'experiment')")
    p.add_argument("--seed", type=int, default=None, help="override the config seed")
    p.add_argument("--jobs", type=int, default=1, help="worker processes (default 1)")
    p.add_argument("--smoke", action="store_true", help="quick run with 10 replications")
    p.set_defaults(func=cmd_experiment)

    p = sub.add_parser("plotdata", help="histogram + density curves as CSV")
    p.add_argument("input", help="CSV file with a header row")
    p.add_argument("--column", required=True, help="column name or 0-based index")
    p.add_argument("--bins", type=int, default=30, help="histogram bin count (default 30)")
    p.add_argument("--output", default=None, help="output CSV path (default stdout)")
    p.set_defaults(func=cmd_plotdata)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NpgqError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
