"""The three benchmark workloads: inputs, one operation, and the correctness gate.

Every workload is a closed loop with one client: operation ``i`` starts
when operation ``i - 1`` has returned.  npgq functions are looked up on
their modules at call time, so a :class:`tracing.Tracer` installed between
operations sees every call.
"""
from __future__ import annotations

import contextlib
import io
import math
from pathlib import Path

import numpy as np
from numpy.polynomial.hermite_e import hermegauss
from scipy.optimize import brentq

import inputs
from npgq import cli, errors, experiments, baselines, quadrature

# np-gq rules match their sample moments to criterion 1's tolerance.
MOMENT_RTOL = 1e-8
# np-me matches its targets to the dual's gradient tolerance (1e-10), with slack.
MAXENT_RTOL = 1e-8
HERMITE_ATOL = 1e-10
# One unit in the 12th significant digit the CLI prints.
THETA_RTOL = 1e-11


def _fsum_mean_std(x: np.ndarray) -> tuple[float, float]:
    mean = math.fsum(x) / x.size
    return mean, math.sqrt(math.fsum((x - mean) ** 2) / x.size)


def _moment_errors(nodes, weights, z_data: list[np.ndarray], mean, std, orders) -> float:
    """Worst relative error of the rule's standardized moments vs the data's."""
    zn = (np.asarray(nodes) - mean) / std
    worst = 0.0
    for k in orders:
        target = math.fsum(z_data[k]) / z_data[k].size
        got = math.fsum(w * v**k for w, v in zip(weights, zn))
        worst = max(worst, abs(got - target) / max(1.0, abs(target)))
    return worst


def _first_per_input(results, cycle: int) -> tuple[dict, list[str]]:
    """First result per input of the cycle, and every later result that differs."""
    first, problems = {}, []
    for i, result in enumerate(results):
        key = i % cycle
        if key not in first:
            first[key] = result
        elif result != first[key]:
            problems.append(f"op {i}: output differs from op {key} on the same input")
    return first, problems


class Study:
    """The paper's Monte Carlo study: one full-grid replication per operation.

    Operation ``i`` is ``run_experiment(ExperimentConfig(seed=s_i,
    replications=1), jobs=1)`` on the default grid (3 methods x T in
    {100, 1000, 10000} x N in {3, 5, 7, 9} x gamma in {2, 4, 6}).
    Attempts are theta-hat estimates; a failure is a NaN estimate.
    """

    name = "study"
    cycle = 1
    unit = "replications"
    attempt_unit = "theta estimates"

    def __init__(self, seed: int):
        self.seed = seed

    def prepare(self) -> None:
        self.run(-1)

    def run(self, i: int):
        cfg = experiments.ExperimentConfig(seed=inputs.study_seed(self.seed, i), replications=1)
        return experiments.run_experiment(cfg, jobs=1)

    def counts(self, report) -> tuple[int, int]:
        failed = sum(c.failures for c in report.cells)
        return sum(c.n_used for c in report.cells) + failed, failed

    def same(self, a, b) -> bool:
        return a.to_csv() == b.to_csv()

    def check(self, reports) -> list[str]:
        problems = []
        for i, report in enumerate(reports):
            for c in report.cells:
                if c.n_used > 0 and not (math.isfinite(c.bias) and math.isfinite(c.mae)):
                    problems.append(f"op {i}: non-finite cell {c.method} T={c.sample_size} N={c.node_count}")
        small = experiments.ExperimentConfig(seed=self.seed, replications=4, sample_sizes=(100, 1000))
        serial = experiments.run_experiment(small, jobs=1).to_csv()
        parallel = experiments.run_experiment(small, jobs=2).to_csv()
        if serial != parallel:
            problems.append("to_csv() differs between jobs=1 and jobs=2")
        return problems


class PortfolioCli:
    """``npgq portfolio`` on seeded annual-return CSVs, in process.

    Operation ``i`` runs the CLI on file ``i mod 15`` with ``--n 5`` and the
    default gamma grid 1:7:0.5, alternating np-gq and np-me.  A failure is
    a nonzero exit code or an ``error`` row.
    """

    name = "portfolio_cli"
    cycle = 2 * inputs.PORTFOLIO_FILES
    unit = attempt_unit = "CLI calls"
    methods = ("np-gq", "np-me")

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir

    def prepare(self) -> None:
        self.tables = inputs.portfolio_tables(self.seed)
        self.paths = []
        for k, table in enumerate(self.tables):
            path = self.workdir / f"portfolio-seed{self.seed}-{k:02d}.csv"
            path.write_text(inputs.table_csv(table))
            self.paths.append(str(path))
        for i in range(len(self.methods)):
            self.run(i)

    def _combo(self, i: int) -> tuple[int, str]:
        return i % len(self.paths), self.methods[i % len(self.methods)]

    def run(self, i: int):
        k, method = self._combo(i)
        argv = [
            "portfolio", self.paths[k], "--stock", "stock", "--riskfree", "riskfree",
            "--inflation", "inflation", "--n", "5", "--method", method,
        ]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        return code, out.getvalue()

    def counts(self, result) -> tuple[int, int]:
        code, text = result
        return 1, int(code != 0 or ",error," in text)

    def same(self, a, b) -> bool:
        return a == b

    def check(self, results) -> list[str]:
        first, problems = _first_per_input(results, self.cycle)
        for key, (code, text) in sorted(first.items()):
            k, method = self._combo(key)
            if code != 0:
                problems.append(f"file {k} {method}: exit code {code}")
                continue
            problems += self._check_thetas(self.tables[k], method, text, f"file {k} {method}")
        return problems

    def _check_thetas(self, table, method, text, label) -> list[str]:
        rf_real = table["riskfree"] / table["inflation"]
        risk_free = float(np.exp(np.mean(np.log(rf_real))))
        log_excess = np.log(table["stock"] / table["inflation"]) - math.log(risk_free)
        discretize = quadrature.discretize_data if method == "np-gq" else baselines.maxent_discretize
        rules = {
            "theta_np": discretize(log_excess, 5),
            "theta_gaussian": baselines.gauss_hermite_discretize(log_excess, 5),
        }
        lines = text.strip().splitlines()
        header = lines[0].split(",")
        gammas = [1.0 + 0.5 * j for j in range(13)]
        if len(lines) - 1 != len(gammas):
            return [f"{label}: {len(lines) - 1} rows, expected {len(gammas)}"]
        problems = []
        for line, gamma in zip(lines[1:], gammas):
            row = dict(zip(header, line.split(",")))
            if float(row["gamma"]) != gamma:
                problems.append(f"{label}: gamma {row['gamma']} != {gamma}")
                continue
            for col, rule in rules.items():
                want = _foc_root(rule.nodes, rule.weights, risk_free, gamma)
                got = float(row[col])
                if abs(got - want) > THETA_RTOL * max(1.0, abs(want)):
                    problems.append(f"{label} gamma={gamma:g} {col}: {got!r} vs brentq {want!r}")
        return problems


def _foc_root(nodes, weights, rf: float, gamma: float) -> float:
    """Root of sum_n w_n d_n (rf + theta d_n)^-gamma = 0, d_n = rf (e^x_n - 1)."""
    d = [rf * math.expm1(x) for x in nodes]
    pairs = list(zip(weights, d))

    def foc(theta):
        return math.fsum(w * dn * (rf + theta * dn) ** -gamma for w, dn in pairs)

    lo, hi = -rf / max(d), -rf / min(d)
    for eps in (1e-3, 1e-6, 1e-9):
        a, b = lo + eps * (hi - lo), hi - eps * (hi - lo)
        if foc(a) > 0.0 > foc(b):
            return brentq(foc, a, b, xtol=1e-15, rtol=1e-15, maxiter=500)
    raise ValueError("first-order condition has no bracketed root")


class LargeSample:
    """One long series: 100 000 mixture draws, the three discretizers, N in {3,5,7,9}.

    Operation ``i`` is call ``i mod 12`` of the cycle np-gq, gauss-hermite,
    np-me at N = 3, then the same at N = 5, 7, 9.  A failure is an
    ``NpgqError``.
    """

    name = "large_sample"
    unit = attempt_unit = "calls"
    combos = [
        (label, module, attr, n)
        for n in (3, 5, 7, 9)
        for label, module, attr in (
            ("np-gq", quadrature, "discretize_data"),
            ("gauss-hermite", baselines, "gauss_hermite_discretize"),
            ("np-me", baselines, "maxent_discretize"),
        )
    ]
    cycle = len(combos)

    def __init__(self, seed: int):
        self.seed = seed

    def prepare(self) -> None:
        self.data = inputs.large_series(self.seed)
        warm = self.data[:2000]
        for _, module, attr, n in self.combos:
            getattr(module, attr)(warm, n)

    def run(self, i: int):
        _, module, attr, n = self.combos[i % self.cycle]
        try:
            dist = getattr(module, attr)(self.data, n)
        except errors.NpgqError as exc:
            return "error", type(exc).__name__
        return dist.nodes, dist.weights

    def counts(self, result) -> tuple[int, int]:
        return 1, int(result[0] == "error")

    def same(self, a, b) -> bool:
        return a == b

    def check(self, results) -> list[str]:
        first, problems = _first_per_input(results, self.cycle)
        mean, std = _fsum_mean_std(self.data)
        z = (self.data - mean) / std
        z_pows = [np.ones_like(z)] + [z**k for k in range(1, 18)]
        for key, (nodes, weights) in sorted(first.items()):
            label, _, _, n = self.combos[key]
            if nodes == "error":
                problems.append(f"{label} N={n}: {weights}")
                continue
            tag = f"{label} N={n}"
            if label == "np-gq":
                worst = _moment_errors(nodes, weights, z_pows, mean, std, range(2 * n))
                if worst > MOMENT_RTOL:
                    problems.append(f"{tag}: moment error {worst:.3e} > {MOMENT_RTOL}")
            elif label == "gauss-hermite":
                x, w = hermegauss(n)
                err = max(
                    float(np.max(np.abs(np.asarray(nodes) - (mean + std * x)))),
                    float(np.max(np.abs(np.asarray(weights) - w / math.sqrt(2 * math.pi)))),
                )
                if err > HERMITE_ATOL:
                    problems.append(f"{tag}: differs from hermegauss by {err:.3e}")
            else:
                sol = baselines.maxent_solve(self.data, n)
                if (sol.nodes, sol.weights) != (nodes, weights):
                    problems.append(f"{tag}: maxent_solve disagrees with maxent_discretize")
                worst = _moment_errors(nodes, weights, z_pows, mean, std, range(1, sol.n_matched + 1))
                if worst > MAXENT_RTOL:
                    problems.append(f"{tag}: {sol.n_matched} target moments off by {worst:.3e}")
        return problems
