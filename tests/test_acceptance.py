"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one ``[criterion N] PASS/FAIL`` line directly to the
terminal (bypassing capture) with the measured quantities, then asserts.
Criteria 5-7 share one full 1000-replication study grid via the
session-scoped ``paper_report`` fixture in conftest.
"""
import math
import time

import numpy as np
import pytest

from npgq import (
    DiscreteDistribution,
    Sample,
    discretize_data,
    expectation,
    gauss_hermite_discretize,
    maxent_solve,
    sample_moments,
    solve_portfolio,
)
from npgq.experiments import (
    DEFAULT_MIXTURE,
    DEFAULT_RISK_FREE,
    replication_rng,
    sample_mixture,
)

from npgq.baselines import _maxent_problems
from npgq.quadrature import _gauss_rule, _standard_normal_rule

from _oracles import (
    gaussian_moments,
    golden_section_theta,
    maxent_dual,
    mixture_jacobi,
    mixture_moments,
    random_mixture,
    random_portfolio_problem,
)
from _orthopoly import MomentFunctional, poly_roots_bracketed, ttrr_build


@pytest.fixture()
def announce(capsys):
    def _announce(number: int, ok: bool, detail: str) -> None:
        with capsys.disabled():
            status = "PASS" if ok else "FAIL"
            print(f"[criterion {number}] {status} - {detail}")
        assert ok, detail

    return _announce


def test_criterion_1_moment_exactness(announce):
    start = time.perf_counter()
    rng = np.random.default_rng(1001)
    worst = 0.0
    for trial in range(100):
        mix = random_mixture(rng)
        data = sample_mixture(mix, 500, replication_rng(1002, 500, trial))
        target = sample_moments(data, 13)
        for n in range(2, 8):
            dist = discretize_data(data, n)
            for k in range(2 * n):
                err = abs(expectation(dist, lambda x: x**k) - target[k]) / max(1.0, abs(target[k]))
                worst = max(worst, err)
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-8 and elapsed < 5.0
    announce(
        1,
        ok,
        f"100 datasets x N=2..7: worst relative moment error {worst:.3e} "
        f"(tol 1e-8), {elapsed:.2f}s (cap 5s)",
    )


def test_criterion_2_gauss_hermite_closed_forms(announce):
    start = time.perf_counter()
    # Independent oracle: roots of the degree-2/3 monic Hermite polynomials
    # built by the recurrence, plus the known closed forms.
    polys, _ = ttrr_build(MomentFunctional(gaussian_moments(0.0, 1.0, 6)), 3)
    oracle2 = poly_roots_bracketed(polys[2])
    oracle3 = poly_roots_bracketed(polys[3])
    np.testing.assert_allclose(oracle2, [-1.0, 1.0], atol=1e-12)
    np.testing.assert_allclose(oracle3, [-math.sqrt(3.0), 0.0, math.sqrt(3.0)], atol=1e-12)

    rule2 = _standard_normal_rule(2)
    rule3 = _standard_normal_rule(3)
    err = max(
        float(np.max(np.abs(np.asarray(rule2.nodes) - oracle2))),
        float(np.max(np.abs(np.asarray(rule2.weights) - np.array([0.5, 0.5])))),
        float(np.max(np.abs(np.asarray(rule3.nodes) - oracle3))),
        float(np.max(np.abs(np.asarray(rule3.weights) - np.array([1 / 6, 2 / 3, 1 / 6])))),
    )
    elapsed = time.perf_counter() - start
    ok = err <= 1e-10 and elapsed < 1.0
    announce(2, ok, f"N=2,3 nodes/weights worst abs error {err:.3e} (tol 1e-10), {elapsed:.2f}s")


def test_criterion_3_oracle_equivalence(announce):
    start = time.perf_counter()
    rng = np.random.default_rng(3003)
    worst = 0.0
    for trial in range(50):
        mix = random_mixture(rng, standardized=True)
        n = 2 + trial % 5
        ms = mixture_moments(mix, 2 * n)
        polys, (diag_recurrence, offdiag_recurrence) = ttrr_build(MomentFunctional(ms), n)
        diag_lanczos, offdiag_lanczos = mixture_jacobi(mix, n)
        nodes, _ = _gauss_rule(diag_lanczos, offdiag_lanczos)
        roots = poly_roots_bracketed(polys[n])
        worst = max(
            worst,
            float(np.max(np.abs(diag_recurrence - diag_lanczos))),
            float(np.max(np.abs(offdiag_recurrence - offdiag_lanczos))),
            float(np.max(np.abs(np.asarray(roots) - nodes))),
        )
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-8 and elapsed < 5.0
    announce(
        3,
        ok,
        f"50 mixtures: moment recurrence vs Lanczos/eigen worst gap {worst:.3e} "
        f"(tol 1e-8), {elapsed:.2f}s",
    )


def test_criterion_4_exact_atom_recovery(announce):
    start = time.perf_counter()
    rng = np.random.default_rng(4004)
    worst = 0.0
    for n in range(1, 7):
        for _ in range(3):
            atoms = np.sort(rng.uniform(-5, 5, n))
            while n > 1 and np.min(np.diff(atoms)) < 0.25:
                atoms = np.sort(rng.uniform(-5, 5, n))
            counts = rng.integers(1, 7, n)
            data = np.repeat(atoms, counts)
            dist = discretize_data(data, n)
            freq = counts / counts.sum()
            worst = max(
                worst,
                float(np.max(np.abs(np.asarray(dist.nodes) - atoms))),
                float(np.max(np.abs(np.asarray(dist.weights) - freq))),
            )
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-8 and elapsed < 1.0
    announce(4, ok, f"atom sets N=1..6: worst node/weight error {worst:.3e} (tol 1e-8), {elapsed:.2f}s")


def test_criterion_5_bias_table_reproduction(announce, paper_report):
    checks = [
        ("np-gq", 2.0, 0.001, 0.005),
        ("gauss-hermite", 2.0, 0.098, 0.010),
        ("gauss-hermite", 4.0, 0.054, 0.008),
        ("gauss-hermite", 6.0, 0.041, 0.008),
    ]
    details = []
    ok = True
    for method, gamma, published, tol in checks:
        cell = paper_report.cell(method, 10000, 5, gamma)
        good = abs(cell.bias - published) <= tol
        ok = ok and good
        details.append(
            f"{method} g={gamma:g}: bias {cell.bias:.4f} vs {published}+/-{tol} "
            f"(run 3se {3 * cell.bias_se:.4f})"
        )
    announce(5, ok, "T=10000 N=5 M=1000: " + "; ".join(details))


def test_criterion_6_mae_table_spot_check(announce, paper_report):
    gh = paper_report.cell("gauss-hermite", 10000, 5, 2.0)
    gq = paper_report.cell("np-gq", 10000, 5, 2.0)
    ok = abs(gh.mae - 0.098) <= 0.010 and abs(gq.mae - 0.021) <= 0.006
    announce(
        6,
        ok,
        f"T=10000 N=5 g=2: gauss-hermite MAE {gh.mae:.4f} vs 0.098+/-0.010; "
        f"np-gq MAE {gq.mae:.4f} vs 0.021+/-0.006",
    )


def test_criterion_7_qualitative_orderings(announce, paper_report):
    cfg = paper_report.config
    violations = []
    for t in cfg.sample_sizes:
        for n in cfg.node_counts:
            for g in cfg.gammas:
                gq = paper_report.cell("np-gq", t, n, g)
                gh = paper_report.cell("gauss-hermite", t, n, g)
                if not gq.bias < gh.bias:
                    violations.append(f"np-gq !< gauss-hermite at ({t},{n},{g})")
    for t in cfg.sample_sizes:
        for g in cfg.gammas:
            gq = paper_report.cell("np-gq", t, 3, g)
            me = paper_report.cell("np-me", t, 3, g)
            slack = 2.0 * math.hypot(gq.bias_se, me.bias_se)
            if not gq.bias <= me.bias + slack:
                violations.append(f"np-gq !<= np-me+2se at ({t},3,{g})")
    ok = not violations
    announce(
        7,
        ok,
        "np-gq < gauss-hermite in all 36 cells and np-gq <= np-me (2se) at N=3"
        if ok
        else "; ".join(violations),
    )


def test_gauss_hermite_bias_positive_everywhere(paper_report, capsys):
    cfg = paper_report.config
    ok = True
    for t in cfg.sample_sizes:
        for n in cfg.node_counts:
            for g in cfg.gammas:
                cell = paper_report.cell("gauss-hermite", t, n, g)
                ok = ok and cell.bias > 3.0 * cell.bias_se
    with capsys.disabled():
        print(f"[invariant] {'PASS' if ok else 'FAIL'} - gauss-hermite bias positive (3se) in all cells")
    assert ok


def test_np_gq_error_shrinks_with_sample_size(paper_report, capsys):
    cfg = paper_report.config
    ok = True
    for n in cfg.node_counts:
        for g in cfg.gammas:
            cells = [paper_report.cell("np-gq", t, n, g) for t in cfg.sample_sizes]
            for small_t, big_t in zip(cells, cells[1:]):
                slack_b = 2.0 * math.hypot(small_t.bias_se, big_t.bias_se)
                slack_m = 2.0 * math.hypot(small_t.mae_se, big_t.mae_se)
                ok = ok and big_t.bias <= small_t.bias + slack_b
                ok = ok and big_t.mae <= small_t.mae + slack_m
    with capsys.disabled():
        print(f"[invariant] {'PASS' if ok else 'FAIL'} - np-gq bias/MAE non-increasing in T (2se)")
    assert ok


def test_criterion_8_maxent_dual_correctness(announce):
    start = time.perf_counter()
    rng = np.random.default_rng(8008)
    worst_moment = 0.0
    worst_grad = 0.0
    for trial in range(20):
        mix = random_mixture(rng)
        data = sample_mixture(mix, 300, replication_rng(8009, 300, trial))
        n = int(rng.integers(3, 10))
        sol = maxent_solve(data, n)
        target = sample_moments(data, sol.n_matched)
        sample = Sample(data)
        (problem,) = _maxent_problems(sample, (n,))
        prior = problem[2]
        z_targets = sample_moments(sample.z, sol.n_matched)[1:]
        grid_z = sample.transform.to_standardized(np.asarray(sol.nodes))
        w = np.asarray(sol.weights)
        feats = np.vander(grid_z, sol.n_matched + 1, increasing=True).T[1:]
        for k in range(1, sol.n_matched + 1):
            worst_moment = max(worst_moment, abs(float(feats[k - 1] @ w) - z_targets[k - 1]))
            raw_err = abs(expectation(sol, lambda x: x**k) - target[k]) / max(1.0, abs(target[k]))
            worst_moment = max(worst_moment, raw_err)
        # central finite differences on the dual at a random tilt; the step
        # balances truncation (third derivative ~ grid_span^12) vs roundoff
        lam = rng.uniform(-0.2, 0.2, sol.n_matched)
        _, grad = maxent_dual(lam, grid_z, prior, z_targets)
        h = 3e-7
        for i in range(sol.n_matched):
            hi, lo = lam.copy(), lam.copy()
            hi[i] += h
            lo[i] -= h
            v_hi, _ = maxent_dual(hi, grid_z, prior, z_targets)
            v_lo, _ = maxent_dual(lo, grid_z, prior, z_targets)
            worst_grad = max(worst_grad, abs(grad[i] - (v_hi - v_lo) / (2 * h)))
    elapsed = time.perf_counter() - start
    ok = worst_moment <= 1e-8 and worst_grad <= 1e-6 and elapsed < 5.0
    announce(
        8,
        ok,
        f"20 instances: worst matched-moment error {worst_moment:.3e} (tol 1e-8), "
        f"worst gradient-FD gap {worst_grad:.3e} (tol 1e-6), {elapsed:.2f}s",
    )


def test_criterion_9_portfolio_solver(announce):
    start = time.perf_counter()
    # Two-state log-utility case; the first-order condition
    #   0.5*(-0.1)/(1 - 0.1 t) + 0.5*(0.2)/(1 + 0.2 t) = 0
    # clears to 0.1 - 0.04 t = 0, i.e. the hand-solved root -(pa+qb)/(ab).
    hand_root = -(0.5 * (-0.1) + 0.5 * 0.2) / ((-0.1) * 0.2)
    dist = DiscreteDistribution(
        nodes=(math.log(0.9), math.log(1.2)), weights=(0.5, 0.5)
    )
    sol = solve_portfolio(dist, 1.0, 1.0)
    two_state_err = abs(sol.theta - hand_root)
    grid_confirm = abs(golden_section_theta(dist, 1.0, 1.0, tol=1e-9) - hand_root)

    rng = np.random.default_rng(9009)
    worst_random = 0.0
    for _ in range(20):
        problem_dist, risk_free = random_portfolio_problem(rng)
        gamma = float(rng.choice([1.0, 2.0, 4.0, 6.0]))
        theta = solve_portfolio(problem_dist, risk_free, gamma).theta
        oracle = golden_section_theta(problem_dist, risk_free, gamma, tol=1e-7)
        worst_random = max(worst_random, abs(theta - oracle))
    elapsed = time.perf_counter() - start
    ok = (
        two_state_err <= 1e-9
        and grid_confirm <= 1e-6
        and worst_random <= 1e-6
        and elapsed < 5.0
    )
    announce(
        9,
        ok,
        f"two-state root {sol.theta:.12f} vs hand-solved {hand_root} "
        f"(err {two_state_err:.2e}, tol 1e-9; grid confirms to {grid_confirm:.2e}); "
        f"20 random problems worst gap to grid oracle {worst_random:.2e} (tol 1e-6), "
        f"{elapsed:.2f}s",
    )


def test_criterion_10_pipeline_property(announce):
    gammas = [2.0, 3.0, 4.0, 5.0, 6.0, 7.0]

    def comparison_errors(log_excess):
        dist_np = discretize_data(log_excess, 5)
        dist_g = gauss_hermite_discretize(log_excess, 5)
        errors = []
        for g in gammas:
            theta_np = solve_portfolio(dist_np, DEFAULT_RISK_FREE, g).theta
            theta_g = solve_portfolio(dist_g, DEFAULT_RISK_FREE, g).theta
            errors.append(theta_g / theta_np - 1.0)
        return errors

    rng = np.random.Generator(np.random.Philox(101010))
    lognormal_x = 0.06 + 0.2 * rng.standard_normal(100_000)
    lognormal_errors = comparison_errors(lognormal_x)

    mixture_x = sample_mixture(DEFAULT_MIXTURE, 100_000, replication_rng(111, 100_000, 0))
    mixture_errors = comparison_errors(mixture_x)

    ok_lognormal = all(abs(e) < 0.02 for e in lognormal_errors)
    ok_mixture = all(e > 0.0 for e in mixture_errors)
    ok = ok_lognormal and ok_mixture
    announce(
        10,
        ok,
        f"lognormal T=1e5: |gaussian/np - 1| max {max(abs(e) for e in lognormal_errors):.4f} "
        f"(< 0.02); crash-tail mixture: errors all positive "
        f"(min {min(mixture_errors):.4f}) over gamma 2..7",
    )
