import importlib.util
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from npgq import (
    DiscreteDistribution,
    ExperimentConfig,
    GaussianMixture,
    InputError,
    NpgqError,
    NumericalError,
    PortfolioSolution,
    UnboundedError,
    gauss_hermite_discretize,
    run_experiment,
    solve_portfolio,
    solve_portfolios,
    theoretical_portfolio,
)
import _oracles
import npgq.cli
import npgq.portfolio
from npgq.experiments import DEFAULT_MIXTURE, DEFAULT_RISK_FREE, replication_rng, sample_mixture
from npgq.portfolio import _THETA_RTOL
from npgq.quadrature import _gauss_rule, _mixture_rule

from _oracles import (
    crra_foc,
    crra_objective,
    gaussian_moments,
    golub_welsch,
    golden_section_theta,
    mixture_jacobi,
    mixture_moments,
    mixture_variance,
    mp_mixture_rule,
    random_mixture,
    random_portfolio_problem,
    reference_solve_portfolio,
    state_returns,
)


def two_state_problem(returns, weights, risk_free, gamma):
    """``(dist, risk_free, gamma)``: the arguments of :func:`solve_portfolio`."""
    nodes = tuple(math.log(r / risk_free) for r in returns)
    return DiscreteDistribution(nodes=nodes, weights=weights), risk_free, gamma


class TestStateReturns:
    def test_zero_log_excess_gives_risk_free(self):
        dist = DiscreteDistribution(nodes=(0.0,), weights=(1.0,))
        np.testing.assert_allclose(state_returns(dist, 1.07), [1.07])

    def test_log_two(self):
        dist = DiscreteDistribution(nodes=(math.log(2.0),), weights=(1.0,))
        np.testing.assert_allclose(state_returns(dist, 1.0), [2.0])

    def test_historical_rate(self):
        dist = DiscreteDistribution(nodes=(0.05,), weights=(1.0,))
        assert state_returns(dist, 1.0045)[0] == pytest.approx(1.0045 * math.exp(0.05), rel=1e-14)

    def test_rejects_bad_rate(self):
        dist = DiscreteDistribution(nodes=(0.0,), weights=(1.0,))
        with pytest.raises(InputError):
            state_returns(dist, 0.0)


class TestCrraObjective:
    def test_all_risk_free_gamma_two(self):
        p = two_state_problem((0.9, 1.2), (0.5, 0.5), 1.0, 2.0)
        assert crra_objective(*p, 0.0) == pytest.approx(-1.0, rel=1e-14)

    def test_all_risk_free_log_utility(self):
        p = two_state_problem((0.9, 1.2), (0.5, 0.5), 1.07, 1.0)
        assert crra_objective(*p, 0.0) == pytest.approx(math.log(1.07), rel=1e-14)

    def test_two_state_half_share(self):
        p = two_state_problem((0.9, 1.2), (0.5, 0.5), 1.0, 1.0)
        expected = 0.5 * (math.log(0.95) + math.log(1.10))
        assert crra_objective(*p, 0.5) == pytest.approx(expected, rel=1e-14)

    def test_infeasible_share_rejected(self):
        p = two_state_problem((0.9, 1.2), (0.5, 0.5), 1.0, 2.0)
        with pytest.raises(InputError):
            crra_objective(*p, 11.0)  # worst state return 1 - 1.1 < 0


class TestSolvePortfolio:
    def test_two_state_log_utility_hand_solved(self):
        # FOC: 0.5*(-0.1)/(1 - 0.1 t) + 0.5*(0.2)/(1 + 0.2 t) = 0.
        # Clearing denominators: -0.1(1 + 0.2 t) + 0.2(1 - 0.1 t) = 0
        #   => 0.1 - 0.04 t = 0 => t = 2.5.
        p = two_state_problem((0.9, 1.2), (0.5, 0.5), 1.0, 1.0)
        hand_root = -(0.5 * (-0.1) + 0.5 * 0.2) / ((-0.1) * 0.2)
        assert hand_root == pytest.approx(2.5, rel=1e-15)
        sol = solve_portfolio(*p)
        assert sol.theta == pytest.approx(hand_root, abs=1e-9)
        oracle = golden_section_theta(p[0], 1.0, 1.0)
        assert sol.theta == pytest.approx(oracle, abs=1e-6)

    def test_first_order_condition_satisfied(self):
        p = two_state_problem((0.85, 1.25), (0.4, 0.6), 1.01, 3.0)
        sol = solve_portfolio(*p)
        assert abs(sol.foc_residual) <= 1e-9 * max(sol.foc_scale, 1e-300)

    def test_degenerate_all_states_risk_free(self):
        dist = DiscreteDistribution(nodes=(0.0,), weights=(1.0,))
        sol = solve_portfolio(dist, 1.02, 2.0)
        assert sol.theta == 0.0
        assert sol.degenerate

    def test_unbounded_when_all_states_beat_risk_free(self):
        dist = DiscreteDistribution(nodes=(0.01, 0.3), weights=(0.5, 0.5))
        with pytest.raises(UnboundedError):
            solve_portfolio(dist, 1.0, 2.0)
        dist = DiscreteDistribution(nodes=(-0.3, -0.01), weights=(0.5, 0.5))
        with pytest.raises(UnboundedError):
            solve_portfolio(dist, 1.0, 2.0)

    def test_matches_grid_search_oracle(self):
        rng = np.random.default_rng(61)
        for _ in range(20):
            dist, risk_free = random_portfolio_problem(rng)
            gamma = float(rng.choice([1.0, 2.0, 3.5, 5.0, 8.0]))
            sol = solve_portfolio(dist, risk_free, gamma)
            oracle = golden_section_theta(dist, risk_free, gamma, tol=1e-7)
            assert sol.theta == pytest.approx(oracle, abs=1e-6)
            assert abs(sol.foc_residual) <= 1e-9 * max(sol.foc_scale, 1e-300)

    def test_scale_invariant_in_weights(self):
        nodes = (-0.2, 0.05, 0.3)
        weights = (0.2, 0.5, 0.3)
        scaled = tuple(7.0 * w for w in weights)
        base = solve_portfolio(DiscreteDistribution(nodes=nodes, weights=weights), 1.0045, 4.0)
        big = solve_portfolio(DiscreteDistribution(nodes=nodes, weights=scaled), 1.0045, 4.0)
        assert big.theta == pytest.approx(base.theta, abs=1e-11)

    def test_negative_share_when_premium_negative(self):
        dist = DiscreteDistribution(nodes=(-0.3, 0.05), weights=(0.5, 0.5))
        sol = solve_portfolio(dist, 1.0, 2.0)
        assert sol.theta < 0.0
        oracle = golden_section_theta(dist, 1.0, 2.0)
        assert sol.theta == pytest.approx(oracle, abs=1e-6)


class TestOptimumAtTheWipeOutBound:
    """The 50-point Gauss-Hermite rule of replication 0 (default seed,
    T = 10000) puts weight 1.0e-37 on its lowest node, and at gamma = 2 its
    optimum lies within 2e-12 (relative) of the wipe-out bound."""

    @staticmethod
    def _rule():
        cfg = ExperimentConfig()
        data = sample_mixture(cfg.mixture, 10_000, replication_rng(cfg.seed, 10_000, 0))
        return gauss_hermite_discretize(data, 50)

    def test_solves_next_to_the_bound(self):
        rule, rf = self._rule(), DEFAULT_RISK_FREE
        assert min(rule.weights) < 1.1e-37
        theta = solve_portfolio(rule, rf, 2.0).theta
        bound = -1.0 / math.expm1(min(rule.nodes))
        assert bound * (1.0 - 2e-12) < theta < bound
        assert crra_foc(rule, rf, 2.0, theta * (1.0 - 2e-12)) > 0.0
        assert crra_foc(rule, rf, 2.0, bound) == -math.inf
        assert theta == pytest.approx(golden_section_theta(rule, rf, 2.0), rel=1e-8)

    def test_the_study_counts_no_gauss_hermite_failure(self):
        cfg = ExperimentConfig(sample_sizes=(10_000,), node_counts=(5, 50), replications=2)
        cells = run_experiment(cfg).cells
        assert sum(c.failures for c in cells if c.method == "gauss-hermite") == 0


class TestTheoreticalPortfolio:
    def test_two_atom_mixture_equals_direct_solve(self):
        mix = GaussianMixture(proportions=(0.3, 0.7), means=(-0.2, 0.1), stds=(0.0, 0.0))
        via_quadrature = theoretical_portfolio(mix, 1.0045, 3.0)
        dist = DiscreteDistribution(nodes=(-0.2, 0.1), weights=(0.3, 0.7))
        direct = solve_portfolio(dist, 1.0045, 3.0).theta
        assert via_quadrature == pytest.approx(direct, abs=1e-9)

    def test_single_component_equals_gauss_hermite_solve(self):
        mix = GaussianMixture(proportions=(1.0,), means=(0.06,), stds=(0.2,))
        via_mixture = theoretical_portfolio(mix, 1.0045, 2.0)
        base = golub_welsch(gaussian_moments(0.0, 1.0, 22), 11)
        dist = DiscreteDistribution(
            nodes=tuple(0.06 + 0.2 * x for x in base.nodes), weights=base.weights
        )
        direct = solve_portfolio(dist, 1.0045, 2.0).theta
        assert via_mixture == pytest.approx(direct, abs=1e-9)

    def test_default_mixture_rule_against_mpmath_moment_route(self):
        # Weighted Lanczos at N = 11, on the default mixture's component
        # Gauss-Hermite nodes in data units, against the 80-digit moment route.
        nodes, weights = mp_mixture_rule(DEFAULT_MIXTURE, 11)
        got_nodes, got_weights = _gauss_rule(*mixture_jacobi(DEFAULT_MIXTURE, 11))
        std = math.sqrt(mixture_variance(DEFAULT_MIXTURE))
        np.testing.assert_allclose(got_nodes, nodes, rtol=0, atol=1e-13 * std)
        np.testing.assert_allclose(got_weights, weights, rtol=1e-13)

    @pytest.mark.parametrize("mix", [
        GaussianMixture(proportions=(0.3, 0.7), means=(-0.2, 0.1), stds=(0.0, 0.0)),
        GaussianMixture(proportions=(0.2, 0.5, 0.3), means=(-0.3, 0.05, 0.2), stds=(0.0,) * 3),
    ])
    def test_atom_mixture_rule_has_its_support_size(self, mix):
        # An atom's eleven nodes are equal and merge into one node.
        rule = _mixture_rule(mix)
        assert rule.nodes == mix.means
        np.testing.assert_allclose(rule.weights, mix.proportions, rtol=1e-14)

    def test_mixture_rule_matches_the_mixture_moments_to_degree_21(self):
        # Random mixtures, some with atoms and some with a component given
        # twice, whose nodes merge; errors relative to sum w |x|^k.
        rng = np.random.default_rng(2024)
        worst = 0.0
        for trial in range(200):
            mix = random_mixture(rng)
            p, m, s = (list(v) for v in (mix.proportions, mix.means, mix.stds))
            if trial % 3 == 1:
                s[0] = 0.0
            if trial % 3 == 2:
                p, m, s = [p[0] / 2, p[0] / 2] + p[1:], m[:1] + m, s[:1] + s
            mix = GaussianMixture(proportions=tuple(p), means=tuple(m), stds=tuple(s))
            rule = _mixture_rule(mix)
            assert len(rule) == sum(1 if sd == 0.0 else 11 for _, sd in set(zip(m, s)))
            x, w = np.array(rule.nodes), np.array(rule.weights)
            target = mixture_moments(mix, 21).values
            for k in range(22):
                err = abs(math.fsum(w * x**k) - target[k]) / math.fsum(w * np.abs(x) ** k)
                worst = max(worst, err)
        assert worst <= 1e-13

    def test_theta_star_against_a_200_node_component_reference(self):
        # Each component by numpy's own 200-node Gauss-Hermite rule.
        x, w = np.polynomial.hermite_e.hermegauss(200)
        w /= math.sqrt(2.0 * math.pi)
        mix = DEFAULT_MIXTURE
        nodes = np.concatenate([m + s * x for m, s in zip(mix.means, mix.stds)])
        weights = np.concatenate([p * w for p in mix.proportions])
        order = np.argsort(nodes)
        nodes, weights = nodes[order], weights[order]
        keep = weights > 0.0
        reference = DiscreteDistribution(nodes=nodes[keep], weights=weights[keep])
        for gamma in (2.0, 4.0, 6.0):
            expected = solve_portfolio(reference, DEFAULT_RISK_FREE, gamma).theta
            got = theoretical_portfolio(mix, DEFAULT_RISK_FREE, gamma)
            assert abs(got / expected - 1.0) <= 1e-13

    def test_one_atom(self):
        # One node: one-signed excess returns have no interior optimum, and
        # an atom at 0 leaves the flat objective's degenerate share.
        atom = GaussianMixture(proportions=(1.0,), means=(0.05,), stds=(0.0,))
        with pytest.raises(UnboundedError):
            theoretical_portfolio(atom, DEFAULT_RISK_FREE, 2.0)
        zero = GaussianMixture(proportions=(1.0,), means=(0.0,), stds=(0.0,))
        assert theoretical_portfolio(zero, DEFAULT_RISK_FREE, 2.0) == 0.0

    def test_golden_values_for_default_mixture(self):
        # Frozen after computation with the objective-only grid/golden-section
        # oracle (agreement ~3e-8, the oracle's own resolution floor).
        golden = {2.0: 0.9555891653, 4.0: 0.4982598384, 6.0: 0.3351840854}
        for gamma, expected in golden.items():
            value = theoretical_portfolio(DEFAULT_MIXTURE, DEFAULT_RISK_FREE, gamma)
            assert value == pytest.approx(expected, abs=1e-7)

    def test_decreasing_in_risk_aversion(self):
        thetas = [
            theoretical_portfolio(DEFAULT_MIXTURE, DEFAULT_RISK_FREE, g)
            for g in (2.0, 4.0, 6.0)
        ]
        assert thetas[0] > thetas[1] > thetas[2]


def assert_matches_reference(problem, result):
    """``result`` is what the scalar reference bisection gives for
    ``problem``, a ``(dist, risk_free, gamma)`` tuple.

    A theta may move only where a first-order condition sign flips at
    rounding level (sequential sum against ``math.fsum``), which bounds
    the move by the final bracket.  An overflow that escaped the
    reference as a bare ``OverflowError`` is a ``NumericalError`` now.
    """
    try:
        expected = reference_solve_portfolio(*problem)
    except OverflowError:
        assert isinstance(result, NumericalError)
        assert str(result) == "first-order condition overflows at the optimum"
        return
    except NpgqError as exc:
        assert type(result) is type(exc)
        assert str(result) == str(exc)
        return
    assert isinstance(result, PortfolioSolution)
    assert result.degenerate == expected.degenerate
    assert abs(result.theta - expected.theta) <= 2 * _THETA_RTOL * max(1.0, abs(expected.theta))


def _outcome(problem):
    try:
        return solve_portfolio(*problem)
    except NpgqError as exc:
        return exc


def _cancelling_problem(gamma):
    """Two states whose first-order terms cancel exactly at theta = 0."""
    nodes = (-0.3, 0.2)
    d = [math.expm1(x) for x in nodes]
    return DiscreteDistribution(nodes, (d[1], -d[0])), 1.0, gamma


def _two_state(nodes, weights, risk_free, gamma):
    return DiscreteDistribution(nodes, weights), risk_free, gamma


def _spy_on_nonfinite_sums(monkeypatch):
    """A list that gets, per first-order evaluation, the number of columns
    whose sum is not finite: those the binding state's sign decides."""
    counts, foc = [], npgq.portfolio._foc

    def spy(theta, excess, wd, neg_gamma):
        f = np.add.accumulate(wd * (1.0 + theta * excess) ** neg_gamma, axis=0)[-1]
        counts.append(np.count_nonzero(~np.isfinite(f)))
        return foc(theta, excess, wd, neg_gamma)

    monkeypatch.setattr(npgq.portfolio, "_foc", spy)
    return counts


EDGE_PROBLEMS = {
    "degenerate": _two_state((0.0,), (1.0,), 1.02, 2.0),
    "unbounded-above": _two_state((0.01, 0.3), (0.5, 0.5), 1.0, 2.0),
    "unbounded-below": _two_state((-0.3, -0.01), (0.5, 0.5), 1.0, 2.0),
    "f0-zero": _cancelling_problem(3.0),
    "log-utility": _two_state((math.log(0.9), math.log(1.2)), (0.5, 0.5), 1.0, 1.0),
    "negative-share": _two_state((-0.3, 0.05), (0.5, 0.5), 1.0, 2.0),
    # At the rates below, a term's power of the gross return overflowed
    # near the optimum or everywhere.  The solve runs at rate 1, so each is
    # its rate-1 share and nothing overflows.
    "overflow-at-limit-log": _two_state((-0.5, 0.3), (0.05, 0.95), 1e-300, 1.0),
    "overflow-at-limit": _two_state((-0.5, 0.3), (0.01, 0.99), 1e-150, 2.0),
    "overflow-near-bound": _two_state((-0.5, 0.3), (1e-12, 1.0), 3.8e-149, 2.0),
    "overflow-everywhere": _two_state((-0.5, 0.3), (0.3, 0.7), 1e-31, 10.0),
    # The optimum lies where the worst state's portfolio return is 1.1 times
    # the 10**(-308.25 / 50) at which its power overflows: evaluations past
    # it overflow, and the binding (worst) state decides their sign.
    "overflow-near-the-optimum": _two_state((-0.5, 0.3), (1e-320, 1.0), 1.0, 50.0),
    # There the worst state's return is 0.8 times that point (gamma 40).
    "overflow-at-the-optimum": _two_state((-0.5, 0.3), (5e-324, 1.0), 1.0, 40.0),
}

RATES = st.one_of(st.floats(0.5, 2.0), st.sampled_from([1e-300, 1e-150, 1e-31, 1e-25, 1e20]))
# Bad risk aversions are InputError values in their own column.
GAMMAS = st.one_of(st.just(1.0), st.floats(1.0, 10.0), st.sampled_from([0.0, -2.0, math.nan, math.inf]))


def assert_grid_matches_reference(dists, risk_free, gammas, grid):
    """One row per rule and one column per gamma, each the reference's."""
    assert len(grid) == len(dists)
    for dist, row in zip(dists, grid):
        assert len(row) == len(gammas)
        for gamma, result in zip(gammas, row):
            assert_matches_reference((dist, risk_free, gamma), result)


def assert_root_within_tolerance(problem, theta):
    """The exactly summed first-order condition changes sign across
    ``theta +- 2 * _THETA_RTOL * max(1, |theta|)``; past a wipe-out bound
    it is that bound's infinite limit.  The check does not depend on the
    steps that found theta."""
    delta = 2 * _THETA_RTOL * max(1.0, abs(theta))
    assert crra_foc(*problem, theta - delta) >= 0.0 >= crra_foc(*problem, theta + delta)


class TestEngineMatchesReference:
    @pytest.mark.parametrize("name", sorted(EDGE_PROBLEMS))
    def test_edge_case(self, name):
        dist, risk_free, gamma = EDGE_PROBLEMS[name]
        ((result,),) = solve_portfolios([dist], risk_free, [gamma])
        assert_matches_reference(EDGE_PROBLEMS[name], result)

    def test_edge_cases_exercise_their_branch(self, monkeypatch):
        assert _outcome(EDGE_PROBLEMS["degenerate"]).degenerate
        assert _outcome(EDGE_PROBLEMS["f0-zero"]).theta == 0.0
        nonfinite = _spy_on_nonfinite_sums(monkeypatch)
        for name in ("overflow-at-limit-log", "overflow-at-limit", "overflow-near-bound", "overflow-everywhere"):
            dist, rf, gamma = EDGE_PROBLEMS[name]
            assert _outcome((dist, rf, gamma)) == solve_portfolio(dist, 1.0, gamma)
        assert not any(nonfinite)
        problem = EDGE_PROBLEMS["overflow-near-the-optimum"]
        theta = _outcome(problem).theta
        assert any(nonfinite)
        # The binding state decided right.
        assert_root_within_tolerance(problem, theta)
        with pytest.raises(NumericalError, match="overflows at the optimum"):
            solve_portfolio(*EDGE_PROBLEMS["overflow-at-the-optimum"])

    @given(
        st.lists(
            st.tuples(
                st.lists(st.floats(-3.0, 3.0), min_size=1, max_size=9, unique=True),
                st.lists(st.floats(0.01, 5.0), min_size=9, max_size=9),
            ),
            min_size=1,
            max_size=4,
        ),
        RATES,
        st.lists(GAMMAS, min_size=1, max_size=4),
    )
    @settings(max_examples=150, deadline=None)
    def test_random_batches(self, rules, risk_free, gammas):
        dists = [
            DiscreteDistribution(tuple(sorted(nodes)), tuple(weights[: len(nodes)]))
            for nodes, weights in rules
        ]
        grid = solve_portfolios(dists, risk_free, gammas)
        assert_grid_matches_reference(dists, risk_free, gammas, grid)
        for dist, row in zip(dists, grid):
            for gamma, result in zip(gammas, row):
                if isinstance(result, PortfolioSolution) and not result.degenerate:
                    assert_root_within_tolerance((dist, risk_free, gamma), result.theta)

    @pytest.mark.parametrize("risk_free", [0.0, -1.0, math.nan, math.inf])
    def test_bad_rate_raises(self, risk_free):
        dist = DiscreteDistribution((-0.2, 0.1), (0.5, 0.5))
        with pytest.raises(InputError, match="risk-free rate must be positive"):
            solve_portfolios([dist], risk_free, [2.0])
        with pytest.raises(InputError, match="risk-free rate must be positive"):
            solve_portfolio(dist, risk_free, 2.0)


def _random_rules(rng, count):
    return [random_portfolio_problem(rng, max_states=9)[0] for _ in range(count)]


def _spy_on_evaluations(monkeypatch):
    """A list that gets the column count of every first-order evaluation
    of the engine, and one that gets an entry per evaluation of the
    reference bisection."""
    engine, reference = [], []
    foc, crra_foc = npgq.portfolio._foc, _oracles.crra_foc
    monkeypatch.setattr(npgq.portfolio, "_foc", lambda theta, *args: engine.append(theta.size) or foc(theta, *args))
    monkeypatch.setattr(_oracles, "crra_foc", lambda *args: reference.append(1) or crra_foc(*args))
    return engine, reference


def _evaluations(problem, engine, reference):
    """The engine's and the reference's evaluation counts for one problem,
    and their shares."""
    del engine[:], reference[:]
    theta = solve_portfolio(*problem).theta
    expected = reference_solve_portfolio(*problem).theta
    return sum(engine), len(reference), theta, expected


class TestEvaluationCounts:
    def test_fewer_evaluations_than_the_reference(self, monkeypatch):
        # Safeguarded Newton takes a handful of evaluations where bisection
        # takes about 42, and lands within the resolution of its share.
        engine, reference = _spy_on_evaluations(monkeypatch)
        rng = np.random.default_rng(7)
        counts = []
        for rate in (0.98, 1.0045, 1.05, 1.02):
            for dist in _random_rules(rng, 10):
                for gamma in (1.0, 2.0, 4.0, 6.0, 8.5):
                    n, n_ref, theta, expected = _evaluations((dist, rate, gamma), engine, reference)
                    assert n <= n_ref
                    assert abs(theta - expected) <= 2 * _THETA_RTOL * max(1.0, abs(expected))
                    counts.append(n)
        assert len(counts) == 200
        assert np.mean(counts) <= 10.0

    def test_at_most_eight_per_column_on_study_and_cli_traffic(self, monkeypatch, tmp_path):
        engine, _ = _spy_on_evaluations(monkeypatch)
        columns, stack = [], npgq.portfolio._newton_stack
        monkeypatch.setattr(npgq.portfolio, "_newton_stack", lambda excess, *args: columns.append(excess.shape[1]) or stack(excess, *args))
        run_experiment(ExperimentConfig(replications=1))
        assert sum(engine) <= 8.0 * sum(columns)
        del engine[:], columns[:]
        # The 15 return files of the benchmark's portfolio_cli workload.
        spec = importlib.util.spec_from_file_location("bench_inputs", Path(__file__).parents[1] / "bench" / "inputs.py")
        inputs = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(inputs)
        for k, table in enumerate(inputs.portfolio_tables(1)):
            path = tmp_path / f"{k}.csv"
            path.write_text(inputs.table_csv(table))
            for method in ("np-gq", "np-me"):
                argv = ["portfolio", str(path), "--stock", "stock", "--riskfree", "riskfree",
                        "--inflation", "inflation", "--n", "5", "--method", method, "--output", str(tmp_path / "out.csv")]
                assert npgq.cli.main(argv) == 0
        assert sum(columns) == 15 * 2 * 2 * 13
        assert sum(engine) <= 8.0 * sum(columns)

    def test_optimum_next_to_the_wipe_out_bound(self, monkeypatch):
        # The lowest state's weight puts each optimum 1e-15 to 1e-11
        # (relative) short of its wipe-out bound, where Newton's steps from
        # the safe side leave the bracket and its steps from the steep side
        # are short.  Every share keeps to the resolution; a column needs
        # about as many evaluations as bisection, and at most two more.
        engine, reference = _spy_on_evaluations(monkeypatch)
        rng = np.random.default_rng(11)
        counts, reference_counts = [], []
        while len(counts) < 500:
            nodes = np.sort(rng.uniform(-1.0, 1.0, int(rng.integers(2, 9))))
            if nodes[0] >= -0.05 or nodes[-1] <= 0.05:
                continue
            excess, weights = np.expm1(nodes), rng.uniform(0.1, 1.0, nodes.size)
            gamma = float(rng.choice([1.0, 2.0, 3.0, 5.0, 8.0]))
            delta = 10.0 ** rng.uniform(-15.0, -11.0)
            rest = weights[1:] * excess[1:] * (1.0 - (1.0 - delta) * excess[1:] / excess[0]) ** -gamma
            weights[0] = rest.sum() * delta**gamma / -excess[0]
            if not weights[0] > 1e-300:
                continue
            problem = DiscreteDistribution(tuple(nodes.tolist()), tuple(weights.tolist())), 1.0, gamma
            n, n_ref, theta, expected = _evaluations(problem, engine, reference)
            assert abs(theta - expected) <= 2 * _THETA_RTOL * max(1.0, abs(expected))
            assert_root_within_tolerance(problem, theta)
            assert n <= n_ref + 2
            counts.append(n)
            reference_counts.append(n_ref)
        assert np.mean(counts) < np.mean(reference_counts)


class TestRateScale:
    def test_tiny_rates_give_the_rate_one_share(self):
        # The share solves sum w e (1 + theta e)**-gamma = 0, e = expm1(x),
        # whatever the rate; R_f**-gamma alone overflows at these rates.
        dist = DiscreteDistribution((-0.5, 0.3), (0.01, 0.99))
        at_one = solve_portfolio(dist, 1.0, 2.0)
        assert at_one.theta == pytest.approx(2.0741, abs=1e-4)
        for rate in np.linspace(7e-155, 7e-154, 400).tolist():
            assert solve_portfolio(dist, rate, 2.0) == at_one

    @pytest.mark.parametrize("rate", [1e-300, 1e-30, 0.5, 1.0045, 1e30, 1e300])
    def test_every_rate_gives_the_rate_one_grid(self, rate):
        rng = np.random.default_rng(3)
        dists, gammas = _random_rules(rng, 6), [1.0, 2.0, 5.0, 10.0]
        assert solve_portfolios(dists, rate, gammas) == solve_portfolios(dists, 1.0, gammas)


class TestBatchInvariance:
    def test_alone_equals_inside_a_shuffled_mixed_batch(self):
        # Per rate, one grid of random rules (and the edge problems at that
        # rate) by risk aversions, its rows and columns shuffled.
        rng = np.random.default_rng(5)
        edge_rates = {rf for _, rf, _ in EDGE_PROBLEMS.values()}
        for rate in sorted(edge_rates | {1.0045}):
            dists = _random_rules(rng, 12) + [d for d, rf, _ in EDGE_PROBLEMS.values() if rf == rate]
            gammas = [1.0, 2.0, 3.0, 4.0, 10.0, 0.0]
            rows, cols = rng.permutation(len(dists)), rng.permutation(len(gammas))
            grid = solve_portfolios([dists[i] for i in rows], rate, [gammas[j] for j in cols])
            for i, row in zip(rows, grid):
                for j, result in zip(cols, row):
                    alone = _outcome((dists[i], rate, gammas[j]))
                    if isinstance(alone, NpgqError):
                        assert type(result) is type(alone) and str(result) == str(alone)
                    else:
                        assert result == alone

    def test_empty_batch(self):
        dist = DiscreteDistribution((-0.2, 0.1), (0.5, 0.5))
        assert solve_portfolios([], 1.0045, [2.0]) == []
        assert solve_portfolios([dist], 1.0045, []) == [[]]

    def test_one_problem_is_solve_portfolio(self):
        dist, rf, gamma = _two_state((-0.2, 0.05, 0.3), (0.2, 0.5, 0.3), 1.0045, 4.0)
        assert solve_portfolios([dist], rf, [gamma]) == [[solve_portfolio(dist, rf, gamma)]]
