import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from npgq import (
    DiscreteDistribution,
    GaussianMixture,
    InputError,
    NpgqError,
    NumericalError,
    PortfolioProblem,
    PortfolioSolution,
    UnboundedError,
    solve_portfolio,
    solve_portfolios,
    theoretical_portfolio,
)
from npgq.experiments import DEFAULT_MIXTURE, DEFAULT_RISK_FREE
from npgq.moments import _standardized_mixture
from npgq.portfolio import _BISECT_RTOL, _mixture_rule

from _oracles import (
    crra_objective,
    gaussian_moments,
    golub_welsch,
    golden_section_theta,
    mp_mixture_rule,
    random_portfolio_problem,
    reference_solve_portfolio,
    state_returns,
)


def two_state_problem(returns, weights, risk_free, gamma):
    nodes = tuple(math.log(r / risk_free) for r in returns)
    dist = DiscreteDistribution(nodes=nodes, weights=weights)
    return PortfolioProblem(dist=dist, risk_free=risk_free, gamma=gamma)


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
        assert crra_objective(p, 0.0) == pytest.approx(-1.0, rel=1e-14)

    def test_all_risk_free_log_utility(self):
        p = two_state_problem((0.9, 1.2), (0.5, 0.5), 1.07, 1.0)
        assert crra_objective(p, 0.0) == pytest.approx(math.log(1.07), rel=1e-14)

    def test_two_state_half_share(self):
        p = two_state_problem((0.9, 1.2), (0.5, 0.5), 1.0, 1.0)
        expected = 0.5 * (math.log(0.95) + math.log(1.10))
        assert crra_objective(p, 0.5) == pytest.approx(expected, rel=1e-14)

    def test_infeasible_share_rejected(self):
        p = two_state_problem((0.9, 1.2), (0.5, 0.5), 1.0, 2.0)
        with pytest.raises(InputError):
            crra_objective(p, 11.0)  # worst state return 1 - 1.1 < 0


class TestSolvePortfolio:
    def test_two_state_log_utility_hand_solved(self):
        # FOC: 0.5*(-0.1)/(1 - 0.1 t) + 0.5*(0.2)/(1 + 0.2 t) = 0.
        # Clearing denominators: -0.1(1 + 0.2 t) + 0.2(1 - 0.1 t) = 0
        #   => 0.1 - 0.04 t = 0 => t = 2.5.
        p = two_state_problem((0.9, 1.2), (0.5, 0.5), 1.0, 1.0)
        hand_root = -(0.5 * (-0.1) + 0.5 * 0.2) / ((-0.1) * 0.2)
        assert hand_root == pytest.approx(2.5, rel=1e-15)
        sol = solve_portfolio(p)
        assert sol.theta == pytest.approx(hand_root, abs=1e-9)
        oracle = golden_section_theta(p.dist, 1.0, 1.0)
        assert sol.theta == pytest.approx(oracle, abs=1e-6)

    def test_first_order_condition_satisfied(self):
        p = two_state_problem((0.85, 1.25), (0.4, 0.6), 1.01, 3.0)
        sol = solve_portfolio(p)
        assert abs(sol.foc_residual) <= 1e-9 * max(sol.foc_scale, 1e-300)

    def test_degenerate_all_states_risk_free(self):
        dist = DiscreteDistribution(nodes=(0.0,), weights=(1.0,))
        sol = solve_portfolio(PortfolioProblem(dist=dist, risk_free=1.02, gamma=2.0))
        assert sol.theta == 0.0
        assert sol.degenerate

    def test_unbounded_when_all_states_beat_risk_free(self):
        dist = DiscreteDistribution(nodes=(0.01, 0.3), weights=(0.5, 0.5))
        with pytest.raises(UnboundedError):
            solve_portfolio(PortfolioProblem(dist=dist, risk_free=1.0, gamma=2.0))
        dist = DiscreteDistribution(nodes=(-0.3, -0.01), weights=(0.5, 0.5))
        with pytest.raises(UnboundedError):
            solve_portfolio(PortfolioProblem(dist=dist, risk_free=1.0, gamma=2.0))

    def test_matches_grid_search_oracle(self):
        rng = np.random.default_rng(61)
        for _ in range(20):
            dist, risk_free = random_portfolio_problem(rng)
            gamma = float(rng.choice([1.0, 2.0, 3.5, 5.0, 8.0]))
            sol = solve_portfolio(PortfolioProblem(dist=dist, risk_free=risk_free, gamma=gamma))
            oracle = golden_section_theta(dist, risk_free, gamma, tol=1e-7)
            assert sol.theta == pytest.approx(oracle, abs=1e-6)
            assert abs(sol.foc_residual) <= 1e-9 * max(sol.foc_scale, 1e-300)

    def test_scale_invariant_in_weights(self):
        nodes = (-0.2, 0.05, 0.3)
        weights = (0.2, 0.5, 0.3)
        scaled = tuple(7.0 * w for w in weights)
        base = solve_portfolio(
            PortfolioProblem(
                dist=DiscreteDistribution(nodes=nodes, weights=weights),
                risk_free=1.0045,
                gamma=4.0,
            )
        )
        big = solve_portfolio(
            PortfolioProblem(
                dist=DiscreteDistribution(nodes=nodes, weights=scaled),
                risk_free=1.0045,
                gamma=4.0,
            )
        )
        assert big.theta == pytest.approx(base.theta, abs=1e-11)

    def test_negative_share_when_premium_negative(self):
        dist = DiscreteDistribution(nodes=(-0.3, 0.05), weights=(0.5, 0.5))
        sol = solve_portfolio(PortfolioProblem(dist=dist, risk_free=1.0, gamma=2.0))
        assert sol.theta < 0.0
        oracle = golden_section_theta(dist, 1.0, 2.0)
        assert sol.theta == pytest.approx(oracle, abs=1e-6)


class TestTheoreticalPortfolio:
    def test_two_atom_mixture_equals_direct_solve(self):
        mix = GaussianMixture(proportions=(0.3, 0.7), means=(-0.2, 0.1), stds=(0.0, 0.0))
        via_quadrature = theoretical_portfolio(mix, 1.0045, 3.0)
        dist = DiscreteDistribution(nodes=(-0.2, 0.1), weights=(0.3, 0.7))
        direct = solve_portfolio(
            PortfolioProblem(dist=dist, risk_free=1.0045, gamma=3.0)
        ).theta
        assert via_quadrature == pytest.approx(direct, abs=1e-9)

    def test_single_component_equals_gauss_hermite_solve(self):
        mix = GaussianMixture(proportions=(1.0,), means=(0.06,), stds=(0.2,))
        via_mixture = theoretical_portfolio(mix, 1.0045, 2.0)
        base = golub_welsch(gaussian_moments(0.0, 1.0, 22), 11)
        dist = DiscreteDistribution(
            nodes=tuple(0.06 + 0.2 * x for x in base.nodes), weights=base.weights
        )
        direct = solve_portfolio(
            PortfolioProblem(dist=dist, risk_free=1.0045, gamma=2.0)
        ).theta
        assert via_mixture == pytest.approx(direct, abs=1e-9)

    def test_default_mixture_rule_against_mpmath_moment_route(self):
        # The 80-digit moment route on the same standardized mixture.
        transform, std_mix = _standardized_mixture(DEFAULT_MIXTURE)
        nodes, weights = mp_mixture_rule(std_mix, 11)
        rule = _mixture_rule(DEFAULT_MIXTURE)
        np.testing.assert_allclose(transform.to_standardized(rule.nodes), nodes, rtol=0, atol=1e-13)
        np.testing.assert_allclose(rule.weights, weights, rtol=1e-13)

    @pytest.mark.parametrize("mix", [
        GaussianMixture(proportions=(0.3, 0.7), means=(-0.2, 0.1), stds=(0.0, 0.0)),
        GaussianMixture(proportions=(0.2, 0.5, 0.3), means=(-0.3, 0.05, 0.2), stds=(0.0,) * 3),
    ])
    def test_atom_mixture_rule_has_its_support_size(self, mix):
        # Lanczos breaks down at the atom count, which sets the rule's size.
        rule = _mixture_rule(mix)
        np.testing.assert_allclose(rule.nodes, mix.means, rtol=0, atol=1e-14)
        np.testing.assert_allclose(rule.weights, mix.proportions, rtol=1e-14)

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
    """``result`` is what the scalar reference bisection gives for ``problem``.

    A theta may move only where a first-order condition sign flips at
    rounding level (sequential sum against ``math.fsum``), which bounds
    the move by the final bracket.  An overflow that escaped the
    reference as a bare ``OverflowError`` is a ``NumericalError`` now.
    """
    try:
        expected = reference_solve_portfolio(problem)
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
    assert abs(result.theta - expected.theta) <= 2 * _BISECT_RTOL * max(1.0, abs(expected.theta))


def _outcome(problem):
    try:
        return solve_portfolio(problem)
    except NpgqError as exc:
        return exc


def _cancelling_problem(gamma):
    """Two states whose first-order terms cancel exactly at theta = 0."""
    nodes = (-0.3, 0.2)
    d = [float(r) - 1.0 for r in state_returns(DiscreteDistribution(nodes, (1.0, 1.0)), 1.0)]
    return PortfolioProblem(DiscreteDistribution(nodes, (d[1], -d[0])), 1.0, gamma)


def _two_state(nodes, weights, risk_free, gamma):
    return PortfolioProblem(DiscreteDistribution(nodes, weights), risk_free, gamma)


EDGE_PROBLEMS = {
    "degenerate": _two_state((0.0,), (1.0,), 1.02, 2.0),
    "unbounded-above": _two_state((0.01, 0.3), (0.5, 0.5), 1.0, 2.0),
    "unbounded-below": _two_state((-0.3, -0.01), (0.5, 0.5), 1.0, 2.0),
    "f0-zero": _cancelling_problem(3.0),
    "log-utility": _two_state((math.log(0.9), math.log(1.2)), (0.5, 0.5), 1.0, 1.0),
    "negative-share": _two_state((-0.3, 0.05), (0.5, 0.5), 1.0, 2.0),
    # The bracket grows to the feasibility limit, where a term overflows
    # and the binding (worst) state decides the sign.
    "overflow-at-limit-log": _two_state((-0.5, 0.3), (0.05, 0.95), 1e-300, 1.0),
    "overflow-at-limit": _two_state((-0.5, 0.3), (0.01, 0.99), 1e-150, 2.0),
    # rf ** -gamma overflows at every share, the optimum included.
    "overflow-everywhere": _two_state((-0.5, 0.3), (0.3, 0.7), 1e-31, 10.0),
}


class TestEngineMatchesReference:
    @pytest.mark.parametrize("name", sorted(EDGE_PROBLEMS))
    def test_edge_case(self, name):
        problem = EDGE_PROBLEMS[name]
        assert_matches_reference(problem, _outcome(problem))

    def test_edge_cases_exercise_their_branch(self):
        assert _outcome(EDGE_PROBLEMS["degenerate"]).degenerate
        assert _outcome(EDGE_PROBLEMS["f0-zero"]).theta == 0.0
        for name in ("overflow-at-limit-log", "overflow-at-limit"):
            problem = EDGE_PROBLEMS[name]
            rf = problem.risk_free
            d_min = float(state_returns(problem.dist, rf)[0]) - rf
            upper = -rf / d_min
            limit = upper - min(1e-12 * max(1.0, upper), 0.5 * upper)
            with pytest.raises(OverflowError):
                (rf + limit * d_min) ** -problem.gamma
            # The bracket reaches the limit: the optimum lies past 2.
            assert _outcome(problem).theta > 2.0
        with pytest.raises(NumericalError, match="overflows at the optimum"):
            solve_portfolio(EDGE_PROBLEMS["overflow-everywhere"])

    @given(
        st.lists(
            st.tuples(
                st.lists(st.floats(-3.0, 3.0), min_size=1, max_size=9, unique=True),
                st.lists(st.floats(0.01, 5.0), min_size=9, max_size=9),
                st.one_of(st.floats(0.5, 2.0), st.sampled_from([1e-300, 1e-150, 1e-31, 1e-25, 1e20])),
                st.one_of(st.just(1.0), st.floats(1.0, 10.0)),
            ),
            min_size=1,
            max_size=6,
        )
    )
    @settings(max_examples=150, deadline=None)
    def test_random_batches(self, specs):
        problems = [
            _two_state(tuple(sorted(nodes)), tuple(weights[: len(nodes)]), risk_free, gamma)
            for nodes, weights, risk_free, gamma in specs
        ]
        for problem, result in zip(problems, solve_portfolios(problems)):
            assert_matches_reference(problem, result)


def _random_problems(rng, count):
    problems = []
    for _ in range(count):
        dist, risk_free = random_portfolio_problem(rng, max_states=9)
        gamma = float(rng.choice([1.0, 2.0, 4.0, 6.0, 8.5]))
        problems.append(PortfolioProblem(dist=dist, risk_free=risk_free, gamma=gamma))
    return problems


class TestBatchInvariance:
    def test_same_steps_as_the_reference(self):
        # A sign differs from the exactly rounded sum's only at rounding
        # level, so nearly every share is the reference's bit for bit; a
        # change of the steps (bracket, midpoints, stop rule) moves them all.
        problems = _random_problems(np.random.default_rng(7), 200)
        thetas = [r.theta for r in solve_portfolios(problems)]
        same = sum(t == reference_solve_portfolio(p).theta for p, t in zip(problems, thetas))
        assert same >= 195

    def test_alone_equals_inside_a_shuffled_mixed_batch(self):
        rng = np.random.default_rng(5)
        problems = _random_problems(rng, 60) + list(EDGE_PROBLEMS.values())
        alone = [_outcome(p) for p in problems]
        order = rng.permutation(len(problems))
        batch = solve_portfolios([problems[i] for i in order])
        for i, result in zip(order, batch):
            if isinstance(alone[i], NpgqError):
                assert type(result) is type(alone[i]) and str(result) == str(alone[i])
            else:
                assert result == alone[i]

    def test_empty_batch(self):
        assert solve_portfolios([]) == []

    def test_one_problem_is_solve_portfolio(self):
        problem = _two_state((-0.2, 0.05, 0.3), (0.2, 0.5, 0.3), 1.0045, 4.0)
        assert solve_portfolios([problem]) == [solve_portfolio(problem)]
