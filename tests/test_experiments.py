import hashlib
import math
import os
import pickle
import subprocess
import sys
from dataclasses import astuple, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import ndtri

import npgq.experiments as experiments
import npgq.moments as moments
from npgq import (
    ExperimentConfig,
    GaussianMixture,
    InputError,
    NpgqError,
    discretize_data,
    gauss_hermite_discretize,
    maxent_discretize,
    solve_portfolio,
    parse_config,
    replication_rng,
    run_experiment,
    sample_mixture,
    theoretical_portfolio,
)
from npgq.experiments import DEFAULT_MIXTURE, DEFAULT_RISK_FREE
from npgq.portfolio import _THETA_RTOL

from _oracles import mixture_mean, searchsorted_components, summarize_cell

TWO_ATOM = GaussianMixture(proportions=(0.4, 0.6), means=(-0.15, 0.12), stds=(0.0, 0.0))

SMALL_CFG = ExperimentConfig(
    sample_sizes=(60, 120),
    node_counts=(2, 3),
    gammas=(2.0, 4.0),
    methods=("np-gq", "gauss-hermite"),
    replications=12,
    seed=424242,
)


class TestSampleMixture:
    def test_degenerate_single_component(self):
        mix = GaussianMixture(proportions=(1.0,), means=(0.7,), stds=(0.0,))
        draws = sample_mixture(mix, 50, replication_rng(1, 50, 0))
        np.testing.assert_array_equal(draws, np.full(50, 0.7))

    def test_two_atom_clt_bound(self):
        mix = GaussianMixture(proportions=(0.5, 0.5), means=(-1.0, 1.0), stds=(0.0, 0.0))
        n = 100_000
        draws = sample_mixture(mix, n, replication_rng(2, n, 0))
        assert set(np.unique(draws)) == {-1.0, 1.0}
        assert abs(draws.mean()) < 3.0 / math.sqrt(n)

    def test_default_mixture_mean(self):
        n = 1_000_000
        draws = sample_mixture(DEFAULT_MIXTURE, n, replication_rng(3, n, 0))
        se = draws.std(ddof=1) / math.sqrt(n)
        assert abs(draws.mean() - mixture_mean(DEFAULT_MIXTURE)) < 3.0 * se

    def test_deterministic_under_fixed_substream(self):
        a = sample_mixture(DEFAULT_MIXTURE, 100, replication_rng(7, 100, 5))
        b = sample_mixture(DEFAULT_MIXTURE, 100, replication_rng(7, 100, 5))
        np.testing.assert_array_equal(a, b)

    def test_substreams_differ_across_replications(self):
        a = sample_mixture(DEFAULT_MIXTURE, 100, replication_rng(7, 100, 0))
        b = sample_mixture(DEFAULT_MIXTURE, 100, replication_rng(7, 100, 1))
        assert not np.array_equal(a, b)


class _Uniforms:
    """Stands in for a Generator: ``random(size)`` returns the given arrays in turn."""

    def __init__(self, *arrays):
        self._arrays = iter(arrays)

    def random(self, size):
        out = next(self._arrays)
        assert out.size == size
        return out


def _searchsorted_draws(mix, picks, quantiles):
    """sample_mixture's draws with the reference component pick."""
    comp = searchsorted_components(mix.proportions, picks)
    return np.asarray(mix.means)[comp] + np.asarray(mix.stds)[comp] * ndtri(np.clip(quantiles, 1e-300, None))


@st.composite
def _mixtures_and_picks(draw):
    """A mixture of 1..6 components whose proportions sum to within the 1e-10
    the mixture allows of 1, either side, and uniforms in [0, 1) with each
    cumulative edge, and its neighbouring doubles, among them."""
    k = draw(st.integers(1, 6))
    raw = draw(st.lists(st.floats(1e-3, 1.0), min_size=k, max_size=k))
    drift = draw(st.sampled_from([0.0, -9e-11, 9e-11]) | st.floats(-9e-11, 9e-11))
    total = math.fsum(raw)
    proportions = tuple(min(1.0, v / total * (1.0 + drift)) for v in raw)
    mix = GaussianMixture(proportions=proportions, means=tuple(10.0 * i for i in range(k)), stds=(1.0,) * k)
    near = [v for e in np.cumsum(proportions).tolist() for v in (e, math.nextafter(e, 0.0), math.nextafter(e, 2.0))]
    points = st.sampled_from([v for v in near if 0.0 <= v < 1.0] + [0.0, 1.0 - 2.0**-53])
    picks = draw(st.lists(points | st.floats(0.0, 1.0, exclude_max=True), min_size=1, max_size=40))
    return mix, np.array(picks)


class TestComponentPick:
    """sample_mixture counts the inner edges at or below each uniform: the
    index of a binary search, capped at the last component."""

    @settings(max_examples=300, deadline=None)
    @given(_mixtures_and_picks())
    def test_edge_count_is_the_capped_binary_search(self, case):
        mix, picks = case
        quantiles = np.linspace(0.01, 0.99, picks.size)
        draws = sample_mixture(mix, picks.size, _Uniforms(picks, quantiles))
        assert draws.tobytes() == _searchsorted_draws(mix, picks, quantiles).tobytes()

    @pytest.mark.parametrize("k", range(1, 7))
    def test_generator_draws_are_the_reference_bytes(self, k):
        # The same two uniform arrays are consumed, in the same order.
        proportions = tuple(np.full(k, 1.0 / k).tolist())
        mix = GaussianMixture(proportions=proportions, means=tuple(range(k)), stds=tuple(range(1, k + 1)))
        draws = sample_mixture(mix, 10_000, replication_rng(29, 10_000, k))
        rng = replication_rng(29, 10_000, k)
        picks = rng.random(10_000)
        assert draws.tobytes() == _searchsorted_draws(mix, picks, rng.random(10_000)).tobytes()


def _single_cell(cfg, method, sample_size, node_count, gamma):
    """One (method, T, N, gamma) cell: the study on a singleton grid."""
    single = replace(cfg, methods=(method,), sample_sizes=(sample_size,),
                     node_counts=(node_count,), gammas=(gamma,))
    return run_experiment(single).cells[0]


class TestRunCell:
    def test_exact_recovery_leaves_only_sampling_error(self):
        # Two-atom truth, two nodes: the discretizer returns the sample's
        # own atoms and frequencies, so each replication's share equals
        # the share computed from the empirical distribution directly.
        # (The weights are sample frequencies, so bias/MAE against the
        # population optimum still carry sampling noise.)
        from npgq import DiscreteDistribution, solve_portfolio
        from npgq.quadrature import discretize_data

        cfg = ExperimentConfig(
            mixture=TWO_ATOM,
            sample_sizes=(80,),
            node_counts=(2,),
            gammas=(2.0,),
            methods=("np-gq",),
            replications=25,
            seed=11,
        )
        direct_errors = []
        theta_star = theoretical_portfolio(TWO_ATOM, cfg.risk_free, 2.0)
        for m in range(cfg.replications):
            data = sample_mixture(TWO_ATOM, 80, replication_rng(cfg.seed, 80, m))
            atoms, counts = np.unique(data, return_counts=True)
            empirical = DiscreteDistribution(
                nodes=tuple(atoms), weights=tuple(counts / counts.sum())
            )
            direct = solve_portfolio(empirical, cfg.risk_free, 2.0).theta
            fitted = discretize_data(data, 2)
            via_quadrature = solve_portfolio(fitted, cfg.risk_free, 2.0).theta
            assert via_quadrature == pytest.approx(direct, abs=1e-8)
            direct_errors.append(direct / theta_star - 1.0)
        cell = _single_cell(cfg, "np-gq", 80, 2, 2.0)
        assert cell.failures == 0
        assert cell.n_used == 25
        assert cell.bias == pytest.approx(np.mean(direct_errors), abs=1e-8)
        assert cell.mae == pytest.approx(np.mean(np.abs(direct_errors)), abs=1e-8)

    def test_unknown_method_rejected(self):
        with pytest.raises(InputError):
            _single_cell(SMALL_CFG, "magic", 60, 2, 2.0)


class TestRunExperiment:
    def test_singleton_grid_matches_full_grid_cell(self):
        report = run_experiment(SMALL_CFG)
        for method in SMALL_CFG.methods:
            for t in SMALL_CFG.sample_sizes:
                for n in SMALL_CFG.node_counts:
                    for g in SMALL_CFG.gammas:
                        assert _single_cell(SMALL_CFG, method, t, n, g) == report.cell(method, t, n, g)

    def test_deterministic_bytes(self):
        a = run_experiment(SMALL_CFG).to_csv()
        b = run_experiment(SMALL_CFG).to_csv()
        assert a == b

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_default_study_tables_keep_their_digest(self, jobs):
        # The paper's tables at 20 replications of the default grid.  Unlike
        # to_csv() they read the same under AVX-512 and AVX2 dispatch, so a
        # change that moves a reported digit fails here on any x86 CPU.
        report = run_experiment(ExperimentConfig(replications=20), jobs=jobs)
        assert hashlib.sha256(report.format_tables().encode()).hexdigest() == (
            "6b55b7fdaca4f1a4aaa7a378f301bccb9ab3f05312886d5a818f7d6a31246ee5"
        )

    def test_parallel_matches_serial(self):
        serial = run_experiment(SMALL_CFG, jobs=1)
        parallel = run_experiment(SMALL_CFG, jobs=2)
        assert serial.to_csv() == parallel.to_csv()

    def test_pool_is_capped_at_the_cpu_count(self, monkeypatch):
        # A fake pool records its size and runs the blocks serially, so no
        # process is started whatever ``jobs`` asks for.
        sizes = []

        class SerialPool:
            def __init__(self, processes):
                sizes.append(processes)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def starmap(self, func, tasks, chunksize=1):
                return [func(*task) for task in tasks]

        monkeypatch.setattr(experiments, "Pool", SerialPool)
        report = run_experiment(SMALL_CFG, jobs=100_000)
        assert sizes == [min(100_000, os.cpu_count() or 1)]
        assert report.to_csv() == run_experiment(SMALL_CFG, jobs=1).to_csv()

    def test_spawned_workers_match_serial(self):
        # Under "spawn" each worker re-imports npgq and receives its task by
        # pickling; the report must not depend on the start method.
        probe = (
            "import multiprocessing, pickle, sys\n"
            "if __name__ == '__main__':\n"
            "    multiprocessing.set_start_method('spawn')\n"
            "    from npgq import run_experiment\n"
            "    cfg = pickle.loads(bytes.fromhex(sys.argv[1]))\n"
            "    sys.stdout.write(run_experiment(cfg, jobs=2).to_csv())\n"
        )
        src = os.path.dirname(os.path.dirname(experiments.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        spawned = subprocess.run(
            [sys.executable, "-c", probe, pickle.dumps(SMALL_CFG).hex()],
            env=env, check=True, capture_output=True, text=True,
        ).stdout
        assert spawned == run_experiment(SMALL_CFG, jobs=1).to_csv()

    def test_mae_dominates_bias(self):
        report = run_experiment(SMALL_CFG)
        for cell in report.cells:
            if cell.n_used:
                assert cell.mae >= abs(cell.bias) - 1e-15
                assert cell.failures <= SMALL_CFG.replications

    def test_report_lookup_and_csv_schema(self):
        report = run_experiment(SMALL_CFG)
        cell = report.cell("gauss-hermite", 120, 3, 4.0)
        assert cell.method == "gauss-hermite"
        lines = report.to_csv().splitlines()
        assert lines[0] == "method,T,N,gamma,bias,mae,failures"
        assert len(lines) == 1 + len(report.cells)
        assert len(report.cells) == 2 * 2 * 2 * 2

    def test_tables_render(self):
        report = run_experiment(SMALL_CFG)
        text = report.format_tables()
        assert "Relative bias" in text
        assert "Mean absolute error" in text
        assert "np-gq" in text and "gauss-hermite" in text

    def test_failures_counted_not_fatal(self):
        # N=3 needs >= 3 distinct support points; a two-atom truth makes
        # the third pivot collapse in every replication.
        cfg = ExperimentConfig(
            mixture=TWO_ATOM,
            sample_sizes=(40,),
            node_counts=(2, 3),
            gammas=(2.0,),
            methods=("np-gq",),
            replications=6,
            seed=5,
        )
        report = run_experiment(cfg)
        good = report.cell("np-gq", 40, 2, 2.0)
        bad = report.cell("np-gq", 40, 3, 2.0)
        assert good.failures == 0
        assert bad.failures == 6
        assert bad.n_used == 0
        assert math.isnan(bad.bias)

    def test_np_me_weight_underflow_is_a_counted_failure(self):
        # From N = 44 at T = 10000 an outer np-me weight underflows to 0 on
        # the default seed's samples: a failed cell, not a failed study.
        cfg = ExperimentConfig(sample_sizes=(10000,), node_counts=(5, 50), methods=("np-me",),
                               gammas=(2.0,), replications=2)
        report = run_experiment(cfg)
        assert report.cell("np-me", 10000, 5, 2.0).failures == 0
        bad = report.cell("np-me", 10000, 50, 2.0)
        assert bad.failures == 2 and bad.n_used == 0


def _hex(values):
    return [v.hex() if isinstance(v, float) else repr(v) for v in values]


def _oracle_cells(cfg, thetas, theta_star):
    """Every cell by the per-cell summary, in the report's order."""
    for j, method in enumerate(cfg.methods):
        for s, t in enumerate(cfg.sample_sizes):
            for k, n in enumerate(cfg.node_counts):
                for g, gamma in enumerate(cfg.gammas):
                    errors = thetas[:, s, j, k, g] / theta_star[gamma] - 1.0
                    yield _hex((method, t, n, gamma, *summarize_cell(errors)))


class TestSummaryStage:
    """The one-pass summary gives every cell the bits of summarizing it alone."""

    def test_default_study_matches_the_per_cell_summary(self):
        cfg = ExperimentConfig(replications=20)
        report = run_experiment(cfg)
        thetas = experiments._replication_block(cfg, 0, cfg.replications)
        assert [_hex(astuple(c)) for c in report.cells] == list(_oracle_cells(cfg, thetas, report.theta_star))

    def test_failed_replications_match_the_per_cell_summary(self, monkeypatch):
        # Cells with no, one, some and every replication finite, spread over
        # several blocks.
        cfg = ExperimentConfig(sample_sizes=(100, 1000), node_counts=(3, 5), gammas=(2.0, 4.0),
                               replications=9)
        rng = np.random.default_rng(16)
        thetas = rng.normal(1.5, 0.3, (9, 2, 3, 2, 2))
        thetas[rng.random(thetas.shape) < 0.2] = np.nan
        thetas[:, 0, 0, 0, 0] = np.nan
        thetas[:, 1, 2, 1, 1] = np.nan
        thetas[4, 1, 2, 1, 1] = 1.25
        thetas[:, 0, 1, 1, 0] = 1.5
        monkeypatch.setattr(experiments, "_replication_block", lambda cfg, start, stop: thetas[start:stop])
        report = run_experiment(cfg)
        assert [_hex(astuple(c)) for c in report.cells] == list(_oracle_cells(cfg, thetas, report.theta_star))
        n_used = {c.n_used for c in report.cells}
        assert {0, 1, 9} <= n_used and len(n_used - {0, 1, 9}) > 1
        all_nan = report.cell("np-gq", 100, 3, 2.0)
        assert all_nan.failures == 9 and math.isnan(all_nan.bias) and math.isnan(all_nan.mae_se)
        single = report.cell("np-me", 1000, 5, 4.0)
        assert single.n_used == 1 and math.isfinite(single.bias) and math.isnan(single.bias_se)
        # A statistic a cell lacks is the one shared NaN: a kept report
        # holds no NaN object of its own.
        missing = [v for c in report.cells for v in astuple(c)[4:] if isinstance(v, float) and math.isnan(v)]
        assert missing and all(v is math.nan for v in missing)


class TestConfigValidation:
    @pytest.mark.parametrize(
        "name, values",
        [("node_counts", (3.7, 5)), ("node_counts", (3.2, 3.9)), ("sample_sizes", (100.9,)),
         ("node_counts", (np.float64(5.0),))],
    )
    def test_non_integer_grid_values_rejected(self, name, values):
        # int() would truncate them: 3.7 would run N = 3, and (3.2, 3.9)
        # would be reported as the repeated value [3, 3].
        with pytest.raises(InputError, match=f"^{name} must be integers, got "):
            ExperimentConfig(**{name: values})

    @pytest.mark.parametrize("name, value", [("replications", 2.5), ("replications", 2.0),
                                             ("seed", 1.5), ("seed", 7.0)])
    def test_non_integer_replications_or_seed_rejected(self, name, value):
        # Not a TypeError from range() or SeedSequence in the middle of a run.
        with pytest.raises(InputError, match=f"^{name} must be an integer, got {value}$"):
            ExperimentConfig(**{name: value})

    def test_integer_types_are_kept(self):
        cfg = ExperimentConfig(sample_sizes=np.array([100, 1000]), node_counts=(np.int32(3), 5),
                               replications=np.int64(4), seed=np.uint32(7))
        assert cfg.sample_sizes == (100, 1000) and cfg.node_counts == (3, 5)
        assert (cfg.replications, cfg.seed) == (4, 7)
        assert {type(v) for v in cfg.sample_sizes + cfg.node_counts + (cfg.replications, cfg.seed)} == {int}
        assert cfg == parse_config("sample_sizes = 100, 1000\nnode_counts = 3, 5\nreplications = 4\nseed = 7\n")

    def test_bad_values_rejected(self):
        with pytest.raises(InputError):
            ExperimentConfig(replications=0)
        with pytest.raises(InputError):
            ExperimentConfig(sample_sizes=(1,))
        with pytest.raises(InputError):
            ExperimentConfig(methods=("np-gq", "np-gq"))
        with pytest.raises(InputError):
            ExperimentConfig(methods=("nope",))
        with pytest.raises(InputError):
            ExperimentConfig(gammas=(0.0,))

    @pytest.mark.parametrize(
        "name, values",
        [("sample_sizes", (100, 50, 100)), ("node_counts", (3, 3)), ("gammas", (2.0, 2)),
         ("methods", ("np-gq", "np-me", "np-gq"))],
    )
    def test_repeated_grid_value_rejected(self, name, values):
        # It would run each of its cells twice and report every row twice.
        with pytest.raises(InputError) as info:
            ExperimentConfig(**{name: values})
        assert str(info.value).startswith(f"{name} must not repeat a value, got ")

    @pytest.mark.parametrize("gamma", [math.nan, math.inf, -2.0])
    def test_gamma_must_be_finite_and_positive(self, gamma):
        with pytest.raises(InputError, match="risk aversions must be finite and positive"):
            ExperimentConfig(gammas=(2.0, gamma))

    @pytest.mark.parametrize("rate", [math.nan, math.inf, 0.0, -1.0])
    def test_risk_free_must_be_finite_and_positive(self, rate):
        with pytest.raises(InputError, match="risk-free rate must be positive"):
            ExperimentConfig(risk_free=rate)

    def test_negative_seed_rejected(self):
        # SeedSequence rejects it too, but only in the middle of a run.
        with pytest.raises(InputError):
            ExperimentConfig(seed=-1)
        with pytest.raises(InputError):
            parse_config("seed = -5\n")


class TestThetaStarTable:
    """theta* is computed once per (mixture, rate, gamma grid) per process,
    and every report gets a dict of its own."""

    CFG = replace(SMALL_CFG, replications=2)

    def test_each_report_gets_its_own_dict(self):
        first = run_experiment(replace(self.CFG, seed=1))
        second = run_experiment(replace(self.CFG, seed=2))
        assert first.theta_star == second.theta_star
        assert first.theta_star is not second.theta_star
        expected = dict(first.theta_star)
        first.theta_star[2.0] = 99.0
        second.theta_star.clear()
        third = run_experiment(replace(self.CFG, seed=3))
        assert third.theta_star == expected
        experiments._theta_star_table.cache_clear()
        assert run_experiment(replace(self.CFG, seed=3)).to_csv() == third.to_csv()

    @pytest.mark.parametrize("change", [
        {"risk_free": 1.02},
        {"mixture": GaussianMixture(proportions=(0.3, 0.7), means=(-0.1, 0.08), stds=(0.2, 0.15))},
        {"gammas": (3.0, 5.0)},
    ])
    def test_other_inputs_get_their_own_theta_star(self, change):
        run_experiment(self.CFG)
        cfg = replace(self.CFG, **change)
        report = run_experiment(cfg)
        assert report.theta_star == {g: theoretical_portfolio(cfg.mixture, cfg.risk_free, g) for g in cfg.gammas}
        if "risk_free" in change:
            # A share does not depend on the rate's scale.
            assert report.theta_star == run_experiment(self.CFG).theta_star
        else:
            assert report.theta_star != run_experiment(self.CFG).theta_star

    def test_a_zero_theta_star_raises_on_every_call(self):
        # Every excess return is within 1e-14 of 0: the degenerate share 0.
        cfg = replace(self.CFG, mixture=GaussianMixture(proportions=(1.0,), means=(0.0,), stds=(1e-16,)))
        for _ in range(2):
            with pytest.raises(InputError, match="true optimal share is zero for gamma=.2.0, 4.0."):
                run_experiment(cfg)

    @pytest.mark.parametrize("mean", [0.0, 0.05])
    def test_a_one_atom_mixture_is_an_input_error(self, mean):
        # theta* is the degenerate 0 at an atom at 0, and unbounded elsewhere.
        cfg = replace(self.CFG, mixture=GaussianMixture(proportions=(1.0,), means=(mean,), stds=(0.0,)))
        with pytest.raises(InputError, match="true optimal share"):
            run_experiment(cfg)

    def test_a_theta_star_within_bisection_resolution_of_zero_raises(self):
        # E[e^x] = 1: the true share is 0, and the solver, which stops at a
        # bracket of width _THETA_RTOL, lands within it of 0.
        mixture = GaussianMixture(proportions=(1.0,), means=(-0.02,), stds=(0.2,))
        assert 0.0 < abs(theoretical_portfolio(mixture, 1.0, 2.0)) <= _THETA_RTOL
        with pytest.raises(InputError, match="true optimal share is zero for gamma=.2.0, 4.0."):
            run_experiment(replace(self.CFG, mixture=mixture, risk_free=1.0))


class TestConfigFiles:
    def test_round_trip(self):
        # Every key, written out by hand for SMALL_CFG.
        text = (
            "seed = 424242\n"
            "replications = 12\n"
            "risk_free = 1.0045\n"
            "sample_sizes = 60, 120\n"
            "node_counts = 2, 3\n"
            "gammas = 2, 4\n"
            "methods = np-gq, gauss-hermite\n"
            "mixture_proportions = 0.1392, 0.8608\n"
            "mixture_means = -0.2242, 0.1064\n"
            "mixture_stds = 0.2164, 0.1453\n"
        )
        assert parse_config(text) == SMALL_CFG

    def test_defaults_and_comments(self):
        cfg = parse_config("# comment line\nseed = 99\n\nreplications = 3\n")
        assert cfg.seed == 99
        assert cfg.replications == 3
        assert cfg.sample_sizes == (100, 1000, 10000)
        assert cfg.mixture == DEFAULT_MIXTURE

    def test_unknown_key_rejected(self):
        with pytest.raises(InputError):
            parse_config("bogus = 1\n")

    def test_partial_mixture_rejected(self):
        with pytest.raises(InputError):
            parse_config("mixture_means = 0.0, 1.0\n")

    def test_malformed_line_rejected(self):
        with pytest.raises(InputError):
            parse_config("seed 99\n")

    @pytest.mark.parametrize("key", ["sample_sizes", "node_counts", "gammas", "methods"])
    def test_empty_list_rejected(self, key):
        with pytest.raises(InputError, match=f"{key} must not be empty"):
            parse_config(f"{key} =\n")


REFERENCE_CFG = ExperimentConfig(sample_sizes=(100, 1000), replications=3, seed=31337)
# N above T: np-gq fails at N = 9 and 44 on 5 points, and at N = 44 Lanczos
# runs 44 steps on 100 points.
PAST_T_CFG = replace(REFERENCE_CFG, sample_sizes=(5, 100), node_counts=(3, 9, 44))


def _fresh_theta_hats(cfg, sample_size):
    """theta-hat per (replication, method, N, gamma), every rule from a fresh raw array."""
    discretizers = {
        "np-gq": discretize_data,
        "gauss-hermite": gauss_hermite_discretize,
        "np-me": maxent_discretize,
    }
    out = np.full((cfg.replications, len(cfg.methods), len(cfg.node_counts), len(cfg.gammas)), np.nan)
    for m in range(cfg.replications):
        data = sample_mixture(cfg.mixture, sample_size, replication_rng(cfg.seed, sample_size, m))
        for j, method in enumerate(cfg.methods):
            for k, n in enumerate(cfg.node_counts):
                try:
                    dist = discretizers[method](data.copy(), n)
                except NpgqError:
                    continue
                for g, gamma in enumerate(cfg.gammas):
                    try:
                        out[m, j, k, g] = solve_portfolio(dist, cfg.risk_free, gamma).theta
                    except NpgqError:
                        pass
    return out


def _lanczos_requests(monkeypatch, cfg):
    """(T, the n of each ``jacobi(n)`` call in order) per Lanczos state of one serial study."""
    requests = {}
    init, jacobi = moments._Lanczos.__init__, moments._Lanczos.jacobi

    def spy_init(self, x, start):
        init(self, x, start)
        requests[self] = (x.size, [])

    def spy_jacobi(self, n):
        requests[self][1].append(n)
        return jacobi(self, n)

    monkeypatch.setattr(moments._Lanczos, "__init__", spy_init)
    monkeypatch.setattr(moments._Lanczos, "jacobi", spy_jacobi)
    run_experiment(cfg, jobs=1)
    return list(requests.values())


class TestSharedSampleStudy:
    def test_theta_hats_match_fresh_calls(self, monkeypatch):
        blocks = []
        original = experiments._replication_block

        def recording(cfg, start, stop):
            block = original(cfg, start, stop)
            blocks.append((start, block))
            return block

        monkeypatch.setattr(experiments, "_replication_block", recording)
        for cfg in (REFERENCE_CFG, PAST_T_CFG):
            blocks.clear()
            report = run_experiment(cfg, jobs=1)
            study = np.concatenate([b for _, b in sorted(blocks, key=lambda x: x[0])])
            for s, t in enumerate(cfg.sample_sizes):
                assert np.array_equal(study[:, s], _fresh_theta_hats(cfg, t), equal_nan=True)
            # NaN for NaN, so every failure count is a fresh call's too.
            assert sum(c.failures for c in report.cells) == np.count_nonzero(np.isnan(study))
        assert report.cell("np-gq", 5, 9, 2.0).failures == PAST_T_CFG.replications

    @pytest.mark.parametrize("cfg", [REFERENCE_CFG, PAST_T_CFG], ids=["default-grid", "n-past-t"])
    def test_each_sample_steps_to_its_longest_n_first(self, monkeypatch, cfg):
        # One basis per sample: np-gq's largest N that Lanczos steps to (no
        # step is taken for an N past T) comes first, and every later
        # request, np-me's three steps included, reads a prefix of it.
        requests = _lanczos_requests(monkeypatch, cfg)
        assert len(requests) == cfg.replications * len(cfg.sample_sizes)
        for t, seq in requests:
            top = max(n for n in cfg.node_counts if n <= t)
            assert seq[0] == top and max(seq) == top and 3 in seq

    def test_np_me_alone_takes_three_steps(self, monkeypatch):
        requests = _lanczos_requests(monkeypatch, replace(REFERENCE_CFG, methods=("np-me",)))
        assert len(requests) == REFERENCE_CFG.replications * len(REFERENCE_CFG.sample_sizes)
        assert all(seq == [3] for _, seq in requests)

    def test_gauss_hermite_alone_runs_no_lanczos(self, monkeypatch):
        assert _lanczos_requests(monkeypatch, replace(REFERENCE_CFG, methods=("gauss-hermite",))) == []

    def test_one_standardization_and_moment_pass_per_sample(self, monkeypatch):
        # The one pass of moments is the sample's Lanczos state: np-gq and
        # np-me both read it, and exactly rounded moments are never taken.
        calls = {"mean_std": 0, "sample_moments": 0, "lanczos": []}
        mean_std = moments._mean_std
        sample_moments, lanczos = moments.sample_moments, moments._Lanczos

        def counting_mean_std(x):
            calls["mean_std"] += 1
            return mean_std(x)

        def counting_moments(data, max_order):
            calls["sample_moments"] += 1
            return sample_moments(data, max_order)

        def counting_lanczos(x, start):
            calls["lanczos"].append(x.tobytes())
            return lanczos(x, start)

        monkeypatch.setattr(moments, "_mean_std", counting_mean_std)
        monkeypatch.setattr(moments, "sample_moments", counting_moments)
        monkeypatch.setattr(moments, "_Lanczos", counting_lanczos)
        run_experiment(REFERENCE_CFG, jobs=1)
        samples = REFERENCE_CFG.replications * len(REFERENCE_CFG.sample_sizes)
        # np-me's grid and bandwidth use the exact standardized mean 0 and
        # std 1, so the mean and std passes run once per sample: they are
        # the sample's transform, which its z is built from.
        assert calls["mean_std"] == samples
        assert calls["sample_moments"] == 0
        # One Lanczos state per standardized sample, shared by every N.
        assert len(calls["lanczos"]) == len(set(calls["lanczos"])) == samples


class TestInputErrorMessages:
    """Each input check of the study, with its exact message."""

    UNBOUNDED = ("cannot compute the true optimal share for this configuration: all state returns lie on "
                 "one side of the risk-free rate; expected utility has no interior maximum")

    @pytest.mark.parametrize("call, message", [
        (lambda: ExperimentConfig(node_counts=(0,)), "node counts must be >= 1"),
        (lambda: sample_mixture(DEFAULT_MIXTURE, 0, replication_rng(1, 0, 0)), "sample size must be >= 1, got 0"),
        (lambda: run_experiment(SMALL_CFG, jobs=0), "jobs must be >= 1"),
        (lambda: run_experiment(SMALL_CFG, jobs=1.5), "jobs must be an integer, got 1.5"),
        (lambda: run_experiment(SMALL_CFG, jobs="2"), "jobs must be an integer, got '2'"),
        (lambda: parse_config("seed = x"),
         "config line 1: bad value for 'seed': invalid literal for int() with base 10: 'x'"),
        # Every log excess return of N(0.5, 0.01^2) is above the rate's 0.0045.
        (lambda: run_experiment(ExperimentConfig(mixture=GaussianMixture((1.0,), (0.5,), (0.01,)))), UNBOUNDED),
    ])
    def test_message(self, call, message):
        with pytest.raises(InputError) as info:
            call()
        assert str(info.value) == message

    def test_a_missing_cell_is_a_key_error(self):
        report = run_experiment(replace(SMALL_CFG, replications=1))
        with pytest.raises(KeyError) as info:
            report.cell("np-gq", 61, 2, 2.0)
        assert info.value.args == ("no cell for ('np-gq', 61, 2, 2.0)",)

    def test_excluded_replications_are_listed(self):
        # Two draws per replication: no three-node np-gq rule, and on these
        # draws every Gauss-Hermite and np-me state return lies above the rate.
        report = run_experiment(ExperimentConfig(sample_sizes=(2,), node_counts=(3,), replications=2))
        assert report.format_tables().split("\n\n")[-1] == (
            "Excluded replications (discretization or solve failed):\n"
            + "".join(f"  {method}  T=2  N=3  gamma={g}: 2 of 2\n"
                      for method in ("np-gq", "gauss-hermite", "np-me") for g in (2, 4, 6))
        )
