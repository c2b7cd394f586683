"""A shared :class:`Sample` must give exactly what fresh calls on raw data give."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from npgq import (
    AffineTransform,
    DegenerateDataError,
    InputError,
    NotPositiveDefiniteError,
    NpgqError,
    Sample,
    discretize_data,
    gauss_hermite_discretize,
    maxent_discretize,
    maxent_solve,
    sample_moments,
)
from npgq.baselines import _jacobi_moments
from npgq.moments import _BLOCK
from npgq.experiments import DEFAULT_MIXTURE, replication_rng, sample_mixture

from _oracles import fsum_mean_std, one_shot_lanczos

DISCRETIZERS = {
    "np-gq": discretize_data,
    "gauss-hermite": gauss_hermite_discretize,
    "np-me": maxent_discretize,
}


def outcome(fn, *args):
    """The call's result, or the type of the npgq error it raised."""
    try:
        return fn(*args)
    except NpgqError as exc:
        return type(exc)


def mixture_data(size, index=0):
    return sample_mixture(DEFAULT_MIXTURE, size, replication_rng(11, size, index))


class TestSampleMoments:
    """The sample's statistics: its standardization, and the Jacobi matrix
    that fixes its moments."""

    @given(
        seed=st.integers(0, 2**32 - 1),
        size=st.integers(2, 300),
        atoms=st.one_of(st.none(), st.integers(2, 12)),
        requests=st.lists(st.integers(1, 320), min_size=1, max_size=8),
    )
    @settings(max_examples=60, deadline=None)
    def test_any_request_order_matches_one_shot_lanczos(self, seed, size, atoms, requests):
        # Requests past T, and past the k < N distinct values of tied data,
        # get the block a one-shot run returns: capped at T, or at breakdown.
        rng = np.random.default_rng(seed)
        data = rng.standard_normal(size) * 3.0 + 1.5
        if atoms is not None:
            data = rng.choice(np.arange(atoms) * 0.7 - 1.0, size)
        try:
            z = Sample(data).z
        except DegenerateDataError:
            return  # a single drawn atom
        for sequence in (requests, sorted(requests), sorted(requests, reverse=True)):
            sample = Sample(data)
            for n in sequence:
                got = sample.jacobi(n)
                want = one_shot_lanczos(z, 1.0 / math.sqrt(z.size), n)
                assert [a.tolist() for a in got] == [a.tolist() for a in want], n

    @pytest.mark.parametrize("size", [100, _BLOCK + 1, 100_000])
    def test_large_samples_match_one_shot_lanczos(self, size):
        # The reference reorthogonalizes with two matmuls; the state's dot
        # products must give the same bits, at every N and in the one- and
        # three-step prefixes np-me reads from a longer run.
        data = mixture_data(size)
        z, shared = Sample(data).z, Sample(data)
        for n in (*range(1, 10), 3, 1):
            want = one_shot_lanczos(z, 1.0 / math.sqrt(size), n)
            for got in (Sample(data).jacobi(n), shared.jacobi(n)):
                assert [a.tobytes() for a in got] == [a.tobytes() for a in want], n

    def test_shorter_requests_reuse_the_lanczos_state(self, monkeypatch):
        # Each Lanczos step past the first takes one norm, of its residual.
        norms = []
        norm = np.linalg.norm

        def counting(v):
            norms.append(v.size)
            return norm(v)

        monkeypatch.setattr(np.linalg, "norm", counting)
        sample = Sample(mixture_data(500))
        for n, steps in ((4, 4), (9, 9), (2, 9), (1, 9), (14, 14), (6, 14), (14, 14)):
            assert sample.jacobi(n)[0].size == n
            assert norms == [500] * (steps - 1), n

    def test_jacobi_moments_match_the_exact_sums(self):
        # m1..m4 from the three-step matrix against exactly rounded sums,
        # on heavy tails, skew, a large offset, 2- and 3-point data, T = 2,
        # an outlier and symmetric data.
        rng = np.random.default_rng(6)
        half = rng.standard_normal(500)
        cases = [
            rng.standard_t(3, 10_000),
            rng.standard_t(2.1, 100_000),
            rng.lognormal(0.0, 2.0, 10_000),
            1e8 + rng.standard_normal(2000),
            np.repeat([0.0, 1.0], [3, 7]),
            np.repeat([-1.0, 0.5, 4.0], [2, 5, 3]),
            np.array([0.3, 1.7]),
            np.append(rng.standard_normal(999), 1e4),
            np.concatenate([half, -half]),
        ]
        for data in cases:
            sample = Sample(data)
            got = _jacobi_moments(*sample.jacobi(3))
            want = sample_moments(sample.z, 4)[1:]
            for g, w in zip(got, want):
                assert abs(g - w) <= 1e-14 * max(1.0, abs(w)), (data.size, got, want)

    def test_standardization_matches_standardize(self):
        # The one standardization: the exactly rounded mean and population
        # std, and z the read-only image of the data under that transform.
        data = mixture_data(400)
        sample = Sample(data)
        assert sample.transform == AffineTransform(*fsum_mean_std(data))
        assert np.array_equal(sample.z, sample.transform.to_standardized(data))
        assert not sample.z.flags.writeable

    def test_of_returns_the_same_sample(self):
        sample = Sample([1.0, 2.0, 4.0])
        assert Sample.of(sample) is sample
        assert isinstance(Sample.of([1.0, 2.0]), Sample)

    def test_negative_order_rejected(self):
        # The order of a Jacobi matrix is its size: at least 1.
        for n in (0, -1):
            with pytest.raises(InputError, match="must be >= 1"):
                Sample([1.0, 2.0]).jacobi(n)


class TestSharedSampleMatchesFreshCalls:
    @pytest.mark.parametrize(
        "data",
        [
            mixture_data(300),
            mixture_data(10000, 1),
            np.random.default_rng(4).standard_normal(12),
            np.repeat([-1.0, 0.5, 2.0, 3.0], 5),  # 4 atoms: N >= 5 fails
            np.random.default_rng(5).standard_normal(3),  # T < N for N >= 4
        ],
        ids=["T300", "T10000", "T12", "four-atoms", "T3"],
    )
    @pytest.mark.parametrize("order_seed", [0, 1])
    def test_every_method_and_node_count(self, data, order_seed):
        calls = [(method, n) for method in DISCRETIZERS for n in range(1, 10)]
        np.random.default_rng(order_seed).shuffle(calls)
        sample = Sample(data)
        for method, n in calls:
            fn = DISCRETIZERS[method]
            assert outcome(fn, sample, n) == outcome(fn, data.copy(), n), (method, n)

    def test_maxent_solution_and_fit_helpers(self):
        data = mixture_data(1000)
        sample = Sample(data)
        for n in (3, 5, 9):
            assert maxent_solve(sample, n) == maxent_solve(data.copy(), n)
        assert sample.transform == Sample(data.copy()).transform
        fresh = Sample(data.copy()).jacobi(9)
        assert all(np.array_equal(a, b) for a, b in zip(sample.jacobi(9), fresh))


class TestSampleErrors:
    def test_constant_data(self):
        sample = Sample(np.full(20, 0.3))
        for _ in range(2):  # a failed statistic is not cached
            dist = discretize_data(sample, 1)
            assert dist.nodes == (0.3,) and dist.weights == (1.0,)
            with pytest.raises(DegenerateDataError):
                discretize_data(sample, 3)
            with pytest.raises(DegenerateDataError):
                gauss_hermite_discretize(sample, 3)
            with pytest.raises(DegenerateDataError):
                maxent_discretize(sample, 3)
            with pytest.raises(DegenerateDataError):
                sample.transform

    def test_fewer_observations_than_nodes(self):
        data = np.array([0.1, -0.4, 0.9, 0.3])
        sample = Sample(data)
        with pytest.raises(NotPositiveDefiniteError):
            discretize_data(sample, 5)
        assert discretize_data(sample, 2) == discretize_data(data.copy(), 2)
        assert gauss_hermite_discretize(sample, 5) == gauss_hermite_discretize(data.copy(), 5)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_data(self, bad):
        sample = Sample([1.0, bad, 2.0])  # construction itself never raises
        for fn in DISCRETIZERS.values():
            with pytest.raises(InputError):
                fn(sample, 3)
        with pytest.raises(InputError):
            sample.jacobi(2)

    @pytest.mark.parametrize(
        "data", [[1e308, 1.7e308, -1e308], [1e200, -1.5e200, 2e200]], ids=["float-max", "1e200"]
    )
    def test_standardization_overflow(self, data):
        sample = Sample(data)
        with np.errstate(all="raise"):  # no numpy warning escapes either
            for fn in DISCRETIZERS.values():
                for target in (sample, data):
                    with pytest.raises(InputError, match="overflows; rescale the data"):
                        fn(target, 3)

    def test_empty_data(self):
        with pytest.raises(InputError):
            discretize_data(Sample([]), 1)
