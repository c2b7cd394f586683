"""A shared :class:`Sample` must give exactly what fresh calls on raw data give."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import npgq.moments as moments
from npgq import (
    DegenerateDataError,
    InputError,
    KernelDensity,
    NotPositiveDefiniteError,
    NpgqError,
    Sample,
    discretize_data,
    fit_gaussian_mle,
    gauss_hermite_discretize,
    maxent_discretize,
    maxent_solve,
    sample_moments,
    standardize,
)
from npgq.experiments import DEFAULT_MIXTURE, replication_rng, sample_mixture

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
    @given(
        seed=st.integers(0, 2**32 - 1),
        size=st.integers(2, 300),
        orders=st.lists(st.integers(0, 18), min_size=1, max_size=12),
    )
    @settings(max_examples=60, deadline=None)
    def test_any_request_order_matches_fresh_moments(self, seed, size, orders):
        data = np.random.default_rng(seed).standard_normal(size) * 3.0 + 1.5
        _, z = standardize(data)
        for sequence in (orders, sorted(orders), sorted(orders, reverse=True)):
            sample = Sample(data)
            for k in sequence:
                m = sample.moments(k)
                assert not m.flags.writeable
                assert m.tolist() == sample_moments(z, k).tolist()

    def test_lower_orders_reuse_the_longest_sequence(self, monkeypatch):
        orders = []
        original = moments.sample_moments

        def counting(z, max_order):
            orders.append(max_order)
            return original(z, max_order)

        monkeypatch.setattr(moments, "sample_moments", counting)
        sample = Sample(mixture_data(500))
        for k in (4, 10, 2, 0, 14, 6, 14):
            sample.moments(k)
        assert orders == [4, 10, 14]

    def test_standardization_matches_standardize(self):
        data = mixture_data(400)
        transform, z = standardize(data)
        sample = Sample(data)
        assert sample.transform == transform
        assert np.array_equal(sample.z, z)
        assert not sample.z.flags.writeable

    def test_of_returns_the_same_sample(self):
        sample = Sample([1.0, 2.0, 4.0])
        assert Sample.of(sample) is sample
        assert isinstance(Sample.of([1.0, 2.0]), Sample)

    def test_negative_order_rejected(self):
        with pytest.raises(InputError):
            Sample([1.0, 2.0]).moments(-1)


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
        assert fit_gaussian_mle(sample) == fit_gaussian_mle(data.copy())
        shared, fresh = KernelDensity.fit(sample), KernelDensity.fit(data.copy())
        assert shared.bandwidth == fresh.bandwidth
        assert np.array_equal(shared.data, fresh.data)


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
                fit_gaussian_mle(sample)

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
            sample.moments(2)
        with pytest.raises(InputError):
            KernelDensity.fit(sample)

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
