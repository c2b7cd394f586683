import contextlib
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from npgq import (
    AffineTransform,
    DegenerateDataError,
    GaussianMixture,
    InputError,
    Sample,
    sample_moments,
)
from npgq.experiments import DEFAULT_MIXTURE, ExperimentConfig, replication_rng, sample_mixture
from npgq.moments import _BLOCK, _blocks, _exact_sum, _mean_std

from _oracles import (
    MomentSequence,
    fsum_mean_std,
    gaussian_moments,
    jacobi_from_moments,
    mixture_moments,
    naive_moments,
)


class TestMomentSequence:
    def test_rejects_nonpositive_mass(self):
        with pytest.raises(InputError):
            MomentSequence((0.0, 1.0))
        with pytest.raises(InputError):
            MomentSequence((-1.0, 0.0))

    def test_rejects_non_finite(self):
        with pytest.raises(InputError):
            MomentSequence((1.0, math.inf))

    def test_max_order_and_indexing(self):
        ms = MomentSequence((1.0, 0.5, 2.0))
        assert ms.max_order == 2
        assert ms[2] == 2.0
        assert len(ms) == 3

    def test_hankel_positive_definite_with_enough_support(self):
        # A sample with many distinct points gives a PD Hankel matrix,
        # observable through Cholesky success: N = 4 factors the 4x4
        # leading block of the 5x5 Hankel matrix of orders 0..8.
        rng = np.random.default_rng(11)
        z = Sample(rng.standard_normal(400)).z
        ms = MomentSequence(sample_moments(z, 8))
        diag, offdiag = jacobi_from_moments(ms, 4)
        assert (diag.size, offdiag.size) == (4, 3)


class TestSampleMoments:
    def test_constant_data(self):
        assert sample_moments([1.0, 1.0, 1.0], 4).tolist() == [1.0, 1.0, 1.0, 1.0, 1.0]

    def test_symmetric_two_point(self):
        assert sample_moments([-1.0, 1.0], 4).tolist() == [1.0, 0.0, 1.0, 0.0, 1.0]

    @pytest.mark.parametrize("k", [0, 1, 4, 9])
    def test_read_only_float_array(self, k):
        m = sample_moments([0.5, -2.0, 3.0], k)
        assert isinstance(m, np.ndarray) and m.dtype == np.float64 and m.shape == (k + 1,)
        assert not m.flags.writeable
        with pytest.raises(ValueError):
            m[0] = 2.0

    def test_matches_one_pass_oracle_on_mixture_draws(self):
        data = sample_mixture(DEFAULT_MIXTURE, 1000, replication_rng(123, 1000, 0))
        ours = sample_moments(data, 10)
        oracle = naive_moments(data.tolist(), 10)
        for k in range(11):
            assert ours[k] == pytest.approx(oracle[k], rel=1e-12)

    def test_empty_and_nonfinite_rejected(self):
        with pytest.raises(InputError):
            sample_moments([], 2)
        with pytest.raises(InputError):
            sample_moments([1.0, math.nan], 2)
        with pytest.raises(InputError):
            sample_moments([1.0], -1)

    @pytest.mark.parametrize("sign", ["mixed", "positive"])
    def test_overflow_is_an_input_error_naming_the_order(self, sign):
        data = 1e150 * np.random.default_rng(2).standard_normal(50)
        if sign == "positive":
            data = np.abs(data)
        assert math.isfinite(sample_moments(data, 2)[2])
        with pytest.raises(InputError, match="order 3 overflows"):
            sample_moments(data, 9)

    def test_mass_is_exactly_one(self):
        rng = np.random.default_rng(5)
        assert sample_moments(rng.uniform(-3, 9, 57), 6)[0] == 1.0

    @given(
        data=st.lists(st.floats(-10, 10), min_size=2, max_size=40),
        c=st.floats(0.1, 10),
    )
    @settings(max_examples=60, deadline=None)
    def test_scaling_property(self, data, c):
        base = sample_moments(data, 6)
        scaled = sample_moments([c * x for x in data], 6)
        for k in range(7):
            assert scaled[k] == pytest.approx(c**k * base[k], rel=1e-10, abs=1e-10)


# Arrays whose exact sums are hard to round: each family, given a generator
# and a size, returns float64 values.
_ADVERSARIAL = {
    "normal": lambda rng, n: rng.standard_normal(n),
    "exponents-300..300": lambda rng, n: rng.standard_normal(n) * 10.0 ** rng.integers(-300, 301, n),
    "cancel-1e16": lambda rng, n: 1e16 * rng.choice([-1.0, 1.0], n) + rng.standard_normal(n),
    "subnormal": lambda rng, n: rng.integers(-(2**52), 2**52, n) * 5e-324,
    "offset-1e8": lambda rng, n: 1e8 + rng.standard_normal(n),
    "near-1.7e308": lambda rng, n: 1.7e308 * (1.0 - 1e-3 * rng.random(n)) * np.resize([1.0, -1.0], n),
    "zeros-and-5e-324": lambda rng, n: rng.choice([0.0, -0.0, 5e-324, -5e-324], n),
}
_DBL_MAX = float(np.finfo(float).max)


class TestExactSum:
    """Error-free extraction gives ``math.fsum``'s value bit for bit."""

    @staticmethod
    def assert_fsum_bits(values):
        try:
            want = math.fsum(values)
        except OverflowError:  # fsum's partials left the float range
            return
        values = np.asarray(values, dtype=float)
        got = _exact_sum(lambda: _blocks(values), np.max(np.abs(values), initial=0.0))
        assert got.hex() == want.hex()

    @given(st.lists(st.floats(allow_nan=False, allow_infinity=False), max_size=60))
    @settings(max_examples=400, deadline=None)
    def test_any_finite_floats(self, values):
        self.assert_fsum_bits(values)

    @pytest.mark.parametrize("size", [1, _BLOCK - 1, _BLOCK, _BLOCK + 1, 3 * _BLOCK + 7])
    @pytest.mark.parametrize("family", sorted(_ADVERSARIAL))
    def test_adversarial_families(self, family, size):
        values = _ADVERSARIAL[family](np.random.default_rng([size, len(family)]), size)
        self.assert_fsum_bits(values)

    def test_sums_past_the_float_range_overflow(self):
        values = np.array([1.7e308, 1.7e308])
        with pytest.raises(OverflowError):
            _exact_sum(lambda: _blocks(values), np.max(np.abs(values)))
        values = np.array([1.7e308, 1.7e308, -1.7e308])
        assert _exact_sum(lambda: _blocks(values), np.max(np.abs(values))) == 1.7e308

    def test_a_block_spanning_every_exponent(self):
        # One value in each binade from 2**-1074 to 2**1023, signs alternating
        # so that fsum's partials stay in range: about 50 peels of 40 bits.
        k = np.arange(-1074, 1024)
        rng = np.random.default_rng(30)
        values = np.ldexp(rng.uniform(0.5, 1.0, k.size), k + 1) * np.resize([1.0, -1.0], k.size)
        assert math.isfinite(math.fsum(values))
        self.assert_fsum_bits(values)
        self.assert_fsum_bits(rng.permutation(values))

    @pytest.mark.parametrize(
        "values",
        [
            [2.0**1010, -(2.0**1010), 5e-324],
            [2.0**1000, -np.nextafter(2.0**1000, 0.0), 3e-300, -5e-324],
            [_DBL_MAX, -_DBL_MAX, 5e-324, -2.2e-308, 1e-310],
            [2.0**1011, -_DBL_MAX, 2.2250738585072e-308, -5e-324, _DBL_MAX, -(2.0**1011)],
        ],
    )
    def test_bounds_near_the_float_limit_split_the_block(self, values):
        tiled = np.tile(values, _BLOCK // len(values) + 1)  # a block of both parts, then a short one
        for v in (values, tiled):
            assert math.isfinite(math.fsum(v))
            self.assert_fsum_bits(v)

    def test_sums_next_to_the_largest_double(self):
        # The largest double's ulp is 2**971: a sum below the halfway point
        # rounds down to it, and the halfway point itself rounds to 2**1024.
        for values in ([_DBL_MAX, 2.0**969, 5e-324], [_DBL_MAX, 2.0**970, -5e-324], [-_DBL_MAX, -(2.0**970), 1e-300]):
            self.assert_fsum_bits(values)
            assert abs(_exact_sum(lambda: _blocks(np.array(values)), _DBL_MAX)) == _DBL_MAX
        with pytest.raises(OverflowError):
            _exact_sum(lambda: _blocks(np.array([_DBL_MAX, 2.0**970])), _DBL_MAX)

    @pytest.mark.parametrize("top", [2.0**-1074, 2.0**-1000, 1.0, 2.0**52, 2.0**1009, 2.0**1010])
    def test_a_bound_that_is_a_power_of_two(self, top):
        # A full block at the bound itself, around finer values.
        rng = np.random.default_rng(31)
        values = np.concatenate([np.full(_BLOCK - 8, top), -top * rng.random(8)])
        assert np.max(np.abs(values)) == top
        self.assert_fsum_bits(values)
        self.assert_fsum_bits(-values)

    @pytest.mark.parametrize("split", [False, True])
    def test_full_blocks_of_one_sign(self, split):
        # Negative values within a factor of 2 of the bound land on the finest
        # grid an extraction gives, so a full block of them sums to 53 bits.
        # Each block is followed by its negation in another order: the total is
        # 0, and a rounded block sum would show.  With ``split``, two values at
        # 2**1010 make the bound take the near-limit split, under which the
        # values from 2**1000 up are summed apart.
        rng = np.random.default_rng(33)
        scale = 2.0**1000 if split else 1.0
        for _ in range(8):
            block = -scale * rng.uniform(1.0, 2.0, _BLOCK)
            values = np.concatenate([block, -rng.permutation(block)] + [[2.0**1010, -(2.0**1010)]] * split)
            assert math.fsum(values) == 0.0
            self.assert_fsum_bits(values)

    @pytest.mark.parametrize("bound", [1e3, 1e150, 1e300, 1.7e308])
    def test_a_bound_far_above_the_data(self, bound):
        values = np.random.default_rng(32).standard_normal(_BLOCK + 5)
        assert _exact_sum(lambda: _blocks(values), bound).hex() == math.fsum(values).hex()

    def test_zeros_of_either_sign(self):
        for values in ([0.0], [-0.0], [-0.0, -0.0], [0.0, -0.0] * _BLOCK):
            self.assert_fsum_bits(values)
            assert _exact_sum(lambda: _blocks(np.array(values)), 1.0).hex() == "0x0.0p+0"

    @pytest.mark.parametrize("tail, want", [(2.0**-110, 1.0 + 2.0**-52), (-(2.0**-110), 1.0)], ids=["above", "below"])
    def test_sums_next_to_a_rounding_midpoint_take_the_remainder_passes(self, tail, want):
        # The exact sum lies just off the midpoint 1 + 2**-53, and the
        # remainders' float sum drops the tail, so the first pass's bounds
        # round apart: the blocks are iterated a second time.
        values = np.array([1.0, 2.0**-53, tail])
        sources = []
        got = _exact_sum(lambda: sources.append(values) or _blocks(values), 1.0)
        assert got.hex() == math.fsum(values).hex() == want.hex()
        assert len(sources) == 2


class TestMeanStd:
    @pytest.mark.parametrize("size", [100, 1000, 10000])
    def test_study_samples_match_fsum(self, size):
        seed = ExperimentConfig().seed
        for m in range(20):
            x = sample_mixture(DEFAULT_MIXTURE, size, replication_rng(seed, size, m))
            got, want = _mean_std(x), fsum_mean_std(x)
            assert [v.hex() for v in got] == [v.hex() for v in want]

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_large_draws_match_fsum(self, seed):
        x = sample_mixture(DEFAULT_MIXTURE, 100_000, np.random.default_rng(seed))
        got, want = _mean_std(x), fsum_mean_std(x)
        assert [v.hex() for v in got] == [v.hex() for v in want]

    @given(
        pool=st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=30),
        size=st.integers(1, 3 * _BLOCK + 7),
        draw=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=300, deadline=None)
    def test_any_finite_array_matches_fsum(self, pool, size, draw):
        x = np.array(pool)[np.random.default_rng(draw).integers(0, len(pool), size)]
        try:
            with np.errstate(over="ignore"):  # a square past the float range makes fsum's std inf
                want = fsum_mean_std(x)
        except OverflowError:  # fsum's partials left the float range
            want = (math.inf, math.inf)
        if not math.isfinite(want[1]):
            # Past fsum's range: an InputError, or a finite result where only
            # fsum's partials overflowed.
            with contextlib.suppress(InputError):
                assert all(map(math.isfinite, _mean_std(x)))
        elif want[1] == 0.0:
            with pytest.raises(DegenerateDataError):
                _mean_std(x)
        else:
            assert [v.hex() for v in _mean_std(x)] == [v.hex() for v in want]

    def test_study_samples_and_a_long_series_take_one_pass(self, monkeypatch):
        # The mean and the variance of 20 default-study samples per T, and of
        # a 100 000-point mixture series, are certified by their first pass:
        # each sum takes its blocks once.
        seed = ExperimentConfig().seed
        samples = [sample_mixture(DEFAULT_MIXTURE, size, replication_rng(seed, size, m))
                   for size in (100, 1000, 10000) for m in range(20)]
        samples.append(sample_mixture(DEFAULT_MIXTURE, 100_000, np.random.default_rng(1)))
        sources = []
        monkeypatch.setattr("npgq.moments._blocks", lambda x: sources.append(x) or _blocks(x))
        for x in samples:
            sources.clear()
            _mean_std(x)
            assert len(sources) == 2, x.size

    def test_offset_data_over_many_blocks_matches_fsum(self):
        x = 1e8 + np.random.default_rng(1).standard_normal(200_000)
        assert [v.hex() for v in _mean_std(x)] == [v.hex() for v in fsum_mean_std(x)]

    def test_memory_is_bounded_by_the_block(self):
        # A full-size (x - mean) ** 2 on a million points alone is 8 MB.
        x = np.random.default_rng(4).standard_normal(1_000_000)
        tracemalloc.start()
        try:
            _mean_std(x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1e6


class TestStandardize:
    """A :class:`Sample`'s standardization: ``transform`` and ``z``."""

    def test_two_point(self):
        sample = Sample([0.0, 2.0])
        transform, z = sample.transform, sample.z
        assert transform.shift == pytest.approx(1.0)
        assert transform.scale == pytest.approx(1.0)
        np.testing.assert_allclose(z, [-1.0, 1.0])

    def test_constant_data_is_degenerate(self):
        with pytest.raises(DegenerateDataError):
            Sample([5.0, 5.0, 5.0]).z

    def test_three_point_hand_computation(self):
        # mean 2, population variance ((1)+(0)+(1))/3 = 2/3
        sample = Sample([1.0, 2.0, 3.0])
        transform, z = sample.transform, sample.z
        assert transform.shift == pytest.approx(2.0, abs=1e-12)
        assert transform.scale == pytest.approx(math.sqrt(2.0 / 3.0), rel=1e-12)
        assert np.mean(z) == pytest.approx(0.0, abs=1e-12)
        assert np.mean(z**2) == pytest.approx(1.0, rel=1e-12)

    @given(
        data=st.lists(st.floats(-1e3, 1e3), min_size=3, max_size=30),
        shift=st.floats(-50, 50),
    )
    @settings(max_examples=50, deadline=None)
    def test_round_trip(self, data, shift):
        x = np.asarray(data) + shift
        if np.std(x) < 1e-6:
            return
        sample = Sample(x)
        transform, z = sample.transform, sample.z
        # Exactly rounded mean and population std, and z read-only.
        assert transform == AffineTransform(*fsum_mean_std(x))
        assert np.array_equal(z, transform.to_standardized(x))
        assert not z.flags.writeable
        np.testing.assert_allclose(transform.to_original(z), x, rtol=1e-12, atol=1e-9)
        np.testing.assert_allclose(
            transform.to_standardized(transform.to_original(z)), z, rtol=1e-12, atol=1e-12
        )


class TestAffineTransform:
    def test_rejects_bad_scale(self):
        with pytest.raises(InputError):
            AffineTransform(shift=0.0, scale=0.0)
        with pytest.raises(InputError):
            AffineTransform(shift=0.0, scale=-1.0)

    @pytest.mark.parametrize("shift, scale, message", [
        (math.nan, 1.0, "affine transform parameters must be finite"),
        (0.0, math.inf, "affine transform parameters must be finite"),
        (0.0, 0.0, "scale must be positive, got 0.0"),
    ])
    def test_messages(self, shift, scale, message):
        with pytest.raises(InputError) as info:
            AffineTransform(shift=shift, scale=scale)
        assert str(info.value) == message


class TestGaussianMoments:
    def test_standard_normal_double_factorials(self):
        assert gaussian_moments(0.0, 1.0, 6).values == (1.0, 0.0, 1.0, 0.0, 3.0, 0.0, 15.0)

    def test_point_mass(self):
        mu = -1.7
        assert gaussian_moments(mu, 0.0, 3).values == (1.0, mu, mu**2, mu**3)

    def test_against_quadrature_oracle(self):
        # Independent oracle: numerical integration of x^k against the
        # N(1, 4) density over a wide interval.
        from scipy.integrate import quad

        mean, std = 1.0, 2.0
        expected = []
        for k in range(5):
            val, _ = quad(
                lambda x, k=k: x**k
                * math.exp(-0.5 * ((x - mean) / std) ** 2)
                / (std * math.sqrt(2 * math.pi)),
                mean - 40 * std,
                mean + 40 * std,
            )
            expected.append(val)
        np.testing.assert_allclose(expected, [1.0, 1.0, 5.0, 13.0, 73.0], rtol=1e-9)
        np.testing.assert_allclose(gaussian_moments(mean, std, 4).values, expected, rtol=1e-9)

    def test_odd_moments_vanish_at_zero_mean(self):
        vals = gaussian_moments(0.0, 2.5, 9).values
        assert all(vals[k] == 0.0 for k in range(1, 10, 2))

    def test_rejects_negative_std(self):
        with pytest.raises(InputError):
            gaussian_moments(0.0, -1.0, 2)


class TestMixtureMoments:
    def test_two_point_mass(self):
        mix = GaussianMixture(proportions=(0.5, 0.5), means=(-1.0, 1.0), stds=(0.0, 0.0))
        assert mixture_moments(mix, 4).values == (1.0, 0.0, 1.0, 0.0, 1.0)

    def test_single_component_reduces_to_gaussian(self):
        mix = GaussianMixture(proportions=(1.0,), means=(0.3,), stds=(1.7,))
        np.testing.assert_allclose(
            mixture_moments(mix, 8).values, gaussian_moments(0.3, 1.7, 8).values, rtol=1e-14
        )

    def test_atoms_match_weighted_sample_moments(self):
        # All-zero stds: the mixture is a weighted atom set, so its moments
        # must equal the sample moments of data with those frequencies.
        mix = GaussianMixture(proportions=(0.25, 0.75), means=(-1.0, 2.0), stds=(0.0, 0.0))
        data = [-1.0] * 1 + [2.0] * 3
        np.testing.assert_allclose(
            mixture_moments(mix, 6).values, sample_moments(data, 6), rtol=1e-14
        )

    def test_default_mixture_against_monte_carlo_oracle(self):
        draws = sample_mixture(DEFAULT_MIXTURE, 10_000_000, replication_rng(7, 4, 0))
        analytic = mixture_moments(DEFAULT_MIXTURE, 4)
        for k in range(1, 5):
            powers = draws**k
            estimate = powers.mean()
            se = powers.std(ddof=1) / math.sqrt(draws.size)
            assert abs(analytic[k] - estimate) < 3.0 * se

    @pytest.mark.parametrize("proportions, means, stds, message", [
        ((), (), (), "mixture needs at least one component"),
        ((1.0,), (0.0, 1.0), (1.0,), "mixture parameter arrays must have equal length"),
        ((1.0,), (math.nan,), (1.0,), "mixture parameters must be finite"),
        ((0.0, 1.0), (0.0, 1.0), (1.0, 1.0), "mixture proportions must lie in (0, 1]"),
        ((0.5, 0.4), (0.0, 1.0), (1.0, 1.0), "mixture proportions must sum to 1, got 0.9"),
        ((1.0,), (0.0,), (-0.1,), "mixture stds must be nonnegative"),
    ])
    def test_invalid_mixture_messages(self, proportions, means, stds, message):
        with pytest.raises(InputError) as info:
            GaussianMixture(proportions=proportions, means=means, stds=stds)
        assert str(info.value) == message

    def test_invalid_mixtures_rejected(self):
        with pytest.raises(InputError):
            GaussianMixture(proportions=(0.5, 0.4), means=(0, 1), stds=(1, 1))
        with pytest.raises(InputError):
            GaussianMixture(proportions=(), means=(), stds=())
        with pytest.raises(InputError):
            GaussianMixture(proportions=(1.0,), means=(0.0,), stds=(-0.1,))

