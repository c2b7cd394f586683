import hashlib
import itertools
import math
import os
import subprocess
import sys
import threading
import timeit
import tracemalloc
import types

import numpy as np
import pytest
from numpy.polynomial.hermite_e import hermegauss

from npgq import (
    AffineTransform,
    DegenerateDataError,
    InputError,
    NpgqError,
    NumericalError,
    InfeasibleError,
    Sample,
    expectation,
    gauss_hermite_discretize,
    kde_pdf,
    maxent_discretize,
    maxent_solve,
    sample_moments,
)
import npgq.baselines
from npgq.baselines import (
    _SPLIT_VALUES,
    _SQRT_2PI,
    _even_grid,
    _grid_layout,
    _maxent_problems,
    _maxent_solutions,
    _pair_quadratics,
    _reach,
    _silverman,
    _solve_duals,
    _stack,
)
from npgq.moments import _BLOCK
from npgq.experiments import DEFAULT_MIXTURE, replication_rng, sample_mixture

from _oracles import interior_margin, maxent_dual

PHI0 = 1.0 / math.sqrt(2.0 * math.pi)


def fit(data):
    """The MLE Gaussian fit ``(mean, std)``: the data's standardization."""
    transform = Sample(data).transform
    return transform.shift, transform.scale


def silverman(data):
    """Silverman's bandwidth of the data, as ``npgq plotdata`` takes it."""
    return _silverman(fit(data)[1], len(data))


class TestGaussianMle:
    """Gauss-Hermite fits the Gaussian whose mean and std are the data's
    population ones: ``Sample.transform``."""

    def test_symmetric_two_point(self):
        assert fit([-1.0, 1.0]) == pytest.approx((0.0, 1.0))

    def test_hand_computation(self):
        # mean 1, population variance (1+1+1+9)/4 = 3
        mean, std = fit([0.0, 0.0, 0.0, 4.0])
        assert mean == pytest.approx(1.0)
        assert std == pytest.approx(math.sqrt(3.0))

    def test_constant_data_rejected(self):
        with pytest.raises(DegenerateDataError):
            fit([2.0] * 5)


class TestGaussHermite:
    def test_three_nodes_on_unit_data(self):
        dist = gauss_hermite_discretize([-1.0, 1.0], 3)
        root = math.sqrt(3.0)
        np.testing.assert_allclose(dist.nodes, [-root, 0.0, root], atol=1e-13)
        np.testing.assert_allclose(dist.weights, [1 / 6, 2 / 3, 1 / 6], rtol=1e-13)

    def test_single_node_is_mean(self):
        dist = gauss_hermite_discretize([1.0, 2.0, 6.0], 1)
        assert dist.nodes[0] == pytest.approx(3.0, rel=1e-14)
        assert dist.weights[0] == pytest.approx(1.0)

    def test_two_nodes_closed_form(self):
        # 2-point rule for N(mean, std^2): nodes mean +/- std, weights 1/2.
        data = [0.0, 1.0, 5.0, 2.0]
        mean, std = fit(data)
        dist = gauss_hermite_discretize(data, 2)
        np.testing.assert_allclose(dist.nodes, [mean - std, mean + std], rtol=1e-12)
        np.testing.assert_allclose(dist.weights, [0.5, 0.5], rtol=1e-12)

    def test_symmetry_about_fitted_mean(self):
        rng = np.random.default_rng(5)
        data = rng.standard_normal(300) * 2.1 + 0.4
        mean, _ = fit(data)
        for n in range(2, 10):
            dist = gauss_hermite_discretize(data, n)
            centered = np.asarray(dist.nodes) - mean
            np.testing.assert_allclose(centered, -centered[::-1], atol=1e-10)
            np.testing.assert_allclose(dist.weights, dist.weights[::-1], rtol=1e-10)

    @pytest.mark.parametrize("n", [20, 38, 40, 60])
    def test_matches_hermegauss_at_large_n(self, n):
        # The exact Hermite recurrence keeps its accuracy as N grows; a
        # route through Gaussian moments drifts from N = 12 and fails at N = 38.
        data = np.random.default_rng(n).standard_normal(200) * 0.3 + 1.7
        mean, std = fit(data)
        dist = gauss_hermite_discretize(data, n)
        nodes, weights = hermegauss(n)
        assert len(dist) == n
        np.testing.assert_allclose((np.asarray(dist.nodes) - mean) / std, nodes, rtol=0, atol=1e-13)
        np.testing.assert_allclose(dist.weights, weights / math.sqrt(2.0 * math.pi), rtol=0, atol=1e-13)

    def test_underflowing_weights_are_a_numerical_error(self):
        # From N = 147 the outermost weights underflow to 0: a numerical
        # limit of the rule, not bad input.
        data = np.linspace(-1.0, 1.0, 11)
        assert len(gauss_hermite_discretize(data, 146)) == 146
        with pytest.raises(NumericalError, match="147-node rule .* reduce N"):
            gauss_hermite_discretize(data, 147)


class TestKernelDensity:
    def test_single_point_at_origin(self):
        assert kde_pdf((0.0,), 1.0, 0.0) == pytest.approx(PHI0)

    def test_symmetric_data_symmetric_density(self):
        data = [-2.0, -1.0, 1.0, 2.0]
        h = silverman(data)
        for x in (0.3, 1.1, 2.7):
            assert kde_pdf(data, h, x) == pytest.approx(kde_pdf(data, h, -x), rel=1e-12)

    def test_tail_bound_by_nearest_kernel(self):
        data = [-1.0, 0.0, 1.0]
        h = silverman(data)
        x = 8.0
        nearest = min(abs(x - xi) for xi in data)
        bound = math.exp(-0.5 * (nearest / h) ** 2) * PHI0 / h
        assert kde_pdf(data, h, x) <= bound

    def test_silverman_bandwidth(self):
        rng = np.random.default_rng(2)
        data = rng.standard_normal(500) * 1.7
        _, std = fit(data)
        assert silverman(data) == pytest.approx(1.06 * std * 500 ** (-0.2), rel=1e-12)

    @pytest.mark.parametrize("x", [
        np.array([[0.5, 3.0]]),
        [[0.5], [3.0]],
        np.array([[0.5, 3.0, -1.0], [2.0, 9.0, 4.5]], order="F"),
        np.zeros((2, 0)),
    ], ids=["row", "nested-list", "fortran", "empty"])
    def test_values_take_the_shape_of_the_points(self, x):
        data = [1.0, 2.0, 4.0, 8.0]
        points = np.asarray(x, dtype=float)
        values = kde_pdf(data, 0.5, x)
        assert values.shape == points.shape
        flat = [kde_pdf(data, 0.5, v) for v in points.ravel().tolist()]
        assert values.ravel().tolist() == flat == kde_pdf(data, 0.5, points.ravel()).tolist()

    def test_reads_data_of_any_shape_without_writing_it(self):
        data = np.array([[1.0, 2.0], [4.0, 8.0]])
        data.setflags(write=False)
        grid = np.linspace(0.0, 9.0, 7)
        assert np.array_equal(kde_pdf(data, 0.5, grid), kde_pdf([1.0, 2.0, 4.0, 8.0], 0.5, grid))

    @pytest.mark.parametrize("data", [[], [1.0, math.nan], [math.inf]])
    def test_rejects_bad_data(self, data):
        with pytest.raises(InputError):
            kde_pdf(data, 1.0, 0.0)

    @pytest.mark.parametrize("data, bandwidth, x, expected", [
        ([1.0, 2.0], 1e-300, [1e300], [0.0]),  # (x - x_i) / h overflows
        ([-1e308, 0.0], 1.0, [1e308], [0.0]),  # x - x_i overflows
        ([-0.5, 0.5], 1.0, [1e200, 0.0], [0.0, PHI0 * math.exp(-0.125)]),  # (x - x_i)^2 overflows
    ], ids=["divide", "subtract", "multiply"])
    def test_an_overflowing_lane_is_a_far_lane(self, data, bandwidth, x, expected):
        # Its kernel term is 0, with no overflow warning: pytest makes one an error.
        np.testing.assert_allclose(kde_pdf(data, bandwidth, x), expected, rtol=1e-15, atol=0)

    # A subnormal bandwidth: a value, up to 1/(h sqrt(2 pi)), would overflow.
    @pytest.mark.parametrize("bandwidth", [0.0, -1.0, math.nan, math.inf, 5e-324])
    @pytest.mark.filterwarnings("error")
    def test_rejects_bad_bandwidth(self, bandwidth):
        with pytest.raises(InputError, match="bandwidth must be positive"):
            kde_pdf([1.0, 2.0], bandwidth, 0.0)

    @pytest.mark.filterwarnings("error")
    def test_smallest_normal_bandwidth_gives_a_finite_value(self):
        tiny = np.finfo(float).tiny
        np.testing.assert_allclose(kde_pdf([0.0], tiny, [0.0]), [PHI0 / tiny], rtol=1e-15, atol=0)

    @pytest.mark.filterwarnings("error")
    def test_rejects_complex_points(self):
        # A cast to float would give the density at the real part.
        with pytest.raises(InputError, match="evaluation points must be real, not complex"):
            kde_pdf([0.0, 1.0], 1.0, np.array([0.5 + 3j]))

    @pytest.mark.parametrize("x", [math.nan, -math.inf, [0.0, math.nan], [[1.0], [math.inf]]])
    def test_rejects_non_finite_points(self, x):
        # A NaN point has no density: an error, not a NaN value.
        with pytest.raises(InputError, match="evaluation points contain non-finite entries"):
            kde_pdf([1.0, 2.0], 0.5, x)

    def test_grid_blocks_bound_memory_and_keep_every_bit(self):
        # 512 grid points on 50 000 data points: one (512 x T) temporary
        # alone would be 205 MB.
        data = np.random.default_rng(8).standard_normal(50_000)
        grid = np.linspace(-5.0, 5.0, 512)
        tracemalloc.start()
        try:
            vals = kde_pdf(data, 0.1, grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64e6
        # Each grid point's row is summed alone, whatever block it is in.
        rows = [kde_pdf(data, 0.1, grid[i : i + 1])[0] for i in range(0, 512, 37)]
        assert np.array_equal(vals[::37], rows)

    @pytest.mark.parametrize("size", [_BLOCK // 9, 1000, _BLOCK + 1, 10_000, 100_000])
    def test_np_me_prior_keeps_every_bit(self, size):
        # Each grid point's value is its own contiguous sum over the data,
        # on the 9-point grid and on the study's 19 distinct points.  At
        # 100 000 points the outer points are past the 37.64 h cut from
        # much of the data, and those terms vanish in the sum either way.
        z = Sample(sample_mixture(DEFAULT_MIXTURE, size, np.random.default_rng(size))).z
        h = _silverman(1.0, size)
        for grid in (_even_grid(9), _grid_layout((3, 5, 7, 9))[1]):
            want = [np.exp(-0.5 * u * u).sum() / (size * h * _SQRT_2PI) for u in ((x - z) / h for x in grid)]
            assert [v.hex() for v in kde_pdf(z, h, grid)] == [v.hex() for v in want]

    def test_blocks_with_and_without_far_lanes_keep_every_bit(self):
        # 1000 points give blocks of 8 grid rows.  At h = 0.2 the cut is
        # 7.53 from a data point, so the outer blocks of the +-12 grid hold
        # far lanes and the inner ones none; each row must equal its own
        # masked sum, whichever kind of block it is in.  The points 38 h past
        # the data's ends have only far terms, all subnormal: they count as 0.
        data = np.random.default_rng(10).standard_normal(1000)
        h = 0.2
        edges = [data.min() - 38.0 * h, data.max() + 38.0 * h]
        grid = np.sort(np.concatenate([np.linspace(-12.0, 12.0, 62), edges]))
        u = (grid[:, None] - data) / h
        k = -0.5 * u
        k *= u
        cut = k < npgq.baselines._LOG_TINY
        far = cut.reshape(-1, _BLOCK // data.size, data.size).any(axis=(1, 2))
        assert far.any() and not far.all()
        assert all(np.exp(k[grid == x]).sum() > 0.0 for x in edges)
        terms = np.exp(np.where(cut, 0.0, k))
        terms[cut] = 0.0
        want = [row.sum() / (data.size * h * _SQRT_2PI) for row in terms]
        vals = kde_pdf(data, h, grid)
        assert [v.hex() for v in vals] == [v.hex() for v in want]
        assert all(vals[grid == x] == 0.0 for x in edges)

    def test_terms_below_the_smallest_normal_are_zero(self):
        # A term exp(-u**2 / 2) past |u| = 37.64 is subnormal or 0; it
        # counts as 0.  At u = 37.6 it is normal and kept.
        assert kde_pdf([0.0], 1.0, 37.7) == 0.0
        assert kde_pdf([0.0], 1.0, 38.0) == 0.0
        assert kde_pdf([0.0], 1.0, 37.6).hex() == (math.exp(-0.5 * 37.6 * 37.6) / _SQRT_2PI).hex()
        data = np.array([0.0, 37.7, -38.0, 1.0])
        assert kde_pdf(data, 1.0, 0.5) == kde_pdf([0.0, 1.0], 1.0, 0.5) / 2

    def test_np_me_prior_memory_is_bounded_by_the_data(self):
        # np-me's largest grid on 100 000 points: one (9 x T) temporary
        # alone is 7.2 MB.
        z = np.random.default_rng(9).standard_normal(100_000)
        h, grid = _silverman(1.0, z.size), _even_grid(9)
        tracemalloc.start()
        try:
            kde_pdf(z, h, grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4e6

    def test_integrates_to_one(self):
        rng = np.random.default_rng(3)
        data = rng.standard_normal(50)
        grid = np.linspace(data.min() - 8, data.max() + 8, 20001)
        total = np.trapezoid(kde_pdf(data, silverman(data), grid), grid)
        assert total == pytest.approx(1.0, abs=1e-6)


class TestKernelDensitySplit:
    """From _SPLIT_VALUES data values and _SPLIT_ROWS points on, one helper
    thread computes every other row: every value is the serial loop's bit
    for bit, and no thread outlives the call."""

    # np-me's 9-point grid and points out to +-40 std, where many lanes are far.
    GRID = np.concatenate([_even_grid(9), np.linspace(-40.0, 40.0, 17)])

    @staticmethod
    def spy_threads(monkeypatch):
        """The threads kde_pdf starts, from here on."""
        started = []

        class Spy(threading.Thread):
            def start(self):
                started.append(self)
                super().start()

        monkeypatch.setattr(npgq.baselines, "threading", types.SimpleNamespace(Thread=Spy))
        return started

    @staticmethod
    def standardized(size):
        return Sample(sample_mixture(DEFAULT_MIXTURE, size, np.random.default_rng(size))).z

    # np-me's N = 3 call never splits, whatever T: its three rows would split 2 + 1.
    @pytest.mark.parametrize("size, points, split", [
        (_SPLIT_VALUES - 1, GRID, False),
        (_SPLIT_VALUES, GRID, True),
        (_SPLIT_VALUES, _even_grid(4), True),
        (100_000, _even_grid(3), False),
        (100_000, GRID, True),
    ], ids=["below", "at", "four-rows", "three-rows", "large"])
    def test_rows_are_the_one_point_calls_bit_for_bit(self, monkeypatch, size, points, split):
        # A one-point call never splits, so it is the serial loop's row.
        z, h = self.standardized(size), _silverman(1.0, size)
        started = self.spy_threads(monkeypatch)
        before = threading.active_count()
        vals = kde_pdf(z, h, points)
        assert len(started) == split
        assert threading.active_count() == before and not any(t.is_alive() for t in started)
        rows = [kde_pdf(z, h, p) for p in points.tolist()]
        assert len(started) == split
        assert [v.hex() for v in vals] == [v.hex() for v in rows]
        assert (vals == 0.0).any() == (points is self.GRID)

    CHILD = """
import hashlib, os, sys
if sys.argv[1] == "pinned":  # before numpy and its BLAS threads start
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
import numpy as np
from npgq import Sample
from npgq.baselines import _even_grid, _silverman, kde_pdf
from npgq.experiments import DEFAULT_MIXTURE, sample_mixture
z = Sample(sample_mixture(DEFAULT_MIXTURE, 100_000, np.random.default_rng(100_000))).z
grid = np.concatenate([_even_grid(9), np.linspace(-40.0, 40.0, 17), np.linspace(-5.0, 5.0, 64)])
print(len(os.sched_getaffinity(0)), hashlib.sha256(kde_pdf(z, _silverman(1.0, z.size), grid).tobytes()).hexdigest())
"""

    @pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="no os.sched_setaffinity on this platform")
    def test_one_cpu_gives_the_same_bits(self):
        # Pinned to one CPU, the two threads take turns; by default they
        # run side by side where there are two CPUs.  The values are the same.
        package = os.path.dirname(os.path.dirname(npgq.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [package, os.environ.get("PYTHONPATH")])))
        out = {}
        for mode in ("pinned", "default"):
            run = subprocess.run([sys.executable, "-c", self.CHILD, mode], env=env, capture_output=True, text=True,
                                 check=True, timeout=120)
            out[mode] = run.stdout.split()
        assert out["pinned"][0] == "1"
        assert out["pinned"][1] == out["default"][1]
        grid = np.concatenate([self.GRID, np.linspace(-5.0, 5.0, 64)])
        here = kde_pdf(self.standardized(100_000), _silverman(1.0, 100_000), grid)
        assert hashlib.sha256(here.tobytes()).hexdigest() == out["default"][1]

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflowing_lanes_in_the_helpers_rows_do_not_warn(self, monkeypatch):
        # At h = 1e-160, -(x - x_i)**2 / (2 h**2) overflows on every lane
        # with x != x_i; rows 1, 3, 5 and 7 are the helper's.  A warning
        # there would be an error, raised from the call.
        data = np.random.default_rng(12).standard_normal(_SPLIT_VALUES)
        grid = np.concatenate([np.linspace(-40.0, 40.0, 7), data[:1]])
        started = self.spy_threads(monkeypatch)
        vals = kde_pdf(data, 1e-160, grid)
        assert len(started) == 1
        assert vals[:-1].tolist() == [0.0] * 7 and vals[-1] > 0.0
        assert [v.hex() for v in vals] == [kde_pdf(data, 1e-160, p).hex() for p in grid.tolist()]

    def test_an_error_in_the_helpers_rows_comes_out_of_the_call(self, monkeypatch):
        class HelperRowError(Exception):
            pass

        exp = np.exp

        def exp_on_the_main_thread(*args, **kwargs):
            if threading.current_thread() is not threading.main_thread():
                raise HelperRowError("exp off the main thread")
            return exp(*args, **kwargs)

        z = self.standardized(_SPLIT_VALUES)
        before = threading.active_count()
        monkeypatch.setattr(np, "exp", exp_on_the_main_thread)
        with pytest.raises(HelperRowError, match="exp off the main thread"):
            kde_pdf(z, _silverman(1.0, z.size), self.GRID)
        assert threading.active_count() == before
        # A call that does not split runs on the main thread alone.
        assert kde_pdf(z, _silverman(1.0, z.size), self.GRID[:3]).shape == (3,)

    def test_concurrent_callers_under_fast_switching_get_the_serial_values(self):
        # Four callers, each with its helper, on two CPUs at a 1 us switch
        # interval: a row lost or written by the wrong thread shows as a
        # value that differs from the serial loop's.
        z, h = self.standardized(_SPLIT_VALUES), _silverman(1.0, _SPLIT_VALUES)
        want = [kde_pdf(z, h, p).hex() for p in self.GRID.tolist()]
        got = [None] * 4

        def call(c):
            got[c] = [v.hex() for v in kde_pdf(z, h, self.GRID)]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            callers = [threading.Thread(target=call, args=(c,)) for c in range(4)]
            for caller in callers:
                caller.start()
            for caller in callers:
                caller.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(caller.is_alive() for caller in callers)
        assert got == [want] * 4

    @pytest.mark.parametrize("n", [5, 7, 9])
    def test_np_me_rules_do_not_depend_on_the_split(self, monkeypatch, n):
        data = sample_mixture(DEFAULT_MIXTURE, 100_000, np.random.default_rng(n))
        started = self.spy_threads(monkeypatch)
        split = maxent_discretize(data, n)
        assert len(started) == 1
        monkeypatch.setattr(npgq.baselines, "_SPLIT_VALUES", math.inf)
        serial = maxent_discretize(data, n)
        assert len(started) == 1
        assert [v.hex() for v in split.nodes + split.weights] == [v.hex() for v in serial.nodes + serial.weights]


class TestMaxentGrid:
    """The even grid np-me tilts on, as :func:`maxent_solve` returns it."""

    def test_five_point_span(self):
        grid = np.asarray(maxent_solve([-1.0, 1.0], 5).nodes)  # mean 0, std 1
        half = math.sqrt(8.0)
        np.testing.assert_allclose(grid, np.linspace(-half, half, 5), rtol=1e-12)
        assert np.allclose(np.diff(grid), np.diff(grid)[0])

    def test_two_point_endpoints(self):
        # A 2-point grid fixes the second moment at 2 std^2, so maxent_solve
        # cannot match a variance on it; check the standardized grid directly.
        grid = _even_grid(2)
        np.testing.assert_allclose(grid, [-math.sqrt(2.0), math.sqrt(2.0)], rtol=1e-12)

    @pytest.mark.parametrize("size", [100, 1000])
    def test_grid_is_exact_in_standardized_units(self, size):
        # The standardized data has mean 0 and std 1 by definition, so the
        # grid is linspace(-h, h, N) mapped back, bit for bit, with no
        # re-estimate of the standardized mean and std.
        for m in range(20):
            sample = Sample(sample_mixture(DEFAULT_MIXTURE, size, replication_rng(1, size, m)))
            for n in (3, 5, 7, 9):
                half = math.sqrt(2.0 * (n - 1))
                expected = sample.transform.to_original(np.linspace(-half, half, n))
                assert maxent_solve(sample, n).nodes == tuple(expected)

    def test_midpoint_is_mean(self):
        rng = np.random.default_rng(9)
        data = rng.uniform(3, 9, 101)
        mean, _ = fit(data)
        grid = maxent_solve(data, 3).nodes
        assert grid[1] == pytest.approx(mean, rel=1e-12)

    def test_requires_two_points(self):
        # A 2-point grid cannot carry unit variance (see above), so np-me
        # needs three points.
        for n in (1, 2):
            with pytest.raises(InputError, match=">= 3"):
                maxent_solve([-1.0, 1.0], n)


class TestMaxentDual:
    def test_gradient_vanishes_when_prior_matches_targets(self):
        nodes = np.array([-2.0, -1.0, 0.0, 1.0, 2.0])
        prior = np.full(5, 0.2)
        targets = np.array([prior @ nodes, prior @ nodes**2])
        ((lam, weights, iterations),) = _solve_duals([(nodes, prior, targets)])
        assert iterations == 0
        np.testing.assert_array_equal(lam, [0.0, 0.0])
        np.testing.assert_allclose(weights, prior, rtol=1e-14)

    def test_gradient_is_moment_mismatch(self):
        nodes = np.array([-1.5, 0.0, 2.0])
        prior = np.array([0.25, 0.5, 0.25])
        targets = np.array([0.1, 1.2])
        _, grad = maxent_dual([0.0, 0.0], nodes, prior, targets)
        np.testing.assert_allclose(
            grad, [prior @ nodes - 0.1, prior @ nodes**2 - 1.2], rtol=1e-12
        )

    def test_gradient_matches_central_differences(self):
        rng = np.random.default_rng(4)
        for _ in range(5):
            n = int(rng.integers(4, 9))
            nodes = np.sort(rng.uniform(-3, 3, n))
            prior = rng.dirichlet(np.ones(n))
            n_mom = int(rng.integers(2, 5))
            targets = rng.uniform(-0.5, 1.5, n_mom)
            lam = rng.uniform(-0.3, 0.3, n_mom)
            _, grad = maxent_dual(lam, nodes, prior, targets)
            h = 1e-6
            for i in range(n_mom):
                lam_hi, lam_lo = lam.copy(), lam.copy()
                lam_hi[i] += h
                lam_lo[i] -= h
                v_hi, _ = maxent_dual(lam_hi, nodes, prior, targets)
                v_lo, _ = maxent_dual(lam_lo, nodes, prior, targets)
                assert grad[i] == pytest.approx((v_hi - v_lo) / (2 * h), abs=1e-6)


class TestMaxentSolve:
    def test_symmetric_data_two_moment_match(self):
        # N=4 matches two moments; symmetric data keeps the weights symmetric.
        data = np.array([-2.0, -1.0, -0.5, 0.5, 1.0, 2.0])
        sol = maxent_solve(data, 4)
        assert sol.n_matched == 2
        np.testing.assert_allclose(sol.weights, sol.weights[::-1], rtol=1e-9, atol=1e-12)
        mean, std = fit(data)
        w = np.asarray(sol.weights)
        x = np.asarray(sol.nodes)
        assert w @ x == pytest.approx(mean, abs=1e-8)
        assert w @ x**2 == pytest.approx(std**2 + mean**2, abs=1e-8)

    def test_four_moment_match_on_mixture_sample(self):
        data = sample_mixture(DEFAULT_MIXTURE, 10_000, replication_rng(55, 10_000, 0))
        sol = maxent_solve(data, 5)
        assert sol.n_matched == 4
        assert not sol.downgraded
        target = sample_moments(data, 4)
        for k in range(1, 5):
            assert abs(expectation(sol, lambda x: x**k) - target[k]) <= 1e-8 * max(1.0, abs(target[k]))

    def test_weights_positive_and_normalized(self):
        rng = np.random.default_rng(21)
        sample = Sample(rng.standard_normal(400))
        for n, (_, _, prior, _) in zip((3, 5, 7, 9), _maxent_problems(sample, (3, 5, 7, 9))):
            sol = maxent_solve(sample, n)
            assert all(w > 0 for w in sol.weights)
            assert sum(sol.weights) == pytest.approx(1.0, abs=1e-12)
            assert all(q > 0 for q in prior)

    def test_dual_optimality_in_standardized_units(self):
        rng = np.random.default_rng(34)
        sample = Sample(rng.standard_normal(600) * 0.2 + 0.05)
        sol = maxent_solve(sample, 7)
        # The rule's multipliers: the dual solve it came from.
        (problem,) = _maxent_problems(sample, (7,))
        ((lam, weights, _),) = _solve_duals([problem[1:]])
        assert weights == sol.weights and len(lam) == sol.n_matched
        targets = sample_moments(sample.z, sol.n_matched)[1:]
        _, grad = maxent_dual(lam, problem[1], problem[2], targets)
        assert np.linalg.norm(grad) <= 1e-8

    def test_infeasible_targets_fall_back_to_two_moments(self):
        # Heavy single outlier: the sample kurtosis exceeds what the
        # 5-point grid can represent, so the 4-moment tilt is infeasible.
        data = np.array([0.0] * 400 + [60.0])
        sol = maxent_solve(data, 5)
        assert sol.downgraded
        assert sol.n_matched == 2

    def test_discretize_wrapper(self):
        data = np.array([-2.0, -1.0, 0.0, 1.0, 2.0, 0.5, -0.5])
        dist = maxent_discretize(data, 5)
        assert len(dist) == 5
        assert sum(dist.weights) == pytest.approx(1.0, abs=1e-12)


def _outcome(result):
    """A stacked solve's result for one problem, bit for bit: an np-me
    rule, or the ``(lam, weights, iterations)`` of :func:`_solve_duals`."""
    if isinstance(result, NpgqError):
        return type(result).__name__, str(result)
    if isinstance(result, tuple):
        lam, weights, iterations = result
        return [v.hex() for v in lam], [w.hex() for w in weights], iterations
    return [w.hex() for w in result.weights], result.iterations, result.downgraded, result.n_matched


def _near_facet(rng):
    """A ``(grid, prior, targets)`` tilting problem whose four targets lie
    just inside a facet of the moment hull: the moments of one to three
    grid points plus a mass of 1e-14 to 1e-3 on every other point."""
    n = int(rng.integers(5, 26))
    grid, prior = _even_grid(n), rng.random(n) + 0.01
    mass = np.full(n, 10.0 ** rng.uniform(-14, -3))
    points = rng.choice(n, size=int(rng.integers(1, 4)), replace=False)
    mass[points] = rng.random(points.size)
    mass /= mass.sum()
    return grid, prior / prior.sum(), [float(mass @ grid**k) for k in range(1, 5)]


class TestStackedTilt:
    """Every np-me problem of a stacked solve gets what it gets alone."""

    # The four-target problem of TestSolveDualsPinned whose line search stalls.
    STALLED = (
        _even_grid(5),
        np.array([float.fromhex(v) for v in (
            "0x1.d85c7c570796cp-5", "0x1.9c02d017b7ef6p-7", "0x1.6773bd636eca7p-2",
            "0x1.7f5b3be3e78e8p-4", "0x1.f0c9cd97f89f8p-2",
        )]),
        [float.fromhex(v) for v in (
            "0x1.63a5d463c7ae4p-3", "0x1.ab221d86d5777p+2", "0x1.42da5e16de9a7p+1", "0x1.fb97ef9f184d3p+4",
        )],
    )

    def _problems(self):
        problems = []
        for m, t in enumerate((100, 100, 1000, 1000, 10_000)):
            sample = Sample(sample_mixture(DEFAULT_MIXTURE, t, replication_rng(13, t, m)))
            problems += _maxent_problems(sample, (2, 3, 4, 5, 7, 9, 12))
        # A study sample whose four-moment tilt diverges, then downgrades.
        downgrading = Sample(sample_mixture(DEFAULT_MIXTURE, 100, replication_rng(5, 100, 0)))
        problems += _maxent_problems(downgrading, (5,))
        unit, grid = AffineTransform(0.0, 1.0), _even_grid(5)
        # A second moment of 10 is past the grid's reach (x^2 <= 8), so
        # neither four nor two targets can be matched.
        problems.append((unit, grid, np.full(5, 0.2), [0.0, 10.0, 0.0, 150.0]))
        # Nearly all mass on two points: the Hessian is singular to working
        # precision, so each stacked dual solve falls back to one solve per
        # column and this column to least squares.
        problems.append((unit, grid, np.array([0.5, 5e-324, 5e-324, 5e-324, 0.5]), [0.0, 1.0]))
        # Mass on two points: zero prior weights are a failure before any
        # Newton step, so only the batch of whole problems sees this one.
        problems.append((unit, grid, np.array([0.5, 0.0, 0.0, 0.0, 0.5]), [0.0, 1.0]))
        # Its four targets are out of reach, where its dual stalls: a downgrade.
        problems.append((unit, *self.STALLED))
        # Near a facet, no tilt meets the gradient test within the cap.
        problems.append((unit, *_near_facet(np.random.default_rng(141))))
        return problems

    def test_shuffled_mixed_batch_matches_each_problem_alone(self):
        problems = self._problems()
        alone = [_outcome(_maxent_solutions([p])[0]) for p in problems]
        for seed in range(3):
            order = np.random.default_rng(seed).permutation(len(problems))
            batch = _maxent_solutions([problems[i] for i in order])
            assert [_outcome(r) for r in batch] == [alone[i] for i in order]
        # The cases the batch mixes: an input error passed through, a
        # downgrade, targets out of reach on two moments too, a singular
        # Hessian, a zero prior weight, a downgrade whose four targets
        # stall, and a column at the cap.
        assert alone[0][0] == "InputError"
        assert alone[-6][2] is True and alone[-6][3] == 2
        assert alone[-5][0] in ("InfeasibleError", "NumericalError")
        assert alone[-4][1:] == (25, False, 2)
        assert alone[-3] == ("NumericalError", "a weight of the 5-point np-me rule underflows to 0 -- reduce N")
        assert alone[-2][2] is True and alone[-2][3] == 2
        assert alone[-1] == ("NumericalError", "tilting dual did not converge within 200 iterations")
        assert sum(o[2] is True for o in alone if len(o) == 4) > 1

    def test_shuffled_dual_batch_matches_each_dual_alone(self):
        # The multipliers too, from the dual solves: every problem that
        # reaches them on its own targets, and every four-target one again
        # on two.  A zero prior weight never does (see the mixed batch).
        duals = [p[1:] for p in self._problems() if not isinstance(p, NpgqError) and p[2].all()]
        duals += [(grid, prior, targets[:2]) for grid, prior, targets in duals if len(targets) > 2]
        alone = [_outcome(_solve_duals([d])[0]) for d in duals]
        for seed in range(3):
            order = np.random.default_rng(seed).permutation(len(duals))
            batch = _solve_duals([duals[i] for i in order])
            assert [_outcome(r) for r in batch] == [alone[i] for i in order]
        assert sum(len(o) == 3 and len(o[0]) == 4 for o in alone) > 1
        # Every way a column leaves the stack but convergence, which the
        # line above counts.
        assert {o[1] for o in alone if len(o) == 2} == {
            "tilting dual line search stalled",
            "tilting dual diverged; moment targets are unattainable on the grid",
            "tilting dual did not converge within 200 iterations",
        }

    @pytest.mark.parametrize("size", [100, 1000, 10_000])
    def test_a_prior_does_not_depend_on_the_other_grids(self, size):
        # One kernel-density call serves every grid of a sample.
        sample = Sample(sample_mixture(DEFAULT_MIXTURE, size, replication_rng(14, size, 0)))
        together = _maxent_problems(sample, (3, 5, 7, 9))
        for n, problem in zip((3, 5, 7, 9), together):
            (alone,) = _maxent_problems(sample, (n,))
            assert [v.hex() for v in problem[2]] == [v.hex() for v in alone[2]]

    def test_problems_match_fresh_grids_on_a_read_only_layout(self):
        # The grid layout is built once per tuple of node counts; a cold
        # and a warm cache give the problems of fresh grids, bit for bit.
        sample = Sample(sample_mixture(DEFAULT_MIXTURE, 1000, replication_rng(15, 1000, 0)))
        h, node_counts = _silverman(1.0, sample.z.size), (3, 5, 7, 9, 12)
        _grid_layout.cache_clear()
        for _ in range(2):
            for n, (_, grid, prior, _) in zip(node_counts, _maxent_problems(sample, node_counts)):
                fresh = _even_grid(n)
                density = kde_pdf(sample.z, h, fresh)
                assert grid.tobytes() == fresh.tobytes()
                assert prior.tobytes() == (density / density.sum()).tobytes()
                with pytest.raises(ValueError, match="read-only"):
                    grid[0] = 0.0
        grids, points, indices = _grid_layout(node_counts)
        assert not any(a.flags.writeable for a in (*grids, points, *indices))

    def test_the_stack_takes_each_priors_log(self):
        # One log over the padded columns: a column's points hold np.log of
        # its own prior, bit for bit, and its padding -inf.
        grids, priors, targets = zip(*(p[1:] for p in self._problems() if not isinstance(p, NpgqError) and p[2].all()))
        data = _stack(grids, priors, targets)
        for column, prior in zip(data[:, 0].T, priors):
            assert column[: prior.size].tobytes() == np.log(prior).tobytes()
            assert (column[prior.size :] == -np.inf).all()
        assert len({p.size for p in priors}) > 1

    def test_maxent_solve_is_the_batch_of_one(self):
        sample = Sample(sample_mixture(DEFAULT_MIXTURE, 100, replication_rng(5, 100, 0)))
        for n, problem in zip((3, 5, 9), _maxent_problems(sample, (3, 5, 9))):
            assert _outcome(maxent_solve(sample, n)) == _outcome(_maxent_solutions([problem])[0])

    def test_errors_are_values(self):
        unit = AffineTransform(0.0, 1.0)
        bad = (unit, _even_grid(5), np.full(5, 0.2), [0.0, 10.0, 0.0, 150.0])
        good = (unit, _even_grid(5), np.full(5, 0.2), [0.0, 1.0])
        degenerate = Sample([2.0, 2.0, 2.0])
        results = _maxent_solutions([bad, good] + _maxent_problems(degenerate, (5,)))
        assert isinstance(results[0], NpgqError)
        assert results[1].n_matched == 2 and not results[1].downgraded
        assert isinstance(results[2], DegenerateDataError)

    def test_a_failed_four_target_problem_is_solved_again_on_two(self):
        # A downgraded rule is the plain solve of the first two targets.
        sample = Sample(sample_mixture(DEFAULT_MIXTURE, 100, replication_rng(5, 100, 0)))
        (problem,) = _maxent_problems(sample, (5,))
        transform, grid, prior, targets = problem
        assert len(targets) == 4
        (first,) = _solve_duals([(grid, prior, targets)])
        assert isinstance(first, InfeasibleError)
        ((lam, weights, iterations),) = _solve_duals([(grid, prior, targets[:2])])
        (sol,) = _maxent_solutions([problem])
        assert sol.downgraded and sol.n_matched == len(lam) == 2
        assert [v.hex() for v in sol.weights] == [v.hex() for v in weights]
        assert sol.iterations == iterations
        assert sol.nodes == tuple(transform.to_original(grid))


class TestSolveDualsPinned:
    """:func:`_solve_duals` outcomes pinned in ``float.hex``: one problem
    per way a column leaves the stack."""

    PLAIN = (_even_grid(5), np.array([0.1, 0.2, 0.4, 0.2, 0.1]), [0.1, 1.0, 0.2, 2.5])
    SINGULAR = (_even_grid(5), np.array([0.5, 5e-324, 5e-324, 5e-324, 0.5]), [0.0, 1.0])

    @staticmethod
    def _solve_counting(monkeypatch, problem):
        """Solve alone, counting the dual evaluations: one at lam = 0, one
        per Newton step and one per halved step."""
        calls = []
        values = npgq.baselines._values
        monkeypatch.setattr(npgq.baselines, "_values", lambda *a: calls.append(a) or values(*a))
        (result,) = _solve_duals([problem])
        return result, len(calls)

    def test_plain_four_target_problem_takes_full_steps(self, monkeypatch):
        ((lam, weights, iterations), evaluations) = self._solve_counting(monkeypatch, self.PLAIN)
        assert evaluations == 1 + iterations
        assert [v.hex() for v in lam] == [
            "0x1.2c49e6cba800ap-3", "0x1.d2cc5ce832a5ap-6", "-0x1.2c49e6cba8028p-6", "-0x1.bbb9c9c7a9287p-5",
        ]
        assert [v.hex() for v in weights] == [
            "0x1.555555555868fp-8", "0x1.8cecf40d57bf4p-3", "0x1.0ffffffffff98p-1",
            "0x1.0ededb4ea96a2p-2", "0x1.5555555558675p-8",
        ]
        assert iterations == 7

    def test_study_problem_whose_line_search_halves_its_step(self, monkeypatch):
        sample = Sample(sample_mixture(DEFAULT_MIXTURE, 100, replication_rng(13, 100, 3)))
        (problem,) = _maxent_problems(sample, (7,))
        ((lam, weights, iterations), evaluations) = self._solve_counting(monkeypatch, problem[1:])
        assert evaluations == 1 + iterations + 2
        assert [v.hex() for v in lam] == [
            "0x1.b028d9ccb2013p-4", "-0x1.070ca43cf4f25p-1", "0x1.2d945bb74be3bp-7", "0x1.089d75ad43033p-4",
        ]
        assert [v.hex() for v in weights] == [
            "0x1.2317cf4bf6434p-5", "0x1.405403552d937p-6", "0x1.6fa89d7edcbccp-4", "0x1.43d59efbc2432p-1",
            "0x1.af00662efa307p-3", "0x1.7d24bd0091ed0p-7", "0x1.320f14e2027b1p-11",
        ]
        assert iterations == 6

    def test_diverging_first_attempt_of_a_downgrade(self):
        sample = Sample(sample_mixture(DEFAULT_MIXTURE, 100, replication_rng(5, 100, 0)))
        (problem,) = _maxent_problems(sample, (5,))
        (result,) = _solve_duals([problem[1:]])
        assert type(result) is InfeasibleError
        assert str(result) == "tilting dual diverged; moment targets are unattainable on the grid"

    def test_stalled_line_search(self):
        prior = np.array([float.fromhex(v) for v in (
            "0x1.d85c7c570796cp-5", "0x1.9c02d017b7ef6p-7", "0x1.6773bd636eca7p-2",
            "0x1.7f5b3be3e78e8p-4", "0x1.f0c9cd97f89f8p-2",
        )])
        targets = [float.fromhex(v) for v in (
            "0x1.63a5d463c7ae4p-3", "0x1.ab221d86d5777p+2", "0x1.42da5e16de9a7p+1", "0x1.fb97ef9f184d3p+4",
        )]
        (result,) = _solve_duals([(_even_grid(5), prior, targets)])
        assert type(result) is NumericalError
        assert str(result) == "tilting dual line search stalled"

    def test_singular_hessian_column_takes_least_squares_steps(self, monkeypatch):
        # Three prior weights of 5e-324 leave the Hessian singular to working
        # precision: the column takes least-squares steps, then converges.
        calls = []
        lstsq = np.linalg.lstsq
        monkeypatch.setattr(np.linalg, "lstsq", lambda *a, **k: calls.append(a) or lstsq(*a, **k))
        ((lam, weights, iterations),) = _solve_duals([self.SINGULAR])
        assert len(calls) == 18
        assert [v.hex() for v in lam] == ["0x0.0p+0", "-0x1.753167dc489bap+6"]
        assert [v.hex() for v in weights] == [
            "0x1.0000000021de4p-4", "0x1.858288e3a6d91p-270", "0x1.bffffffff7886p-1",
            "0x1.858288e3a6d91p-270", "0x1.0000000021de4p-4",
        ]
        assert iterations == 25

    def test_the_cap_counts_gradient_tests(self, monkeypatch):
        # The cap is on steps, and the iterate after the last step is
        # tested too: the plain problem passes its test after 7 steps, so
        # a cap of 7 keeps it and a cap of 6 does not.
        monkeypatch.setattr("npgq.baselines._NEWTON_MAX_ITER", 7)
        ((_, _, iterations),) = _solve_duals([self.PLAIN])
        assert iterations == 7
        monkeypatch.setattr("npgq.baselines._NEWTON_MAX_ITER", 6)
        (result,) = _solve_duals([self.PLAIN])
        assert type(result) is NumericalError
        assert str(result) == "tilting dual did not converge within 6 iterations"

    def test_a_newton_error_is_the_rule_s_value(self, monkeypatch):
        # The plain problem on a grid in data units: the capped solve's
        # error is what _maxent_solutions gives for it, and no rule.
        monkeypatch.setattr("npgq.baselines._NEWTON_MAX_ITER", 1)
        (result,) = _maxent_solutions([(AffineTransform(0.0, 1.0), *self.PLAIN)])
        assert type(result) is NumericalError
        assert str(result) == "tilting dual did not converge within 1 iterations"


class TestAttainableTargets:
    """np-me decides before Newton which targets a tilt can reach: inside
    the hull of the grid's moment curve, a cyclic polytope, iff every
    facet polynomial has a positive expectation under the targets."""

    @staticmethod
    def _grid(rng):
        # 3 to 40 points at least 0.05 apart, about the origin.
        grid = np.cumsum(rng.uniform(0.05, 8.0 / 12, int(rng.integers(3, 41))))
        return grid - grid.mean()

    def test_facets_are_the_polytope_facets(self):
        # A facet polynomial vanishes on its k grid points and is positive
        # on the others: each pair quadratic q_i for k = 2, N of them, and
        # each product q_i q_j of two pairs that share no point for k = 4,
        # N(N-3)/2 of them, as a cyclic polytope has.
        rng = np.random.default_rng(160)
        for _ in range(30):
            grid = self._grid(rng)
            n = grid.size
            quadratics = _pair_quadratics(tuple(grid.tolist())).T
            pairs = [{i, (i + 1) % n} for i in range(n)]
            quartics = [
                np.polynomial.polynomial.polymul(quadratics[i], quadratics[j])
                for i, j in itertools.combinations(range(n), 2)
                if pairs[i].isdisjoint(pairs[j])
            ]
            assert quadratics.shape == (n, 3) and len(quartics) == n * (n - 3) // 2
            for k, facets in ((2, quadratics), (4, np.array(quartics).reshape(-1, 5))):
                powers = np.vander(grid, k + 1, increasing=True).T
                values, scale = facets @ powers, np.abs(facets) @ np.abs(powers)
                zero = np.abs(values) <= 1e-12 * scale
                assert (zero.sum(axis=1) == k).all()
                assert (values[~zero] > 0.0).all()
                if k == 2 and n >= 5:
                    # _reach takes the minimum over every product q_i q_j:
                    # each is nonnegative on the grid, and not all 0 there.
                    q = np.where(zero, 0.0, values)
                    products = q[:, None] * q
                    assert (products >= 0.0).all() and (products.max(axis=2) > 0.0).all()

    def test_agrees_with_a_linear_program_near_the_boundary(self):
        # Targets from weights with almost all their mass on k/2 grid
        # points, a face of the hull, and a little on the rest, with one
        # small negative weight in every other draw: just inside the
        # hull, or close to it on either side.
        rng = np.random.default_rng(161)
        outcomes = []
        for draw in range(120):
            grid = self._grid(rng)
            k = 4 if grid.size >= 5 and draw % 3 else 2
            w = rng.uniform(0.0, 1e-3, grid.size)
            w[rng.choice(grid.size, k // 2, replace=False)] += rng.dirichlet(np.ones(k // 2))
            if draw % 2:
                w[rng.integers(grid.size)] = -rng.uniform(0.0, 5e-3)
            targets = (np.vander(grid, k + 1, increasing=True).T[1:] @ (w / w.sum())).tolist()
            margin = interior_margin(grid, targets)
            assert abs(margin) > 1e-8  # far from a tie at the LP's tolerance
            assert (_reach(grid, targets) == k) == (margin > 0.0)
            outcomes.append(margin > 0.0)
        assert 20 <= sum(outcomes) <= 100

    def test_study_downgrades_are_the_diverging_four_target_solves(self):
        duals = []
        for size in (100, 1000):
            for m in range(40):
                sample = Sample(sample_mixture(DEFAULT_MIXTURE, size, replication_rng(20170927, size, m)))
                duals += [p[1:] for p in _maxent_problems(sample, (5, 7, 9))]
        diverged = [isinstance(r, InfeasibleError) for r in _solve_duals(duals)]
        assert [_reach(grid, targets) < len(targets) for grid, _, targets in duals] == diverged
        assert sum(diverged) > 20

    def test_a_batch_is_one_dual_solve(self, monkeypatch):
        calls = []
        solve = npgq.baselines._solve_duals
        monkeypatch.setattr(npgq.baselines, "_solve_duals", lambda duals: calls.append(len(duals)) or solve(duals))
        downgrading = Sample(sample_mixture(DEFAULT_MIXTURE, 100, replication_rng(5, 100, 0)))
        plain = Sample(sample_mixture(DEFAULT_MIXTURE, 1000, replication_rng(5, 1000, 2)))
        unit = AffineTransform(0.0, 1.0)
        unreachable = (unit, _even_grid(5), np.full(5, 0.2), [0.0, 10.0])
        problems = _maxent_problems(downgrading, (5,)) + _maxent_problems(plain, (3, 5, 9)) + [unreachable]
        results = _maxent_solutions(problems)
        assert calls == [4]  # the unreachable problem takes no Newton step
        assert results[0].downgraded and results[0].n_matched == 2
        assert [r.n_matched for r in results[1:4]] == [2, 4, 4]
        assert type(results[4]) is InfeasibleError

    def test_a_thousand_point_grid_is_decided_at_once(self):
        # The k = 4 facets number N(N-3)/2, about half a million here;
        # _reach reads them from one 3 x N matrix in one matrix product.
        npgq.baselines._pair_quadratics.cache_clear()
        grid = _even_grid(1000)
        tracemalloc.start()
        try:
            start = timeit.default_timer()
            assert _reach(grid, [0.0, 1.0, 0.0, 3.0]) == 4
            elapsed = timeit.default_timer() - start
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert elapsed < 1.0
        assert peak <= 16e6

    def test_unreachable_two_targets_are_infeasible_at_once(self):
        # Newton alone would run this problem to its 200-iteration cap.
        problem = (AffineTransform(0.0, 1.0), _even_grid(5), np.full(5, 0.2), [0.0, 10.0])
        (result,) = _maxent_solutions([problem])
        assert type(result) is InfeasibleError
        assert str(result) == "moment targets are unattainable on the 5-point np-me grid"
        assert min(timeit.repeat(lambda: _maxent_solutions([problem]), number=1, repeat=5)) < 1e-3


class TestUnderflowingTilt:
    """A converged tilt whose outer weight underflows to 0 is not a rule."""

    # Replication 0 of the default study seed at T = 10000: the first N
    # rejected is 43, whose outer grid points lie more than 37.64
    # bandwidths past all the data, so their prior is 0.
    def _sample(self):
        return Sample(sample_mixture(DEFAULT_MIXTURE, 10_000, replication_rng(20170927, 10_000, 0)))

    def test_the_solver_converges_to_a_zero_weight(self):
        # A uniform prior on 81 points out to +-40, tilted to the standard
        # normal's moments: the outer weights are about exp(-800), below the
        # smallest double, though every prior weight is positive.
        grid, prior, targets = np.linspace(-40.0, 40.0, 81), np.full(81, 1.0 / 81), [0.0, 1.0, 0.0, 3.0]
        assert prior.min() > 0.0
        ((_, weights, _),) = _solve_duals([(grid, prior, targets)])
        assert min(weights) == 0.0
        (result,) = _maxent_solutions([(AffineTransform(0.0, 1.0), grid, prior, targets)])
        assert isinstance(result, NumericalError)
        assert str(result) == "a weight of the 81-point np-me rule underflows to 0 -- reduce N"

    def test_is_a_numerical_error_value(self):
        results = _maxent_solutions(_maxent_problems(self._sample(), (42, 43)))
        assert min(results[0].weights) > 0.0
        assert isinstance(results[1], NumericalError)
        assert str(results[1]) == "a weight of the 43-point np-me rule underflows to 0 -- reduce N"
        with pytest.raises(NumericalError, match="43-point np-me rule underflows"):
            maxent_discretize(self._sample(), 43)

    def test_a_zero_prior_weight_fails_before_the_facets(self, monkeypatch):
        # At N = 300 the grid reaches 24.5 standard deviations, where the
        # kernel density of 2000 N(0, 1) points is exactly 0.  No tilt lifts
        # a zero weight, so neither the O(N^2) facet test nor Newton runs.
        calls, reach, solve = [], npgq.baselines._reach, npgq.baselines._solve_duals
        monkeypatch.setattr(npgq.baselines, "_reach", lambda *args: calls.append(args) or reach(*args))
        # Every problem handed to Newton; an empty stack takes no step.
        monkeypatch.setattr(npgq.baselines, "_solve_duals", lambda duals: calls.extend(duals) or solve(duals))
        data = np.random.default_rng(0).standard_normal(2000)
        with pytest.raises(NumericalError) as info:
            maxent_solve(data, 300)
        assert str(info.value) == "a weight of the 300-point np-me rule underflows to 0 -- reduce N"
        assert calls == []
