import functools
import math
import operator
import pickle
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from npgq import (
    DegenerateDataError,
    DiscreteDistribution,
    InputError,
    MaxEntSolution,
    NumericalError,
    discretize_data,
    expectation,
    gauss_hermite_discretize,
    maxent_discretize,
    maxent_solve,
    sample_moments,
)
from npgq.experiments import DEFAULT_MIXTURE, replication_rng, sample_mixture
from npgq.moments import _LANCZOS_BLOCK, _MAX_BASIS_BYTES, Sample, _Lanczos
from npgq.quadrature import _columns, _gauss_rule, _standard_normal_rule, _sum0

from _oracles import (
    MomentSequence,
    eigh_tridiagonal_rule,
    gaussian_moments,
    golub_welsch,
    jacobi_from_moments,
    mixture_moments,
    random_mixture,
)

STD_NORMAL_6 = gaussian_moments(0.0, 1.0, 6)


def monic_hermite_offdiag(n):
    """Known recurrence for the standard normal: off-diagonals sqrt(1..n-1)."""
    return tuple(math.sqrt(k) for k in range(1, n))


class TestTypes:
    def test_nodes_must_increase(self):
        with pytest.raises(InputError):
            DiscreteDistribution(nodes=(1.0, 1.0), weights=(0.5, 0.5))

    def test_weights_must_be_positive(self):
        with pytest.raises(InputError):
            DiscreteDistribution(nodes=(0.0, 1.0), weights=(0.5, 0.0))

    @pytest.mark.parametrize("nodes, weights, message", [
        ((), (), "nodes and weights must be nonempty and equal-length"),
        ((0.0, 1.0), (1.0,), "nodes and weights must be nonempty and equal-length"),
        ((0.0, math.inf), (0.5, 0.5), "nodes and weights must be finite"),
        ((0.0, 1.0), (0.5, math.nan), "nodes and weights must be finite"),
        ((1.0, 1.0), (0.5, 0.5), "nodes must be strictly increasing"),
        ((0.0, 1.0), (0.5, 0.0), "weights must be strictly positive"),
    ])
    def test_messages(self, nodes, weights, message):
        with pytest.raises(InputError) as info:
            DiscreteDistribution(nodes=nodes, weights=weights)
        assert str(info.value) == message


# Each way a caller may hand over the nodes and weights of a rule.
_FORMS = {
    "tuple": tuple,
    "list": list,
    "ndarray": np.array,
    "float32": lambda v: np.array(v, dtype=np.float32),
    "int": lambda v: np.array(v, dtype=np.int64),
    "strided": lambda v: np.repeat(np.asarray(v, dtype=float), 2)[::2],
}
# Rules whose values are dyadic, so every form holds them exactly.
_RULES = [((-1.5, 0.25, 2.0), (0.25, 0.5, 0.25)), ((-3.0, 0.0, 1.0, 7.0), (1.0, 2.0, 3.0, 4.0)), ((5.0,), (1.0,))]
_SOLUTION = functools.partial(MaxEntSolution, n_matched=4, downgraded=False, iterations=3)


class TestValidatedInput:
    """One validation, whatever container the values arrive in."""

    @pytest.mark.parametrize("make", [DiscreteDistribution, _SOLUTION], ids=["rule", "maxent"])
    @pytest.mark.parametrize("form, nodes, weights", [
        (form, nodes, weights) for nodes, weights in _RULES for form in _FORMS
        if form != "int" or all(float(v).is_integer() for v in nodes + weights)
    ])
    def test_every_form_stores_the_same_float_tuples(self, make, form, nodes, weights):
        stored = make(nodes=_FORMS[form](nodes), weights=_FORMS[form](weights))
        assert stored.nodes == tuple(map(float, nodes)) and stored.weights == tuple(map(float, weights))
        assert {type(v) for v in stored.nodes + stored.weights} == {float}

    def test_float32_values_are_widened_exactly(self):
        nodes = np.array([-0.1, 0.3, 0.7], dtype=np.float32)
        weights = np.array([0.2, 0.5, 0.3], dtype=np.float32)
        rule = DiscreteDistribution(nodes=nodes, weights=weights)
        assert rule.nodes == tuple(float(v) for v in nodes) == tuple(nodes.astype(float).tolist())
        assert rule.weights == tuple(float(v) for v in weights)

    # Inputs with more than one fault: the first check in the documented order
    # (length, finiteness, order, sign) names the fault.
    @pytest.mark.parametrize("nodes, weights, message", [
        ((), (), "nodes and weights must be nonempty and equal-length"),
        ((math.nan, 1.0), (0.0,), "nodes and weights must be nonempty and equal-length"),
        ((2.0, 1.0, math.inf), (0.5, 0.5, 0.0), "nodes and weights must be finite"),
        ((0.0, 1.0), (-math.inf, 0.5), "nodes and weights must be finite"),
        ((2.0, 1.0), (math.nan, 0.5), "nodes and weights must be finite"),
        ((1.0, 0.0), (0.5, 0.0), "nodes must be strictly increasing"),
        ((0.0, 1.0, 1.0), (-0.5, 0.5, 0.5), "nodes must be strictly increasing"),
        ((0.0, -0.0), (1.0, 1.0), "nodes must be strictly increasing"),
        ((0.0, 1.0), (0.5, -0.0), "weights must be strictly positive"),
        ((0.0, 1.0, 2.0), (0.5, -1.0, 0.5), "weights must be strictly positive"),
    ])
    @pytest.mark.parametrize("make", [DiscreteDistribution, _SOLUTION], ids=["rule", "maxent"])
    @pytest.mark.parametrize("form", ["tuple", "list", "ndarray", "float32"])
    def test_each_fault_keeps_its_message_and_precedence(self, make, form, nodes, weights, message):
        with pytest.raises(InputError) as info:
            make(nodes=_FORMS[form](nodes), weights=_FORMS[form](weights))
        assert str(info.value) == message

    @pytest.mark.parametrize("nodes, weights, message", [
        ((0, 0), (1, 1), "nodes must be strictly increasing"),
        ((0, 1), (1, 0), "weights must be strictly positive"),
    ])
    def test_integer_faults_keep_their_messages(self, nodes, weights, message):
        for form in ("tuple", "int"):
            with pytest.raises(InputError, match=f"^{message}$"):
                DiscreteDistribution(nodes=_FORMS[form](nodes), weights=_FORMS[form](weights))

    def test_complex_values_are_a_type_error_in_every_form(self):
        # float() of a Python complex is a TypeError; an array's values are
        # Python scalars before the cast, so an array gives the same error.
        for nodes in ((0.0, 1.0 + 0.0j), np.array([0.0, 1.0 + 0.0j])):
            with pytest.raises(TypeError, match="not 'complex'"):
                DiscreteDistribution(nodes=nodes, weights=(0.5, 0.5))


class TestHankelMatrix:
    """The Hankel moment matrix of the test-only moment route, observed
    through :func:`_oracles.jacobi_from_moments`."""

    def test_standard_normal_order_two(self):
        m = MomentSequence((1.0, 0.0, 1.0))
        diag, offdiag = jacobi_from_moments(m, 1)
        assert diag.tolist() == [0.0]
        assert offdiag.tolist() == []

    def test_standard_normal_order_four(self):
        m = MomentSequence((1.0, 0.0, 1.0, 0.0, 3.0))
        diag, offdiag = jacobi_from_moments(m, 2)
        assert diag.tolist() == [0.0, 0.0]
        assert offdiag.tolist() == [1.0]

    def test_point_mass_is_rank_one(self):
        m = MomentSequence((1.0, 1.0, 1.0, 1.0, 1.0))
        with pytest.raises(DegenerateDataError) as err:
            golub_welsch(m, 2)
        assert err.value.support == 1

    def test_overflowing_recurrence_is_an_input_error(self):
        # m_1 * m_2 overflows in the factor's second row: diag[1] is inf.
        m = MomentSequence((1.0, -1e100, 1e250, 0.0, 1e300))
        with np.errstate(over="ignore"), pytest.raises(InputError, match="finite"):
            golub_welsch(m, 2)

    def test_insufficient_order(self):
        with pytest.raises(InputError):
            jacobi_from_moments(MomentSequence((1.0, 0.0, 1.0)), 2)


class TestCholesky:
    def test_rank_one_fails_at_second_pivot(self):
        # Moments of a point mass at 2: the Hankel matrix is rank one.
        m = MomentSequence((1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0))
        with pytest.raises(DegenerateDataError) as err:
            golub_welsch(m, 3)
        assert err.value.support == 1
        assert "at most 1 nodes" in str(err.value)


class TestJacobiFromCholesky:
    def test_standard_normal_two_nodes(self):
        m = MomentSequence(STD_NORMAL_6.values[:5])
        diag, offdiag = jacobi_from_moments(m, 2)
        np.testing.assert_allclose(diag, [0.0, 0.0], atol=1e-14)
        np.testing.assert_allclose(offdiag, monic_hermite_offdiag(2), rtol=1e-14)

    def test_standard_normal_three_nodes(self):
        diag, offdiag = jacobi_from_moments(STD_NORMAL_6, 3)
        np.testing.assert_allclose(diag, [0.0, 0.0, 0.0], atol=1e-14)
        np.testing.assert_allclose(offdiag, monic_hermite_offdiag(3), rtol=1e-14)

    def test_point_mass_single_node(self):
        c = 5.0
        m = MomentSequence((1.0, c, c * c))
        rule = golub_welsch(m, 1)
        assert rule.nodes[0] == pytest.approx(c, rel=1e-14)


class TestTridiagonalEigen:
    """The eigensolve of the Jacobi matrix, seen through the rules it gives."""

    def test_two_by_two(self):
        # Moments of +-1 with mass 1/2 each: Jacobi matrix diag 0, offdiag 1.
        rule = golub_welsch(MomentSequence((1.0, 0.0, 1.0, 0.0, 1.0)), 2)
        np.testing.assert_allclose(rule.nodes, [-1.0, 1.0], atol=1e-14)
        np.testing.assert_allclose(rule.weights, [0.5, 0.5], atol=1e-14)

    def test_single_entry(self):
        rule = golub_welsch(MomentSequence((1.0, 2.5, 7.0)), 1)
        assert rule.nodes == (2.5,)
        assert rule.weights == (1.0,)
        nodes, weights = _gauss_rule(np.array([2.5]), np.array([]))
        np.testing.assert_array_equal(nodes, [2.5])
        np.testing.assert_array_equal(weights, [1.0])

    def test_char_poly_oracle_three_by_three(self):
        # The Jacobi matrix of N(0, 1) at N = 3 is diag 0, offdiag (1, sqrt(2)):
        # det(T - x I) = -(x^3 - 3x), whose roots are -sqrt(3), 0, sqrt(3).
        rule = _standard_normal_rule(3)
        np.testing.assert_allclose(rule.nodes, [-math.sqrt(3.0), 0.0, math.sqrt(3.0)], atol=1e-14)

    def test_residuals_and_ordering_random(self):
        rng = np.random.default_rng(17)
        for _ in range(25):
            n = int(rng.integers(1, 10))
            diag = rng.uniform(-2, 2, n)
            offdiag = rng.uniform(0.05, 2.0, max(n - 1, 0))
            nodes, weights = _gauss_rule(diag, offdiag)
            assert np.all(np.diff(nodes) > 0)
            dense = np.diag(diag) + np.diag(offdiag, 1) + np.diag(offdiag, -1)
            scale = np.linalg.norm(dense)
            vals, vecs = np.linalg.eigh(dense)
            for k in range(n):
                # The unit eigenvector of node k, from an independent solver.
                vec = vecs[:, np.argmin(np.abs(vals - nodes[k]))]
                resid = np.linalg.norm(dense @ vec - nodes[k] * vec)
                assert resid <= 1e-10 * max(scale, 1.0)
                assert weights[k] > 0.0
                assert weights[k] == pytest.approx(vec[0] ** 2, rel=1e-12, abs=1e-14)
            assert weights.sum() == pytest.approx(1.0, rel=1e-12)


class TestDirectEigensolve:
    """``_gauss_rule`` calls LAPACK ``dstevd`` itself: the bytes of scipy's
    ``eigh_tridiagonal``, which calls that routine for the whole spectrum."""

    @staticmethod
    def _assert_reference_bytes(diag, offdiag) -> bool:
        """The reference's nodes and weights, or, where one of its weights is
        0, the underflow error; says whether the error was raised."""
        ref_nodes, ref_weights = eigh_tridiagonal_rule(diag, offdiag)
        if min(ref_weights) == 0.0:
            with pytest.raises(NumericalError) as info:
                _gauss_rule(diag, offdiag)
            assert str(info.value) == f"a weight of the {len(diag)}-node rule underflows to 0 -- reduce N"
            return True
        nodes, weights = _gauss_rule(diag, offdiag)
        assert nodes.tobytes() == ref_nodes.tobytes()
        assert weights.tobytes() == ref_weights.tobytes()
        return False

    def test_random_jacobi_matrices(self):
        # Positive off-diagonals over many scales, one in three matrices with
        # a near split; N past 25 takes dstevd's divide and conquer.  Random
        # entries localize the eigenvectors, so some outer weights underflow.
        rng = np.random.default_rng(29)
        underflows = 0
        for n in [*range(1, 41), *rng.integers(41, 201, 160).tolist()]:
            scale = 10.0 ** rng.uniform(-3, 3)
            diag = scale * 0.05 * rng.standard_normal(n)
            offdiag = scale * rng.uniform(0.3, 0.7, n - 1)
            if n % 3 == 0:
                offdiag[rng.integers(n - 1)] *= 1e-6
            underflows += self._assert_reference_bytes(diag, offdiag)
        assert 0 < underflows < 60

    def test_hermite_recurrence(self):
        underflows = [n for n in range(1, 201) if self._assert_reference_bytes(np.zeros(n), np.sqrt(np.arange(1.0, n)))]
        assert underflows[0] == 147 and underflows[-1] == 200

    def test_lanczos_matrices_of_study_samples(self):
        for t in (100, 1000, 10000):
            sample = Sample(sample_mixture(DEFAULT_MIXTURE, t, replication_rng(0, t, 0)))
            for n in (1, 3, 5, 7, 9, 20):
                self._assert_reference_bytes(*sample.jacobi(n))


class TestGolubWelsch:
    def test_single_node_matches_mean(self):
        m = MomentSequence((2.0, 3.0, 5.5))
        rule = golub_welsch(m, 1)
        assert rule.nodes[0] == pytest.approx(1.5, rel=1e-14)
        assert rule.weights[0] == pytest.approx(2.0, rel=1e-14)

    def test_standard_normal_three_nodes(self):
        rule = golub_welsch(STD_NORMAL_6, 3)
        root = math.sqrt(3.0)
        np.testing.assert_allclose(rule.nodes, [-root, 0.0, root], atol=1e-13)
        np.testing.assert_allclose(rule.weights, [1 / 6, 2 / 3, 1 / 6], rtol=1e-13)

    def test_two_point_law_recovered(self):
        rule = golub_welsch(MomentSequence((1.0, 0.0, 1.0, 0.0, 1.0)), 2)
        np.testing.assert_allclose(rule.nodes, [-1.0, 1.0], rtol=1e-12)
        np.testing.assert_allclose(rule.weights, [0.5, 0.5], rtol=1e-12)

    def test_moment_reproduction_degree(self):
        rng = np.random.default_rng(23)
        for _ in range(10):
            mix = random_mixture(rng, standardized=True)
            n = int(rng.integers(2, 7))
            ms = mixture_moments(mix, 2 * n)
            rule = golub_welsch(ms, n)
            for k in range(2 * n):
                assert expectation(rule, lambda x: x**k) == pytest.approx(
                    ms[k], rel=1e-8, abs=1e-8 * max(1.0, abs(ms[k]))
                )


@pytest.mark.parametrize(
    "discretize", [discretize_data, gauss_hermite_discretize, maxent_discretize, maxent_solve]
)
class TestNodeCount:
    """Every discretizer takes any integer node count, numpy's included,
    and rejects anything else with one InputError."""

    DATA = np.linspace(-1.0, 1.0, 40) ** 3

    @pytest.mark.parametrize("n", [2.5, 3.0, "3"])
    def test_a_non_integer_is_an_input_error(self, discretize, n):
        with pytest.raises(InputError) as info:
            discretize(self.DATA, n)
        assert str(info.value) == f"node count must be an integer, got {n!r}"

    def test_a_numpy_integer_is_an_integer(self, discretize):
        rule = discretize(self.DATA, np.int64(3))
        assert rule == discretize(self.DATA, 3) and len(rule) == 3

    def test_below_the_floor_keeps_its_message(self, discretize):
        least = 3 if discretize in (maxent_discretize, maxent_solve) else 1
        with pytest.raises(InputError) as info:
            discretize(self.DATA, least - 1)
        assert str(info.value) == f"node count must be >= {least}, got {least - 1}"


class TestDiscretizeData:
    def test_two_point_recovery(self):
        dist = discretize_data([-1.0, 1.0], 2)
        np.testing.assert_allclose(dist.nodes, [-1.0, 1.0], rtol=1e-10)
        np.testing.assert_allclose(dist.weights, [0.5, 0.5], rtol=1e-10)

    def test_constant_data_single_node(self):
        dist = discretize_data([5.0, 5.0, 5.0], 1)
        assert dist.nodes == (5.0,)
        assert dist.weights == (1.0,)

    def test_constant_data_multiple_nodes_rejected(self):
        with pytest.raises(DegenerateDataError, match="^data is constant; only a single node"):
            discretize_data([5.0, 5.0, 5.0], 2)

    @pytest.mark.parametrize("n", [1, 5])
    def test_distinct_data_of_zero_variance_is_not_called_constant(self, n):
        # 500 distinct values whose squared deviations underflow: the exact
        # variance is 0, so the error is the standardization's, at any N.
        data = 1e-170 * np.random.default_rng(0).standard_normal(500)
        assert np.unique(data).size == 500
        with pytest.raises(DegenerateDataError, match="^data has zero sample variance; cannot standardize$") as err:
            discretize_data(data, n)
        assert err.value.support == 1

    @pytest.mark.parametrize(
        ("call", "support"),
        [
            (lambda: Sample([2.0] * 3).transform, 1),
            (lambda: discretize_data([2.0] * 8, 3), 1),
            (lambda: discretize_data([0.5, 1.5, 2.0, 4.0], 10**12), 4),
            (lambda: discretize_data([0.0, 1.0, 0.0, 1.0], 3), 2),
            (lambda: discretize_data(np.tile([0.5, 1.5, 2.0, 4.0], 5250), 6), 4),  # merged blocks
        ],
        ids=["zero-variance", "constant", "past-T", "breakdown", "merged-breakdown"],
    )
    def test_each_support_error_carries_its_node_limit(self, call, support):
        with pytest.raises(DegenerateDataError) as err:
            call()
        assert err.value.support == support
        if support > 1:
            assert f"supports at most {support} nodes" in str(err.value)

    def test_the_support_error_pickles_whole(self):
        # A worker's error crosses the process boundary with its message and support.
        with pytest.raises(DegenerateDataError) as err:
            discretize_data([0.0, 1.0, 0.0, 1.0], 3)
        back = pickle.loads(pickle.dumps(err.value))
        assert type(back) is DegenerateDataError
        assert (str(back), back.support) == (str(err.value), 2)

    def test_mixture_sample_matches_all_ten_moments(self):
        from npgq.experiments import DEFAULT_MIXTURE

        data = sample_mixture(DEFAULT_MIXTURE, 10_000, replication_rng(99, 10_000, 0))
        dist = discretize_data(data, 5)
        target = sample_moments(data, 9)
        for k in range(10):
            assert abs(expectation(dist, lambda x: x**k) - target[k]) <= 1e-8 * max(1.0, abs(target[k]))

    def test_ten_nodes_need_no_override(self):
        rng = np.random.default_rng(1)
        data = rng.standard_normal(4000)
        dist = discretize_data(data, 10)
        assert len(dist) == 10
        target = sample_moments(data, 19)
        for k in range(20):
            assert abs(expectation(dist, lambda x: x**k) - target[k]) <= 1e-8 * max(1.0, abs(target[k]))

    def test_exactness_property_random_datasets(self):
        rng = np.random.default_rng(77)
        for trial in range(20):
            n = int(rng.integers(1, 8))
            data = rng.uniform(-1, 1, size=int(rng.integers(2 * n + 1, 200)))
            dist = discretize_data(data, n)
            target = sample_moments(data, max(2 * n - 1, 0))
            for k in range(2 * n):
                assert abs(expectation(dist, lambda x: x**k) - target[k]) <= 1e-8 * max(1.0, abs(target[k]))

    def test_positivity_and_support_bounds(self):
        rng = np.random.default_rng(88)
        for _ in range(20):
            data = rng.standard_normal(150) * rng.uniform(0.5, 3)
            dist = discretize_data(data, 4)
            assert all(w > 0 for w in dist.weights)
            assert all(b > a for a, b in zip(dist.nodes, dist.nodes[1:]))
            assert dist.nodes[0] >= data.min() - 1e-9
            assert dist.nodes[-1] <= data.max() + 1e-9

    @given(
        a=st.floats(0.1, 10),
        b=st.floats(-5, 5),
        seed=st.integers(0, 2**16),
    )
    @settings(max_examples=40, deadline=None)
    def test_affine_equivariance(self, a, b, seed):
        data = np.random.default_rng(seed).standard_normal(60)
        base = discretize_data(data, 3)
        moved = discretize_data(a * data + b, 3)
        np.testing.assert_allclose(
            moved.nodes, a * np.asarray(base.nodes) + b, rtol=1e-8, atol=1e-8
        )
        np.testing.assert_allclose(moved.weights, base.weights, rtol=1e-8, atol=1e-10)

    def test_exact_recovery_of_atoms(self):
        rng = np.random.default_rng(31)
        for n in range(2, 7):
            atoms = np.sort(rng.uniform(-4, 4, n))
            while np.min(np.diff(atoms)) < 0.2:
                atoms = np.sort(rng.uniform(-4, 4, n))
            counts = rng.integers(1, 6, n)
            data = np.repeat(atoms, counts)
            dist = discretize_data(data, n)
            np.testing.assert_allclose(dist.nodes, atoms, rtol=1e-8, atol=1e-8)
            np.testing.assert_allclose(dist.weights, counts / counts.sum(), rtol=1e-8)

    def test_too_few_support_points_suggests_remedy(self):
        with pytest.raises(DegenerateDataError) as err:
            discretize_data([0.0, 1.0, 0.0, 1.0], 3)
        assert "reduce N" in str(err.value)
        assert "at most 2 nodes" in str(err.value)
        assert err.value.support == 2

    def test_close_atoms_are_the_support_error(self):
        # 75 draws of 7 atoms, two of them 0.0046 apart: the residual at
        # step 7 is rounding noise, not an eighth node of weight 1e-33.
        rng = np.random.default_rng(25)
        data = rng.choice(rng.standard_normal(rng.integers(2, 13)), 75)
        for n in (8, 9):
            with pytest.raises(DegenerateDataError, match="supports at most 7 nodes"):
                discretize_data(data, n)

    def test_lanczos_breakdown_returns_the_smaller_matrix(self):
        # Two support points with masses 1/4 and 3/4: two steps, then breakdown.
        x = np.array([-1.0, 2.0, 2.0, 2.0])
        diag, offdiag = _Lanczos(x, 0.5).jacobi(5)
        assert (diag.size, offdiag.size) == (2, 1)
        nodes, weights = _gauss_rule(diag, offdiag)
        np.testing.assert_allclose(nodes, [-1.0, 2.0], rtol=1e-14)
        np.testing.assert_allclose(weights, [0.25, 0.75], rtol=1e-14)

    def test_node_count_past_the_data_size_is_the_support_error(self):
        # A measure on T points has at most T support points, so Lanczos
        # runs at most T steps: N far past T is the support error, not a
        # (N x T) allocation, and N <= T keeps its bits.
        x = np.array([-1.3, -0.2, 0.4, 0.9, 2.1])
        full = _Lanczos(x, 1.0 / math.sqrt(x.size)).jacobi(x.size)
        huge = _Lanczos(x, 1.0 / math.sqrt(x.size)).jacobi(10**12)
        assert all(np.array_equal(a, b) for a, b in zip(full, huge))
        with pytest.raises(DegenerateDataError, match="supports at most 5 nodes"):
            discretize_data(x, 10**12)

    def test_a_basis_past_the_memory_limit_is_refused_before_allocation(self):
        # N = 3000 on 200 000 points: 20 blocks' rules of 3000 points each,
        # a 1.44 GB basis on their union: an input error naming N, the
        # union's size and the bytes, raised before any basis is allocated.
        x = np.random.default_rng(6).standard_normal(200_000)
        tracemalloc.start()
        try:
            with pytest.raises(InputError) as info:
                discretize_data(x, 3000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert str(info.value) == (
            "a 3000-step Lanczos basis on 60000 points needs 1440000000 bytes, "
            "past the 1073741824-byte limit -- reduce N"
        )
        assert peak <= 16e6

    def test_one_block_basis_is_always_under_the_memory_limit(self):
        # Up to C points the basis (at most C rows of C doubles) is under the
        # limit, so only the merged route checks it: a change of either
        # constant must revisit that.
        assert 8 * _LANCZOS_BLOCK**2 <= _MAX_BASIS_BYTES

    def test_lanczos_weighted_start_vector(self):
        # The same measure as one point per atom, its mass in the start vector.
        diag, offdiag = _Lanczos(np.array([-1.0, 2.0]), np.sqrt([0.25, 0.75])).jacobi(2)
        nodes, weights = _gauss_rule(diag, offdiag)
        np.testing.assert_allclose(nodes, [-1.0, 2.0], rtol=1e-14)
        np.testing.assert_allclose(weights, [0.25, 0.75], rtol=1e-14)


class TestStackedColumns:
    """The one stacked layout: ragged columns padded at their ends, summed
    down in index order."""

    COLUMNS = st.lists(st.lists(st.floats(-1e15, 1e15), min_size=1, max_size=20), min_size=1, max_size=8)

    @settings(max_examples=100, deadline=None)
    @given(COLUMNS, st.sampled_from((0.0, -math.inf, 1.5)))
    def test_columns_are_the_sequences_then_the_fill(self, seqs, fill):
        stacked = _columns([v for s in seqs for v in s], [len(s) for s in seqs], fill)
        longest = max(map(len, seqs))
        assert stacked.shape == (longest, len(seqs))
        for column, seq in zip(stacked.T, seqs):
            assert column.tolist() == seq + [fill] * (longest - len(seq))

    @settings(max_examples=100, deadline=None)
    @given(COLUMNS)
    @example([[-0.0], [1.0, 2.0]])
    def test_a_padded_column_sums_as_it_would_alone(self, seqs):
        # Bit for bit, as a left fold over the column on its own: its
        # neighbours and its zero padding change nothing, except that a
        # padding +0.0 added to a sum of -0.0 gives +0.0.
        stacked = _sum0(_columns([v for s in seqs for v in s], [len(s) for s in seqs], 0.0))
        alone = np.array([_sum0(np.array(seq)) for seq in seqs])
        folds = np.array([functools.reduce(operator.add, seq) for seq in seqs])
        assert (stacked + 0.0).tobytes() == (alone + 0.0).tobytes() == (folds + 0.0).tobytes()


class TestExpectation:
    def test_constant(self):
        dist = DiscreteDistribution(nodes=(-1.0, 1.0), weights=(0.5, 0.5))
        assert expectation(dist, lambda x: np.ones_like(x)) == pytest.approx(1.0)

    def test_identity_on_symmetric(self):
        dist = DiscreteDistribution(nodes=(-1.0, 1.0), weights=(0.5, 0.5))
        assert expectation(dist, lambda x: x) == pytest.approx(0.0, abs=1e-15)

    def test_exactness_boundary_of_three_point_rule(self):
        rule = _standard_normal_rule(3)
        # degree 5 = 2N - 1 is still exact; degree 6 is not (9 vs true 15)
        assert expectation(rule, lambda x: x**5) == pytest.approx(0.0, abs=1e-12)
        assert expectation(rule, lambda x: x**6) == pytest.approx(9.0, rel=1e-12)

    def test_calls_g_once_per_node_on_a_scalar(self):
        dist = DiscreteDistribution(nodes=(-1.0, 0.5, 2.0), weights=(0.25, 0.25, 0.5))
        seen = []

        def g(x):
            seen.append(x)
            return x * x

        assert expectation(dist, g) == pytest.approx(0.25 + 0.0625 + 2.0, rel=1e-15)
        assert len(seen) == len(dist)
        assert all(type(x) is np.float64 for x in seen)

    def test_scalar_function_fallback(self):
        dist = DiscreteDistribution(nodes=(0.0, 2.0), weights=(0.25, 0.75))
        assert expectation(dist, lambda x: max(x, 1.0)) == pytest.approx(0.25 + 1.5)
