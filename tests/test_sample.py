"""A shared :class:`Sample` must give exactly what fresh calls on raw data give."""
import hashlib
import math
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, seed, settings
from hypothesis import strategies as st

import npgq
from npgq import (
    AffineTransform,
    DegenerateDataError,
    InputError,
    NpgqError,
    NumericalError,
    Sample,
    discretize_data,
    gauss_hermite_discretize,
    maxent_discretize,
    maxent_solve,
    sample_moments,
)
from npgq.baselines import _jacobi_moments, kde_pdf
from npgq.moments import _BLOCK, _LANCZOS_BLOCK, _ORTH_RTOL, _Lanczos
from npgq.experiments import DEFAULT_MIXTURE, ExperimentConfig, replication_rng, run_experiment, sample_mixture

from _oracles import cgs2_lanczos, fsum_mean_std, merged_lanczos, one_shot_lanczos

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


def full_passes(monkeypatch, run):
    """Reorthogonalization passes of every Lanczos state that ``run()`` builds."""
    states = []
    init = _Lanczos.__init__
    with monkeypatch.context() as patch:
        patch.setattr(_Lanczos, "__init__", lambda self, *a: states.append(self) or init(self, *a))
        run()
    return sum(state.passes for state in states)


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

    @pytest.mark.parametrize("size", [100, _BLOCK + 1, _LANCZOS_BLOCK, _LANCZOS_BLOCK + 1, 100_000])
    def test_large_samples_match_one_shot_lanczos(self, size):
        # The reference takes each step's products in one fixed-length run;
        # the state's must give the same bits, at every N and in the one-
        # and three-step prefixes np-me reads from a longer run.  Past
        # _LANCZOS_BLOCK points, the blocks' runs and the union's are each
        # such a run (a one-point last block at _LANCZOS_BLOCK + 1), and a
        # shared sample's every call merges its kept block runs afresh.
        data = mixture_data(size)
        z, shared = Sample(data).z, Sample(data)
        for n in (*range(1, 10), 3, 1):
            want = one_shot_lanczos(z, 1.0 / math.sqrt(size), n) if size <= _LANCZOS_BLOCK else merged_lanczos(z, n)
            for got in (Sample(data).jacobi(n), shared.jacobi(n)):
                assert [a.tobytes() for a in got] == [a.tobytes() for a in want], n

    @seed(21)
    @given(
        draw=st.integers(0, 2**32 - 1),
        size=st.integers(2, 300),
        kind=st.sampled_from(["ties", "t3", "offset", "lognormal"]),
        n=st.integers(1, 300),
    )
    # Tied data on which full reorthogonalization runs two steps past the
    # measure's 7 atoms: its residual at the breakdown step is above the floor.
    @example(draw=25, size=75, kind="ties", n=75)
    @settings(max_examples=150, deadline=None)
    def test_jacobi_matrix_matches_full_reorthogonalization(self, draw, size, kind, n):
        # The recurrence with measured projections against classical
        # Gram-Schmidt twice: breakdown at the atom count, and rows
        # orthonormal to within 2 * _ORTH_RTOL.  On 12 000 random runs the
        # entries differed by at most 2.2e-14 * max|z| in the nine leading
        # steps a study reads, and by 5.0e-10 * max|z| anywhere up to
        # N = T = 300; there a run in extended precision put the two 2.3e-10
        # and 2.7e-10 off, so the gap is the late steps' conditioning.
        rng = np.random.default_rng(draw)
        data = {
            "ties": lambda: rng.choice(rng.standard_normal(rng.integers(2, 13)), size),
            "t3": lambda: rng.standard_t(3, size),
            "offset": lambda: 1e8 + rng.standard_normal(size),
            "lognormal": lambda: rng.lognormal(0.0, 2.0, size),
        }[kind]()
        try:
            z = Sample(data).z
        except DegenerateDataError:
            return  # a single drawn atom
        n = min(n, size)
        state = _Lanczos(z, 1.0 / math.sqrt(size))
        diag, offdiag = state.jacobi(n)
        assert diag.size == min(n, np.unique(z).size)
        want_diag, want_offdiag = cgs2_lanczos(z, 1.0 / math.sqrt(size), n)
        k = min(diag.size, want_diag.size)
        scale = float(np.max(np.abs(z)))
        d_err = np.abs(diag[:k] - want_diag[:k]) / scale
        o_err = np.abs(offdiag[: k - 1] - want_offdiag[: k - 1]) / scale
        assert max(d_err[:9].max(), o_err[:8].max(initial=0.0)) <= 1e-13
        assert max(d_err.max(), o_err.max(initial=0.0)) <= 2e-9
        q = state._q[: diag.size]
        assert np.max(np.abs(q @ q.T - np.eye(diag.size))) <= 2 * _ORTH_RTOL

    def test_reorthogonalization_runs_only_where_needed(self, monkeypatch):
        # No pass on a default-study replication (every T, N <= 9) nor on a
        # 100 000-point series at N = 9, drawn as the benchmark draws its
        # large sample; passes on an N = T run, whose late residuals lose
        # their orthogonality to the earlier rows.
        assert full_passes(monkeypatch, lambda: run_experiment(ExperimentConfig(replications=1))) == 0
        rng = np.random.default_rng([1, 1])
        comp = rng.random(100_000) >= DEFAULT_MIXTURE.proportions[0]
        series = np.take(DEFAULT_MIXTURE.means, comp) + np.take(DEFAULT_MIXTURE.stds, comp) * rng.standard_normal(100_000)
        assert full_passes(monkeypatch, lambda: Sample(series).jacobi(9)) == 0
        data = np.random.default_rng(3).standard_normal(100)
        assert full_passes(monkeypatch, lambda: Sample(data).jacobi(100)) > 0

    def test_shorter_requests_reuse_the_lanczos_state(self):
        # Each step appends one diagonal entry: a shorter request takes
        # none, a longer one only the steps past the longest so far.
        steps = []

        class Counting(list):
            def append(self, value):
                steps.append(value)
                super().append(value)

        sample = Sample(mixture_data(500))
        sample._lanczos._diag = Counting()
        for n, total in ((4, 4), (9, 9), (2, 9), (1, 9), (14, 14), (6, 14), (14, 14)):
            assert sample.jacobi(n)[0].size == n
            assert len(steps) == total, n

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


class TestMergedLanczos:
    """Past _LANCZOS_BLOCK points the Jacobi matrix is merged from the
    blocks' Gauss rules: the same matrix, in bounded memory, with bits that
    do not depend on the BLAS thread count."""

    DIGESTS = """
import hashlib
from npgq import Sample
from npgq.experiments import DEFAULT_MIXTURE, replication_rng, sample_mixture
for size in (20_000, 100_000):
    diag, offdiag = Sample(sample_mixture(DEFAULT_MIXTURE, size, replication_rng(11, size, 0))).jacobi(9)
    print(hashlib.sha256(diag.tobytes() + offdiag.tobytes()).hexdigest())
"""

    def test_bits_do_not_depend_on_the_blas_thread_count(self):
        # Every Lanczos run takes at most _LANCZOS_BLOCK points, below the
        # size at which the bundled OpenBLAS splits a product over threads;
        # the direct run on these sizes differs in its last bits between one
        # thread and the default (two or more on a multi-core machine).
        package = os.path.dirname(os.path.dirname(npgq.__file__))
        digests = []
        for threads in ("1", None):
            env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
            env["PYTHONPATH"] = os.pathsep.join(filter(None, [package, env.get("PYTHONPATH")]))
            if threads:
                env["OPENBLAS_NUM_THREADS"] = threads
            run = subprocess.run([sys.executable, "-c", self.DIGESTS], env=env, capture_output=True, text=True,
                                 check=True, timeout=120)
            digests.append(run.stdout.split())
        assert len(digests[0]) == 2 and digests[0] == digests[1]
        # The children computed what this process computes.
        here = [hashlib.sha256(b"".join(a.tobytes() for a in Sample(mixture_data(size)).jacobi(9))).hexdigest()
                for size in (20_000, 100_000)]
        assert here == digests[0]

    @pytest.mark.parametrize("atoms", [3, 4, 11, 24])
    def test_tied_data_breaks_down_at_its_atom_count(self, atoms):
        # Every block's rule would hold the atoms only to rounding, a cluster
        # per atom; a block that breaks down enters as its exact atoms, so
        # the union breaks down where the direct run does, with the same
        # matrix to rounding.
        rng = np.random.default_rng(atoms)
        data = rng.choice(rng.standard_normal(atoms), 30_000)
        sample = Sample(data)
        diag, offdiag = sample.jacobi(atoms + 5)
        want_diag, want_offdiag = _Lanczos(sample.z, 1.0 / math.sqrt(data.size)).jacobi(atoms + 5)
        assert diag.size == want_diag.size == atoms
        assert np.max(np.abs(diag - want_diag)) <= 1e-13
        assert np.max(np.abs(offdiag - want_offdiag) / want_offdiag, initial=0.0) <= 1e-12
        with pytest.raises(DegenerateDataError, match=f"supports at most {atoms} nodes"):
            discretize_data(sample, atoms + 1)

    def test_a_block_whose_rule_underflows_enters_as_its_atoms(self, monkeypatch):
        # Forced here, as no block of this size is known to underflow: every
        # block then enters as its atoms, the union is the data itself and
        # its matrix the direct run's to rounding.  A union past the
        # up-front count of 9 points per block gets the basis check again.
        data = mixture_data(20_000)
        sample = Sample(data)

        def underflow(diag, offdiag):
            raise NumericalError("a weight underflows")

        monkeypatch.setattr("npgq.moments._gauss_rule", underflow)
        diag, offdiag = sample.jacobi(9)
        want_diag, want_offdiag = _Lanczos(sample.z, 1.0 / math.sqrt(data.size)).jacobi(9)
        assert np.max(np.abs(diag - want_diag)) <= 1e-13
        assert np.max(np.abs(offdiag - want_offdiag) / want_offdiag) <= 1e-13
        monkeypatch.setattr("npgq.moments._MAX_BASIS_BYTES", 8 * 9 * 18)
        with pytest.raises(InputError, match="^a 9-step Lanczos basis on 20000 points needs 1440000 bytes"):
            sample.jacobi(9)

    @pytest.mark.parametrize("data", [
        mixture_data(30_000),
        mixture_data(100_000),
        np.random.default_rng(5).choice(np.random.default_rng(6).standard_normal(4), 30_000),
        mixture_data(30_005),
        mixture_data(20_008),
    ], ids=["30000", "100000", "four-atoms", "last-block-of-5", "last-block-of-8"])
    def test_shorter_requests_read_the_kept_block_runs(self, monkeypatch, data):
        # The study's order: np-gq at N = 9, 7, 5, 3, then np-me's three
        # steps.  Each block runs Lanczos once, at the longest request it
        # is past; the rest are prefixes, bit for bit a fresh sample's.  A
        # last block of 5 points enters as its atoms until N = 3; one of 8
        # runs at N = 7.  Four atoms break every block down at step 4.
        sample = Sample(data)
        z = sample.z
        init = _Lanczos.__init__

        def requests(*ns):
            """The shared sample's matrices at ``ns``, and the blocks a Lanczos run took."""
            runs = []
            with monkeypatch.context() as patch:
                patch.setattr(_Lanczos, "__init__", lambda self, x, start: runs.append(x) or init(self, x, start))
                got = [sample.jacobi(n) for n in ns]
            return dict(zip(ns, got)), [x for x in runs if np.shares_memory(x, z)]

        got, blocks = requests(9, 7, 5, 3, 3)
        starts = [(block.__array_interface__["data"][0] - z.__array_interface__["data"][0]) // 8 for block in blocks]
        assert sorted(starts) == sorted(set(starts)) == list(range(0, z.size, _LANCZOS_BLOCK))
        for n, jacobi in got.items():
            want = Sample(data).jacobi(n)
            assert [a.tobytes() for a in jacobi] == [a.tobytes() for a in want], n
            assert [a.tobytes() for a in jacobi] == [a.tobytes() for a in merged_lanczos(z, n)], n
        # A longer request runs every block past it again, and keeps the runs.
        got, blocks = requests(11, 10)
        assert len(blocks) == sum(z[i : i + _LANCZOS_BLOCK].size > 11 for i in range(0, z.size, _LANCZOS_BLOCK))
        for n, jacobi in got.items():
            assert [a.tobytes() for a in jacobi] == [a.tobytes() for a in Sample(data).jacobi(n)], n

    def test_memory_is_bounded_by_the_block(self):
        # A million points at N = 20: the direct run's basis alone is 160 MB
        # (184 MB peak); merged, one block's 20 rows of _LANCZOS_BLOCK
        # doubles and a few block-sized buffers.
        sample = Sample(np.random.default_rng(8).standard_normal(1_000_000))
        sample.z
        tracemalloc.start()
        try:
            diag, _ = sample.jacobi(20)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert diag.size == 20
        assert peak <= 8 * (20 + 10) * _LANCZOS_BLOCK


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
        with pytest.raises(DegenerateDataError):
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

    @pytest.mark.parametrize("data", [np.array([1 + 1j, 2, 3, 4]), [1 + 1j, 2, 3, 4], np.arange(4) + 0j],
                             ids=["array", "list", "zero-imaginary"])
    def test_complex_data(self, data):
        # Not the rule of the real parts: every data-taking entry point
        # rejects a complex dtype, even with all imaginary parts zero.
        for fn in DISCRETIZERS.values():
            with pytest.raises(InputError, match="data must be real, not complex"):
                fn(data, 3)
        for check in (lambda: Sample(data).x, lambda: sample_moments(data, 2), lambda: kde_pdf(data, 1.0, 0.0)):
            with pytest.raises(InputError, match="data must be real, not complex"):
                check()
