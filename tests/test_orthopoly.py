import math

import numpy as np
import pytest

from npgq import (
    DegenerateDataError,
    InputError,
    NumericalError,
)
from npgq.quadrature import _gauss_rule

from _oracles import MomentSequence, gaussian_moments, mixture_jacobi, mixture_moments, random_mixture
from _orthopoly import (
    MomentFunctional,
    MonicPolynomial,
    poly_eval,
    poly_roots_bracketed,
    ttrr_build,
)

UNIFORM_MOMENTS = MomentSequence((1.0, 0.0, 1 / 3, 0.0, 1 / 5, 0.0, 1 / 7))


class TestMonicPolynomial:
    def test_requires_unit_leading_coefficient(self):
        with pytest.raises(InputError):
            MonicPolynomial((1.0, 2.0))
        assert MonicPolynomial((0.0, 1.0)).degree == 1


class TestTtrrBuild:
    def test_monic_hermite(self):
        mf = MomentFunctional(gaussian_moments(0.0, 1.0, 6))
        polys, (diag, offdiag) = ttrr_build(mf, 3)
        np.testing.assert_allclose(polys[1].coeffs, (0.0, 1.0), atol=1e-14)
        np.testing.assert_allclose(polys[2].coeffs, (-1.0, 0.0, 1.0), atol=1e-14)
        np.testing.assert_allclose(polys[3].coeffs, (0.0, -3.0, 0.0, 1.0), atol=1e-13)
        np.testing.assert_allclose(diag, [0.0, 0.0, 0.0], atol=1e-14)
        np.testing.assert_allclose(offdiag, [1.0, math.sqrt(2.0)], rtol=1e-14)

    def test_monic_legendre(self):
        polys, _ = ttrr_build(MomentFunctional(UNIFORM_MOMENTS), 3)
        np.testing.assert_allclose(polys[2].coeffs, (-1 / 3, 0.0, 1.0), atol=1e-14)
        np.testing.assert_allclose(polys[3].coeffs, (0.0, -3 / 5, 0.0, 1.0), atol=1e-14)

    def test_point_mass_is_degenerate(self):
        c = 2.0
        point = MomentSequence(tuple(c**k for k in range(5)))
        with pytest.raises(DegenerateDataError):
            ttrr_build(MomentFunctional(point), 2)

    def test_insufficient_moments(self):
        with pytest.raises(InputError):
            ttrr_build(MomentFunctional(MomentSequence((1.0, 0.0, 1.0))), 2)

    def test_orthogonality_property(self):
        rng = np.random.default_rng(41)
        for _ in range(12):
            mix = random_mixture(rng, standardized=True)
            n = int(rng.integers(2, 7))
            mf = MomentFunctional(mixture_moments(mix, 2 * n))
            polys, _ = ttrr_build(mf, n)
            norms = [math.sqrt(mf.inner(p, p)) for p in polys[:-1]]
            for i in range(n):
                for j in range(i):
                    ip = mf.inner(polys[i], polys[j])
                    assert abs(ip) <= 1e-8 * norms[i] * norms[j]


class TestPolyEval:
    def test_hermite_root(self):
        p3 = MonicPolynomial((0.0, -3.0, 0.0, 1.0))
        assert poly_eval(p3, math.sqrt(3.0)) == pytest.approx(0.0, abs=1e-14)

    def test_constant(self):
        assert poly_eval(MonicPolynomial((1.0,)), 7.0) == 1.0

    def test_quadratic(self):
        assert poly_eval(MonicPolynomial((-1.0, 0.0, 1.0)), 0.0) == -1.0


class TestPolyRoots:
    def test_quadratic_on_interval(self):
        roots = poly_roots_bracketed(MonicPolynomial((-1.0, 0.0, 1.0)), interval=(-2.0, 2.0))
        np.testing.assert_allclose(roots, [-1.0, 1.0], rtol=1e-12)

    def test_hermite_cubic_default_interval(self):
        roots = poly_roots_bracketed(MonicPolynomial((0.0, -3.0, 0.0, 1.0)))
        np.testing.assert_allclose(roots, [-math.sqrt(3.0), 0.0, math.sqrt(3.0)], atol=1e-12)

    def test_legendre_quadratic(self):
        roots = poly_roots_bracketed(MonicPolynomial((-1 / 3, 0.0, 1.0)))
        np.testing.assert_allclose(roots, [-1 / math.sqrt(3.0), 1 / math.sqrt(3.0)], rtol=1e-12)

    def test_complex_roots_detected(self):
        with pytest.raises(NumericalError):
            poly_roots_bracketed(MonicPolynomial((1.0, 0.0, 1.0)))  # x^2 + 1

    def test_roots_sorted_and_resolved(self):
        rng = np.random.default_rng(19)
        for _ in range(10):
            true_roots = np.sort(rng.uniform(-3, 3, 5))
            if np.min(np.diff(true_roots)) < 0.1:
                continue
            coeffs = np.poly(true_roots)[::-1]  # ascending
            p = MonicPolynomial(tuple(coeffs / coeffs[-1]))
            found = poly_roots_bracketed(p)
            np.testing.assert_allclose(found, true_roots, rtol=1e-9, atol=1e-9)


class TestRouteAgreement:
    """The recurrence/bisection route must reproduce the library's weighted
    Lanczos on a mixture's component Gauss-Hermite nodes, then the eigensolve."""

    def test_coefficients_and_nodes_agree(self):
        rng = np.random.default_rng(53)
        for _ in range(10):
            mix = random_mixture(rng, standardized=True)
            n = int(rng.integers(2, 7))
            ms = mixture_moments(mix, 2 * n)
            polys, (diag_oracle, offdiag_oracle) = ttrr_build(MomentFunctional(ms), n)
            diag_main, offdiag_main = mixture_jacobi(mix, n)
            np.testing.assert_allclose(diag_oracle, diag_main, rtol=1e-8, atol=1e-8)
            np.testing.assert_allclose(offdiag_oracle, offdiag_main, rtol=1e-8)
            nodes, _ = _gauss_rule(diag_main, offdiag_main)
            roots = poly_roots_bracketed(polys[n])
            np.testing.assert_allclose(roots, nodes, rtol=1e-8, atol=1e-8)


class TestMomentFunctional:
    def test_inner_product_requires_enough_moments(self):
        mf = MomentFunctional(MomentSequence((1.0, 0.0, 1.0)))
        p1 = MonicPolynomial((0.0, 1.0))
        p2 = MonicPolynomial((0.0, 0.0, 1.0))
        assert mf.inner(p1, p1) == 1.0
        with pytest.raises(InputError):
            mf.inner(p1, p2)
