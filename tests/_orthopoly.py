"""Monic orthogonal polynomials built directly from a moment functional.

A test-only cross-check: a deliberately independent route to the same
quadrature nodes as the Lanczos/eigenvalue pipeline in
:mod:`npgq.quadrature` and the moment route in ``_oracles``.  Inner
products are exact finite sums over moments, the polynomials come from
the three-term recurrence, and roots are found by bisection between
interlacing brackets.  No matrix factorization or eigensolver is
involved, so agreement with either route is a genuine check.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from npgq import (
    DegenerateDataError,
    InputError,
    NumericalError,
)

from _oracles import MomentSequence


@dataclass(frozen=True)
class MonicPolynomial:
    """Polynomial ``c_0 + c_1 x + ... + x^n`` with leading coefficient 1."""

    coeffs: tuple[float, ...]

    def __post_init__(self):
        c = tuple(float(v) for v in self.coeffs)
        if len(c) == 0:
            raise InputError("polynomial needs at least one coefficient")
        if not all(math.isfinite(v) for v in c):
            raise InputError("polynomial coefficients must be finite")
        if c[-1] != 1.0:
            raise InputError(f"leading coefficient must be exactly 1, got {c[-1]}")
        object.__setattr__(self, "coeffs", c)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1


@dataclass(frozen=True)
class MomentFunctional:
    """Inner product on polynomials induced by a raw moment sequence.

    ``inner(f, g) = sum_{i,j} f_i g_j m_{i+j}``, defined whenever
    ``deg f + deg g`` does not exceed the available moment order.
    """

    moments: MomentSequence

    def inner(self, f: MonicPolynomial, g: MonicPolynomial) -> float:
        return self._inner_coeffs(f.coeffs, g.coeffs)

    def _inner_coeffs(self, f, g) -> float:
        degsum = (len(f) - 1) + (len(g) - 1)
        if degsum > self.moments.max_order:
            raise InputError(
                f"inner product needs moments up to order {degsum}, "
                f"have {self.moments.max_order}"
            )
        m = self.moments.values
        return math.fsum(
            fi * gj * m[i + j]
            for i, fi in enumerate(f)
            if fi != 0.0
            for j, gj in enumerate(g)
            if gj != 0.0
        )


def _shift_mul(coeffs: np.ndarray, a: float) -> np.ndarray:
    """Coefficients of (x - a) * p."""
    out = np.zeros(coeffs.size + 1)
    out[1:] = coeffs
    out[: coeffs.size] -= a * coeffs
    return out


def ttrr_build(
    mf: MomentFunctional, n: int
) -> tuple[list[MonicPolynomial], tuple[np.ndarray, np.ndarray]]:
    """Monic orthogonal polynomials ``p_0..p_N`` via the three-term recurrence.

    Each step computes ``a = (x p_k, p_k) / (p_k, p_k)`` and
    ``b^2 = (p_k, p_k) / (p_{k-1}, p_{k-1})``, then
    ``p_{k+1} = (x - a) p_k - b^2 p_{k-1}``.  Returns the polynomials and
    the Jacobi matrix of recurrence coefficients as ``(diag, offdiag)``
    arrays (``a`` and ``b``), which must agree with the other routes.

    Raises :class:`DegenerateDataError` when some ``(p_k, p_k)`` with
    ``k < N`` vanishes, i.e. the measure has at most ``k`` support points.
    """
    if n < 1:
        raise InputError(f"polynomial count must be >= 1, got {n}")
    if mf.moments.max_order < 2 * n:
        raise InputError(
            f"need moments up to order {2 * n}, have {mf.moments.max_order}"
        )
    polys = [np.array([1.0])]
    norms2 = [mf.moments.values[0]]  # (p_0, p_0) = m_0 > 0
    diag: list[float] = []
    offdiag: list[float] = []
    for k in range(n):
        pk = polys[k]
        xpk = _shift_mul(pk, 0.0)
        a = mf._inner_coeffs(xpk, pk) / norms2[k]
        diag.append(a)
        nxt = _shift_mul(pk, a)
        if k > 0:
            b2 = norms2[k] / norms2[k - 1]
            nxt[: polys[k - 1].size] -= b2 * polys[k - 1]
        nxt[-1] = 1.0  # monic by construction; pin against roundoff
        polys.append(nxt)
        if k + 1 < n:
            norm2 = mf._inner_coeffs(nxt, nxt)
            if norm2 <= 1e-12 * norms2[k]:
                raise DegenerateDataError(
                    f"measure supports at most {k + 1} points; cannot build "
                    f"orthogonal polynomial of degree {k + 2}",
                    support=k + 1,
                )
            norms2.append(norm2)
            offdiag.append(math.sqrt(norm2 / norms2[k]))
    out = [MonicPolynomial(tuple(c)) for c in polys]
    return out, (np.array(diag), np.array(offdiag))


def poly_eval(p, x: float) -> float:
    """Horner evaluation at a scalar point.

    ``p`` is a :class:`MonicPolynomial` or a sequence of coefficients in
    ascending order.
    """
    coeffs = p.coeffs if isinstance(p, MonicPolynomial) else p
    acc = 0.0
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def _bisect_root(coeffs, lo: float, hi: float, flo: float) -> float:
    """One sign-change bisection; flo is the (nonzero) value at lo."""
    sign_lo = flo > 0.0
    while hi - lo > 1e-15 * max(1.0, abs(lo), abs(hi)):
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break
        fmid = poly_eval(coeffs, mid)
        if fmid == 0.0:
            return mid
        if (fmid > 0.0) == sign_lo:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def poly_roots_bracketed(p: MonicPolynomial, interval=None) -> list[float]:
    """All roots of a polynomial whose roots are real and simple.

    Brackets come from interlacing: the critical points (roots of the
    derivative, found recursively) separate the roots, and each bracket
    is resolved by bisection.  ``interval`` optionally bounds the search;
    by default a coefficient bound is used.  Exactly ``deg p`` roots must
    be found, else :class:`NumericalError` is raised -- for orthogonal
    polynomials from :func:`ttrr_build` that is unreachable.
    """
    degree = p.degree
    if degree == 0:
        return []
    if interval is None:
        bound = 1.0 + max(abs(c) for c in p.coeffs)
        lo, hi = -bound, bound
    else:
        lo, hi = float(interval[0]), float(interval[1])
        if not lo < hi:
            raise InputError("interval must satisfy lo < hi")
    roots = _roots_recursive(np.asarray(p.coeffs), lo, hi)
    if len(roots) != degree:
        raise NumericalError(
            f"expected {degree} bracketed roots, found {len(roots)} "
            "(roots not real/simple or interval too small)"
        )
    scale_at = lambda x: math.fsum(
        abs(c) * max(1.0, abs(x)) ** i for i, c in enumerate(p.coeffs)
    )
    for r in roots:
        if abs(poly_eval(p, r)) > 1e-10 * scale_at(r):
            raise NumericalError(f"root candidate {r} failed the residual check")
    return roots


def _roots_recursive(coeffs: np.ndarray, lo: float, hi: float) -> list[float]:
    degree = coeffs.size - 1
    if degree == 1:
        r = -coeffs[0] / coeffs[1]
        return [float(r)] if lo <= r <= hi else []
    # Monic rescale of the derivative; its roots interlace ours.
    dcoeffs = coeffs[1:] * np.arange(1, degree + 1)
    dcoeffs = dcoeffs / dcoeffs[-1]
    crit = _roots_recursive(dcoeffs, lo, hi)
    cuts = [lo] + crit + [hi]
    roots: list[float] = []
    for a, b in zip(cuts, cuts[1:]):
        fa = poly_eval(coeffs, a)
        fb = poly_eval(coeffs, b)
        if fa == 0.0:
            # Endpoint root only possible at the user-supplied boundary.
            if a == lo:
                roots.append(a)
            continue
        if fb == 0.0:
            if b == hi:
                roots.append(b)
            continue
        if (fa > 0.0) != (fb > 0.0):
            roots.append(_bisect_root(coeffs, a, b, fa))
    return roots
