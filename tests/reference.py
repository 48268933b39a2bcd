"""Exact arithmetic for the tests, the one module in tests/ that computes with Fraction or mpmath.

Each function takes the floats that the package computed with. Rational answers are exact
`Fraction`s: folds of maps, fixed points, determinants, and Cramer's-rule solves of a real M or
of zI - M. The rest is 50-digit mpmath: exponentials, cond and singular values, eigenvalues and
peak transfer sizes. `segment_maps` starts the closed-form chain from a schedule's float fields,
and `fold`, `half_cycle_map` and `fixed_point` carry it on, as they do Fractions. A map is six
numbers, phi row by row and then gamma; a complex 2-vector is planar, (re0, im0, re1, im1)."""

from __future__ import annotations

import math
from fractions import Fraction

import mpmath
import numpy as np

_mp = mpmath.MPContext()
_mp.dps = 50


def _exact(x):
    """A float as a Fraction; a Fraction or a 50-digit number as it is."""
    return Fraction(x) if isinstance(x, (float, int)) else x


def _mpf(x):
    return _mp.mpf(x.numerator) / x.denominator if isinstance(x, Fraction) else _mp.mpf(x)


def norm(x) -> float:
    """The 2-norm of exact values, rounded once."""
    return float(_mp.sqrt(_mpf(sum(v * v for v in x))))


def distance(got, exact) -> float:
    """||got - exact|| of floats from exact values, rounded once."""
    return norm([(Fraction(g) if isinstance(e, Fraction) else _mp.mpf(g)) - e
                 for g, e in zip(got, exact)])


def residual(actual, expected):
    """||actual - expected|| / (1 + ||expected||) of floats, both sums of squares exact, the
    roots and the quotient in 50 digits (not rounded to a float)."""
    diff = sum((Fraction(a) - Fraction(e)) ** 2 for a, e in zip(actual, expected, strict=True))
    size = sum(Fraction(e) ** 2 for e in expected)
    return _mp.sqrt(_mpf(diff)) / (1 + _mp.sqrt(_mpf(size)))


def fold(maps) -> tuple:
    """The map of a chain applied first to last: phi_n (... phi_1) and the sum of reverse
    products times each gamma_i."""
    p00, p01, p10, p11, g0, g1 = map(_exact, maps[0])
    for a00, a01, a10, a11, h0, h1 in (map(_exact, m) for m in maps[1:]):
        p00, p01, p10, p11, g0, g1 = (
            a00 * p00 + a01 * p10, a00 * p01 + a01 * p11, a10 * p00 + a11 * p10,
            a10 * p01 + a11 * p11, a00 * g0 + a01 * g1 + h0, a10 * g0 + a11 * g1 + h1)
    return p00, p01, p10, p11, g0, g1


def half_cycle_map(maps, first: int) -> tuple:
    """RECTIFY (row 0 negated) of the fold of interval `first`'s map and the next one's, one-based
    as 1, 2, 3, 4, 1."""
    p00, p01, p10, p11, g0, g1 = fold([maps[first - 1], maps[first % 4]])
    return -p00, -p01, p10, p11, -g0, g1


def solve(m, vectors) -> list:
    """x of M x = v for each 2-vector v, M = (m00, m01, m10, m11) real."""
    a, b, c, d = map(_exact, m)
    det = a * d - b * c
    return [((d * v0 - b * v1) / det, (a * v1 - c * v0) / det)
            for v0, v1 in (map(_exact, v) for v in vectors)]


def fixed_point(m) -> tuple:
    """x of (I - phi) x = gamma for a map m."""
    p00, p01, p10, p11, g0, g1 = map(_exact, m)
    return solve((1 - p00, -p01, -p10, 1 - p11), [(g0, g1)])[0]


def determinant(m, z) -> tuple:
    """det(zI - M) as (re, im), for the four floats m of M and a complex or real z."""
    p00, p01, p10, p11 = map(Fraction, m)
    zr, zi = Fraction(z.real), Fraction(z.imag)
    return (zr - p00) * (zr - p11) - zi * zi - p01 * p10, zi * (2 * zr - p00 - p11)


def resolvent_solve(m, z, v) -> tuple:
    """x of (zI - M) x = v, planar: adj(zI - M) v / det(zI - M)."""
    p00, p01, p10, p11, r0, s0, r1, s1 = map(Fraction, (*m, *v))
    zr, zi = Fraction(z.real), Fraction(z.imag)
    a, d = zr - p00, zr - p11
    det_re, det_im = determinant(m, z)
    q = det_re * det_re + det_im * det_im
    x = ()
    for n_re, n_im in ((d * r0 - zi * s0 + p01 * r1, d * s0 + zi * r0 + p01 * s1),
                       (p10 * r0 + a * r1 - zi * s1, p10 * s0 + a * s1 + zi * r1)):
        x += (n_re * det_re + n_im * det_im) / q, (n_im * det_re - n_re * det_im) / q
    return x


def _singular(m, z) -> tuple:
    """s_max^2 and |det| of zI - M, from its exact Frobenius norm F and determinant D:
    s_max^2 = (F + sqrt(F^2 - 4 |D|^2)) / 2."""
    p00, p01, p10, p11 = map(Fraction, m)
    zr, zi = Fraction(z.real), Fraction(z.imag)
    det_re, det_im = determinant(m, z)
    f = _mpf((zr - p00) ** 2 + (zr - p11) ** 2 + 2 * zi * zi + p01 * p01 + p10 * p10)
    q = _mpf(det_re * det_re + det_im * det_im)
    return (f + _mp.sqrt(f * f - 4 * q)) / 2, _mp.sqrt(q)


def cond(m, z=0.0) -> float:
    """cond(zI - M) = s_max / s_min of the four floats m of M, inf if singular; cond(M) at
    z = 0."""
    s_max_sq, det = _singular(m, z)
    return float(s_max_sq / det) if det else math.inf


def singular_values(m, z=0.0) -> tuple:
    """(s_max, s_min) of zI - M: of M at z = 0."""
    s_max_sq, det = _singular(m, z)
    return float(_mp.sqrt(s_max_sq)), float(det / _mp.sqrt(s_max_sq))


def eigenvalues(m) -> list:
    """The eigenvalues of the 2x2 of four numbers m, row by row."""
    return [complex(e) for e in _mp.eig(_mp.matrix([list(m[:2]), list(m[2:4])]))[0]]


def expm(aug) -> np.ndarray:
    """exp of each matrix of a (k, n, n) stack, rounded to floats."""
    return np.array([_mp.expm(_mp.matrix(k.tolist())).tolist() for k in aug], dtype=float)


def segment_maps(schedule) -> list:
    """Each segment's map exp([[a, b u], [0, 0]] T) of the floats that `core.augmented_expm`
    takes: the field's entries times the duration, each rounded once."""
    out = []
    for seg, field in zip(schedule.segments, schedule._fields):
        x00, x01, x10, x11, w0, w1 = (x * seg.duration for x in field)
        e = _mp.expm(_mp.matrix([[x00, x01, w0], [x10, x11, w1], [0, 0, 0]]))
        out.append((e[0, 0], e[0, 1], e[1, 0], e[1, 1], e[0, 2], e[1, 2]))
    return out
