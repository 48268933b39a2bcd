"""The closed-form float core: exact 2x2 rules on Python floats, with no numpy import.

A map x -> phi x + gamma is six floats, phi row by row, then gamma: `augmented_expm` makes one,
`compose` folds a chain into one, and `fixed_point`, gated on `cond`, solves every steady state.
The resolvent (`resolvent_solve`) and the planar helpers also take float arrays (many z)."""

from __future__ import annotations

import cmath
import functools
import math
from typing import NamedTuple

from .errors import MarginalSystemError, NumericInputError, ResolventSingularityError

# Condition-estimate ceiling shared by every fixed-point solve in the package.
COND_LIMIT = 1e12
_NORM_LIMIT = 5.371920351148152 * 2.0**52  # theta13 2^52
_RADIUS, _SPREAD = 1.5, 0.25
_PHI1_TAYLOR = tuple(1 / math.factorial(k) for k in range(23, 0, -1))  # 1/23!, ..., 1/1!


def augmented_expm(x00, x01, x10, x11, w0, w1) -> tuple:
    """exp([[X, w], [0, 0]]) = [[e^X, phi1(X) w], [0, 1]], phi1(X) = (e^X - I) X^-1, of X =
    [[x00, x01], [x10, x11]] and w = (w0, w1) in Python floats: (e00, e01, e10, e11, g0, g1).

    In closed form (Higham, "Functions of Matrices", 2008, ch. 10), with eigenvalues mu +- delta:
    a Taylor series for |mu| + |delta| <= 1.5, whose first omitted term, 1.5^24 / 24!, is below
    2^-58 of its least coefficient there, e^-1.5 sin(1.5) / 1.5; divided differences at real
    eigenvalues at least 1 apart; else cosh and sinh of delta. NumericInputError where the
    input or the result is not finite, or where the 1-norm of [[X, w], [0, 0]] passes theta13
    2^52, past which the oracle's Pade kernel, the check of these maps, refuses."""
    c0, c1, c2 = abs(x00) + abs(x10), abs(x01) + abs(x11), abs(w0) + abs(w1)
    if not (c0 <= _NORM_LIMIT and c1 <= _NORM_LIMIT and c2 <= _NORM_LIMIT):  # NaN fails too
        raise _exp_error(c0, c1, c2)
    t, mu = x00 + x11, 0.5 * (x00 + x11)
    h, p, delta2, det = _discriminant(x00, x01, x10, x11)
    # Each regime gives the diagonals of e^X and phi1(X) and eb, pb, the factors of the
    # off-diagonal entries of X in theirs.
    try:
        if abs(mu) + math.sqrt(abs(delta2)) <= _RADIUS:
            # Horner's rule for phi1 = pa I + pb X (X^2 = t X - det I); e^X = I + X phi1.
            pa = pb = 0.0
            for c in _PHI1_TAYLOR:
                pa, pb = c - pb * det, pa + pb * t
            ea, eb = 1.0 - pb * det, pa + pb * t
            e00, e11, p00, p11 = ea + eb * x00, ea + eb * x11, pa + pb * x00, pa + pb * x11
        elif delta2 > _SPREAD:
            # f(X) = (f(big) (X - small I) - f(small) (X - big I)) / (big - small), small =
            # det / big, x_ii - big and x_ii - small as +-(h +- delta), the one that cancels
            # as -p over the other: a stiff map keeps its slow mode.
            delta = math.sqrt(delta2)
            big = mu + math.copysign(delta, mu)
            small = det / big
            gap, far = math.copysign(2.0 * delta, mu), h + math.copysign(delta, h)
            same_sign = math.copysign(1.0, h) == math.copysign(1.0, mu)  # signed zeros too
            d_big, d_small = (-p / far, far) if same_sign else (far, -p / far)
            e_big, e_small = math.exp(big), math.exp(small)
            p_big, p_small = math.expm1(big) / big, math.expm1(small) / small if small else 1.0
            eb, pb = (e_big - e_small) / gap, (p_big - p_small) / gap
            e00 = (e_big * d_small - e_small * d_big) / gap
            e11 = (e_small * d_small - e_big * d_big) / gap
            p00 = (p_big * d_small - p_small * d_big) / gap
            p11 = (p_small * d_small - p_big * d_big) / gap
        else:
            # Eigenvalues at least 0.5 from 0: e^X = e^mu (cosh delta I + sinh delta / delta N),
            # e^X - I through expm1(mu), phi1 = adj X (e^X - I) / det with adj X = mu I - N.
            r = math.sqrt(abs(delta2))
            if delta2 >= 0.0:
                cm1, sinhc = 2.0 * math.sinh(0.5 * r) ** 2, math.sinh(r) / r if r else 1.0
            else:
                cm1, sinhc = -2.0 * math.sin(0.5 * r) ** 2, math.sin(r) / r
            e_mu = math.exp(mu)
            em1 = e_mu * cm1 + math.expm1(mu)
            ea, eb = e_mu + e_mu * cm1, e_mu * sinhc
            pa, pb = (mu * em1 - eb * delta2) / det, (mu * eb - em1) / det
            e00, e11, p00, p11 = ea + eb * h, ea - eb * h, pa + pb * h, pa - pb * h
    except OverflowError:
        raise _exp_error(c0, c1, c2) from None
    out = (e00, eb * x01, eb * x10, e11, p00 * w0 + pb * (x01 * w1), pb * (x10 * w0) + p11 * w1)
    if not all(map(math.isfinite, out)):
        raise _exp_error(c0, c1, c2)
    return out


def _discriminant(x00, x01, x10, x11) -> tuple:
    """(h, p, delta^2, det X) of X = [[x00, x01], [x10, x11]], eigenvalues (x00 + x11) / 2 +-
    delta: h = (x00 - x11) / 2, p = x01 x10, delta^2 = h^2 + p, det X from exact products."""
    h, h_err = two_sum(0.5 * x00, -0.5 * x11)
    hh, hh_err = two_product(h, h)
    p, p_err = two_product(x01, x10)
    s, s_err = two_sum(hh, p)
    delta2 = s + (s_err + hh_err + p_err + 2.0 * h * h_err)
    q, q_err = two_product(x00, x11)
    s, s_err = two_sum(q, -p)
    return h, p, delta2, s + (s_err + q_err - p_err)


def _exp_error(c0, c1, c2) -> NumericInputError:
    """The refusal of an exponential with column 1-norms c0, c1 (a t) and c2 (b u t): it names
    b u t where a t is finite and c2 is above it or not a number, and a t otherwise."""
    state = max(c0, c1)
    what, norm = (("b*u*t (input column times duration)", c2) if math.isfinite(state)
                  and not c2 <= state else ("a*t (state matrix times duration)", state))
    if all(map(math.isfinite, (c0, c1, c2))) and norm > _NORM_LIMIT:
        return NumericInputError(
            f"matrix exponential is refused: the 1-norm of {what} reaches {norm:.3e}, above the "
            f"{_NORM_LIMIT:.3e} up to which the oracle's Pade kernel can cross-check it")
    return NumericInputError(f"matrix exponential is not finite: the 1-norm of {what} reaches "
                             f"{norm:.3e}, beyond double precision")


def compose(maps) -> tuple:
    """One map for a chain applied first to last, each map six Python floats, phi row by row
    and then gamma: phi <- phi_k phi, gamma <- phi_k gamma + gamma_k.

    phi is the reverse product phi_n (... (phi_2 phi_1)) and gamma the sum of reverse products
    times each gamma_i, by Horner's rule, each entry rounded as written (no fused
    multiply-add, unlike numpy's 2x2 `@`). A one-map chain gives its own floats. An empty
    chain is an IndexError, not a silent identity that would hide an indexing bug."""
    p00, p01, p10, p11, g0, g1 = maps[0]
    for a00, a01, a10, a11, h0, h1 in maps[1:]:
        p00, p01, p10, p11, g0, g1 = (
            a00 * p00 + a01 * p10, a00 * p01 + a01 * p11, a10 * p00 + a11 * p10,
            a10 * p01 + a11 * p11, a00 * g0 + a01 * g1 + h0, a10 * g0 + a11 * g1 + h1)
    return p00, p01, p10, p11, g0, g1


def _affine(m, x) -> tuple:
    """phi x + gamma of a map m of six Python floats, each entry rounded as `compose` rounds it."""
    m00, m01, m10, m11, c0, c1 = m
    return m00 * x[0] + m01 * x[1] + c0, m10 * x[0] + m11 * x[1] + c1


def _scale(*values) -> float:
    """The power of two, at most 2^1023, that takes the largest |value| to [1/2, 1)."""
    return math.ldexp(1.0, -max(math.frexp(max(map(abs, values)))[1], -1023))


def _shifted(m, z: float) -> tuple:
    """zI - M, M = (m00, m01, m10, m11) and z in [0, 1], scaled by the power of two s that takes
    its largest entry to [1/2, 1), so no product overflows and, short of underflow, no bit moves:
    (cond(zI - M) = s_max^2 / |det|, `Matrix2x2` of s M, `resolvent_det` at s z, s)."""
    s = _scale(z - m[0], z - m[3], m[1], m[2])
    phi = Matrix2x2.of([s * x for x in m])
    try:
        det = a, d, det_re, _, _ = resolvent_det(phi, s * z, 0.0)
    except ResolventSingularityError:  # det 0, or |det| below 1e-154: cond past 1e153
        return math.inf, phi, None, s
    return sigma_max_sq(a, -phi.m01, -phi.m10, d, 0.0) / abs(det_re), phi, det, s


def cond(m) -> float:
    """cond(M) = s_max / s_min of a real 2x2 (`_flat`), inf if singular."""
    return _shifted(_flat(m), 0.0)[0]


def eigenvalues(m00, m01, m10, m11) -> tuple:
    """Eigenvalues mu +- delta of [[m00, m01], [m10, m11]], `_discriminant` of the entries scaled
    by `_scale`: a complex pair as exact conjugates, real ones as big = mu +- |delta| with the
    sign of mu and small = det / big, so neither cancels; within a few u ||M|| of exact."""
    s = _scale(m00, m01, m10, m11)
    x00, x11 = s * m00, s * m11
    _, _, delta2, det = _discriminant(x00, s * m01, s * m10, x11)
    mu, r = 0.5 * (x00 + x11), math.sqrt(abs(delta2))
    if delta2 < 0.0:
        return complex(mu / s, r / s), complex(mu / s, -r / s)
    big = mu + math.copysign(r, mu)
    return complex(big / s), complex(det / big / s if big else 0.0)


def fixed_point(m, what: str) -> tuple:
    """Fixed point (x0, x1) of x -> phi x + gamma (a period, a half cycle, a surface), m = (phi00,
    phi01, phi10, phi11, gamma0, gamma1) in Python floats scaled as `_shifted` at z = 1 scales:
    Cramer's rule, one division by det(I - phi). A cond(I - phi) above COND_LIMIT or not finite
    raises MarginalSystemError "<what> is marginal: cond ~ ... exceeds 1.0e+12", eigenvalues."""
    c, phi, parts, s = _shifted(m[:4], 1.0)
    if not c <= COND_LIMIT:  # NaN fails too
        raise MarginalSystemError(f"{what} is marginal: cond ~ {c:.3e} exceeds {COND_LIMIT:.1e}",
                                  eigenvalues=eigenvalues(*m[:4]))
    (a, d, det, _, _), g0, g1 = parts, s * m[4], s * m[5]
    return (d * g0 + phi.m01 * g1) / det, (phi.m10 * g0 + a * g1) / det


# The 2x2 resolvent (zI - M)^{-1} of a real matrix M in closed form. A complex 2-vector is
# handled as a "planar" tuple (re0, im0, re1, im1), and every rule below uses only +, -, *, /,
# sqrt and hypot on its entries: Python floats for one z, float arrays for an array of z. Both
# round identically, so a scalar z gives bit for bit the row that an array of z gives. Complex
# products and quotients are spelled out, because CPython and numpy round those differently.


def _numpy():
    """numpy, for the array forms of the rules below: a caller that passes arrays loaded it."""
    import numpy
    return numpy


def _flat(m) -> list:
    """The entries of a real matrix, row by row, as Python floats: from an array, or as given."""
    return m.ravel().tolist() if hasattr(m, "ravel") else m


def real_sqrt(x):
    return math.sqrt(x) if isinstance(x, float) else _numpy().sqrt(x)


def real_hypot(x: float, y: float) -> float:
    # The C library's hypot of two floats (`complex_abs`), inf past the float range; math.hypot
    # is not the C library's.
    return complex_abs(complex(x, y))


def complex_abs(z):
    """|z| as the C library's hypot of its parts, inf past the float range: of a Python complex,
    or entry by entry of an array."""
    if not isinstance(z, complex):
        return _numpy().hypot(z.real, z.imag)
    try:
        return abs(z)
    except OverflowError:
        return math.inf


def complex_exp(z):
    """e^z: `cmath.exp` of a Python complex, numpy's exp of a complex array. Both take e^(iy)
    from the C library's cos and sin of y, so one z and an array of z round alike."""
    return cmath.exp(z) if isinstance(z, complex) else _numpy().exp(z)


def to_complex(re, im):
    """re + i im, both signed zeros kept: a complex of floats, a complex array of arrays."""
    if isinstance(re, float):
        return complex(re, im)
    out = re.astype(complex)  # re an array, of the shape of the result
    out.imag = im
    return out


def matrix_times(c: list, v):
    """c v for the real 2x2 matrix c = [c00, c01, c10, c11] and a planar v."""
    c00, c01, c10, c11 = c
    r0, s0, r1, s1 = v
    return c00 * r0 + c01 * r1, c00 * s0 + c01 * s1, c10 * r0 + c11 * r1, c10 * s0 + c11 * s1


def planar_norm(v):
    """2-norm of a planar vector of any number of parts: the root of its sum of squares, or
    where that sum reaches 1e150 or overflows, hypot of pairs of parts, then of pairs of those
    (`_hypot_tree`); inf, with no error or warning, past the float range."""
    if all(type(p) is float for p in v):  # numpy warns on an overflow
        return _float_norm(v)
    np = _numpy()
    with np.errstate(over="ignore"):  # a norm past the float range is inf
        s = functools.reduce(lambda s, p: s + p * p, v[1:], v[0] * v[0])
        big = s >= 1e150
        return np.where(big, _hypot_tree(v, np.hypot), np.sqrt(s)) if big.any() else np.sqrt(s)


def _float_norm(v) -> float:
    s = 0.0
    for p in v:  # left to right: sum() compensates from Python 3.12 on
        s += p * p
    return _hypot_tree(v, real_hypot) if s >= 1e150 else math.sqrt(s)


def _hypot_tree(v, hypot):
    """hypot of pairs of parts, then of pairs of those, down to one; a lone part pairs with 0."""
    v = list(map(hypot, v[::2], (*v[1::2], 0.0)))  # map stops at the shorter
    return v[0] if len(v) == 1 else _hypot_tree(v, hypot)


def planar_residual(actual, expected):
    """||actual - expected|| / (1 + ||expected||) of planar vectors of any number of parts
    (`planar_norm`): a float for Python floats, an array for float arrays (many vectors).
    Where a difference or ||expected|| of finite parts passes the float range, the parts and the
    1 are scaled first by the power of two that takes the largest part to [2^999, 2^1000), which
    leaves the quotient as it is; every other input keeps its bits. No input warns."""
    if all(type(p) is float for v in (actual, expected) for p in v):
        return _float_residual(actual, expected)
    np = _numpy()
    with np.errstate(over="ignore", invalid="ignore"):  # as silent as the rule of one vector
        diff, size = _norms(actual, expected, planar_norm)
        res = diff / (1.0 + size)
        if np.isinf(diff + size).any():  # those vectors by the rule of one vector
            res = np.array(res)
            for k in map(tuple, np.argwhere(np.isinf(diff + size))):
                one = [float(np.broadcast_to(p, res.shape)[k]) for p in (*actual, *expected)]
                res[k] = _float_residual(one[:len(actual)], one[len(actual):])
    return res


def _float_residual(actual, expected) -> float:
    s, (diff, size) = 1.0, _norms(actual, expected, _float_norm)
    if math.inf in (diff, size) and all(map(math.isfinite, (*actual, *expected))):
        s = math.ldexp(_scale(*actual, *expected), 1000)
        diff, size = _norms([s * p for p in actual], [s * p for p in expected], _float_norm)
    return diff / (s + size)


def _norms(actual, expected, norm) -> tuple:
    """(||actual - expected||, ||expected||) of planar vectors with as many parts."""
    return norm([a - e for a, e in zip(actual, expected, strict=True)]), norm(expected)


def relative_residual(actual, expected) -> float:
    """||actual - expected|| / (1 + ||expected||) of two numbers, sequences or arrays: the
    `planar_residual` of the real and imaginary parts of their entries (Frobenius for matrices).
    The +1 is an absolute floor, so comparisons against near-zero references stay meaningful."""
    return _float_residual(_parts(actual), _parts(expected))


def _parts(x) -> list:
    """Real and imaginary part of each entry of a number, a sequence or an array, in row order."""
    x = x.tolist() if hasattr(x, "tolist") else x
    if isinstance(x, (int, float, complex)):
        return [float(x.real), float(x.imag)]
    return [p for e in x for p in ((e, 0.0) if type(e) is float else _parts(e))]


def sigma_max_sq(a, b, c, d, y):
    """Square of the largest singular value of [[a + iy, b], [c, d + iy]] (a, b, c, d, y real).

    It is the larger eigenvalue of H = M M^H, (tr H + sqrt((h11 - h22)^2 + 4 |h12|^2)) / 2,
    whose discriminant is a sum of squares: no clamp is needed at a double singular value."""
    h12_re = a * c + b * d
    h12_im = y * (c - b)
    h_gap = (a - d) * (a + d) + (b - c) * (b + c)  # h11 - h22
    trace = a * a + b * b + c * c + d * d + 2.0 * (y * y)
    return 0.5 * (trace + real_sqrt(h_gap * h_gap + 4.0 * (h12_re * h12_re + h12_im * h12_im)))


def two_sum(x, y):
    """x + y = s + err exactly (Knuth's TwoSum)."""
    s = x + y
    y_part = s - x
    return s, (x - (s - y_part)) + (y - y_part)


def two_product(x, y):
    """x y = p + err exactly, short of overflow and underflow (Dekker's TwoProduct with
    Veltkamp's split of each factor into two halves of 26 bits)."""
    p = x * y
    c = 134217729.0 * x  # 2^27 + 1
    x_hi = c - (c - x)
    x_lo = x - x_hi
    c = 134217729.0 * y
    y_hi = c - (c - y)
    y_lo = y - y_hi
    return p, ((x_hi * y_hi - p) + x_hi * y_lo + x_lo * y_hi) + x_lo * y_lo


class Matrix2x2(NamedTuple):
    """A real 2x2 matrix M as Python floats, with m01 m10 = pp + pp_err exactly."""

    m00: float
    m01: float
    m10: float
    m11: float
    pp: float
    pp_err: float

    @classmethod
    def of(cls, m) -> Matrix2x2:
        """M from its `_flat` entries."""
        m00, m01, m10, m11 = _flat(m)
        return cls(m00, m01, m10, m11, *two_product(m01, m10))


def resolvent_det(m: Matrix2x2, zr, zi):
    """zI - M = [[a + i zi, -m01], [-m10, d + i zi]] as (a, d), with det_re + i det_im, its
    determinant, and q = |det|^2.

    Near an eigenvalue the determinant cancels, so it is summed from exact products and exact
    differences (`two_product`, `two_sum`) and keeps a few ulps of relative accuracy: a rounded
    determinant would carry the whole condition number of zI - M into a solve.
    ResolventSingularityError where q is not positive, which only underflow or a z that is not
    a number reaches off the eigenvalues of M."""
    a, a_err = two_sum(zr, -m.m00)
    d, d_err = two_sum(zr, -m.m11)
    ad, ad_err = two_product(a, d)
    zz, zz_err = two_product(zi, zi)
    s, s_err = two_sum(ad, -m.pp)
    t, t_err = two_sum(s, -zz)
    det_re = t + ((t_err + s_err) + (ad_err - m.pp_err - zz_err) + (a * d_err + a_err * d))
    det_im = zi * ((a + d) + (a_err + d_err))
    q = det_re * det_re + det_im * det_im
    if not (q > 0.0 if isinstance(q, float) else (q > 0.0).all()):
        raise ResolventSingularityError("det(zI - M) rounds to zero or is not a number")
    return a, d, det_re, det_im, q


def resolvent_solve(m: Matrix2x2, zr, zi, vectors, det=None) -> list:
    """(zI - M)^{-1} v = adj(zI - M) v / det(zI - M) for each planar v in `vectors`; `det` is
    `resolvent_det(m, zr, zi)` where the caller has it already."""
    a, d, det_re, det_im, q = det or resolvent_det(m, zr, zi)
    w_re, w_im = det_re / q, -det_im / q  # 1 / det
    solved = []
    for r0, s0, r1, s1 in vectors:
        n0_re = d * r0 - zi * s0 + m.m01 * r1
        n0_im = d * s0 + zi * r0 + m.m01 * s1
        n1_re = m.m10 * r0 + a * r1 - zi * s1
        n1_im = m.m10 * s0 + a * s1 + zi * r1
        solved.append((n0_re * w_re - n0_im * w_im, n0_re * w_im + n0_im * w_re,
                       n1_re * w_re - n1_im * w_im, n1_re * w_im + n1_im * w_re))
    return solved


class IdentityCheck(NamedTuple):
    """One named residual check, as reported by the verification suites."""

    name: str
    residual: float
    tolerance: float
    note: str = ""

    @property
    def passed(self) -> bool:
        return self.residual <= self.tolerance


def validated(cls):
    """Class decorator: the NamedTuple `cls` runs its `_check(self)` on every instance it makes,
    from its constructor and from `_make`, which `_replace` builds through (a NamedTuple's own
    `_make` calls `tuple.__new__` and would skip the check)."""
    new = cls.__new__

    @functools.wraps(new)
    def __new__(cls, *args, **kwargs):
        self = new(cls, *args, **kwargs)
        self._check()
        return self

    cls.__new__ = staticmethod(__new__)
    cls._make = classmethod(lambda cls, values: cls(*values))
    return cls
