"""Exact discrete maps for piecewise-LTI systems with piecewise-constant input.

A switching converter that is linear and time invariant inside each
subinterval admits an exact discrete-time description: over a subinterval of
duration T_i with dynamics dx/dt = A_i x + B_i u, the boundary states obey

    x_i = Phi_i x_{i-1} + Gamma_i,
    Phi_i = exp(A_i T_i),
    Gamma_i = integral_0^{T_i} exp(A_i (T_i - tau)) B_i u dtau.

Chaining the subinterval maps gives the state at the end of the chain in
closed form; `compose` is the one place a chain is folded into a single map,
be it the one-period (monodromy) map or a half cycle. The periodic steady
state is the fixed point of the period map; `fixed_point` solves it and every
other x = phi x + gamma of the package. Everything in this module is exact up
to the matrix exponential; there is no time-stepping error. The module also
holds the resolvent (zI - M)^{-1} of a real 2x2 matrix in closed form
(`resolvent_solve`), which every small-signal transfer evaluates.
"""

from __future__ import annotations

import contextlib
import functools
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import (DimensionError, MarginalSystemError, NumericInputError,
                     ResolventSingularityError)

# Condition-estimate ceiling shared by every fixed-point solve in the package.
COND_LIMIT = 1e12


def _frozen_array(values, dtype=float) -> np.ndarray:
    out = np.array(values, dtype=dtype)
    out.setflags(write=False)
    return out


# Degree-13 Pade coefficients b_0..b_13 and the 1-norm up to which that
# approximant is exact to double precision without scaling (Higham 2005).
_PADE13 = (64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
           1187353796428800.0, 129060195264000.0, 10559470521600.0, 670442572800.0,
           33522128640.0, 1323241920.0, 40840800.0, 960960.0, 16380.0, 182.0, 1.0)
_THETA13 = 5.371920351148152
# Squarings at which a roundoff of 2^-53 in the scaled exponential, doubled by
# every squaring, grows to order one: the modes that survive a step (|lambda T|
# of order 1 or less) then carry no significant bit, finite or not.
_MAX_SQUARINGS = 53


def expm(a: np.ndarray) -> np.ndarray:
    """Matrix exponential exp(a); NumericInputError if a or the result is not finite.

    Parameters
    ----------
    a : np.ndarray
        Square matrix, or a stack of them with shape (k, n, n).

    Returns
    -------
    np.ndarray
        exp(a) by scaling and squaring with the degree-13 Pade approximant
        r = p(x) / p(-x) = (V - U)^-1 (V + U) of Higham (2005), "The scaling
        and squaring method for the matrix exponential revisited". Each matrix
        of a stack takes its own scaling 2^-s from its own 1-norm and is
        squared exactly s times, so it comes out bit for bit as it would on
        its own. r is formed as I + 2 (V - U)^-1 U: the solve then yields only
        the correction to I, which keeps a stiff matrix squared many times (a
        nearly conserved state) within roundoff of scipy.linalg.expm, where
        (V - U)^-1 (V + U) drifts off the conserved value by about 1e-8.
        A matrix that needs 53 or more squarings raises like a non-finite
        result: its roundoff, about 2^s * 2^-53, leaves no significant bit.
    """
    a = np.asarray(a, dtype=float)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise DimensionError(f"expm needs a square matrix, got shape {a.shape}")
    n = a.shape[-1]
    x = a.reshape(-1, n, n)
    if not np.all(np.isfinite(x)):
        raise NumericInputError("expm input matrix has non-finite entries")
    norms = np.abs(x).sum(axis=-2).max(axis=-1)
    mantissa, exponent = np.frexp(norms / _THETA13)
    s = np.maximum(exponent - (mantissa == 0.5), 0)      # ceil(log2(norm / theta)), >= 0
    if s.max(initial=0) >= _MAX_SQUARINGS:
        raise _not_finite(norms.max())
    x = np.ldexp(x, -s[:, None, None])
    b = _PADE13
    ident = np.eye(n)
    x2 = x @ x
    x4 = x2 @ x2
    x6 = x2 @ x4
    u = x @ (x6 @ (b[13] * x6 + b[11] * x4 + b[9] * x2)
             + b[7] * x6 + b[5] * x4 + b[3] * x2 + b[1] * ident)
    v = (x6 @ (b[12] * x6 + b[10] * x4 + b[8] * x2)
         + b[6] * x6 + b[4] * x4 + b[2] * x2 + b[0] * ident)
    r = ident + 2.0 * np.linalg.solve(v - u, u)
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow raises below
        for i in range(int(s.max(initial=0))):
            squared = s > i
            rs = r[squared]
            r[squared] = rs @ rs
    if not np.all(np.isfinite(r)):
        raise _not_finite(norms.max())
    return r.reshape(a.shape)


def _not_finite(norm: float) -> NumericInputError:
    return NumericInputError(
        "matrix exponential is not finite: the 1-norm of a*t (state matrix times "
        f"duration) reaches {norm:.3e}, beyond double precision")


@dataclass(frozen=True)
class Segment:
    """One subinterval of a switching period: dx/dt = a x + b u for `duration` seconds."""

    a: np.ndarray
    b: np.ndarray
    duration: float

    def __post_init__(self):
        a = _frozen_array(self.a)
        b = _frozen_array(self.b)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise DimensionError(f"segment state matrix must be square, got {a.shape}")
        if b.ndim != 2 or b.shape[0] != a.shape[0]:
            raise DimensionError(
                f"segment input matrix {b.shape} does not match state dimension {a.shape[0]}")
        if not (np.isfinite(a).all() and np.isfinite(b).all()):
            raise NumericInputError("segment matrices must be finite")
        if not (math.isfinite(self.duration) and self.duration >= 0.0):
            raise NumericInputError(f"segment duration must be finite and >= 0, got {self.duration!r}")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)

    @property
    def dim(self) -> int:
        return self.a.shape[0]


@dataclass(frozen=True)
class Schedule:
    """An ordered tuple of segments driven by one constant input vector."""

    segments: tuple[Segment, ...]
    u: np.ndarray

    def __post_init__(self):
        segments = tuple(self.segments)
        if not segments:
            raise DimensionError("schedule needs at least one segment")
        u = _frozen_array(self.u)
        if u.ndim != 1:
            raise DimensionError(f"input vector must be 1-d, got shape {u.shape}")
        if not np.isfinite(u).all():
            raise NumericInputError("input vector must be finite")
        dim = segments[0].dim
        m = segments[0].b.shape[1]
        for k, seg in enumerate(segments):
            if seg.dim != dim or seg.b.shape[1] != m:
                raise DimensionError(f"segment {k+1} shape disagrees with segment 1")
        if u.shape[0] != m:
            raise DimensionError(
                f"input vector length {u.shape[0]} does not match input matrix columns {m}")
        object.__setattr__(self, "segments", segments)
        object.__setattr__(self, "u", u)

    @property
    def dim(self) -> int:
        return self.segments[0].dim

    @functools.cached_property
    def maps(self) -> tuple[SegmentMap, ...]:
        """Exact maps of every segment in order, from one batched augmented exponential

            exp([[a, b u], [0, 0]] * T) = [[phi, gamma], [0, 1]],

        which needs no inverse of `a`, so it is exact for a singular `a` and for T = 0
        (phi = I, gamma = 0). Read-only; one segment's map is `Schedule((seg,), u).maps[0]`."""
        n = self.dim
        aug = np.zeros((len(self.segments), n + 1, n + 1))
        aug[:, :n, :n] = [seg.a for seg in self.segments]
        with np.errstate(over="ignore", invalid="ignore"):  # not finite: expm raises
            aug[:, :n, n] = [seg.b @ self.u for seg in self.segments]
        m = expm(aug * np.array([seg.duration for seg in self.segments])[:, None, None])
        return tuple(SegmentMap(_frozen_array(mk[:n, :n]), _frozen_array(mk[:n, n])) for mk in m)

    @functools.cached_property
    def period_map(self) -> SegmentMap:
        """Read-only map (Pi, forcing) of one period, composed once from `maps`."""
        return compose(self.maps)


class SegmentMap(NamedTuple):
    """Exact discrete map x -> phi x + gamma of one segment or of a chain of them."""

    phi: np.ndarray
    gamma: np.ndarray


def compose(maps) -> SegmentMap:
    """One map for a chain applied first to last: phi <- phi_k phi, gamma <- phi_k gamma + gamma_k.

    phi is the reverse product phi_n (... (phi_2 phi_1)) and gamma the sum of reverse products
    times each gamma_i, by Horner's rule; the two products are made read-only, uncopied. A
    one-map chain comes back as given. An empty chain is an IndexError, not a silent identity
    that would hide an indexing bug."""
    if len(maps) == 1:
        return maps[0]
    phi, gamma = maps[0]
    for phi_k, gamma_k in maps[1:]:
        phi = phi_k @ phi
        gamma = phi_k @ gamma + gamma_k
    phi.setflags(write=False)
    gamma.setflags(write=False)
    return SegmentMap(phi, gamma)


def propagate(schedule: Schedule, x0: np.ndarray) -> list[np.ndarray]:
    """Boundary states [x_1, ..., x_n] from sequential application of the segment maps."""
    x = np.asarray(x0, dtype=float)
    if x.shape != (schedule.dim,):
        raise DimensionError(f"x0 shape {x.shape} does not match state dimension {schedule.dim}")
    states = []
    for m in schedule.maps:
        x = m.phi @ x + m.gamma
        states.append(x)
    return states


def closed_form_state(schedule: Schedule, x0: np.ndarray) -> np.ndarray:
    """End-of-period state Pi x0 + forcing: `propagate(...)[-1]` in one step of the period map."""
    x0 = np.asarray(x0, dtype=float)
    if x0.shape != (schedule.dim,):
        raise DimensionError(f"x0 shape {x0.shape} does not match state dimension {schedule.dim}")
    return schedule.period_map.phi @ x0 + schedule.period_map.gamma


def cond(m: np.ndarray) -> float:
    """np.linalg.cond(m) (s_max / s_min, inf if singular) without its wrapper's cost on a 2x2."""
    s = np.linalg.svd(m, compute_uv=False)
    return float(s[0] / s[-1]) if s[-1] else math.inf


def fixed_point(phi: np.ndarray, gamma: np.ndarray, what: str) -> np.ndarray:
    """Fixed point of x -> phi x + gamma (a period, a half cycle, a surface), from
    (I - phi) x = gamma. An eigenvalue of phi at or near 1 leaves cond(I - phi) not finite or
    above COND_LIMIT: MarginalSystemError "<what> is marginal: cond ~ ... exceeds 1.0e+12",
    carrying the eigenvalues of phi. A 2x2 phi is solved as `resolvent_solve` at z = 1 while
    its closed-form cond s_max^2 / |det| is at most COND_LIMIT / 2 and det^2 a normal number;
    otherwise LAPACK's `cond` gives the verdict and the printed value."""
    if phi.shape == (2, 2):
        m = Matrix2x2.of(phi)
        with contextlib.suppress(ResolventSingularityError):  # det(I - phi) 0 or not a number
            det = a, d, det_re, _, q = resolvent_det(m, 1.0, 0.0)
            c = sigma_max_sq(a, -m.m01, -m.m10, d, 0.0) / abs(det_re)
            if c <= COND_LIMIT / 2 and 1e-300 < q < 1e300:
                g0, g1 = gamma.tolist()
                (x0, _, x1, _), = resolvent_solve(m, 1.0, 0.0, [(g0, 0.0, g1, 0.0)], det)
                return np.array([x0, x1])
    lhs = np.eye(phi.shape[0]) - phi
    c = cond(lhs)
    if not c <= COND_LIMIT:  # NaN fails too
        raise MarginalSystemError(f"{what} is marginal: cond ~ {c:.3e} exceeds {COND_LIMIT:.1e}",
                                  eigenvalues=np.linalg.eigvals(phi))
    return np.linalg.solve(lhs, gamma)


def solve_periodic_fixed_point(schedule: Schedule) -> np.ndarray:
    """Steady-state period-boundary state of a schedule, from its cached `period_map`."""
    return fixed_point(*schedule.period_map, "periodic solve")


def monodromy(schedule: Schedule) -> np.ndarray:
    """One-period state transition matrix Pi = Phi_n ... Phi_1 (read-only, cached). The
    switching cycle is asymptotically stable iff its eigenvalues lie inside the unit circle."""
    return schedule.period_map.phi


def relative_residual(actual: np.ndarray, expected: np.ndarray) -> float:
    """||actual - expected|| / (1 + ||expected||), Frobenius norm for matrices: the +1 is an
    absolute floor, so comparisons against near-zero references stay meaningful."""
    actual = np.asarray(actual)
    expected = np.asarray(expected)
    return float(np.linalg.norm(actual - expected) / (1.0 + np.linalg.norm(expected)))


# The 2x2 resolvent (zI - M)^{-1} of a real matrix M in closed form. A complex 2-vector is
# handled as a "planar" tuple (re0, im0, re1, im1), and every rule below uses only +, -, *,
# /, sqrt and hypot on its entries: Python floats for one z, float arrays for an array of z.
# Both round identically, so a scalar z gives bit for bit the row that an array of z gives.
# Complex products and quotients are spelled out, because CPython and numpy round those
# differently.


def real_sqrt(x):
    return math.sqrt(x) if isinstance(x, float) else np.sqrt(x)


def real_hypot(x, y):
    # Both are the C library's hypot; math.hypot is not.
    return abs(complex(x, y)) if isinstance(x, float) else np.hypot(x, y)


def planar_array(vectors, shape: tuple) -> np.ndarray:
    """The complex array (len(vectors), *shape, 2) of planar vectors, each entry broadcast."""
    if not shape:
        return np.array(vectors, dtype=float).view(complex)
    out = np.empty((len(vectors),) + shape + (4,))
    for slot, vector in zip(out, vectors):
        for k, part in enumerate(vector):
            slot[..., k] = part
    return out.view(complex)


def matrix_times(c: list, v):
    """c v for the real 2x2 matrix c = [c00, c01, c10, c11] and a planar v."""
    c00, c01, c10, c11 = c
    r0, s0, r1, s1 = v
    return c00 * r0 + c01 * r1, c00 * s0 + c01 * s1, c10 * r0 + c11 * r1, c10 * s0 + c11 * s1


def planar_norm(v):
    """2-norm of a planar vector: the root of its sum of squares, or hypot's scaled form
    where that sum reaches 1e150 or overflows."""
    r0, s0, r1, s1 = v
    if type(r0) is type(s0) is type(r1) is type(s1) is float:  # numpy warns on an overflow
        s = r0 * r0 + s0 * s0 + r1 * r1 + s1 * s1
        return real_hypot(real_hypot(r0, s0), real_hypot(r1, s1)) if s >= 1e150 else math.sqrt(s)
    with np.errstate(over="ignore"):
        s = r0 * r0 + s0 * s0 + r1 * r1 + s1 * s1
    return np.where(s >= 1e150, np.hypot(np.hypot(r0, s0), np.hypot(r1, s1)), np.sqrt(s))


def planar_residual(actual, expected):
    """relative_residual of planar vectors: a float for one vector, an array for many."""
    return (planar_norm(tuple(a - e for a, e in zip(actual, expected)))
            / (1.0 + planar_norm(expected)))


def sigma_max_sq(a, b, c, d, y):
    """Square of the largest singular value of [[a + iy, b], [c, d + iy]] (a, b, c, d, y real).

    It is the larger eigenvalue of H = M M^H, (tr H + sqrt((h11 - h22)^2 + 4 |h12|^2)) / 2,
    whose discriminant is a sum of squares: no clamp is needed at a double singular value.
    """
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
    def of(cls, m: np.ndarray) -> Matrix2x2:
        (m00, m01), (m10, m11) = np.asarray(m, dtype=float).tolist()
        return cls(m00, m01, m10, m11, *two_product(m01, m10))


def resolvent_det(m: Matrix2x2, zr, zi):
    """zI - M = [[a + i zi, -m01], [-m10, d + i zi]] as (a, d), with det_re + i det_im, its
    determinant, and q = |det|^2.

    Near an eigenvalue the determinant cancels, so it is summed from exact products and
    exact differences (`two_product`, `two_sum`) and keeps a few ulps of relative accuracy:
    a rounded determinant would carry the whole condition number of zI - M into a solve.
    ResolventSingularityError where q is not positive, which only underflow or a z that is
    not a number reaches off the eigenvalues of M.
    """
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


@dataclass(frozen=True)
class IdentityCheck:
    """One named residual check, as reported by the verification suites."""

    name: str
    residual: float
    tolerance: float
    note: str = field(default="")

    @property
    def passed(self) -> bool:
        return self.residual <= self.tolerance
