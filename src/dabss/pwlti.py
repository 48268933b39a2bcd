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
to the matrix exponential; there is no time-stepping error.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import DimensionError, MarginalSystemError, NumericInputError

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


def expm(a: np.ndarray, t: float) -> np.ndarray:
    """Matrix exponential exp(a*t); NumericInputError if a*t or the result is not finite.

    Parameters
    ----------
    a : np.ndarray
        Square matrix, or a stack of them with shape (k, n, n).
    t : float
        Scalar horizon, may be zero or negative.

    Returns
    -------
    np.ndarray
        exp(a*t) by scaling and squaring with the degree-13 Pade approximant
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
    if not math.isfinite(t):
        raise NumericInputError(f"expm horizon must be finite, got {t!r}")
    n = a.shape[-1]
    x = (a * t).reshape(-1, n, n)
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
        if not (np.all(np.isfinite(a)) and np.all(np.isfinite(b))):
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
        if not np.all(np.isfinite(u)):
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

    @property
    def period(self) -> float:
        """Sum of the segment durations."""
        return math.fsum(seg.duration for seg in self.segments)

    @functools.cached_property
    def maps(self) -> tuple[SegmentMap, ...]:
        """Exact maps of every segment in order, from one batched augmented exponential

            exp([[a, b u], [0, 0]] * T) = [[phi, gamma], [0, 1]],

        which needs no inverse of `a`, so it is exact for a singular `a` and for T = 0
        (phi = I, gamma = 0). Read-only; one segment's map is `Schedule((seg,), u).maps[0]`."""
        n = self.dim
        aug = np.zeros((len(self.segments), n + 1, n + 1))
        aug[:, :n, :n] = [seg.a for seg in self.segments]
        aug[:, :n, n] = [seg.b @ self.u for seg in self.segments]
        # Scaling by the durations first is exact to the bit: expm's own `a * t` at t = 1.
        m = expm(aug * np.array([seg.duration for seg in self.segments])[:, None, None], 1.0)
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
    carrying the eigenvalues of phi."""
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
    """One-period state transition matrix Pi = Phi_n ... Phi_1 (read-only, cached).

    Its eigenvalues decide stability of the periodic solution: all strictly
    inside the unit circle means the switching cycle is asymptotically stable.
    """
    return schedule.period_map.phi


def relative_residual(actual: np.ndarray, expected: np.ndarray) -> float:
    """||actual - expected|| / (1 + ||expected||).

    The +1 in the denominator acts as an absolute floor so comparisons
    against near-zero references stay meaningful. Matrices use the
    Frobenius norm, vectors the 2-norm.
    """
    actual = np.asarray(actual)
    expected = np.asarray(expected)
    return float(np.linalg.norm(actual - expected) / (1.0 + np.linalg.norm(expected)))


def row_norms(v: np.ndarray) -> np.ndarray:
    """2-norm along the last axis, rounded as np.linalg.norm rounds one vector (one BLAS dot)."""
    v = np.asarray(v)
    re, im = v.real[..., None, :], v.imag[..., None, :]
    return np.sqrt((re @ np.swapaxes(re, -1, -2) + im @ np.swapaxes(im, -1, -2))[..., 0, 0])


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
