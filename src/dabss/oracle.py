"""Brute-force time-domain reference simulator.

Deliberately dumb: it advances the raw four-interval schedule one segment at
a time, from a zero initial state, until the period boundary stops moving.
Each advance is one exact segment map x -> phi x + gamma, whose six entries
come from the augmented exponential [[phi, gamma], [0, 1]] =
exp([[a, b u], [0, 0]] T), so "brute force" refers to iteration count, never
integration error. Every loop steps the state by the one rule

    x0, x1 = a00*x0 + a01*x1 + g0, a10*x0 + a11*x1 + g1

in Python floats, in that evaluation order. The module shares no code path
with the closed-form solvers: it builds its own step matrices, takes their
exponentials with its own Pade scaling and squaring (degree 9 or 13, as each
map's norm calls for), finds the period map's eigenvalues by its own 2x2 rule,
and imports nothing from `core`, `pwlti` or `smallsignal`, which is what makes
it a legitimate cross-check. The Pade numerator and denominator of each
interval are tabled once per design, in Python floats, as polynomials in the
step's duration, so each map costs one Horner pass over its interval's table.

The kernel has two forms that give the same bits. `_step_rows` runs maps in
Python floats: the pre-run's period maps, the waveform's substep maps and,
where numpy is not loaded, the perturbed half cycles of a frequency-response
measurement of up to FLOAT_HALF_CYCLES, so `simulate` and a short `compare`
load no numpy. `_step_maps` runs a stack of maps as numpy arrays, for a
measurement where numpy is loaded already or a longer one: its thread allocates
the kernel's work arrays once and reuses them for all of its exponentials,
while the scalar loops read the maps in place. Either way a measurement runs
block by block, and its samples and DFT bins (`dabss.dft`) follow one float
rule, with no BLAS sum, so their bits do not depend on the path or the host.
Only the stacked kernel and the public array edge (`run_to_steady_state`,
`measure_frequency_responses`) import numpy.

Frequency responses are measured the way a network analyzer would: inject a
sinusoid into the control voltage, recompute the comparator-set durations
every half cycle from the timing law, sample the rectified physical output
at the surface instants, and extract the single coherent DFT bin.
"""

from __future__ import annotations

import math
import struct
import sys
import threading
from itertools import islice
from operator import add, neg, sub
from typing import TYPE_CHECKING, NamedTuple

from .config import Injection, SimConfig, require_coherent
from .dab import DabSchedule
from .errors import AmplitudeError, ConvergenceError, MarginalSystemError, NumericInputError

if TYPE_CHECKING:
    import numpy as np

# Injection amplitude fallback: fraction of the ramp amplitude.
DEFAULT_AMPLITUDE_RATIO = 1e-4

# Half cycles a measurement runs at a time, their step maps from one call of the
# oracle's exponential; bounds a measurement's memory independently of its length.
# A call pays a fixed cost of some 40 numpy calls: in blocks of 1,024 the
# oracle-compare measurements of the reference design took about 3% longer.
# The float kernel takes the same blocks, since a block's largest norm sets
# every map's Horner length.
HALF_CYCLES_PER_EXPM = 2048

# Half cycles, over all of a measurement's bins, up to which a measurement where numpy is not
# loaded runs in Python floats; past them it imports numpy for the stacked kernel, if it can.
# On a 2-vCPU Xeon under Python 3.11 the float measurement took 5.8 us a half cycle against
# the stacked kernel's 0.8 us in process, and numpy's import 55 ms with one BLAS thread
# (110-150 ms with its default pool): in cold `compare` runs with one BLAS thread the two
# crossed near 13,000 half cycles.
FLOAT_HALF_CYCLES = 12_000


class Waveform(NamedTuple):
    """Sampled final-period trajectory: time axis, states, per-interval outputs.

    `t` is relative to the start of the exported period, strictly
    increasing, with samples on every subinterval boundary. Boundary samples
    carry the output matrix of the interval that just closed.
    """

    t: np.ndarray
    x: np.ndarray
    y: np.ndarray


# Pade coefficients b_0..b_m of degrees 9 and 13, and the 1-norms theta_m up to
# which those approximants are exact to double precision without scaling (Higham 2005).
_PADE9 = (17643225600.0, 8821612800.0, 2075673600.0, 302702400.0, 30270240.0, 2162160.0,
          110880.0, 3960.0, 90.0, 1.0)
_THETA9 = 2.097847961257068
_PADE13 = (64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
           1187353796428800.0, 129060195264000.0, 10559470521600.0, 670442572800.0,
           33522128640.0, 1323241920.0, 40840800.0, 960960.0, 16380.0, 182.0, 1.0)
_THETA13 = 5.371920351148152
# Squarings at which a roundoff of 2^-53 in the scaled exponential, doubled by
# every squaring, grows to order one: the modes that survive a step (|lambda T|
# of order 1 or less) then carry no significant bit, finite or not.
_MAX_SQUARINGS = 53


class _Tables(NamedTuple):
    """What the oracle's exponential needs of each interval [A | w], from `_pade_tables`, in
    Python floats (`_step_maps` reads them as arrays, `_arrays`).

    `coefficients[key][i]` holds the coefficients of sigma^i, i = 0..6, in the ten entries
    (u00, u01, ug0, u10, u11, ug1) of U / tau and (v00, v01, v10, v11) of V's state block, key
    2 * interval for degree 9 (its five terms padded with zeros to seven) and 2 * interval + 1
    for degree 13. `a_norms` is ||A||_1 and `w_norms` ||w||_1, whose products with a step's
    duration the refusal message reports. `exponents` E and `gamma_exponents` F - E are those
    of the exact powers of two in ||A||_1 = m 2^E and ||w||_1 = m' 2^F, m and m' in [0.5, 1)
    (or 0).
    """

    coefficients: tuple
    a_norms: tuple
    w_norms: tuple
    exponents: tuple
    gamma_exponents: tuple


class _Scratch:
    """Work arrays of `_step_maps` for stacks of up to `maps` maps, which every call
    handed this scratch reuses.

    `scratch(name, shape)` is a C-contiguous view of the front of the slot
    `name`, which holds ENTRIES[name] entries per map.
    """

    ENTRIES = dict(h=10, term=10, r=6, squared=6, tmp=6, maps=6, sigma=1, det=1)

    def __init__(self, maps: int):
        import numpy as np
        self.maps = maps
        self._slots = {name: np.empty(n * maps) for name, n in self.ENTRIES.items()}

    def __call__(self, name: str, shape) -> np.ndarray:
        return self._slots[name][:math.prod(shape)].reshape(shape)


def _mul(p, q, out, tmp):
    """p[:, :2] @ q for each map of two (2, 2 or 3, N) stacks, into `out`; `tmp` is
    scratch of the same shape.

    With p and q the top rows of augmented 3x3 matrices P and Q, and Q's last
    row zero, these are the top rows of P Q.
    """
    import numpy as np
    np.multiply(p[:, :1], q[0], out=out)
    out += np.multiply(p[:, 1:2], q[1], out=tmp)
    return out


def _largest(values) -> float:
    """The largest of 0.0 and `values`, NaN where one is NaN, as numpy's max(initial=0.0)."""
    top = 0.0
    for v in values:
        if not v <= top:  # larger, or NaN
            top = v
            if v != v:
                break
    return top


def _pade_tables(intervals) -> _Tables:
    """The `_Tables` of the intervals [A | w], each given as the row of floats (a00, a01, w0,
    a10, a11, w1).

    A step of duration t through [A | w] maps by exp(M t), M = [[A, w], [0, 0]].
    With A = 2^E A' and w = 2^F w'' for the exponents of `_Tables`, the powers of
    the step scaled by 2^-s, X = M t 2^-s, are X^j = [[A'^j, 2^(F-E) A'^(j-1) w''],
    [0, 0]] tau^j, tau = t 2^(E-s). So each entry of the Pade numerator U (the
    terms b_j X^j of odd j) and denominator V (even j) is a polynomial in tau, whose
    coefficients b_j times the top rows of [[A', w''], [0, 0]]^j are tabled here:
    degree 13's seven terms in sigma = tau^2, and degree 9's five padded with
    zeros to seven. The factor 2^(F-E) stays out of the tables, since the result's
    forcing column is linear in U's, through the squarings too. Every scale is an
    exact power of two, so short of over- or underflow it moves no bit, and no
    power of a time-scaled design (||A||_1 of 1e155, say) overflows. Entries that
    are not finite are left to the finiteness checks of the kernels.
    """
    coefficients, norms = [], []
    for a00, a01, w0, a10, a11, w1 in intervals:
        c0, c1, w_norm = abs(a00) + abs(a10), abs(a01) + abs(a11), abs(w0) + abs(w1)
        a_norm = c1 if c0 < c1 or c1 != c1 else c0  # the larger, NaN where either is
        e, f = math.frexp(a_norm)[1], math.frexp(w_norm)[1]
        x00, x01, x10, x11 = (math.ldexp(v, -e) for v in (a00, a01, a10, a11))
        # The top rows of X^0, X^1, ..., X^13 of X = [[A', w''], [0, 0]], X^j = X X^(j-1).
        powers = [(1.0, 0.0, 0.0, 0.0, 1.0, 0.0),
                  (x00, x01, math.ldexp(w0, -f), x10, x11, math.ldexp(w1, -f))]
        for _ in range(12):
            p00, p01, p02, p10, p11, p12 = powers[-1]
            powers.append((x00 * p00 + x01 * p10, x00 * p01 + x01 * p11, x00 * p02 + x01 * p12,
                           x10 * p00 + x11 * p10, x10 * p01 + x11 * p11, x10 * p02 + x11 * p12))
        for b in (_PADE9, _PADE13):
            terms = [[0.0] * 10 for _ in range(7)]
            for j, (b_j, p) in enumerate(zip(b, powers)):
                if j % 2:
                    terms[j // 2][:6] = [b_j * v for v in p]
                else:
                    terms[j // 2][6:] = [b_j * v for v in (p[0], p[1], p[3], p[4])]
            coefficients.append(tuple(map(tuple, terms)))
        norms.append((a_norm, w_norm, e, f - e))
    return _Tables(tuple(coefficients), *zip(*norms))


def _arrays(tables: _Tables) -> _Tables:
    """`tables` as the arrays that `_step_maps` indexes: `coefficients` as (7, 10, keys), the
    norms and exponents as one entry per interval."""
    import numpy as np
    return _Tables(np.ascontiguousarray(np.array(tables.coefficients).transpose(1, 2, 0)),
                   np.array(tables.a_norms), np.array(tables.w_norms),
                   np.array(tables.exponents, dtype=np.intc),
                   np.array(tables.gamma_exponents, dtype=np.intc))


_thread = threading.local()


def _step_rows(tables: _Tables, intervals, durations) -> list:
    """The maps of `_step_maps` in Python floats, bit for bit: one row (a00, a01, g0, a10, a11,
    g1) per step.

    The same tables, degree and squaring rule, and every operation of `_step_maps` in its
    order on one map: IEEE products, sums and quotients, `frexp` and `ldexp`. A map's Horner
    pass runs over as many terms as the whole stack's, as in `_step_maps`, so even the sign of
    a zero is the same. What makes an entry of `_step_maps` inf or NaN (a division by zero, an
    `ldexp` past the float range) is its refusal here too; a finite sum clears a row at once.
    """
    intervals, durations = list(intervals), list(durations)
    a_norms = [tables.a_norms[i] * t for i, t in zip(intervals, durations)]
    top = _largest(a_norms)
    squarings = ([max(e - (m == 0.5), 0) for m, e in (math.frexp(a / _THETA13) for a in a_norms)]
                 if top > _THETA13 else [0] * len(a_norms))
    if not math.isfinite(top) or max(squarings, default=0) >= _MAX_SQUARINGS:
        raise _not_finite(tables, intervals, durations)
    n_terms = 7 if top > _THETA9 else 5
    # Each key's Horner pass: its leading term of the stack's n_terms, then the lower ones.
    horner = [(terms[n_terms - 1], terms[n_terms - 2::-1]) for terms in tables.coefficients]
    exponents, gamma_exponents, ldexp, isfinite = (tables.exponents, tables.gamma_exponents,
                                                   math.ldexp, math.isfinite)
    rows = []
    try:
        for i, t, a_norm, s in zip(intervals, durations, a_norms, squarings):
            tau = ldexp(t, exponents[i] - s)
            sigma = tau * tau
            (h0, h1, h2, h3, h4, h5, h6, h7, h8, h9), lower = horner[2 * i + (a_norm > _THETA9)]
            for c0, c1, c2, c3, c4, c5, c6, c7, c8, c9 in lower:
                h0 = h0 * sigma + c0
                h1 = h1 * sigma + c1
                h2 = h2 * sigma + c2
                h3 = h3 * sigma + c3
                h4 = h4 * sigma + c4
                h5 = h5 * sigma + c5
                h6 = h6 * sigma + c6
                h7 = h7 * sigma + c7
                h8 = h8 * sigma + c8
                h9 = h9 * sigma + c9
            u00, u01, u02 = h0 * tau, h1 * tau, h2 * tau
            u10, u11, u12 = h3 * tau, h4 * tau, h5 * tau
            q00, q01, q10, q11 = h6 - u00, h7 - u01, h8 - u10, h9 - u11
            det = (q00 * q11 - q01 * q10) * 0.5
            r00, r01, r02 = ((q11 * u00 - q01 * u10) / det + 1.0, (q11 * u01 - q01 * u11) / det,
                             (q11 * u02 - q01 * u12) / det)
            r10, r11, r12 = ((q00 * u10 - q10 * u00) / det, (q00 * u11 - q10 * u01) / det + 1.0,
                             (q00 * u12 - q10 * u02) / det)
            for _ in range(s):  # [[P, g], [0, 1]]^2 = [[P^2, P g + g], [0, 1]]
                r00, r01, r02, r10, r11, r12 = (
                    r00 * r00 + r01 * r10, r00 * r01 + r01 * r11, r00 * r02 + r01 * r12 + r02,
                    r10 * r00 + r11 * r10, r10 * r01 + r11 * r11, r10 * r02 + r11 * r12 + r12)
            g = gamma_exponents[i]
            row = r00, r01, ldexp(r02, g), r10, r11, ldexp(r12, g)
            if not isfinite(sum(row)) and not all(map(isfinite, row)):
                raise _not_finite(tables, intervals, durations)
            rows.append(row)
    except (ZeroDivisionError, OverflowError):
        raise _not_finite(tables, intervals, durations) from None
    return rows


def _step_maps(tables: _Tables, intervals, durations) -> np.ndarray:
    """Maps [phi | gamma] = top rows of exp([[A, w], [0, 0]] t) of the steps `intervals[i]`
    for `durations[i]`, from the `tables` of their intervals.

    Returns one C-contiguous (steps, 2, 3) array, the steps in the order of
    `durations.ravel()`. Pade scaling and squaring (Higham, SIAM J. Matrix Anal.
    Appl. 26(4), 2005) at the degree that each map's own ||A t||_1 calls for: up
    to theta9 the degree-9 approximant and no squaring, above it the degree-13
    approximant and the squarings that take ||A t||_1 to theta13. Every step is a
    ufunc over all maps of the stack at once, one pass for both degrees, so a
    map's bits do not depend on the stack it came in.

    The call works in its thread's one scratch, grown to the largest stack yet and
    kept for the process, so no design or measurement allocates the kernel's
    memory or faults it in again; the result is a view into it, valid until the
    thread's next call. The thread also keeps the `_arrays` of the last tables it
    was handed.
    """
    import numpy as np
    intervals, t = np.ravel(intervals), np.ravel(durations)
    scratch = getattr(_thread, "scratch", None)
    if scratch is None or scratch.maps < t.size:
        scratch = _thread.scratch = _Scratch(t.size)
    held = getattr(_thread, "tables", None)
    if held is None or held[0] is not tables:
        held = _thread.tables = tables, _arrays(tables)
    arrays = held[1]
    # Overflow, division by zero and invalid operations are left to the finiteness checks.
    with np.errstate(all="ignore"):
        a_norm = arrays.a_norms[intervals] * t
        top = a_norm.max(initial=0.0)
        if top > _THETA13:  # ceil(log2(||A t||_1 / theta13)), at least 0, from the exponent
            mantissa, exponent = np.frexp(a_norm / _THETA13)
            s = np.maximum(exponent - (mantissa == 0.5), 0)
        else:
            s = 0
        squarings = int(np.max(s))
        if squarings >= _MAX_SQUARINGS or not math.isfinite(top):
            raise _not_finite(tables, intervals.tolist(), t.tolist())
        tau = np.ldexp(t, arrays.exponents[intervals] - s)
        # Horner from the highest term that a map of the stack needs, degree 13's seventh or
        # degree 9's fifth: the terms above it are 0 for every map, so they move no bit.
        terms = arrays.coefficients[:7 if top > _THETA9 else 5]
        r = _pade(terms, 2 * intervals + (a_norm > _THETA9), tau, scratch)
        squared, tmp = scratch("squared", r.shape), scratch("tmp", r.shape)
        for i in range(squarings):  # [[P, g], [0, 1]]^2 = [[P^2, P g + g], [0, 1]]
            _mul(r, r, squared, tmp)
            squared[:, 2] += r[:, 2]
            np.copyto(r, squared, where=s > i)
        np.ldexp(r[:, 2], arrays.gamma_exponents[intervals], out=r[:, 2])
        maps = scratch("maps", (t.size, 2, 3))
        np.copyto(maps.transpose(1, 2, 0), r)
    if not np.all(np.isfinite(maps)):
        raise _not_finite(tables, intervals.tolist(), t.tolist())
    return maps


def _pade(terms, keys, tau, scratch):
    """Top rows of the Pade approximant r = (V - U)^-1 (V + U) of each map, with U and V
    from the coefficient `terms` of its key at its `tau`, as (2, 3, maps).

    A map's ten entries of U / tau and of V's state block are one Horner pass in
    sigma = tau^2 over its key's terms; where a degree-9 key meets the two
    leading terms of degree 13, they are 0, and 0 sigma + 0 is exactly 0. The
    denominator [[Q, q], [0, b0]] leaves q out of r = I + 2 (V - U)^-1 U, U's
    last row being zero, so only the 2x2 Q is inverted, by its adjugate (well
    conditioned at a scaled 1-norm of at most theta_m).
    """
    import numpy as np
    n = tau.size
    sigma = np.multiply(tau, tau, out=scratch("sigma", (n,)))
    h, term = scratch("h", (10, n)), scratch("term", (10, n))
    # take() keeps each entry contiguous over the maps; with keys in range, "clip" only
    # spares it the temporary copy that the default mode makes of `out`.
    np.take(terms[-1], keys, axis=1, out=h, mode="clip")
    for c in terms[-2::-1]:
        h *= sigma
        h += np.take(c, keys, axis=1, out=term, mode="clip")
    u, q = h[:6].reshape(2, 3, n), h[6:].reshape(2, 2, n)
    u *= tau
    q -= u[:, :2]
    r, tmp = scratch("r", (2, 3, n)), scratch("tmp", (3, n))
    np.multiply(q[1, 1], u[0], out=r[0])  # adj(Q) U, row by row
    r[0] -= np.multiply(q[0, 1], u[1], out=tmp)
    np.multiply(q[0, 0], u[1], out=r[1])
    r[1] -= np.multiply(q[1, 0], u[0], out=tmp)
    det = np.multiply(q[0, 0], q[1, 1], out=scratch("det", (n,)))
    det -= np.multiply(q[0, 1], q[1, 0], out=tmp[0])
    det *= 0.5  # 2 adj(Q) U / det, with the exact factor 2 taken on det alone
    r /= det
    r[0, 0] += 1.0
    r[1, 1] += 1.0
    return r


def _not_finite(tables: _Tables, intervals: list, t: list) -> NumericInputError:
    """The refusal of the steps' maps: it names w t where ||A t||_1 is finite and ||w t||_1 is
    above it or not a number, and A t otherwise."""
    a, w = (_largest([norms[i] * d for i, d in zip(intervals, t)])
            for norms in (tables.a_norms, tables.w_norms))
    what, norm = (("b*u*t (input column times duration)", w) if math.isfinite(a) and not w <= a
                  else ("a*t (state matrix times duration)", a))
    return NumericInputError(f"matrix exponential is not finite: the 1-norm of {what} reaches "
                             f"{norm:.3e}, beyond double precision")


def _tables(dab: DabSchedule) -> _Tables:
    """The `_pade_tables` of the oracle's own augmented matrices [[a, b u], [0, 0]] of the
    four intervals, b u summed from a zero, made once per design and kept on it, as
    `_period_start` keeps its runs."""
    if "_oracle_tables" not in vars(dab):
        rows = []
        for seg in dab.schedule.segments:
            w0, w1 = (sum(b * u for b, u in zip(row, dab.schedule._u)) for row in seg._b)
            rows.append((*seg._a[0], w0, *seg._a[1], w1))
        vars(dab)["_oracle_tables"] = _pade_tables(rows)
    return vars(dab)["_oracle_tables"]


def _rows(entries: np.ndarray, steps: int = 1):
    """Tuples of floats of `steps` consecutive maps each, every map as (a00, a01, g0, a10,
    a11, g1) with [[a00, a01], [a10, a11]] = phi and (g0, g1) = gamma.

    The tuples are read from `entries`, a `_step_maps` result, in place, so they must be
    read before the thread's next `_step_maps` call.
    """
    return struct.iter_unpack(f"{6 * steps}d", entries)


def _eigenvalues(m00: float, m01: float, m10: float, m11: float) -> tuple:
    """Eigenvalues mu +- delta of the real 2x2 [[m00, m01], [m10, m11]], mu its half trace and
    delta^2 = h^2 + m01 m10 with h = (m00 - m11) / 2: the oracle's own rule, in Python floats,
    on the entries scaled by the power of two s (at most 2^1023) that takes the largest to
    [1/2, 1), so no product overflows. A complex pair comes as exact conjugates. Of a real pair,
    the one of larger modulus, mu + sign(mu) |delta|, is the diagonal entry on mu's side plus
    sign(mu) m01 m10 / (|delta| + |h|), which does not cancel as |delta| - |h| would, and the
    other is det / big."""
    s = math.ldexp(1.0, -max(math.frexp(max(map(abs, (m00, m01, m10, m11))))[1], -1023))
    a, b, c, d = s * m00, s * m01, s * m10, s * m11
    mu, h, bc = 0.5 * (a + d), 0.5 * (a - d), b * c
    delta2 = h * h + bc
    r = math.sqrt(abs(delta2))
    if delta2 < 0.0:
        return complex(mu / s, r / s), complex(mu / s, -r / s)
    gap = r + abs(h)  # 0 only where h and delta are: then a = d is the double eigenvalue
    shift = bc / gap if gap else 0.0
    big = max(a, d) + shift if mu >= 0.0 else min(a, d) - shift
    return complex(big / s), complex((a * d - bc) / big / s if big else 0.0)


def _iterate_to_period_start(step_maps, periods: int, tol: float) -> tuple[float, float]:
    """Period-start state of the unperturbed schedule, iterated from x = 0.

    A contraction at rate rho leaves at most change * rho / (1 - rho)
    between the latest iterate and the fixed point, so the run stops once
    that bound reaches tol * (1 + ||x||). rho is the spectral radius of the
    period map Pi, the product of the steps' phi in floats, and comes from
    `_eigenvalues`; it is not a norm, so for a non-normal map the bound holds
    only asymptotically, once the slowest mode dominates the change. There is
    nothing to wait for when rho >= 1 (or is not a number): MarginalSystemError,
    before any period.
    """
    p00, p01, _, p10, p11, _ = step_maps[0]
    for a00, a01, _, a10, a11, _ in step_maps[1:]:
        p00, p01, p10, p11 = (a00 * p00 + a01 * p10, a00 * p01 + a01 * p11,
                              a10 * p00 + a11 * p10, a10 * p01 + a11 * p11)
    eigenvalues = _eigenvalues(p00, p01, p10, p11)
    rho = _largest(map(abs, eigenvalues))
    if not rho < 1.0:
        raise MarginalSystemError(
            f"oracle period map is marginal: spectral radius rho = {rho:.10g} is not below 1, so "
            "iteration from x = 0 cannot settle", eigenvalues=eigenvalues)
    scale = rho / (1.0 - rho)
    x0 = x1 = 0.0
    for _ in range(periods):
        p0, p1 = x0, x1
        for a00, a01, g0, a10, a11, g1 in step_maps:
            x0, x1 = a00 * x0 + a01 * x1 + g0, a10 * x0 + a11 * x1 + g1
        d0, d1 = x0 - p0, x1 - p1
        change = math.sqrt(d0 * d0 + d1 * d1)
        limit = tol * (1.0 + math.sqrt(x0 * x0 + x1 * x1))
        if change * scale <= limit:
            return x0, x1
    bound = change * scale  # logs below, not limit / bound: that underflows for a subnormal tol
    more = (f"; at rate rho about {math.ceil((math.log(limit) - math.log(bound)) / math.log(rho))}"
            " more periods would meet it" if limit < bound < math.inf else "")
    raise ConvergenceError(
        f"no steady state within {periods} periods: last change {change:.3e} with spectral "
        f"radius rho = {rho:.10g} bounds the error by change * rho / (1 - rho) = "
        f"{bound:.3e} > tol * (1 + ||x||) = {limit:.3e}{more}",
        residual=change, spectral_radius=rho)


def _period_start(dab: DabSchedule, cfg: SimConfig):
    """The pre-run's state (x0, x1) and the `_step_rows` of the four unperturbed step maps it
    ran on, both made once per design and (periods, tol)."""
    # The design keeps its own runs, as Schedule keeps its maps: a cache keyed by it would keep
    # every design alive.
    runs = vars(dab).setdefault("_oracle_pre_runs", {})
    key = (cfg.periods, cfg.convergence_tol)
    if key not in runs:
        durations = [seg.duration for seg in dab.schedule.segments]
        step_maps = _step_rows(_tables(dab), range(4), durations)
        runs[key] = _iterate_to_period_start(step_maps, *key), step_maps
    return runs[key]


def _waveform(dab: DabSchedule, cfg: SimConfig) -> tuple:
    """`run_to_steady_state` in Python floats: the period-start state (x0, x1) and one row
    (t, i_L, v_C, i_rec, v_out) per sample of the final period, which `simulate` writes.

    The outputs are `c_rev` times the state, row by row, each a sum of two products; intervals
    1 and 4 negate its first column, as `DabSchedule.c_intervals` does.
    """
    start, _ = _period_start(dab, cfg)
    x0, x1 = start
    durations = [seg.duration for seg in dab.schedule.segments]
    substeps = cfg.substeps_per_interval
    substep_maps = _step_rows(_tables(dab), range(4), [d / substeps for d in durations])
    c00, c01, c10, c11 = c_rev = dab.c_rev
    k00, k01, k10, k11 = c_fwd = 0.0 - c00, c01, 0.0 - c10, c11  # interval 1's, at t = 0
    rows = [(0.0, x0, x1, k00 * x0 + k01 * x1, k10 * x0 + k11 * x1)]
    t_start = 0.0
    for i, (duration, (a00, a01, g0, a10, a11, g1)) in enumerate(zip(durations, substep_maps)):
        if duration == 0.0:
            continue  # no time passes; a duplicate sample would break monotonicity
        k00, k01, k10, k11 = c_fwd if i in (0, 3) else c_rev  # the interval that closes
        for j in range(1, substeps + 1):
            x0, x1 = a00 * x0 + a01 * x1 + g0, a10 * x0 + a11 * x1 + g1
            rows.append((t_start + duration * (j / substeps), x0, x1,
                         k00 * x0 + k01 * x1, k10 * x0 + k11 * x1))
        t_start += duration
    return start, rows


def run_to_steady_state(dab: DabSchedule, cfg: SimConfig):
    """Iterate the raw schedule from x = 0 until the period boundary settles.

    Returns (period-start steady state, final-period Waveform), the arrays of
    `_waveform`. The pre-run stops by the rule of `_iterate_to_period_start`
    within cfg.periods, and every later call on this `dab` with the same
    (periods, tol) reuses it.
    """
    import numpy as np
    start, rows = _waveform(dab, cfg)
    table = np.array(rows)
    return np.array(start), Waveform(t=table[:, 0].copy(), x=table[:, 1:3].copy(),
                                     y=table[:, 3:].copy())


def _resolve_amplitude(injection: Injection, vr: float, comp_gain: float,
                       min_duration: float) -> float:
    # The worst-case duration shift is comp_gain * amplitude; it may consume
    # a duration entirely (zero is legal) but must never push it negative.
    if injection.amplitude is not None:
        if comp_gain * injection.amplitude > min_duration:
            raise AmplitudeError(
                f"amplitude {injection.amplitude!r} V shifts durations by up to "
                f"{comp_gain * injection.amplitude:.3e} s, exceeding the shortest "
                f"interval {min_duration:.3e} s")
        return injection.amplitude
    amp = DEFAULT_AMPLITUDE_RATIO * vr
    for _ in range(200):
        if comp_gain * amp <= min_duration:
            return amp
        amp *= 0.5
    raise AmplitudeError("automatic amplitude halving failed to fit the shortest interval")


def measure_frequency_response(dab: DabSchedule, surface, cfg: SimConfig) -> np.ndarray:
    """The one-bin `measure_frequency_responses`, at f = cfg.injection.f."""
    return measure_frequency_responses(dab, surface, cfg, [cfg.injection.f])[0]


def measure_frequency_responses(dab: DabSchedule, surface, cfg: SimConfig,
                                freqs) -> np.ndarray:
    """Injected-sinusoid responses [I_rec, V_out] per volt of control, one row per f in `freqs`,
    sampled on `surface`, which gives the interval pair `a`, `b` and the comparator `polarity`:
    the rows of `_responses` as one complex array.

    Per half cycle k the leading duration moves by polarity * comp_gain *
    v[k] and the trailing one by -polarity * comp_gain * v[k+1], the
    physical state advances through the true (unrectified) interval pair,
    and the sample Dr^k x_k, Dr = diag(-1, 1), is taken at the surface
    instant. After the settle window the coherent DFT bin of output over input at
    z = exp(j 2 pi f t_half) is returned; with zero amplitude, the output bin
    itself, which must sit at the numerical floor. Every bin starts from the
    one cached pre-run, and each row is what its bin gives on its own.
    """
    import numpy as np
    return np.array(_responses(dab, surface, cfg, freqs), dtype=complex).reshape(-1, 2)


def _responses(dab: DabSchedule, surface, cfg: SimConfig, freqs) -> list:
    """`measure_frequency_responses` as rows [I_rec, V_out] of Python complex.

    Each bin runs block by block, one kernel call per HALF_CYCLES_PER_EXPM half cycles, and sums
    its DFT as it goes, so no series of the whole run is kept. Where `_numpy` gives numpy, each
    block's durations, step maps (`_step_maps`), samples and sums are arrays; otherwise they are
    Python floats (`_step_rows`). Both make the same IEEE operations on the same blocks, and
    `dabss.dft` sums each bin by one float rule, so they give the same bits. (On a 2-vCPU Xeon,
    lists for all but the step maps took an oracle-compare bin from 2.5 to 4.9 ms.)
    """
    from .dft import bin_sums, quotient
    injection, params = cfg.injection, dab.params
    for f in freqs:
        require_coherent(injection._replace(f=f), params.period)
    t_half = params.t_half
    comp_gain = t_half / params.Vr
    base = [seg.duration for seg in dab.schedule.segments]
    amp = _resolve_amplitude(injection, params.Vr, comp_gain, min(base))

    # Unperturbed pre-run to the periodic orbit, then walk to the surface instant.
    (x0, x1), step_maps = _period_start(dab, cfg)
    for a00, a01, g0, a10, a11, g1 in step_maps[:surface.a - 1]:
        x0, x1 = a00 * x0 + a01 * x1 + g0, a10 * x0 + a11 * x1 + g1

    n_half = 2 * (injection.settle_periods + injection.measure_periods)
    k0, n = 2 * injection.settle_periods, 2 * injection.measure_periods
    np = _numpy(n_half * len(freqs))
    # Half cycle k steps through intervals a + 2k and b + 2k (mod 4), two steps a half cycle; a
    # block takes them from its first half cycle's parity on.
    a, b = surface.a - 1, surface.b - 1
    pattern = [a, b, (a + 2) % 4, (b + 2) % 4]
    if np is None:
        intervals = pattern * (HALF_CYCLES_PER_EXPM // 2 + 1)
        unperturbed = [base[i] for i in intervals]
    else:
        intervals = np.tile(pattern, HALF_CYCLES_PER_EXPM // 2 + 1)
        unperturbed = np.array(base)[intervals]
    gain = surface.polarity * comp_gain
    responses = []
    for f in freqs:
        f = float(f)
        blocks = _perturbed(f, amp, gain, t_half, intervals, unperturbed, n_half, np)
        samples = _surface_samples(dab, blocks, (x0, x1), k0, np)
        sums = bin_sums(samples, -2j * math.pi * f * t_half, k0, n, np)
        re0, im0, re1, im1, re_in, im_in = sums
        if amp == 0.0:
            responses.append([complex(2.0 / n * re0, 2.0 / n * im0),
                              complex(2.0 / n * re1, 2.0 / n * im1)])
        else:
            into = complex(re_in, im_in)
            responses.append([quotient(complex(re0, im0), into),
                              quotient(complex(re1, im1), into)])
    return responses


def _numpy(half_cycles: int):
    """numpy for a measurement of `half_cycles` over all its bins: where it is loaded already, or
    where they pass FLOAT_HALF_CYCLES and it can be imported; None for the float path."""
    np = sys.modules.get("numpy")
    if np is None and half_cycles > FLOAT_HALF_CYCLES:
        try:
            import numpy as np
        except ImportError:  # an interpreter without numpy measures in floats at any length
            return None
    return np


def _perturbed(f: float, amp: float, gain: float, t_half: float, intervals, unperturbed,
               n_half: int, np):
    """Per block of HALF_CYCLES_PER_EXPM half cycles, from k = 0: (its first half cycle, the
    control v[k] of its half cycles and of the next one, its steps' intervals and durations).

    Half cycle k's leading duration moves by gain * v[k] and its trailing one by -gain * v[k+1];
    v[k] = amp sin(2 pi f k t_half), math.sin per sample, as a scalar loop rounds it. A duration
    turns negative only past the amplitude that `_resolve_amplitude` allows.
    """
    c = 2.0 * math.pi * f
    for start in range(0, n_half, HALF_CYCLES_PER_EXPM):
        end = min(start + HALF_CYCLES_PER_EXPM, n_half)
        steps = slice(2 * (start % 2), 2 * (start % 2 + end - start))
        if np is None:
            control = [amp * math.sin(c * k * t_half) for k in range(start, end + 1)]
            shift = [gain * v for v in control]
            durations = unperturbed[steps]
            durations[0::2] = map(add, durations[0::2], shift[:-1])
            durations[1::2] = map(sub, durations[1::2], shift[1:])
            low = min(durations)
        else:
            phase = c * np.arange(start, end + 1) * t_half
            control = amp * np.fromiter(map(math.sin, phase.tolist()), float, end + 1 - start)
            shift = gain * control
            durations = unperturbed[steps].copy()
            durations[0::2] += shift[:-1]
            durations[1::2] -= shift[1:]
            low = durations.min()
        if low < 0.0:
            bad = start + next(j for j, d in enumerate(durations) if d < 0.0) // 2
            raise AmplitudeError(f"perturbation at {f!r} Hz drove a duration "
                                 f"negative at half cycle {bad}")
        yield start, control, intervals[steps], durations


def _surface_samples(dab: DabSchedule, blocks, x, first: int, np):
    """The run from x_0 = `x` through `_perturbed`'s `blocks`, one kernel call a block: per block
    that reaches `first`, (k, I_rec, V_out, v) of its half cycles from k on, k >= first, the
    samples c_rev Dr^k x_k, each a row of c_rev times Dr^k x_k (two products and a sum), and the
    control. Lists of floats from `_step_rows`, or with `np` arrays from `_step_maps`, the same
    bits."""
    x0, x1 = x
    tables = _tables(dab)
    c00, c01, c10, c11 = dab.c_rev
    for start, control, intervals, durations in blocks:
        end = start + len(durations) // 2
        # A half cycle's two maps are one row, read in place from the thread's kernel scratch
        # before the next block's call, or joined from the float kernel's rows.
        if np is None:
            maps = _step_rows(tables, intervals, durations)
            rows = map(add, maps[0::2], maps[1::2])
        else:
            rows = _rows(_step_maps(tables, intervals, durations), 2)
        kept = min(max(start, first), end)  # the settle window's states are not recorded
        for (a00, a01, g0, a10, a11, g1, b00, b01, h0, b10, b11, h1) in islice(rows, kept - start):
            x0, x1 = a00 * x0 + a01 * x1 + g0, a10 * x0 + a11 * x1 + g1
            x0, x1 = b00 * x0 + b01 * x1 + h0, b10 * x0 + b11 * x1 + h1
        visited = []
        visit = visited.append
        for (a00, a01, g0, a10, a11, g1, b00, b01, h0, b10, b11, h1) in rows:
            visit(x0)
            visit(x1)
            x0, x1 = a00 * x0 + a01 * x1 + g0, a10 * x0 + a11 * x1 + g1
            x0, x1 = b00 * x0 + b01 * x1 + h0, b10 * x0 + b11 * x1 + h1
        if kept == end:
            continue
        odd = (kept + 1) % 2  # the j-th recorded state has k = kept + j: Dr negates odd k's i_L
        v = control[kept - start:end - start]
        if np is None:
            x0s, x1s = visited[0::2], visited[1::2]
            x0s[odd::2] = map(neg, x0s[odd::2])
            yield (kept, [c00 * u + c01 * w for u, w in zip(x0s, x1s)],
                   [c10 * u + c11 * w for u, w in zip(x0s, x1s)], v)
        else:
            x0s, x1s = np.array(visited).reshape(-1, 2).T
            x0s[odd::2] *= -1.0
            yield kept, c00 * x0s + c01 * x1s, c10 * x0s + c11 * x1s, v
