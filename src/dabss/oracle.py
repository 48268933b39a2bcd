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
map's norm calls for), and imports nothing from `core`, `pwlti` or `smallsignal`,
which is what makes it a legitimate cross-check. The Pade numerator and
denominator of each interval are tabled once per design as polynomials in
the step's duration, so each map costs one Horner pass over its interval's
table. Each thread allocates the kernel's work arrays once and reuses them
for all of its exponentials, and the scalar loops read the maps in place.

Frequency responses are measured the way a network analyzer would: inject a
sinusoid into the control voltage, recompute the comparator-set durations
every half cycle from the timing law, sample the rectified physical output
at the surface instants, and extract the single coherent DFT bin.
"""

from __future__ import annotations

import math
import struct
import threading
from itertools import islice
from typing import NamedTuple

import numpy as np

from .config import Injection, SimConfig, require_coherent
from .dab import DabSchedule
from .errors import AmplitudeError, ConvergenceError, MarginalSystemError, NumericInputError

# Injection amplitude fallback: fraction of the ramp amplitude.
DEFAULT_AMPLITUDE_RATIO = 1e-4

# Half cycles whose step maps come from one call of the oracle's exponential;
# bounds the memory of a measurement's step maps independently of its length.
# A call pays a fixed cost of some 40 numpy calls: in blocks of 1,024 the
# oracle-compare measurements of the reference design took about 3% longer.
HALF_CYCLES_PER_EXPM = 2048


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
    """What the oracle's exponential needs of each interval [A | w], from `_pade_tables`.

    `coefficients[i, :, key]` holds the coefficients of sigma^i in the ten
    entries (u00, u01, ug0, u10, u11, ug1) of U / tau and (v00, v01, v10, v11)
    of V's state block, as (7, 10, keys), key 2 * interval for degree 9 and
    2 * interval + 1 for degree 13. `a_norms` is ||A||_1 and `w_norms` ||w||_1,
    whose products with a step's duration the refusal message reports.
    `exponents` E and `gamma_exponents` F - E are those of the exact powers of
    two in ||A||_1 = m 2^E and ||w||_1 = m' 2^F, m and m' in [0.5, 1) (or 0).
    """

    coefficients: np.ndarray
    a_norms: np.ndarray
    w_norms: np.ndarray
    exponents: np.ndarray
    gamma_exponents: np.ndarray


class _Scratch:
    """Work arrays of `_step_maps` for stacks of up to `maps` maps, which every call
    handed this scratch reuses.

    `scratch(name, shape)` is a C-contiguous view of the front of the slot
    `name`, which holds ENTRIES[name] entries per map.
    """

    ENTRIES = dict(h=10, term=10, r=6, squared=6, tmp=6, maps=6, sigma=1, det=1)

    def __init__(self, maps: int):
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
    np.multiply(p[:, :1], q[0], out=out)
    out += np.multiply(p[:, 1:2], q[1], out=tmp)
    return out


def _ceil_log2(ratio):
    """ceil(log2(ratio)), at least 0, exactly from the binary exponent."""
    mantissa, exponent = np.frexp(ratio)
    return np.maximum(exponent - (mantissa == 0.5), 0)


def _pade_tables(aug: np.ndarray) -> _Tables:
    """The `_Tables` of the intervals whose top rows [A | w] `aug` holds, as (2, 3, n).

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
    power of a time-scaled design (||A||_1 of 1e155, say) overflows.
    """
    n = aug.shape[2]
    # Entries that are not finite are left to the finiteness checks of `_step_maps`.
    with np.errstate(all="ignore"):
        col_norms = np.abs(aug).sum(axis=0)
        a_norms = col_norms[:2].max(axis=0)
        exponents, w_exponents = np.frexp(a_norms)[1], np.frexp(col_norms[2])[1]
        powers, tmp = np.zeros((14, 2, 3, n)), np.empty((2, 3, n))
        powers[0, 0, 0] = powers[0, 1, 1] = 1.0
        powers[1, :, :2] = np.ldexp(aug[:, :2], -exponents)
        powers[1, :, 2] = np.ldexp(aug[:, 2], -w_exponents)
        for j in range(2, 14):
            _mul(powers[1], powers[j - 1], powers[j], tmp)
        coefficients = np.zeros((7, 10, n, 2))
        for degree, b in enumerate((_PADE9, _PADE13)):
            for j, b_j in enumerate(b):
                if j % 2:
                    coefficients[j // 2, :6, :, degree] = b_j * powers[j].reshape(6, n)
                else:
                    coefficients[j // 2, 6:, :, degree] = b_j * powers[j, :, :2].reshape(4, n)
    return _Tables(coefficients.reshape(7, 10, 2 * n), a_norms, col_norms[2], exponents,
                   w_exponents - exponents)


_thread = threading.local()


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
    thread's next call.
    """
    intervals, t = np.ravel(intervals), np.ravel(durations)
    scratch = getattr(_thread, "scratch", None)
    if scratch is None or scratch.maps < t.size:
        scratch = _thread.scratch = _Scratch(t.size)
    # Overflow, division by zero and invalid operations are left to the finiteness checks.
    with np.errstate(all="ignore"):
        a_norm = tables.a_norms[intervals] * t
        top = a_norm.max(initial=0.0)
        s = _ceil_log2(a_norm / _THETA13) if top > _THETA13 else 0
        squarings = int(np.max(s))
        if squarings >= _MAX_SQUARINGS or not math.isfinite(top):
            raise _not_finite(tables, intervals, t)
        tau = np.ldexp(t, tables.exponents[intervals] - s)
        # Horner from the highest term that a map of the stack needs, degree 13's seventh or
        # degree 9's fifth: the terms above it are 0 for every map, so they move no bit.
        terms = tables.coefficients[:7 if top > _THETA9 else 5]
        r = _pade(terms, 2 * intervals + (a_norm > _THETA9), tau, scratch)
        squared, tmp = scratch("squared", r.shape), scratch("tmp", r.shape)
        for i in range(squarings):  # [[P, g], [0, 1]]^2 = [[P^2, P g + g], [0, 1]]
            _mul(r, r, squared, tmp)
            squared[:, 2] += r[:, 2]
            np.copyto(r, squared, where=s > i)
        np.ldexp(r[:, 2], tables.gamma_exponents[intervals], out=r[:, 2])
        maps = scratch("maps", (t.size, 2, 3))
        np.copyto(maps.transpose(1, 2, 0), r)
    if not np.all(np.isfinite(maps)):
        raise _not_finite(tables, intervals, t)
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


def _not_finite(tables: _Tables, intervals, t) -> NumericInputError:
    """The refusal of the steps' maps: it names w t where ||A t||_1 is finite and ||w t||_1 is
    above it or not a number, and A t otherwise."""
    with np.errstate(all="ignore"):
        a, w = (float(np.max(norms[intervals] * t, initial=0.0))
                for norms in (tables.a_norms, tables.w_norms))
    what, norm = (("b*u*t (input column times duration)", w) if math.isfinite(a) and not w <= a
                  else ("a*t (state matrix times duration)", a))
    return NumericInputError(f"matrix exponential is not finite: the 1-norm of {what} reaches "
                             f"{norm:.3e}, beyond double precision")


def _tables(dab: DabSchedule) -> _Tables:
    """The `_pade_tables` of the oracle's own augmented matrices [[a, b u], [0, 0]] of the
    four intervals, made once per design and kept on it, as `_period_start` keeps its runs."""
    if "_oracle_tables" not in vars(dab):
        aug = np.empty((2, 3, 4))
        with np.errstate(over="ignore", invalid="ignore"):  # not finite: _step_maps raises
            for i, seg in enumerate(dab.schedule.segments):
                aug[:, :2, i] = seg.a
                aug[:, 2, i] = seg.b @ dab.schedule.u
        vars(dab)["_oracle_tables"] = _pade_tables(aug)
    return vars(dab)["_oracle_tables"]


def _rows(entries: np.ndarray, steps: int = 1):
    """Tuples of floats of `steps` consecutive maps each, every map as (a00, a01, g0, a10,
    a11, g1) with [[a00, a01], [a10, a11]] = phi and (g0, g1) = gamma.

    The tuples are read from `entries`, a `_step_maps` result, in place, so they must be
    read before the thread's next `_step_maps` call.
    """
    return struct.iter_unpack(f"{6 * steps}d", entries)


def _iterate_to_period_start(step_maps, periods: int, tol: float) -> tuple[float, float]:
    """Period-start state of the unperturbed schedule, iterated from x = 0.

    A contraction at rate rho leaves at most change * rho / (1 - rho)
    between the latest iterate and the fixed point, so the run stops once
    that bound reaches tol * (1 + ||x||). rho is the spectral radius of the
    period map, not a norm of it, so for a non-normal map the bound holds
    only asymptotically, once the slowest mode dominates the change. There is
    nothing to wait for when rho >= 1: MarginalSystemError, before any period.
    """
    phis = np.array(step_maps).reshape(-1, 2, 3)[:, :, :2]
    pi = phis[0]
    for phi in phis[1:]:
        pi = phi @ pi
    eigenvalues = np.linalg.eigvals(pi)
    rho = float(np.max(np.abs(eigenvalues)))
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
    """The pre-run's state (x0, x1) and the `_rows` of the four unperturbed step maps it ran
    on, both made once per design and (periods, tol)."""
    # The design keeps its own runs, as Schedule keeps its maps: a cache keyed by it would keep
    # every design alive.
    runs = vars(dab).setdefault("_oracle_pre_runs", {})
    key = (cfg.periods, cfg.convergence_tol)
    if key not in runs:
        durations = [seg.duration for seg in dab.schedule.segments]
        step_maps = list(_rows(_step_maps(_tables(dab), range(4), durations)))
        runs[key] = _iterate_to_period_start(step_maps, *key), step_maps
    return runs[key]


def run_to_steady_state(dab: DabSchedule, cfg: SimConfig):
    """Iterate the raw schedule from x = 0 until the period boundary settles.

    Returns (period-start steady state, final-period Waveform). The pre-run
    stops by the rule of `_iterate_to_period_start` within cfg.periods, and
    every later call on this `dab` with the same (periods, tol) reuses it.
    """
    (x0, x1), _ = _period_start(dab, cfg)
    durations = [seg.duration for seg in dab.schedule.segments]
    substeps = cfg.substeps_per_interval
    substep_maps = _rows(_step_maps(_tables(dab), range(4), [d / substeps for d in durations]))

    times = [0.0]
    states = [(x0, x1)]
    closing = [0]  # the interval whose output matrix each sample carries
    t_start = 0.0
    for i, (duration, (a00, a01, g0, a10, a11, g1)) in enumerate(zip(durations, substep_maps)):
        if duration == 0.0:
            continue  # no time passes; a duplicate sample would break monotonicity
        for j in range(1, substeps + 1):
            x0, x1 = a00 * x0 + a01 * x1 + g0, a10 * x0 + a11 * x1 + g1
            times.append(t_start + duration * (j / substeps))
            states.append((x0, x1))
        closing += [i] * substeps
        t_start += duration
    x = np.array(states)
    y = (np.array(dab.c_intervals)[closing] @ x[..., None])[..., 0]
    return x[0].copy(), Waveform(t=np.array(times), x=x, y=y)


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
    sampled on `surface`, which gives the interval pair `a`, `b` and the comparator `polarity`.

    Per half cycle k the leading duration moves by polarity * comp_gain *
    v[k] and the trailing one by -polarity * comp_gain * v[k+1], the
    physical state advances through the true (unrectified) interval pair,
    and the sample Dr^k x_k, Dr = diag(-1, 1), is taken at the surface
    instant. After the settle window the coherent DFT bin of output over input at
    z = exp(j 2 pi f t_half) is returned; with zero amplitude, the output bin
    itself, which must sit at the numerical floor. Every bin starts from the
    one cached pre-run, and each row is what its bin gives on its own.
    """
    injection, params = cfg.injection, dab.params
    for f in freqs:
        require_coherent(injection._replace(f=f), params.period)
    t_half = params.t_half
    comp_gain = t_half / params.Vr
    base = np.array([seg.duration for seg in dab.schedule.segments])
    amp = _resolve_amplitude(injection, params.Vr, comp_gain, float(base.min()))

    # Unperturbed pre-run to the periodic orbit, then walk to the surface instant.
    (x0, x1), step_maps = _period_start(dab, cfg)
    for a00, a01, g0, a10, a11, g1 in step_maps[:surface.a - 1]:
        x0, x1 = a00 * x0 + a01 * x1 + g0, a10 * x0 + a11 * x1 + g1

    n_half = 2 * (injection.settle_periods + injection.measure_periods)
    ks = np.arange(n_half)
    intervals = np.stack([(surface.a - 1 + 2 * ks) % 4, (surface.b - 1 + 2 * ks) % 4], axis=1)
    k0, n = 2 * injection.settle_periods, 2 * injection.measure_periods
    unperturbed = base[intervals]
    responses = np.empty((len(freqs), 2), dtype=complex)
    for i, f in enumerate(freqs):
        f = float(f)
        # The whole control sequence, hence every half cycle's perturbed
        # durations, is known before the run starts; math.sin per sample
        # rounds as a scalar loop would.
        phase = 2.0 * math.pi * f * np.arange(n_half + 1) * t_half
        control = amp * np.fromiter(map(math.sin, phase.tolist()), float, n_half + 1)
        shift = surface.polarity * comp_gain * control
        durations = unperturbed + np.stack([shift[:-1], -shift[1:]], axis=-1)
        if durations.min() < 0.0:
            bad = np.flatnonzero((durations < 0.0).any(axis=-1))[0]
            raise AmplitudeError(f"perturbation at {f!r} Hz drove a duration "
                                 f"negative at half cycle {bad}")
        samples = _surface_samples(dab, intervals, durations, (x0, x1), k0)
        basis = np.exp(-2j * math.pi * f * t_half * np.arange(k0, k0 + n))
        out_bin = basis @ samples
        responses[i] = ((2.0 / n) * out_bin if amp == 0.0
                        else out_bin / (basis @ control[k0:k0 + n]))
    return responses


def _surface_samples(dab: DabSchedule, intervals, durations, x, first: int) -> np.ndarray:
    """Samples c_phys Dr^k x_k, k = first, ..., half cycles - 1, of the run from x_0 = `x`."""
    x0, x1 = x
    tables = _tables(dab)
    n_half = len(durations)
    states = np.empty((n_half - first, 2, 1))
    for start in range(0, n_half, HALF_CYCLES_PER_EXPM):
        end = min(start + HALF_CYCLES_PER_EXPM, n_half)
        # A half cycle's two maps are consecutive in the stack, so each row is one half cycle,
        # read in place from the thread's kernel scratch before the next block's call.
        rows = _rows(_step_maps(tables, intervals[start:end], durations[start:end]), 2)
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
        if end > first:
            states[kept - first:end - first, :, 0] = np.fromiter(
                visited, float, len(visited)).reshape(-1, 2)
    states[(first + 1) % 2::2, 0] *= -1.0  # Dr: the inductor current negated
    return (dab.c_phys @ states)[..., 0]
