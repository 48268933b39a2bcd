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
exponentials with its own element-wise Pade kernel (degree 9 or 13, as each
map's norm calls for), and imports nothing from `pwlti` or `smallsignal`,
which is what makes it a legitimate cross-check. Each thread allocates the
kernel's work arrays once and reuses them for all of its exponentials.

Frequency responses are measured the way a network analyzer would: inject a
sinusoid into the control voltage, recompute the comparator-set durations
every half cycle from the timing law, sample the rectified physical output
at the surface instants, and extract the single coherent DFT bin.
"""

from __future__ import annotations

import dataclasses
import math
import struct
import threading
from itertools import islice
from dataclasses import dataclass

import numpy as np

from .config import Injection, SimConfig, require_coherent
from .dab import RECTIFY, DabSchedule
from .errors import AmplitudeError, ConvergenceError, MarginalSystemError, NumericInputError

# Injection amplitude fallback: fraction of the ramp amplitude.
DEFAULT_AMPLITUDE_RATIO = 1e-4

# Half cycles whose step maps come from one call of the oracle's exponential;
# bounds the memory of a measurement's step maps independently of its length.
# A call pays a fixed cost per Pade degree in its stack (some 80 numpy calls, as
# much as about 1,000 maps' work), so blocks this long keep a design whose two
# intervals take different degrees cheaper than one degree-13 pass per 1,024.
HALF_CYCLES_PER_EXPM = 2048


@dataclass(frozen=True)
class Waveform:
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


class _Scratch:
    """Work arrays of `_step_exponentials` for stacks of up to `maps` maps, which every
    call handed this scratch reuses.

    `scratch(name, shape)` is a C-contiguous view of the front of the slot
    `name`, which holds six entries per map.
    """

    SLOTS = ("aug", "stack", "col_norms", "x", "tmp", "x2", "x4", "x6", "x8", "inner", "u", "q",
             "adj", "r", "squared")

    def __init__(self, maps: int):
        self.maps = maps
        flat = np.empty(len(self.SLOTS) * 6 * maps)
        self._slots = dict(zip(self.SLOTS, flat.reshape(len(self.SLOTS), 6 * maps)))

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


def _add_to_diagonal(m, c):
    """m[:, :2] + c I in place, for each map of a (2, 2 or 3, N) stack."""
    m[0, 0] += c
    m[1, 1] += c


def _ceil_log2(ratio):
    """ceil(log2(ratio)), at least 0, exactly from the binary exponent."""
    mantissa, exponent = np.frexp(ratio)
    return np.maximum(exponent - (mantissa == 0.5), 0)


def _step_exponentials(x: np.ndarray, scratch: _Scratch) -> np.ndarray:
    """Top rows [phi | gamma] of [[phi, gamma], [0, 1]] = exp([[A, w], [0, 0]]), per map.

    `x` holds the top rows [A | w], shape (2, 3, N), one map per last index,
    and the result has the same layout. Pade scaling and squaring (Higham,
    SIAM J. Matrix Anal. Appl. 26(4), 2005) at the degree that each map's own
    ||A||_1 calls for: up to theta9 the degree-9 approximant and no squaring,
    above it the degree-13 approximant and the squarings that take ||A||_1 to
    theta13. The maps of each degree are computed together, as a view where
    they are consecutive in the stack and gathered where they are not. Each
    map takes its own degree, balancing and scaling, and every step is a ufunc
    over the maps of a degree, so a map's bits do not depend on the stack it
    came in.

    The forcing column is first scaled by an exact 2^-k, per map, down to the
    state block's 1-norm (or theta_m), and scaled back after squaring: the
    similarity diag(1, 1, 2^-k) commutes with exp, and w T, mostly Vin T / L,
    would otherwise set the squaring count. At degree 9, which does not square,
    the shift only keeps the powers of a forcing column near the overflow
    threshold finite; short of that it moves no bit.

    Every intermediate is written with `out=` into `scratch`, so the calls
    that share one reuse its memory; the result is a view into it, valid until
    its next call.
    """
    # Overflow, division by zero and invalid operations are left to the finiteness checks.
    with np.errstate(all="ignore"):
        abs_x = np.abs(x, out=scratch("tmp", x.shape))
        col_norms = np.add(abs_x[0], abs_x[1], out=scratch("col_norms", x.shape[1:]))
        a_norm = np.maximum(col_norms[0], col_norms[1])
        norm = col_norms.max(initial=0.0)
        if not math.isfinite(norm):
            raise _not_finite(norm)
        low = a_norm <= _THETA9
        n_low = np.count_nonzero(low)
        if n_low in (0, low.size):
            r = _scaled_pade(x, col_norms, a_norm, n_low > 0, norm, scratch)
        else:
            r = scratch("stack", x.shape)
            for maps, degree9 in ((np.flatnonzero(low), True), (np.flatnonzero(~low), False)):
                if maps[-1] - maps[0] < maps.size:  # consecutive maps: a view, not a gather
                    maps = slice(maps[0], maps[-1] + 1)
                r[..., maps] = _scaled_pade(x[..., maps], col_norms[:, maps], a_norm[maps],
                                            degree9, norm, scratch)
    if not np.all(np.isfinite(r)):
        raise _not_finite(norm)
    return r


def _scaled_pade(x, col_norms, a_norm, degree9: bool, norm, scratch):
    """`_step_exponentials` of maps that all take degree 9, or all degree 13.

    At degree 9 the shift takes the forcing column to at most theta9, so with
    ||A||_1 <= theta9 no map is squared.
    """
    k = _ceil_log2(col_norms[2] / np.maximum(a_norm, _THETA9 if degree9 else _THETA13))
    s = _ceil_log2(np.maximum(a_norm, np.ldexp(col_norms[2], -k)) / _THETA13)
    squarings = int(s.max(initial=0))
    if squarings >= _MAX_SQUARINGS:
        raise _not_finite(norm)
    # Products with exact powers of two round as ldexp would, in fewer passes.
    xs = np.multiply(x, np.ldexp(1.0, -np.stack([s, s, k + s])), out=scratch("x", x.shape))
    r = _pade(xs, _PADE9 if degree9 else _PADE13, scratch)
    squared, tmp = scratch("squared", x.shape), scratch("tmp", x.shape)
    for i in range(squarings):  # [[P, g], [0, 1]]^2 = [[P^2, P g + g], [0, 1]]
        _mul(r, r, squared, tmp)
        squared[:, 2] += r[:, 2]
        np.copyto(r, squared, where=s > i)
    r[:, 2] *= np.ldexp(1.0, k)
    return r


def _pade(x, b, scratch):
    """Top rows of the Pade approximant r(M) = (V - U)^-1 (V + U) with the coefficients `b`
    of degree 9 or 13, for M = [[A, w], [0, 0]] of top rows `x`.

    Every power M^k = [[A^k, A^(k-1) w], [0, 0]] and every sum of them keeps a
    last row that is zero but for the identity's 1, so only top rows are
    formed. The denominator [[Q, q], [0, b0]] leaves q out of
    r = I + 2 (V - U)^-1 U, so only the 2x2 Q is inverted, by its adjugate
    (well conditioned at a scaled 1-norm of at most theta_m).
    """
    tmp = scratch("tmp", x.shape)
    x2 = _mul(x, x, scratch("x2", x.shape), tmp)
    x4 = _mul(x2, x2, scratch("x4", x.shape), tmp)
    x6 = _mul(x2, x4, scratch("x6", x.shape), tmp)
    # U = M (b_m M^(m-1) + ... + b3 M^2 + b1 I) with its inner sum in `inner`, whose
    # terms above M^6 are b9 M^8 at degree 9 and M^6 (b13 M^6 + b11 M^4 + b9 M^2) at 13.
    inner = scratch("inner", x.shape)
    if b is _PADE13:
        np.multiply(x6, b[13], out=tmp)
        tmp += np.multiply(x4, b[11], out=inner)
        tmp += np.multiply(x2, b[9], out=inner)
        _mul(x6, tmp, inner, scratch("u", x.shape))
    else:
        x8 = _mul(x4, x4, scratch("x8", x.shape), tmp)
        np.multiply(x8, b[9], out=inner)
    inner += np.multiply(x6, b[7], out=tmp)
    inner += np.multiply(x4, b[5], out=tmp)
    inner += np.multiply(x2, b[3], out=tmp)
    _add_to_diagonal(inner, b[1])
    u = _mul(x, inner, scratch("u", x.shape), tmp)
    # The inner sum's b1 in its last row meets w.
    u[:, 2] += np.multiply(x[:, 2], b[1], out=tmp[:, 2])
    # q of the denominator drops out of r, so V - U is formed on the 2x2 block alone,
    # its terms above A^6 being b8 A^8 and A^6 (b12 A^6 + b10 A^4 + b8 A^2).
    a2, a4, a6 = x2[:, :2], x4[:, :2], x6[:, :2]
    q, tmp2 = scratch("q", a2.shape), tmp[:, :2]
    if b is _PADE13:
        np.multiply(a6, b[12], out=inner[:, :2])
        inner[:, :2] += np.multiply(a4, b[10], out=tmp2)
        inner[:, :2] += np.multiply(a2, b[8], out=tmp2)
        _mul(a6, inner[:, :2], q, tmp2)
    else:
        np.multiply(x8[:, :2], b[8], out=q)
    q += np.multiply(a6, b[6], out=tmp2)
    q += np.multiply(a4, b[4], out=tmp2)
    q += np.multiply(a2, b[2], out=tmp2)
    _add_to_diagonal(q, b[0])
    q -= u[:, :2]
    adj = scratch("adj", a2.shape)
    adj[0, 0], adj[1, 1] = q[1, 1], q[0, 0]
    np.negative(q[0, 1], out=adj[0, 1])
    np.negative(q[1, 0], out=adj[1, 0])
    r = _mul(adj, u, scratch("r", x.shape), tmp)
    r *= 2.0
    det = np.multiply(q[0, 0], q[1, 1], out=inner[0, 0])
    det -= np.multiply(q[0, 1], q[1, 0], out=inner[0, 1])
    r /= det
    _add_to_diagonal(r, 1.0)
    return r


def _not_finite(norm: float) -> NumericInputError:
    return NumericInputError(
        "matrix exponential is not finite: the 1-norm of a*t (state matrix times "
        f"duration) reaches {norm:.3e}, beyond double precision")


def _augmented(dab: DabSchedule) -> np.ndarray:
    """Top rows [a | b u] of the oracle's own augmented matrices [[a, b u], [0, 0]] of
    the four intervals, as (2, 3, 4)."""
    aug = np.empty((2, 3, 4))
    with np.errstate(over="ignore", invalid="ignore"):  # not finite: _step_exponentials raises
        for i, seg in enumerate(dab.schedule.segments):
            aug[:, :2, i] = seg.a
            aug[:, 2, i] = seg.b @ dab.schedule.u
    return aug


_thread = threading.local()


def _step_maps(aug: np.ndarray, intervals, durations) -> np.ndarray:
    """Top rows [phi | gamma] of the map of each step `intervals[i]` for `durations[i]`.

    The `_augmented` top rows `aug` times their durations, all exponentiated in
    one `_step_exponentials` call and returned in its (2, 3, steps) layout, the
    steps in the order of `durations.ravel()`. The call works in its thread's
    one scratch, grown to the largest stack yet and kept for the process, so
    no design or measurement allocates the kernel's memory or faults it in
    again; the result is valid until the thread's next call.
    """
    intervals = np.ravel(intervals)
    scratch = getattr(_thread, "scratch", None)
    if scratch is None or scratch.maps < intervals.size:
        scratch = _thread.scratch = _Scratch(intervals.size)
    # take() keeps each of the six entries contiguous over the maps; with indices in range,
    # "clip" only spares it the temporary copy that the default mode makes of `out`.
    x = np.take(aug, intervals, axis=2, out=scratch("aug", (2, 3, intervals.size)), mode="clip")
    with np.errstate(over="ignore", invalid="ignore"):
        x *= np.ravel(durations)
    return _step_exponentials(x, scratch)


def _rows(entries: np.ndarray, steps: int = 1):
    """Tuples of floats of `steps` maps each, every map as (a00, a01, g0, a10, a11, g1) with
    [[a00, a01], [a10, a11]] = phi and (g0, g1) = gamma.

    `entries` holds `steps` equal runs of maps one after another, and the i-th
    tuple takes the i-th map of each run.
    """
    # Unpacked row by row as the loop takes them: a list of every row costs more than the loop.
    return struct.iter_unpack(f"{6 * steps}d",
                              entries.reshape(2, 3, steps, -1).transpose(3, 2, 0, 1).tobytes())


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
    # A frozen DabSchedule is unhashable: it keeps its own runs, as Schedule keeps its maps.
    runs = vars(dab).setdefault("_oracle_pre_runs", {})
    key = (cfg.periods, cfg.convergence_tol)
    if key not in runs:
        durations = [seg.duration for seg in dab.schedule.segments]
        step_maps = list(_rows(_step_maps(_augmented(dab), range(4), durations)))
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
    substep_maps = _rows(_step_maps(_augmented(dab), range(4), [d / substeps for d in durations]))

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
    and the sample RECTIFY^k x_k is taken at the surface instant. After the
    settle window the coherent DFT bin of output over input at
    z = exp(j 2 pi f t_half) is returned; with zero amplitude, the output bin
    itself, which must sit at the numerical floor. Every bin starts from the
    one cached pre-run, and each row is what its bin gives on its own.
    """
    injection, params = cfg.injection, dab.params
    for f in freqs:
        require_coherent(dataclasses.replace(injection, f=f), params.period)
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
    """Samples c_phys RECTIFY^k x_k, k = first, ..., half cycles - 1, of the run from x_0 = `x`."""
    x0, x1 = x
    aug = _augmented(dab)
    n_half = len(durations)
    states = np.empty((n_half - first, 2, 1))
    for start in range(0, n_half, HALF_CYCLES_PER_EXPM):
        end = min(start + HALF_CYCLES_PER_EXPM, n_half)
        # The block's leading steps, then its trailing ones: where the two intervals take
        # different Pade degrees, the maps of each degree are consecutive in the stack.
        # The exponentials reuse the thread's one kernel scratch: a first 21-bin `compare` of
        # the README reference config takes about 600 minor faults and later ones under 10,
        # against about 3,800 each with the kernel's work arrays allocated per block.
        rows = _rows(_step_maps(aug, intervals[start:end].T, durations[start:end].T), 2)
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
    odd = states[(first + 1) % 2::2]
    odd[...] = RECTIFY @ odd
    return (dab.c_phys @ states)[..., 0]
