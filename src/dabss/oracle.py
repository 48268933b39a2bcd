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
exponentials with its own element-wise Pade kernel, and imports nothing from
`pwlti` or `smallsignal`, which is what makes it a legitimate cross-check.

Frequency responses are measured the way a network analyzer would: inject a
sinusoid into the control voltage, recompute the comparator-set durations
every half cycle from the timing law, sample the rectified physical output
at the surface instants, and extract the single coherent DFT bin.
"""

from __future__ import annotations

import dataclasses
import math
import struct
from dataclasses import dataclass

import numpy as np

from .config import Injection, SimConfig, require_coherent
from .dab import RECTIFY, DabSchedule
from .errors import AmplitudeError, ConvergenceError, MarginalSystemError, NumericInputError

# Injection amplitude fallback: fraction of the ramp amplitude.
DEFAULT_AMPLITUDE_RATIO = 1e-4

# Half cycles whose step maps come from one call of the oracle's exponential;
# bounds the memory of a measurement's step maps independently of its length.
HALF_CYCLES_PER_EXPM = 1024


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


def _mul(p, q):
    """p[:, :2] @ q for each map of two (2, 2 or 3, N) stacks.

    With p and q the top rows of augmented 3x3 matrices P and Q, and Q's last
    row zero, these are the top rows of P Q.
    """
    out = p[:, :1] * q[0]
    out += p[:, 1:2] * q[1]
    return out


def _add_to_diagonal(m, c):
    """m[:, :2] + c I in place, for each map of a (2, 2 or 3, N) stack."""
    m[0, 0] += c
    m[1, 1] += c


def _ceil_log2(ratio):
    """ceil(log2(ratio)), at least 0, exactly from the binary exponent."""
    mantissa, exponent = np.frexp(ratio)
    return np.maximum(exponent - (mantissa == 0.5), 0)


def _step_exponentials(x: np.ndarray) -> np.ndarray:
    """Top rows [phi | gamma] of [[phi, gamma], [0, 1]] = exp([[A, w], [0, 0]]), per map.

    `x` holds the top rows [A | w], shape (2, 3, N), one map per last index,
    and the result has the same layout. Degree-13 Pade scaling and squaring
    (Higham, SIAM J. Matrix Anal. Appl. 26(4), 2005), written over the six entries:
    every power M^k = [[A^k, A^(k-1) w], [0, 0]] and every sum of them keeps
    a last row that is zero but for the identity's 1, so only top rows are
    formed. The denominator [[Q, q], [0, b0]] leaves q out of
    r = I + 2 (V - U)^-1 U, so only the 2x2 Q is inverted, by its adjugate
    (well conditioned at a scaled 1-norm of at most theta13), and
    [[P, g], [0, 1]]^2 = [[P^2, P g + g], [0, 1]]. Every step is a ufunc over
    all maps, and each map takes its own balancing and scaling, so its bits
    do not depend on the stack it came in.

    The forcing column is first scaled by an exact 2^-k, per map, down to the
    state block's 1-norm (or theta13), and scaled back after squaring: the
    similarity diag(1, 1, 2^-k) commutes with exp, and w T, mostly Vin T / L,
    would otherwise set the squaring count.
    """
    # Overflow, division by zero and invalid operations are left to the finiteness checks.
    with np.errstate(all="ignore"):
        abs_x = np.abs(x)
        col_norms = abs_x[0] + abs_x[1]
        a_norm = np.maximum(col_norms[0], col_norms[1])
        k = _ceil_log2(col_norms[2] / np.maximum(a_norm, _THETA13))
        s = _ceil_log2(np.maximum(a_norm, np.ldexp(col_norms[2], -k)) / _THETA13)
        norm = col_norms.max(initial=0.0)
        if not (math.isfinite(norm) and s.max(initial=0) < _MAX_SQUARINGS):
            raise _not_finite(norm)
        # Products with exact powers of two round as ldexp would, in fewer passes.
        x = x * np.ldexp(1.0, -np.stack([s, s, k + s]))
        b = _PADE13
        x2 = _mul(x, x)
        x4 = _mul(x2, x2)
        x6 = _mul(x2, x4)
        u = _mul(x6, b[13] * x6 + b[11] * x4 + b[9] * x2)
        u += b[7] * x6
        u += b[5] * x4
        u += b[3] * x2
        _add_to_diagonal(u, b[1])
        u = _mul(x, u)
        u[:, 2] += b[1] * x[:, 2]  # the inner sum's b1 in its last row meets w
        # q of the denominator drops out of r, so V - U is formed on the 2x2 block alone.
        a2, a4, a6 = x2[:, :2], x4[:, :2], x6[:, :2]
        q = _mul(a6, b[12] * a6 + b[10] * a4 + b[8] * a2)
        q += b[6] * a6
        q += b[4] * a4
        q += b[2] * a2
        _add_to_diagonal(q, b[0])
        q -= u[:, :2]
        adj = np.array([[q[1, 1], -q[0, 1]], [-q[1, 0], q[0, 0]]])
        r = _mul(adj, u)
        r *= 2.0
        r /= q[0, 0] * q[1, 1] - q[0, 1] * q[1, 0]
        _add_to_diagonal(r, 1.0)
        for i in range(int(s.max(initial=0))):
            squared = _mul(r, r)
            squared[:, 2] += r[:, 2]
            r = np.where(s > i, squared, r)
        r[:, 2] *= np.ldexp(1.0, k)
    if not np.all(np.isfinite(r)):
        raise _not_finite(norm)
    return r


def _not_finite(norm: float) -> NumericInputError:
    return NumericInputError(
        "matrix exponential is not finite: the 1-norm of a*t (state matrix times "
        f"duration) reaches {norm:.3e}, beyond double precision")


def _step_maps(dab: DabSchedule, intervals, durations) -> np.ndarray:
    """Top rows [phi | gamma] of the map of each step `intervals[i]` for `durations[i]`.

    The oracle's own augmented matrices [[a, b u], [0, 0]] T, all exponentiated in
    one `_step_exponentials` call and returned in its (2, 3, steps) layout, the
    steps in the order of `durations.ravel()`.
    """
    segments = dab.schedule.segments
    with np.errstate(over="ignore", invalid="ignore"):  # not finite: _step_exponentials raises
        aug = np.array([np.column_stack([seg.a, seg.b @ dab.schedule.u]) for seg in segments])
        # take() keeps each of the six entries contiguous over the maps.
        aug = aug.transpose(1, 2, 0).take(np.ravel(intervals), axis=2) * np.ravel(durations)
    return _step_exponentials(aug)


def _rows(entries: np.ndarray, steps: int = 1):
    """Tuples of floats of `steps` consecutive maps of `entries` each, every map as
    (a00, a01, g0, a10, a11, g1) with [[a00, a01], [a10, a11]] = phi and (g0, g1) = gamma."""
    # Unpacked row by row as the loop takes them: a list of every row costs more than the loop.
    return struct.iter_unpack(f"{6 * steps}d", entries.transpose(2, 0, 1).tobytes())


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
        step_maps = list(_rows(_step_maps(dab, range(4), durations)))
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
    substep_maps = _rows(_step_maps(dab, range(4), [d / substeps for d in durations]))

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
        control = amp * np.fromiter(map(math.sin, phase), float, n_half + 1)
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
    n_half = len(durations)
    states = np.empty((n_half - first, 2, 1))
    for start in range(0, n_half, HALF_CYCLES_PER_EXPM):
        end = min(start + HALF_CYCLES_PER_EXPM, n_half)
        # `entries` keeps the previous block's maps alive until this call returns. Freed
        # before it, they let malloc trim the kernel's scratch memory off the heap after
        # every block and fault it in again: 12,000 page faults per 21-bin compare.
        entries = _step_maps(dab, intervals[start:end], durations[start:end])
        visited = []
        visit = visited.append
        for (a00, a01, g0, a10, a11, g1, b00, b01, h0, b10, b11, h1) in _rows(entries, 2):
            visit(x0)
            visit(x1)
            x0, x1 = a00 * x0 + a01 * x1 + g0, a10 * x0 + a11 * x1 + g1
            x0, x1 = b00 * x0 + b01 * x1 + h0, b10 * x0 + b11 * x1 + h1
        if end > first:
            kept = max(start, first)
            states[kept - first:end - first, :, 0] = np.fromiter(
                visited, float, len(visited))[2 * (kept - start):].reshape(-1, 2)
    odd = states[(first + 1) % 2::2]
    odd[...] = RECTIFY @ odd
    return (dab.c_phys @ states)[..., 0]
