"""Brute-force time-domain reference simulator.

Deliberately dumb: it advances the raw four-interval schedule one segment at
a time, from a zero initial state, until the period boundary stops moving.
Each advance is an exact one-segment map built from the augmented
exponential, so "brute force" refers to iteration count, never integration
error. The module shares only `pwlti.expm` with the closed-form solvers;
it builds its own step matrices and never touches reverse products or
fixed-point solves, which is what makes it a legitimate cross-check.

Frequency responses are measured the way a network analyzer would: inject a
sinusoid into the control voltage, recompute the comparator-set durations
every half cycle from the timing law, sample the rectified physical output
at the surface instants, and extract the single coherent DFT bin.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .dab import RECTIFY, DabSchedule
from .errors import AmplitudeError, ConfigError, ConvergenceError
from .pwlti import expm
from .smallsignal import Surface

# Injection amplitude fallback: fraction of the ramp amplitude.
DEFAULT_AMPLITUDE_RATIO = 1e-4

# Half cycles whose step maps come from one stacked expm; bounds the memory
# of a measurement independently of its length.
HALF_CYCLES_PER_EXPM = 1024


@dataclass(frozen=True)
class Injection:
    """Sinusoidal control-voltage perturbation for response measurement.

    `amplitude` of None means: start at DEFAULT_AMPLITUDE_RATIO * Vr and
    halve automatically while the perturbation would push a duration
    negative. An explicit amplitude that violates a duration raises instead.
    """

    f: float | None = None
    amplitude: float | None = None
    settle_periods: int = 800
    measure_periods: int = 1000

    def __post_init__(self):
        if self.f is not None and not (math.isfinite(self.f) and self.f > 0.0):
            raise ConfigError(f"injection frequency must be finite and > 0, got {self.f!r}")
        if self.amplitude is not None and not (
                math.isfinite(self.amplitude) and self.amplitude >= 0.0):
            raise ConfigError(f"injection amplitude must be finite and >= 0, got {self.amplitude!r}")
        # The caps bound the per-half-cycle control sequence of a measurement.
        if not (isinstance(self.settle_periods, int) and 0 <= self.settle_periods <= 10**6):
            raise ConfigError(
                f"settle_periods must be an integer in [0, 10**6], got {self.settle_periods!r}")
        if not (isinstance(self.measure_periods, int) and 1 <= self.measure_periods <= 10**6):
            raise ConfigError(
                f"measure_periods must be an integer in [1, 10**6], got {self.measure_periods!r}")


@dataclass(frozen=True)
class SimConfig:
    """Iteration budget and sampling density of the simulator."""

    periods: int = 2000
    substeps_per_interval: int = 32
    convergence_tol: float = 1e-9
    injection: Injection | None = None

    def __post_init__(self):
        if not (isinstance(self.periods, int) and self.periods >= 1):
            raise ConfigError(f"periods must be an integer >= 1, got {self.periods!r}")
        if not (isinstance(self.substeps_per_interval, int) and self.substeps_per_interval >= 1):
            raise ConfigError(
                f"substeps_per_interval must be an integer >= 1, got {self.substeps_per_interval!r}")
        if not (math.isfinite(self.convergence_tol) and self.convergence_tol > 0.0):
            raise ConfigError(f"convergence_tol must be > 0, got {self.convergence_tol!r}")


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


def require_coherent(injection: Injection, period: float) -> int:
    """Validate coherent sampling: f * measure_periods * period must be an integer >= 1.

    Returns that integer cycle count. Coherence makes the rectangular-window
    DFT bin exact, so no leakage correction is ever applied downstream.
    """
    if injection.f is None:
        raise ConfigError("injection frequency is not set")
    cycles = injection.f * injection.measure_periods * period
    nearest = round(cycles)
    if nearest < 1 or abs(cycles - nearest) > 1e-9 * max(1.0, cycles):
        raise ConfigError(
            f"non-coherent measurement window: f*measure_periods*Ts = {cycles!r} "
            "must be a positive integer")
    return int(nearest)


def _step_maps(dab: DabSchedule, intervals, durations):
    """(phi, gamma) of each step `intervals[i]` for `durations[i]`, from one expm.

    The oracle discretises with its own augmented matrices [[a, b u], [0, 0]];
    the only numeric kernel it shares with the closed-form route is expm itself.
    """
    segments = dab.schedule.segments
    n = dab.schedule.dim
    aug = np.zeros((len(segments), n + 1, n + 1))
    aug[:, :n, :n] = [seg.a for seg in segments]
    aug[:, :n, n] = [seg.b @ dab.schedule.u for seg in segments]
    m = expm(aug[intervals] * np.asarray(durations)[..., None, None], 1.0)
    return m[..., :n, :n], m[..., :n, n]


def _spectral_radius(phis) -> float:
    pi = phis[0]
    for p in phis[1:]:
        pi = p @ pi
    return float(np.max(np.abs(np.linalg.eigvals(pi))))


def _iterate_to_period_start(step_maps, periods: int, tol: float) -> np.ndarray:
    rho = _spectral_radius([phi for phi, _ in step_maps])
    if rho >= 1.0:
        warnings.warn(f"per-period spectral radius {rho:.6f} >= 1, iteration may not converge")
    x = np.zeros(step_maps[0][0].shape[0])
    prev = x.copy()
    residual = math.inf
    for _ in range(periods):
        for phi, gamma in step_maps:
            x = phi @ x + gamma
        residual = float(np.linalg.norm(x - prev))
        if residual <= tol * (1.0 + float(np.linalg.norm(x))):
            return x
        prev = x.copy()
    raise ConvergenceError(
        f"no steady state within {periods} periods, last residual {residual:.3e}",
        residual=residual, spectral_radius=rho)


def run_to_steady_state(dab: DabSchedule, cfg: SimConfig):
    """Iterate the raw schedule from x = 0 until the period boundary settles.

    Returns (period-start steady state, final-period Waveform). Convergence
    means the period-to-period state change drops below
    convergence_tol * (1 + ||x||) inside the period budget.
    """
    durations = [seg.duration for seg in dab.schedule.segments]
    substeps = cfg.substeps_per_interval
    n_seg = len(durations)
    # The period maps and the substep maps, all from one expm.
    phis, gammas = _step_maps(dab, list(range(n_seg)) * 2,
                              durations + [d / substeps for d in durations])
    step_maps = list(zip(phis[:n_seg], gammas[:n_seg]))
    x_star = _iterate_to_period_start(step_maps, cfg.periods, cfg.convergence_tol)

    times = [0.0]
    states = [x_star]
    outputs = [dab.c_intervals[0] @ x_star]
    x = x_star.copy()
    t_start = 0.0
    for i, duration in enumerate(durations):
        if duration == 0.0:
            continue  # no time passes; a duplicate sample would break monotonicity
        sub_phi, sub_gamma = phis[n_seg + i], gammas[n_seg + i]
        for j in range(1, substeps + 1):
            x = sub_phi @ x + sub_gamma
            times.append(t_start + duration * (j / substeps))
            states.append(x)
            outputs.append(dab.c_intervals[i] @ x)
        t_start += duration
    waveform = Waveform(t=np.array(times), x=np.array(states), y=np.array(outputs))
    return x_star, waveform


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


def measure_frequency_response(dab: DabSchedule, surface: Surface, cfg: SimConfig) -> np.ndarray:
    """Injected-sinusoid response [I_rec, V_out] per volt of control at z = exp(j 2 pi f t_half).

    Per half cycle k the leading duration moves by polarity * comp_gain *
    v[k] and the trailing one by -polarity * comp_gain * v[k+1], the
    physical state advances through the true (unrectified) interval pair,
    and the sample RECTIFY^k x_k is taken at the surface instant. After the
    settle window the coherent DFT bin of output over input is returned.
    With zero amplitude the extracted output bin itself is returned, which
    must sit at the numerical floor.
    """
    if cfg.injection is None:
        raise ConfigError("measure_frequency_response needs cfg.injection")
    injection = cfg.injection
    params = dab.params
    period = params.period
    t_half = params.t_half
    require_coherent(injection, period)
    f = injection.f

    segments = dab.schedule.segments
    comp_gain = t_half / params.Vr
    base = np.array([seg.duration for seg in segments])
    amp = _resolve_amplitude(injection, params.Vr, comp_gain, float(base.min()))

    # Unperturbed pre-run to the periodic orbit, then walk to the surface instant.
    step_maps = list(zip(*_step_maps(dab, list(range(len(segments))), base)))
    x = _iterate_to_period_start(step_maps, cfg.periods, cfg.convergence_tol)
    for phi, gamma in step_maps[:surface.a - 1]:
        x = phi @ x + gamma

    # The whole control sequence, hence every half cycle's interval pair and
    # perturbed durations, is known before the run starts.
    n_half = 2 * (injection.settle_periods + injection.measure_periods)
    control = np.array([amp * math.sin(2.0 * math.pi * f * k * t_half)
                        for k in range(n_half + 1)])
    ks = np.arange(n_half)
    intervals = np.stack([(surface.a - 1 + 2 * ks) % 4, (surface.b - 1 + 2 * ks) % 4], axis=1)
    durations = base[intervals]
    durations[:, 0] += surface.polarity * comp_gain * control[:-1]
    durations[:, 1] -= surface.polarity * comp_gain * control[1:]
    negative = np.flatnonzero((durations < 0.0).any(axis=1))
    if negative.size:
        raise AmplitudeError(
            f"perturbation drove a duration negative at half cycle {negative[0]}")

    c_phys = np.asarray(dab.c_phys)
    samples = np.empty((n_half, 2))
    for start in range(0, n_half, HALF_CYCLES_PER_EXPM):
        phis, gammas = _step_maps(dab, intervals[start:start + HALF_CYCLES_PER_EXPM],
                                  durations[start:start + HALF_CYCLES_PER_EXPM])
        for k, phi, gamma in zip(range(start, n_half), phis, gammas):
            samples[k] = c_phys @ (x if k % 2 == 0 else RECTIFY @ x)
            x = phi[0] @ x + gamma[0]
            x = phi[1] @ x + gamma[1]

    k0 = 2 * injection.settle_periods
    n = 2 * injection.measure_periods
    ks = np.arange(k0, k0 + n)
    basis = np.exp(-2j * math.pi * f * t_half * ks)
    out_bin = basis @ samples[k0:k0 + n]
    if amp == 0.0:
        return (2.0 / n) * out_bin
    in_bin = basis @ control[k0:k0 + n]
    return out_bin / in_bin
