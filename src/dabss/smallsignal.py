"""Sampled-data small-signal models of the phase modulator, one per sampling surface.

The modulator fixes one switching edge to the clock and generates the other
by comparing a control voltage against a ramp, so control perturbations move
two consecutive durations. Sampling the state at a modulated edge once per
half cycle and rectifying the inductor current gives a time-invariant
discrete model

    x_{k+1} = RECTIFY phi_b phi_a x_k + RECTIFY (phi_b gamma_a + gamma_b)

whose fixed point, duration sensitivities, and control-input vectors are
collected in HalfCycleModel. Two z-domain transfer functions follow: the
exact one, where the trailing duration responds to the *next* control
sample (a z-advance), and the same-cycle approximation that drops the
advance. Their difference carries an explicit (z - 1) factor, which is why
the approximation is exact at dc and degrades linearly with frequency. Every
transfer, and the spectral norms of the difference envelope, come from the
2x2 resolvent in closed form (`pwlti.resolvent_solve`), the same rule for one
z and for an array of z, and so does the T-solve of the surface check. Complex
2-vectors stay planar, `(re0, im0, re1, im1)`, until a transfer is returned.

There are four sampling surfaces (either edge polarity on either bridge).
Models built on different surfaces of the same polarity pair are similar in
the linear-algebra sense; `verify_surface_equivalence` checks the full
similarity chain numerically. `identity_checks` is the whole suite that
`dabss verify` prints: the half-wave symmetry and half-cycle identities, the
resolvent and surface similarities, and the transfer-difference identities.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import pwlti
from .dab import (FLIP_CURRENT, RECTIFY, DabSchedule, half_cycle_map, solve_half_cycle,
                  verify_symmetry)
from .errors import (MarginalSystemError, NumericInputError, ParameterError,
                     ResolventSingularityError)
from .pwlti import (IdentityCheck, Matrix2x2, matrix_times, planar_array, planar_norm, real_hypot,
                    real_sqrt, relative_residual, resolvent_det, resolvent_solve, sigma_max_sq)

_POLE_GAP = 1e-12  # no transfer is evaluated this close to a pole of phi
_FEW_Z = 16  # a transfer at this many z or fewer is evaluated z by z (`_transfer`)


@dataclass(frozen=True)
class Surface:
    """One sampling surface: the pair of consecutive intervals (a, b) it spans.

    `polarity` is the comparator logic sign: -1 for the primary-bridge
    surfaces, +1 for the secondary-bridge surfaces. The canonical instances
    below carry the correct sign; constructing a Surface with the opposite
    sign is possible but is meaningful only for sign-mismatch diagnostics.
    """

    label: str
    a: int
    b: int
    polarity: int

    def __post_init__(self):
        if (self.a, self.b) not in {(1, 2), (2, 3), (3, 4), (4, 1)}:
            raise ValueError(f"surface intervals must be consecutive, got ({self.a}, {self.b})")
        if self.polarity not in (-1, 1):
            raise ValueError(f"surface polarity must be +-1, got {self.polarity!r}")
        if not self.label:
            raise ValueError("surface label must be non-empty")


P_PLUS = Surface("P+", 1, 2, -1)
S_PLUS = Surface("S+", 2, 3, +1)
P_MINUS = Surface("P-", 3, 4, -1)
S_MINUS = Surface("S-", 4, 1, +1)
SURFACES = {s.label: s for s in (P_PLUS, S_PLUS, P_MINUS, S_MINUS)}


class _Entries(NamedTuple):
    """A model's numbers as Python scalars, for the closed-form resolvent (`resolvent_solve`)."""

    phi: Matrix2x2
    bc0: float
    bc1: float
    bn0: float
    bn1: float
    bn_norm: float
    poles: tuple


@dataclass(frozen=True)
class HalfCycleModel:
    """Rectified one-half-cycle discrete model anchored at one sampling surface.

    phi, g        rectified transition matrix and forcing vector
    x_star        sampled fixed point (surface steady state)
    x_a_end       state at the internal switching edge, from x_star
    x_b_end       state at the closing edge, before rectification
    sens_a/sens_b rectified end-state sensitivity to the two durations [state/s]
    b_cur/b_next  control-input vectors of the current / next sample [state/V]
    comp_gain     comparator timing gain T_half/Vr [s/V]
    t_half        half-cycle duration [s]
    """

    surface: Surface
    phi: np.ndarray
    g: np.ndarray
    x_star: np.ndarray
    x_a_end: np.ndarray
    x_b_end: np.ndarray
    sens_a: np.ndarray
    sens_b: np.ndarray
    b_cur: np.ndarray
    b_next: np.ndarray
    comp_gain: float
    t_half: float

    @functools.cached_property
    def poles(self) -> np.ndarray:
        """Eigenvalues of phi: the poles of every transfer of this model."""
        return np.linalg.eigvals(self.phi)

    @functools.cached_property
    def _entries(self) -> _Entries:
        """phi, b_cur, b_next, ||b_next|| and the poles, as Python floats and complex."""
        (bc0, bc1), (bn0, bn1) = self.b_cur.tolist(), self.b_next.tolist()
        return _Entries(Matrix2x2.of(self.phi), bc0, bc1, bn0, bn1,
                        math.sqrt(bn0 * bn0 + bn1 * bn1), tuple(self.poles.tolist()))


def half_cycle_model(dab: DabSchedule, surface: Surface) -> HalfCycleModel:
    """The sampled model of one surface, built once per `dab` (per Surface, so a polarity
    override is another key; a failed build is not kept) and shared with read-only arrays.

    The duration sensitivities come from the endpoint identity
    d(phi x + gamma)/dT = A (phi x + gamma) + B u: growing a duration extends
    the flow along the local vector field at the segment's end state.
    """
    models = vars(dab).setdefault("_surface_models", {})  # a DabSchedule is unhashable
    if surface in models:
        return models[surface]
    seg_a, seg_b = (dab.schedule.segments[i - 1] for i in (surface.a, surface.b))
    map_a, map_b = (dab.schedule.maps[i - 1] for i in (surface.a, surface.b))
    t_half = dab.params.t_half
    if not abs(seg_a.duration + seg_b.duration - t_half) <= 1e-12 * abs(t_half):
        raise ParameterError(
            f"surface {surface.label} spans {seg_a.duration + seg_b.duration!r} s, "
            f"expected the half cycle {t_half!r} s")

    phi, g = half_cycle_map(dab, surface.a)
    x_star = pwlti.fixed_point(phi, g, f"surface {surface.label} fixed point")
    x_a_end = map_a.phi @ x_star + map_a.gamma
    x_b_end = map_b.phi @ x_a_end + map_b.gamma

    u = dab.schedule.u
    sens_a = RECTIFY @ map_b.phi @ (seg_a.a @ x_a_end + seg_a.b @ u)
    sens_b = RECTIFY @ (seg_b.a @ x_b_end + seg_b.b @ u)

    comp_gain = t_half / dab.params.Vr
    with np.errstate(over="ignore", invalid="ignore"):  # not finite: raises below
        b_cur = surface.polarity * comp_gain * sens_a
        b_next = -surface.polarity * comp_gain * sens_b
    if not (math.isfinite(comp_gain) and np.isfinite(b_cur).all() and np.isfinite(b_next).all()):
        raise NumericInputError(f"surface {surface.label} control-input vectors are not finite: "
                                f"comparator gain T_half / Vr = {comp_gain:.3e} s/V")
    arrays = dict(phi=phi, g=g, x_star=x_star, x_a_end=x_a_end, x_b_end=x_b_end,
                  sens_a=sens_a, sens_b=sens_b, b_cur=b_cur, b_next=b_next)
    for value in arrays.values():
        value.setflags(write=False)  # each one is freshly computed here
    models[surface] = HalfCycleModel(surface=surface, comp_gain=comp_gain, t_half=t_half, **arrays)
    return models[surface]


def _pole_gaps(model: HalfCycleModel, z: np.ndarray) -> np.ndarray:
    """Distance from each z to the nearest pole of the model."""
    p0, p1 = model._entries.poles
    return np.minimum(np.abs(z - p0), np.abs(z - p1))


def _z_parts(model: HalfCycleModel, z):
    """(Re z, Im z): Python floats for one z, float arrays for an array of z.

    ResolventSingularityError if any z is within _POLE_GAP of a pole of the model.
    """
    if isinstance(z, (int, float, complex)):  # numpy scalars too
        z = complex(z)
        p0, p1 = model._entries.poles
        gap = min(abs(z - p0), abs(z - p1))
        if gap <= _POLE_GAP:
            raise ResolventSingularityError(f"z = {z!r} is within "
                                            f"{gap:.3e} of a pole of the sampled model")
        return z.real, z.imag
    z = np.asarray(z, dtype=complex)
    gaps = _pole_gaps(model, z)
    if (gaps <= _POLE_GAP).any():
        k = np.argmax(gaps <= _POLE_GAP)
        raise ResolventSingularityError(f"z = {complex(z.flat[k])!r} is within "
                                        f"{gaps.flat[k]:.3e} of a pole of the sampled model")
    return z.real, z.imag


def _matrix(c_phys) -> list:
    """The four entries of a real 2x2 matrix, row by row, as Python floats."""
    return np.asarray(c_phys, dtype=float).ravel().tolist()


def _complex(v) -> np.ndarray:
    """The complex array (..., 2) of one planar vector: shape (2,) for Python floats."""
    return planar_array([v], np.shape(v[0]))[0]


def _input_vector(e: _Entries, zr, zi):
    """b_cur + z b_next, planar: the exact model's input."""
    return e.bc0 + zr * e.bn0, zi * e.bn0, e.bc1 + zr * e.bn1, zi * e.bn1


def _same_cycle_vector(e: _Entries, zr, zi):
    """b_cur + b_next, planar: the same-cycle approximation's input."""
    return e.bc0 + e.bn0, 0.0, e.bc1 + e.bn1, 0.0


def _advance_vector(e: _Entries, zr, zi):
    """(z - 1) b_next, planar: the difference of the two inputs."""
    return (zr - 1.0) * e.bn0, zi * e.bn0, (zr - 1.0) * e.bn1, zi * e.bn1


def _rebased_vector(model: HalfCycleModel, zr, zi):
    """Input vector of this surface's recursion on its leading partner's clock, planar.

    A surface that opens mid-cycle of its partner sees the partner's edges in
    a different order: its opening edge is the partner's internal edge, so the
    kick there keeps the partner's *current* sample and then rides through the
    whole half cycle (a phi factor on b_next, whose direction equals that
    opening kick by half-wave symmetry), while its own internal edge is the
    partner's closing edge and takes the *next* sample (a z factor on b_cur).
    Same physical modulator, re-indexed: b(z) = z b_cur + phi b_next.
    """
    e = model._entries
    pb0, pb1 = (model.phi @ model.b_next).tolist()
    return zr * e.bc0 + pb0, zi * e.bc0, zr * e.bc1 + pb1, zi * e.bc1


def _transfer(model: HalfCycleModel, c_phys, z, rhs) -> np.ndarray:
    """c_phys (zI - phi)^{-1} rhs(entries, Re z, Im z), as a complex array (..., 2).

    Up to _FEW_Z values of z go through the rule one by one in Python floats, which costs
    less than numpy's overhead on some hundred array operations; the bits are the same.
    """
    e = model._entries
    c = _matrix(c_phys)
    zr, zi = _z_parts(model, z)
    if isinstance(zr, float) or zr.size > _FEW_Z:
        return _complex(matrix_times(c, resolvent_solve(e.phi, zr, zi, [rhs(e, zr, zi)])[0]))
    rows = [matrix_times(c, resolvent_solve(e.phi, r, i, [rhs(e, r, i)])[0])
            for r, i in zip(zr.ravel().tolist(), zi.ravel().tolist())]
    return planar_array(rows, ()).reshape(zr.shape + (2,))


def _row_residuals(actual, expected):
    """relative_residual of planar vectors: a float for one vector, an array for many."""
    return (planar_norm(tuple(a - e for a, e in zip(actual, expected)))
            / (1.0 + planar_norm(expected)))


def transfer_fixed_freq(model: HalfCycleModel, c_phys: np.ndarray, z) -> np.ndarray:
    """Exact control-to-output transfer at z: c_phys (zI - phi)^{-1} (b_cur + z b_next).

    Output pair is [I_rec, V_out]. Evaluate on the unit circle,
    z = exp(j 2 pi f t_half), for the frequency response. A scalar z gives
    shape (2,), a 1-D array of N values shape (N, 2).
    """
    return _transfer(model, c_phys, z, _input_vector)


def transfer_same_cycle(model: HalfCycleModel, c_phys: np.ndarray, z) -> np.ndarray:
    """Same-cycle approximation: both duration terms attributed to the current sample."""
    return _transfer(model, c_phys, z, _same_cycle_vector)


def _difference_paths(model: HalfCycleModel, c_phys: np.ndarray, z):
    """Closed-form difference, subtraction of the two transfers, and the 3 states solved,
    all planar, from one `resolvent_solve` call."""
    e = model._entries
    zr, zi = _z_parts(model, z)
    states = resolvent_solve(e.phi, zr, zi, [v(e, zr, zi) for v in (
        _input_vector, _same_cycle_vector, _advance_vector)])
    c = _matrix(c_phys)
    fixed, same_cycle, closed = (matrix_times(c, x) for x in states)
    return closed, tuple(f - s for f, s in zip(fixed, same_cycle)), states


def transfer_difference_residual(model: HalfCycleModel, c_phys: np.ndarray, z):
    """Mismatch between the closed-form difference and the two-evaluation subtraction."""
    return _row_residuals(*_difference_paths(model, c_phys, z)[:2])


def _resolvent_sizes(model: HalfCycleModel, c_phys: np.ndarray, z):
    """(Re z, Im z, s_max^2 and |det|^2 of zI - phi, ||c_phys||), spectral norms in closed
    form, behind the `_z_parts` pole gate: what bounds a transfer's size and its roundoff."""
    phi = model._entries.phi
    zr, zi = _z_parts(model, z)
    a, d, _, _, q = resolvent_det(phi, zr, zi)
    return (zr, zi, sigma_max_sq(a, -phi.m01, -phi.m10, d, zi), q,
            math.sqrt(sigma_max_sq(*_matrix(c_phys), 0.0)))


def _dual_path_floor(model: HalfCycleModel, c_phys: np.ndarray, z, states, subtracted):
    """First-order bound, per z, on the dual-path residual that roundoff alone can cause.

    With M = zI - phi, `resolvent_solve` takes det M to a few u of its value, and each
    entry of adj(M) b is a sum of at most three real products, so it errs by a few u of
    |adj M||b|, whose norm is at most ||M||_F ||b|| <= sqrt(2) s_max^2 ||x||. Divided by
    |det M| = s_max s_min, the solve errs by at most c u kappa ||x||, kappa = s_max / s_min =
    s_max^2 / |det M|, for a small constant c, and comes near that only where adj(M) b
    cancels: Cramer's rule for n = 2 is forward stable (Higham, "Accuracy and Stability of
    Numerical Algorithms", 2nd ed., sec. 1.10.1). The floor takes c = 2, the constant of a
    solve backward stable to u (Thm 7.2). c_phys x and the subtraction add about
    4 u ||c_phys|| ||x||; near z = 1 the subtraction cancels.
    """
    _, _, s_max_sq, q, c_norm = _resolvent_sizes(model, c_phys, z)
    kappa = s_max_sq / real_sqrt(q)
    x_norms = sum(planar_norm(x) for x in states)
    return 2.0 ** -53 * (2.0 * kappa + 4.0) * c_norm * x_norms / (1.0 + planar_norm(subtracted))


def _dual_path_check(model: HalfCycleModel, c_phys: np.ndarray, z, paths, rtol) -> IdentityCheck:
    """The dual-path identity over `z`, judged from the `_difference_paths` output `paths`.

    Every residual within `rtol` passes, and the check reports the largest. Otherwise each
    z gets `rtol` widened by the factor by which the roundoff floor of `_dual_path_floor`
    exceeds 1e-12 (at the default rtol, max(rtol, floor)), and the check reports the z of
    largest residual minus tolerance, with the tolerance it was judged by.
    """
    closed, subtracted, states = paths
    res = _row_residuals(closed, subtracted)
    worst = res if isinstance(res, float) else float(np.max(res, initial=0.0))  # NaN fails
    if not worst > rtol:  # the floor only where the plain check trips
        return IdentityCheck("transfer-difference/dual-path", worst, rtol)
    res = np.asarray(res)
    tol = rtol * np.maximum(1.0, np.asarray(
        _dual_path_floor(model, c_phys, z, states, subtracted)) / 1e-12)
    k = np.argmax(res - tol)
    return IdentityCheck("transfer-difference/dual-path", float(res.flat[k]), float(tol.flat[k]))


def transfer_difference(model: HalfCycleModel, c_phys: np.ndarray, z,
                        rtol: float = 1e-12) -> np.ndarray:
    """Exact-minus-approximate transfer, c_phys (zI - phi)^{-1} (z - 1) b_next.

    Cross-checked against the subtraction of the two transfer evaluations: raises
    ArithmeticError where `_dual_path_check`, the rule of verify's dual-path row, fails.
    Identically zero at z = 1, so the approximation is exact at dc.
    """
    paths = _difference_paths(model, c_phys, z)
    check = _dual_path_check(model, c_phys, z, paths, rtol)
    if not check.passed:
        raise ArithmeticError(f"transfer difference paths disagree: residual "
                              f"{check.residual:.3e} exceeds {check.tolerance:.3e}")
    return _complex(paths[0])


def difference_envelope(model: HalfCycleModel, c_phys: np.ndarray, z):
    """Submultiplicative upper bound on ||transfer_difference|| at z.

    |z - 1| ||c_phys|| ||(zI - phi)^{-1}|| ||b_next||, spectral norms. On the
    unit circle |z - 1| = 2 |sin(pi f t_half * ... )| grows linearly in f for
    small f t_half, which bounds how fast the same-cycle approximation decays.
    ||(zI - phi)^{-1}|| = s_max / |det| of zI - phi, in closed form. A 1-D array of z
    gives one bound per z; a z on a pole raises as every transfer does.
    """
    zr, zi, s_max_sq, q, c_norm = _resolvent_sizes(model, c_phys, z)
    return real_hypot(zr - 1.0, zi) * c_norm * real_sqrt(s_max_sq / q) * model._entries.bn_norm


def resolvent_similarity_residual(a: np.ndarray, t_mat: np.ndarray,
                                  z: complex | np.ndarray) -> float | np.ndarray:
    """Residual of the resolvent similarity identity (zI - T^{-1}AT)^{-1} = T^{-1}(zI - A)^{-1}T.

    Pure linear algebra, valid for any square `a`, invertible `t_mat`, and z
    off the spectrum; the surface-equivalence checks are this identity
    applied to the half-cycle maps. Stacks of k draws, `a` and `t_mat` of
    shape (k, n, n) and `z` of shape (k,), go through one stacked solve and
    inverse and give the array of k residuals, each with the bits of its own call.
    """
    a = np.asarray(a, dtype=complex)
    t_mat = np.asarray(t_mat, dtype=complex)
    eye = np.eye(a.shape[-1])
    z = np.asarray(z, dtype=complex)[..., None, None]
    conjugated = np.linalg.solve(t_mat, a @ t_mat)
    lhs = np.linalg.inv(z * eye - conjugated)
    rhs = np.linalg.solve(t_mat, np.linalg.inv(z * eye - a) @ t_mat)
    if a.ndim == 2:
        return relative_residual(lhs, rhs)
    return np.array([relative_residual(left, right) for left, right in zip(lhs, rhs)])


_EQUIVALENT_PAIRS = {((1, 2), (2, 3)), ((3, 4), (4, 1))}


def verify_surface_equivalence(dab: DabSchedule, primary: Surface, secondary: Surface,
                               z_grid, rtol: float = 1e-10,
                               similarity_rtol: float = 1e-12) -> list[IdentityCheck]:
    """Numerical check that two surfaces offset by one interval carry the same dynamics.

    With T the transition matrix of the primary surface's leading interval
    and b_sec(z) the secondary input vector rebased onto the primary clock
    (`_rebased_vector`), the secondary model must satisfy, for every z
    off the poles:

        T^{-1} phi_sec T = phi_pri
        b_pri(z) = T^{-1} b_sec(z)
        H_pri(z) = (c_phys T^{-1}) (zI - phi_sec)^{-1} b_sec(z)

    The opposite comparator polarities of the two surfaces are what make the
    signs meet: give both surfaces the same polarity and the b relation fails
    by a clean global sign flip. A failing input-vector check is therefore
    retried negated; if that passes, the note records a polarity mismatch
    rather than a genuine dynamics difference.
    """
    if ((primary.a, primary.b), (secondary.a, secondary.b)) not in _EQUIVALENT_PAIRS:
        raise ValueError(
            f"surfaces {primary.label} and {secondary.label} are not an equivalence pair")
    t_mat = dab.schedule.maps[primary.a - 1].phi
    cond = pwlti.cond(t_mat)
    if not cond <= pwlti.COND_LIMIT:  # NaN fails too
        raise MarginalSystemError(f"similarity transform is singular: cond ~ {cond:.3e}")

    m_pri = half_cycle_model(dab, primary)
    m_sec = half_cycle_model(dab, secondary)

    sim_res = relative_residual(np.linalg.solve(t_mat, m_sec.phi @ t_mat), m_pri.phi)
    z = np.asarray(z_grid, dtype=complex)
    zr, zi = _z_parts(m_sec, z)
    b_sec = _rebased_vector(m_sec, zr, zi)
    x_sec = resolvent_solve(m_sec._entries.phi, zr, zi, [b_sec])
    # T^{-1} = (0 I - (-T))^{-1}, by the closed form of every transfer.
    mapped, chained = resolvent_solve(Matrix2x2.of(-t_mat), 0.0, 0.0, [b_sec, *x_sec])
    e = m_pri._entries
    zr, zi = _z_parts(m_pri, z)
    b_pri = _input_vector(e, zr, zi)
    c = _matrix(dab.c_phys)
    h_pri = matrix_times(c, resolvent_solve(e.phi, zr, zi, [b_pri])[0])
    input_res, flipped_res, transfer_res = (
        float(np.max(_row_residuals(actual, expected), initial=0.0)) for actual, expected in (
            (b_pri, mapped), (b_pri, tuple(-x for x in mapped)), (h_pri, matrix_times(c, chained))))

    note = ""
    if input_res > rtol and flipped_res <= rtol:
        note = "matches after a global sign flip: surface polarity mismatch"
    name = f"surface-equiv/{primary.label}~{secondary.label}"
    return [IdentityCheck(f"{name}/similarity", sim_res, similarity_rtol),
            IdentityCheck(f"{name}/input-vector", input_res, rtol, note),
            IdentityCheck(f"{name}/transfer-chain", transfer_res, rtol)]


class FrequencyResponseRow(NamedTuple):
    """One sweep row; transfer values are None when z hit a pole (row flagged)."""

    f: float
    h_irec: complex | None
    h_vout: complex | None

    @property
    def flagged(self) -> bool:
        return self.h_irec is None


def sweep_frequencies(f_min: float, f_max: float, points: int, spacing: str,
                      t_half: float) -> np.ndarray:
    """Sweep grid in hertz; capped at the surface Nyquist frequency 1/(2 t_half)."""
    nyquist = 0.5 / t_half
    if not (0.0 < f_min < f_max):
        raise ValueError(f"need 0 < f_min < f_max, got {f_min!r}, {f_max!r}")
    if f_max > nyquist * (1.0 + 1e-12):
        raise ValueError(f"f_max {f_max!r} exceeds the sampled bandwidth {nyquist!r}")
    if points < 2:
        raise ValueError(f"a sweep needs at least 2 points, got {points!r}")
    if spacing == "log":
        return np.geomspace(f_min, f_max, points)
    if spacing == "linear":
        return np.linspace(f_min, f_max, points)
    raise ValueError(f"spacing must be 'log' or 'linear', got {spacing!r}")


def bode_sweep(dab: DabSchedule, surface: Surface, kind: str,
               f_min: float, f_max: float, points: int,
               spacing: str = "log") -> list[FrequencyResponseRow]:
    """Frequency response rows of one surface model over a frequency grid.

    `kind` selects the exact model ("fix") or the same-cycle approximation
    ("sc"). A grid point landing on a pole is flagged and the sweep
    continues; flagged rows carry None in both channels.
    """
    if kind not in ("fix", "sc"):
        raise ValueError(f"kind must be 'fix' or 'sc', got {kind!r}")
    model = half_cycle_model(dab, surface)
    transfer = transfer_fixed_freq if kind == "fix" else transfer_same_cycle
    f = sweep_frequencies(f_min, f_max, points, spacing, model.t_half)
    z = np.exp(2j * np.pi * f * model.t_half)
    off_pole = _pole_gaps(model, z) > _POLE_GAP
    h_irec, h_vout = transfer(model, dab.c_phys, z[off_pole]).T.tolist()
    for k in np.flatnonzero(~off_pole).tolist():  # flagged rows keep None in both channels
        h_irec.insert(k, None)
        h_vout.insert(k, None)
    return list(map(FrequencyResponseRow, f.tolist(), h_irec, h_vout))


_RESOLVENT_SEED = 20260816  # seeds the random matrices of the resolvent-similarity check


def identity_checks(dab: DabSchedule, tolerances, surfaces, freqs) -> list[IdentityCheck]:
    """Every structural identity that `dabss verify` reports, in its table order.

    `tolerances` is a `config.Tolerances`, `surfaces` maps each label of SURFACES to the
    Surface to check (a polarity override in place of the canonical one), and `freqs` is
    the sweep grid [Hz] of the envelope-ratio check. The dual-path row passes iff
    `transfer_difference` at `tolerances.transfer_difference` does not raise on its circle.
    """
    tol = tolerances
    checks = verify_symmetry(dab, rtol=tol.half_wave_symmetry)

    x_full = pwlti.solve_periodic_fixed_point(dab.schedule)
    x_half = solve_half_cycle(dab)
    states = pwlti.propagate(dab.schedule, x_full)
    for name, actual, expected in (("fixed-point-equivalence", x_half, x_full),
                                   ("period-closure", states[-1], x_full),
                                   ("midcycle-flip", states[1], FLIP_CURRENT @ x_full)):
        checks.append(IdentityCheck(
            f"half-cycle/{name}", relative_residual(actual, expected), tol.half_cycle))

    rng = np.random.default_rng(_RESOLVENT_SEED)
    draws = []
    while len(draws) < 20:
        a = rng.standard_normal((2, 2))
        t_mat = rng.standard_normal((2, 2))
        z = 2.0 * cmath.exp(2j * math.pi * rng.uniform())
        if not (pwlti.cond(t_mat) > 1e6 or np.min(np.abs(z - np.linalg.eigvals(a))) < 0.1):
            draws.append((a, t_mat, z))
    worst = float(max(resolvent_similarity_residual(*map(np.array, zip(*draws)))))
    checks.append(IdentityCheck("resolvent/similarity-random", worst, tol.resolvent_identity))

    # exp(2j pi q / n) for q < n, rounded as cmath.exp(2j * math.pi * q / n) rounds it.
    z_grid = np.exp(1j * (2.0 * np.pi * np.arange(64) / 64))
    for pri, sec in ((surfaces["P+"], surfaces["S+"]), (surfaces["P-"], surfaces["S-"])):
        try:
            checks.extend(verify_surface_equivalence(
                dab, pri, sec, z_grid,
                rtol=tol.surface_equivalence, similarity_rtol=tol.similarity))
        except ParameterError as exc:
            # A skewed schedule can make a straddling surface unbuildable;
            # report that as a failing check instead of aborting the table.
            checks.append(IdentityCheck(
                f"surface-equiv/{pri.label}~{sec.label}/construction",
                math.inf, tol.surface_equivalence, str(exc)))

    # One `_difference_paths` call for every transfer-difference row: 100 points of the
    # unit circle (dual path), z = 1 (dc) and the sweep grid (envelope ratio).
    model = half_cycle_model(dab, surfaces["P+"])
    circle = np.exp(1j * (2.0 * np.pi * np.arange(100) / 100))
    sweep = np.exp(2j * np.pi * np.asarray(freqs) * model.t_half)
    closed, subtracted, states = _difference_paths(
        model, dab.c_phys, np.concatenate([circle, [1.0], sweep]))
    on_circle = [tuple(part[:100] for part in v) for v in (closed, subtracted, *states)]
    checks.append(_dual_path_check(model, dab.c_phys, circle,
                                   (on_circle[0], on_circle[1], on_circle[2:]),
                                   tol.transfer_difference))
    checks.append(IdentityCheck("transfer-difference/dc-zero", float(planar_norm(
        tuple(part[100] for part in subtracted))), tol.transfer_difference))
    diff = planar_norm(tuple(part[101:] for part in subtracted))
    envelope = difference_envelope(model, dab.c_phys, sweep)
    # At z = 1 the envelope and the difference both vanish: 0/0 reads as 0.
    ratio = np.max(np.divide(diff, envelope, out=np.where(diff == 0.0, 0.0, np.inf),
                             where=envelope != 0.0))
    checks.append(IdentityCheck("transfer-difference/envelope-ratio", float(ratio), 1.0))
    return checks
