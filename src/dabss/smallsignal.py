"""Sampled-data small-signal models of the phase modulator, one per sampling surface.

The modulator fixes one switching edge to the clock and generates the other by comparing a
control voltage against a ramp, so control perturbations move two consecutive durations.
Sampling the state at a modulated edge once per half cycle and rectifying the inductor current
(RECTIFY = diag(-1, 1)) gives a time-invariant discrete model

    x_{k+1} = RECTIFY phi_b phi_a x_k + RECTIFY (phi_b gamma_a + gamma_b)

whose fixed point, duration sensitivities, and control-input vectors are collected in
HalfCycleModel. Two z-domain transfer functions follow: the exact one, where the trailing
duration responds to the *next* control sample (a z-advance), and the same-cycle approximation
that drops the advance. Their difference carries an explicit (z - 1) factor, which is why the
approximation is exact at dc and degrades linearly with frequency. Every transfer, and the
spectral norms of the difference envelope, come from the 2x2 resolvent in closed form
(`core.resolvent_solve`), the same rule for one z and for an array of z, and so does the
T-solve of the surface check. Complex 2-vectors stay planar, `(re0, im0, re1, im1)`, until a
transfer is returned.

There are four sampling surfaces (either edge polarity on either bridge). Models built on
different surfaces of the same polarity pair are similar in the linear-algebra sense;
`verify_surface_equivalence` checks the full similarity chain numerically. `identity_checks` is
the whole suite that `dabss verify` prints: the half-wave symmetry and half-cycle identities,
the resolvent and surface similarities, and the transfer-difference identities."""

from __future__ import annotations

import cmath
import contextlib
import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import pwlti
from .core import (COND_LIMIT, IdentityCheck, Matrix2x2, _affine, _flat, compose, cond,
                   eigenvalues, matrix_times, planar_norm, planar_residual, real_hypot,
                   real_sqrt, relative_residual, resolvent_det, resolvent_solve, sigma_max_sq)
from .dab import DabSchedule, Surface, half_cycle_fixed_point, solve_half_cycle, verify_symmetry
from .dab import P_MINUS, P_PLUS, S_MINUS, S_PLUS, SURFACES  # noqa: F401  (re-exported)
from .errors import (MarginalSystemError, NumericInputError, ParameterError,
                     ResolventSingularityError)
from .pwlti import _frozen_array

_POLE_GAP = 1e-12  # no transfer is evaluated this close to a pole of phi
_TRANSFER_MAX = 0.25 * 1.7976931348623157e308  # verify adds up to three transfers
_FEW_Z = 16  # a transfer at this many z or fewer is evaluated z by z (`_transfer`)


class _Entries(NamedTuple):
    """A model's numbers as Python scalars, for the closed-form resolvent (`resolvent_solve`)."""

    phi: Matrix2x2
    bc0: float
    bc1: float
    bn0: float
    bn1: float
    bn_norm: float


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
    t_half        half-cycle duration [s]"""

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
    def poles(self) -> tuple:
        """Eigenvalues of phi (`core.eigenvalues`): the poles of every transfer of this model."""
        return eigenvalues(*self.phi.ravel().tolist())

    @functools.cached_property
    def _entries(self) -> _Entries:
        """phi, b_cur, b_next and ||b_next||, as Python floats."""
        (bc0, bc1), (bn0, bn1) = self.b_cur.tolist(), self.b_next.tolist()
        return _Entries(Matrix2x2.of(self.phi), bc0, bc1, bn0, bn1, planar_norm((bn0, bn1)))


def half_cycle_model(dab: DabSchedule, surface: Surface) -> HalfCycleModel:
    """The sampled model of one surface, built once per `dab` (per Surface, so a polarity
    override is another key; a failed build is not kept) and shared with read-only arrays.

    The duration sensitivities come from the endpoint identity d(phi x + gamma)/dT = A (phi x +
    gamma) + B u: growing a duration extends the flow along the local vector field at the
    segment's end state."""
    models = vars(dab).setdefault("_surface_models", {})
    if surface in models:
        return models[surface]
    a, b = surface.a - 1, surface.b - 1
    span = dab.schedule.segments[a].duration + dab.schedule.segments[b].duration
    t_half = dab.params.t_half
    if not abs(span - t_half) <= 1e-12 * abs(t_half):
        raise ParameterError(
            f"surface {surface.label} spans {span!r} s, expected the half cycle {t_half!r} s")

    m, x_star = half_cycle_fixed_point(dab, surface.a, f"surface {surface.label} fixed point")
    entries, fields = dab.schedule._entries, dab.schedule._fields
    ma, mb, fa, fb = entries[a], entries[b], fields[a], fields[b]
    x_a_end = _affine(ma, x_star)
    x_b_end = _affine(mb, x_a_end)
    # sens_a = RECTIFY phi_b (a_a x_a_end + b_a u), sens_b = RECTIFY (a_b x_b_end + b_b u)
    flow_a = _affine((*mb[:4], -0.0, -0.0), _affine(fa, x_a_end))  # -0.0 adds exactly 0
    flow_b = _affine(fb, x_b_end)
    sens_a, sens_b = (-flow_a[0], flow_a[1]), (-flow_b[0], flow_b[1])
    comp_gain = t_half / dab.params.Vr
    k = surface.polarity * comp_gain
    b_cur, b_next = (k * sens_a[0], k * sens_a[1]), (-k * sens_b[0], -k * sens_b[1])
    if not all(map(math.isfinite, (comp_gain, *b_cur, *b_next))) or _transfers_overflow(
            m[:4], dab.c_phys, b_cur, b_next):
        raise NumericInputError(f"surface {surface.label} control-input vectors are not finite "
                                f"or their transfers overflow: comparator gain T_half / Vr = "
                                f"{comp_gain:.3e} s/V")
    rows = _frozen_array((*m, *x_star, *x_a_end, *x_b_end, *sens_a, *sens_b, *b_cur,
                                *b_next)).reshape(10, 2)
    models[surface] = HalfCycleModel(
        surface=surface, phi=rows[:2], g=rows[2], x_star=rows[3], x_a_end=rows[4], x_b_end=rows[5],
        sens_a=rows[6], sens_b=rows[7], b_cur=rows[8], b_next=rows[9], comp_gain=comp_gain,
        t_half=t_half)
    return models[surface]


def _transfers_overflow(phi, c_phys, b_cur, b_next) -> bool:
    """Whether a transfer of `_input_vector` or `_same_cycle_vector` (phi as four floats row by
    row) passes _TRANSFER_MAX on |z| = 1 in n = adj(zI - phi) v, x = n / det or c_phys x (then
    x_fix - x_sc, z x_sc - b_next and verify's sums stay finite). |n|^2 and |det|^2 are
    quadratics in c = cos(arg z), fitted at c = -1, 0, 1: the peaks lie at c = +-1, at the
    vertex of |n|^2, where (|n|^2 / |det|^2)' = 0, or at a complex pole's angle, where the fit
    loses digits; each is evaluated from exact products (`resolvent_det`), |det| floored at
    _POLE_GAP^2."""
    c_rows, scale = _flat(c_phys), max(map(abs, (*b_cur, *b_next)))
    size = 2.0 + sum(map(abs, phi))
    if not (1.0 + math.hypot(*c_rows)) * size * size * scale >= 1e280:  # else peaks < 1e304
        return False
    m, gain = Matrix2x2.of(phi), max(1.0, math.sqrt(sigma_max_sq(*c_rows, 0.0)))
    e = _Entries(m, *(x / scale for x in (*b_cur, *b_next)), 0.0)

    def sizes(c):  # |n|^2 of both inputs and |det|^2 at z = c + i sqrt(1 - c^2)
        zi, q = math.sqrt(1.0 - c * c), 0.0
        with contextlib.suppress(ResolventSingularityError):  # z on a pole
            q = resolvent_det(m, c, zi)[4]
        unit = (c - m.m00, c - m.m11, 1.0, 0.0, 1.0)  # det 1: `resolvent_solve` gives adj v
        return [sum(x * x for x in n) for n in resolvent_solve(
            m, c, zi, [_input_vector(e, c, zi), _same_cycle_vector(e, c, zi)], unit)], q

    (pm, fm), (p0, f0), (pp, fp) = map(sizes, (-1.0, 0.0, 1.0))
    f2, f1 = 0.5 * (fp + fm) - f0, 0.5 * (fp - fm)
    t, d = m.m00 + m.m11, m.m00 * m.m11 - m.pp
    candidates = [-1.0, 1.0, 0.5 * t / math.sqrt(d) if t * t < 4.0 * d else 1.0]
    for n2, n1, n0 in ((0.5 * (p + q) - r, 0.5 * (p - q), r) for p, q, r in zip(pp, pm, p0)):
        qa, qb, qc = n2 * f1 - n1 * f2, n2 * f0 - n0 * f2, n1 * f0 - n0 * f1
        sq = math.sqrt(max(qb * qb - qa * qc, 0.0))  # none real: any c is a harmless candidate
        candidates += [(sq - qb) / qa, (-sq - qb) / qa] if qa else [-0.5 * qc / qb] if qb else []
        candidates.append(-0.5 * n1 / n2 if n2 else 1.0)
    return not all(math.sqrt(max(n)) * max(1.0, gain / max(math.sqrt(q), _POLE_GAP ** 2)) * scale
                   < _TRANSFER_MAX for n, q in map(sizes, (c for c in candidates if -1 <= c <= 1)))


def _near_pole(model: HalfCycleModel, z):
    """(near, gap): whether z lies within _POLE_GAP of a pole of the model, and its distance to
    the nearest one; Python values for one complex z, arrays for an array of z."""
    p0, p1 = model.poles
    if isinstance(z, complex):
        gap = min(abs(z - p0), abs(z - p1))
    else:
        gap = np.minimum(np.abs(z - p0), np.abs(z - p1))
    return gap <= _POLE_GAP, gap


def _z_parts(model: HalfCycleModel, z):
    """(Re z, Im z): Python floats for one z, float arrays for an array of z.

    ResolventSingularityError if any z is within _POLE_GAP of a pole of the model."""
    one = isinstance(z, (int, float, complex))  # numpy scalars too
    z = complex(z) if one else np.asarray(z, dtype=complex)
    near, gap = _near_pole(model, z)
    if near if one else near.any():
        k = 0 if one else np.argmax(near)
        raise ResolventSingularityError(f"z = {complex(np.ravel(z)[k])!r} is within "
                                        f"{np.ravel(gap)[k]:.3e} of a pole of the sampled model")
    return z.real, z.imag


def planar_array(vectors, shape: tuple) -> np.ndarray:
    """The complex array (len(vectors), *shape, 2) of planar vectors, each entry broadcast."""
    if not shape:
        return np.array(vectors, dtype=float).view(complex)
    out = np.empty((len(vectors),) + shape + (4,))
    for slot, vector in zip(out, vectors):
        for k, part in enumerate(vector):
            slot[..., k] = part
    return out.view(complex)


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

    A surface that opens mid-cycle of its partner sees the partner's edges in a different
    order: its opening edge is the partner's internal edge, so the kick there keeps the
    partner's *current* sample and then rides through the whole half cycle (a phi factor on
    b_next, whose direction equals that opening kick by half-wave symmetry), while its own
    internal edge is the partner's closing edge and takes the *next* sample (a z factor on
    b_cur). Same physical modulator, re-indexed: b(z) = z b_cur + phi b_next."""
    e = model._entries
    pb0, pb1 = _affine((*e.phi[:4], -0.0, -0.0), (e.bn0, e.bn1))  # -0.0 adds exactly 0
    return zr * e.bc0 + pb0, zi * e.bc0, zr * e.bc1 + pb1, zi * e.bc1


def _transfer(model: HalfCycleModel, c_phys, zr, zi, rhs) -> np.ndarray:
    """c_phys (zI - phi)^{-1} rhs(entries, Re z, Im z) for z off the poles (`_z_parts`), as a
    complex array (..., 2).

    Up to _FEW_Z values of z go through the rule one by one in Python floats, which costs less
    than numpy's overhead on some hundred array operations; the bits are the same."""
    if isinstance(zr, float) or zr.size > _FEW_Z:
        return _complex(_planar_rows(model, c_phys, [(zr, zi)], rhs)[0])
    rows = _planar_rows(model, c_phys, zip(zr.ravel().tolist(), zi.ravel().tolist()), rhs)
    return planar_array(rows, ()).reshape(zr.shape + (2,))


def _planar_rows(model: HalfCycleModel, c_phys, parts, rhs) -> list:
    """c_phys (zI - phi)^{-1} rhs(entries, Re z, Im z), planar, for each (Re z, Im z) of
    `parts`: Python floats, or float arrays for many z at once."""
    e, c = model._entries, _flat(c_phys)
    return [matrix_times(c, resolvent_solve(e.phi, r, i, [rhs(e, r, i)])[0]) for r, i in parts]


def transfer_fixed_freq(model: HalfCycleModel, c_phys: np.ndarray, z) -> np.ndarray:
    """Exact control-to-output transfer at z: c_phys (zI - phi)^{-1} (b_cur + z b_next).

    Output pair is [I_rec, V_out]. Evaluate on the unit circle, z = exp(j 2 pi f t_half), for
    the frequency response. A scalar z gives shape (2,), a 1-D array of N values shape (N, 2)."""
    return _transfer(model, c_phys, *_z_parts(model, z), _input_vector)


def transfer_same_cycle(model: HalfCycleModel, c_phys: np.ndarray, z) -> np.ndarray:
    """Same-cycle approximation: both duration terms attributed to the current sample."""
    return _transfer(model, c_phys, *_z_parts(model, z), _same_cycle_vector)


def _difference_paths(model: HalfCycleModel, c_phys: np.ndarray, z):
    """Closed-form difference, subtraction of the two transfers, and the 3 states solved, all
    planar, from one `resolvent_solve` call."""
    e = model._entries
    zr, zi = _z_parts(model, z)
    states = resolvent_solve(e.phi, zr, zi, [v(e, zr, zi) for v in (
        _input_vector, _same_cycle_vector, _advance_vector)])
    c = _flat(c_phys)
    fixed, same_cycle, closed = (matrix_times(c, x) for x in states)
    return closed, tuple(f - s for f, s in zip(fixed, same_cycle)), states


def transfer_difference_residual(model: HalfCycleModel, c_phys: np.ndarray, z):
    """Mismatch between the closed-form difference and the two-evaluation subtraction."""
    return planar_residual(*_difference_paths(model, c_phys, z)[:2])


def _resolvent_sizes(model: HalfCycleModel, c_phys: np.ndarray, z):
    """(Re z, Im z, s_max^2 and |det|^2 of zI - phi, ||c_phys||), spectral norms in closed
    form, behind the `_z_parts` pole gate: what bounds a transfer's size and its roundoff."""
    phi = model._entries.phi
    zr, zi = _z_parts(model, z)
    a, d, _, _, q = resolvent_det(phi, zr, zi)
    return (zr, zi, sigma_max_sq(a, -phi.m01, -phi.m10, d, zi), q,
            math.sqrt(sigma_max_sq(*_flat(c_phys), 0.0)))


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
    4 u ||c_phys|| ||x||; near z = 1 the subtraction cancels."""
    _, _, s_max_sq, q, c_norm = _resolvent_sizes(model, c_phys, z)
    kappa = s_max_sq / real_sqrt(q)
    x_norms = sum(planar_norm(x) for x in states)
    return 2.0 ** -53 * (2.0 * kappa + 4.0) * c_norm * x_norms / (1.0 + planar_norm(subtracted))


def _dual_path_check(model: HalfCycleModel, c_phys: np.ndarray, z, paths, rtol) -> IdentityCheck:
    """The dual-path identity over `z`, judged from the `_difference_paths` output `paths`.

    Every residual within `rtol` passes, and the check reports the largest. Otherwise each z
    gets `rtol` widened by the factor by which the roundoff floor of `_dual_path_floor` exceeds
    1e-12 (at the default rtol, max(rtol, floor)), and the check reports the z of largest
    residual minus tolerance, with the tolerance it was judged by."""
    closed, subtracted, states = paths
    res = planar_residual(closed, subtracted)
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
    Identically zero at z = 1, so the approximation is exact at dc."""
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
    gives one bound per z; a z on a pole raises as every transfer does."""
    zr, zi, s_max_sq, q, c_norm = _resolvent_sizes(model, c_phys, z)
    return real_hypot(zr - 1.0, zi) * c_norm * real_sqrt(s_max_sq / q) * model._entries.bn_norm


def resolvent_similarity_residual(a: np.ndarray, t_mat: np.ndarray,
                                  z: complex | np.ndarray) -> float | np.ndarray:
    """Residual of the resolvent similarity identity (zI - T^{-1}AT)^{-1} = T^{-1}(zI - A)^{-1}T.

    Pure linear algebra, valid for any square `a`, invertible `t_mat`, and z off the spectrum;
    the surface-equivalence checks are this identity applied to the half-cycle maps. Stacks of
    k draws, `a` and `t_mat` of shape (k, n, n) and `z` of shape (k,), go through one stacked
    solve and inverse and give the array of k residuals, each with the bits of its own call."""
    a, t_mat = np.asarray(a, dtype=complex), np.asarray(t_mat, dtype=complex)
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

    With T the transition matrix of the primary surface's leading interval and b_sec(z) the
    secondary input vector rebased onto the primary clock (`_rebased_vector`), the secondary
    model must satisfy, for every z off the poles:

        T^{-1} phi_sec T = phi_pri
        b_pri(z) = T^{-1} b_sec(z)
        H_pri(z) = (c_phys T^{-1}) (zI - phi_sec)^{-1} b_sec(z)

    The opposite comparator polarities of the two surfaces are what make the signs meet: give
    both surfaces the same polarity and the b relation fails by a clean global sign flip. A
    failing input-vector check is therefore retried negated; if that passes, the note records a
    polarity mismatch rather than a genuine dynamics difference."""
    if ((primary.a, primary.b), (secondary.a, secondary.b)) not in _EQUIVALENT_PAIRS:
        raise ValueError(
            f"surfaces {primary.label} and {secondary.label} are not an equivalence pair")
    t_mat = dab.schedule._entries[primary.a - 1][:4]
    kappa = cond(t_mat)
    if not kappa <= COND_LIMIT:  # NaN fails too
        raise MarginalSystemError(f"similarity transform is singular: cond ~ {kappa:.3e}")

    m_pri, m_sec = half_cycle_model(dab, primary), half_cycle_model(dab, secondary)

    z = np.asarray(z_grid, dtype=complex)
    zr, zi = _z_parts(m_sec, z)
    b_sec = _rebased_vector(m_sec, zr, zi)
    x_sec = resolvent_solve(m_sec._entries.phi, zr, zi, [b_sec])
    # T^{-1} = (0 I - (-T))^{-1}, by the closed form of every transfer, on phi_sec T too.
    p00, p01, p10, p11 = compose([(*t_mat, 0.0, 0.0), (*m_sec._entries.phi[:4], 0.0, 0.0)])[:4]
    mapped, chained, col0, col1 = resolvent_solve(Matrix2x2.of([-x for x in t_mat]), 0.0, 0.0, [
        b_sec, *x_sec, (p00, 0.0, p10, 0.0), (p01, 0.0, p11, 0.0)])
    sim_res = planar_residual((col0[0], col1[0], col0[2], col1[2]), m_pri._entries.phi[:4])
    e = m_pri._entries
    zr, zi = _z_parts(m_pri, z)
    b_pri = _input_vector(e, zr, zi)
    c = _flat(dab.c_phys)
    h_pri = matrix_times(c, resolvent_solve(e.phi, zr, zi, [b_pri])[0])
    input_res, flipped_res, transfer_res = (
        float(np.max(planar_residual(actual, expected), initial=0.0)) for actual, expected in (
            (b_pri, mapped), (b_pri, tuple(-x for x in mapped)), (h_pri, matrix_times(c, chained))))

    note = ("matches after a global sign flip: surface polarity mismatch"
            if input_res > rtol and flipped_res <= rtol else "")
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
        # np.geomspace's bits (numpy's log10 and power, not libm's), without its wrapper.
        lo, hi = np.log10([f_min, f_max]).tolist()
        f = np.power(10.0, np.arange(points) * ((hi - lo) / (points - 1)) + lo)
        f[0], f[-1] = f_min, f_max
        return f
    if spacing == "linear":
        return np.linspace(f_min, f_max, points)
    raise ValueError(f"spacing must be 'log' or 'linear', got {spacing!r}")


def bode_sweep(dab: DabSchedule, surface: Surface, kind: str,
               f_min: float, f_max: float, points: int,
               spacing: str = "log") -> list[FrequencyResponseRow]:
    """Frequency response rows of one surface model over a frequency grid.

    `kind` selects the exact model ("fix") or the same-cycle approximation ("sc"). A grid point
    landing on a pole is flagged and the sweep continues; flagged rows carry None in both
    channels."""
    if kind not in ("fix", "sc"):
        raise ValueError(f"kind must be 'fix' or 'sc', got {kind!r}")
    model = half_cycle_model(dab, surface)
    f = sweep_frequencies(f_min, f_max, points, spacing, model.t_half)
    z = np.exp(2j * np.pi * f * model.t_half)
    rhs = _input_vector if kind == "fix" else _same_cycle_vector
    near, _ = _near_pole(model, z)
    z = z[~near]  # gated here, so the transfer takes (Re z, Im z) as they are
    h_irec, h_vout = _transfer(model, dab.c_phys, z.real, z.imag, rhs).T.tolist()
    flagged = np.flatnonzero(near).tolist()
    for k in flagged:  # flagged rows keep None in both channels
        h_irec.insert(k, None)
        h_vout.insert(k, None)
    return list(map(FrequencyResponseRow, f.tolist(), h_irec, h_vout))


_RESOLVENT_SEED = 20260816  # seeds the random matrices of the resolvent-similarity check


def identity_checks(dab: DabSchedule, tolerances, surfaces, freqs) -> list[IdentityCheck]:
    """Every structural identity that `dabss verify` reports, in its table order.

    `tolerances` is a `config.Tolerances`, `surfaces` maps each label of SURFACES to the
    Surface to check (a polarity override in place of the canonical one), and `freqs` is the
    sweep grid [Hz] of the envelope-ratio check. The dual-path row passes iff
    `transfer_difference` at `tolerances.transfer_difference` does not raise on its circle."""
    tol = tolerances
    checks = verify_symmetry(dab, rtol=tol.half_wave_symmetry)

    x_full = pwlti.solve_periodic_fixed_point(dab.schedule)
    x_half = solve_half_cycle(dab)
    states = pwlti.propagate(dab.schedule, x_full)
    for name, actual, expected in (("fixed-point-equivalence", x_half, x_full),
                                   ("period-closure", states[-1], x_full),
                                   ("midcycle-flip", states[1], (-x_full[0], x_full[1]))):
        checks.append(IdentityCheck(
            f"half-cycle/{name}", relative_residual(actual, expected), tol.half_cycle))

    rng = np.random.default_rng(_RESOLVENT_SEED)
    draws = []
    while len(draws) < 20:
        a, t_mat = rng.standard_normal((2, 2)), rng.standard_normal((2, 2))
        z = 2.0 * cmath.exp(2j * math.pi * rng.uniform())
        if not (cond(t_mat) > 1e6
                or min(abs(z - e) for e in eigenvalues(*a.ravel().tolist())) < 0.1):
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
    checks.append(_dual_path_check(model, dab.c_phys, circle, (
        on_circle[0], on_circle[1], on_circle[2:]), tol.transfer_difference))
    checks.append(IdentityCheck("transfer-difference/dc-zero", float(planar_norm(
        tuple(part[100] for part in subtracted))), tol.transfer_difference))
    diff = planar_norm(tuple(part[101:] for part in subtracted))
    envelope = difference_envelope(model, dab.c_phys, sweep)
    # At z = 1 the envelope and the difference both vanish: 0/0 reads as 0.
    ratio = np.max(np.divide(diff, envelope, out=np.where(diff == 0.0, 0.0, np.inf),
                             where=envelope != 0.0))
    checks.append(IdentityCheck("transfer-difference/envelope-ratio", float(ratio), 1.0))
    return checks
