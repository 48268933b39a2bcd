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
approximation is exact at dc and degrades linearly with frequency. Every transfer, the spectral
norms of the difference envelope and the T-solve of the surface check come from the 2x2
resolvent in closed form (`core.resolvent_solve`), on planar complex 2-vectors `(re0, im0, re1,
im1)`. Many z go through one rule, `_over_z`, which spares a command numpy's import and
refuses a value past the float range where it is computed.

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
import sys
from itertools import accumulate, repeat
from typing import TYPE_CHECKING, NamedTuple

from .core import (COND_LIMIT, IdentityCheck, Matrix2x2, _affine, _flat, _numpy, complex_abs,
                   complex_exp, compose, cond, eigenvalues, fixed_point, matrix_times,
                   planar_norm, planar_residual, real_sqrt, relative_residual, resolvent_det,
                   resolvent_solve, sigma_max_sq, to_complex)
from .dab import DabSchedule, Surface, half_cycle_fixed_point, verify_symmetry
from .dab import P_MINUS, P_PLUS, S_MINUS, S_PLUS, SURFACES  # noqa: F401  (re-exported)
from .errors import (MarginalSystemError, NumericInputError, ParameterError,
                     ResolventSingularityError)
from .pwlti import _frozen_array

if TYPE_CHECKING:
    import numpy as np

_POLE_GAP = 1e-12  # no transfer is evaluated this close to a pole of phi
_FEW_Z = 16  # this many z or fewer run z by z in Python floats (`_over_z`)


class _Entries(NamedTuple):
    """A model's numbers as Python scalars, for the closed-form resolvent (`resolvent_solve`)."""

    phi: Matrix2x2
    bc0: float
    bc1: float
    bn0: float
    bn1: float
    bn_norm: float


class HalfCycleModel:
    """Rectified one-half-cycle discrete model anchored at one sampling surface. `floats` holds
    its ten rows of two Python floats, row by row, each read back as a read-only array made
    when first asked for:

    phi, g        rectified transition matrix (two rows) and forcing vector
    x_star        sampled fixed point (surface steady state)
    x_a_end       state at the internal switching edge, from x_star
    x_b_end       state at the closing edge, before rectification
    sens_a/sens_b rectified end-state sensitivity to the two durations [state/s]
    b_cur/b_next  control-input vectors of the current / next sample [state/V]
    comp_gain     comparator timing gain T_half/Vr [s/V]
    t_half        half-cycle duration [s]"""

    def __init__(self, surface: Surface, floats: tuple, comp_gain: float, t_half: float):
        self.surface, self.floats, self.comp_gain, self.t_half = surface, floats, comp_gain, t_half

    phi, g, x_star, x_a_end, x_b_end, sens_a, sens_b, b_cur, b_next = (functools.cached_property(
        lambda self, k=k: _frozen_array(self.floats).reshape(10, 2)[k])
        for k in (slice(2), *range(2, 10)))

    @functools.cached_property
    def poles(self) -> tuple:
        """Eigenvalues of phi (`core.eigenvalues`): the poles of every transfer of this model."""
        return eigenvalues(*self.floats[:4])

    @functools.cached_property
    def _entries(self) -> _Entries:
        """phi, b_cur, b_next and ||b_next||, from `floats`."""
        f = self.floats
        return _Entries(Matrix2x2.of(f[:4]), *f[16:], planar_norm(f[18:]))


def half_cycle_model(dab: DabSchedule, surface: Surface) -> HalfCycleModel:
    """The sampled model of one surface, built once per `dab` (per Surface, so a polarity
    override is another key; a failed build is not kept) and shared. The duration
    sensitivities come from the endpoint identity d(phi x + gamma)/dT = A (phi x + gamma) +
    B u: growing a duration extends the flow along the local vector field at the segment's end
    state. NumericInputError where the control-input vectors are not finite; a transfer past
    the float range is refused where it is evaluated (`_over_z`)."""
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
    if not all(map(math.isfinite, (comp_gain, *b_cur, *b_next))):
        raise NumericInputError(f"surface {surface.label} control-input vectors are not finite: "
                                f"comparator gain T_half / Vr = {comp_gain:.3e} s/V")
    models[surface] = HalfCycleModel(
        surface=surface, floats=(*m, *x_star, *x_a_end, *x_b_end, *sens_a, *sens_b, *b_cur,
                                 *b_next), comp_gain=comp_gain, t_half=t_half)
    return models[surface]


def _over_z(body, points: list, near, where: str = "z = {!r}", at=None) -> list:
    """[None if near(w) else body(w) for w in map(at, points)], rows of Python scalars, for a list
    of numbers (z, or frequencies and `at`, which gives their z once for `near` and `body`): more
    than _FEW_Z points go through `at`, `near` and `body` once, as arrays, where numpy is loaded
    already (a caller with arrays); else one by one in floats, which `core` rounds as it rounds
    arrays, so a command never imports numpy for a sweep. A value past the float range is
    refused (`_finite`); in an array pass, where only an overflow or an invalid operation makes
    one, that raises and the pass is redone point by point, so both ways refuse the same points
    and neither warns."""
    np = sys.modules.get("numpy")
    if np is not None and len(points) > _FEW_Z:
        x = np.array(points)
        with contextlib.suppress(FloatingPointError), np.errstate(over="raise", invalid="raise"):
            x = at(x) if at else x
            skip = near(x)
            kept = x[~skip] if (skipped := skip.any()) else x
            rows = zip(*(v.tolist() for v in body(kept)))  # each value an array
            return [None if s else next(rows) for s in skip.tolist()] if skipped else list(rows)
    return _finite([None if near(w) else body(w) for w in (map(at, points) if at else points)],
                   points, where)


def _finite(rows: list, points: list, where: str = "z = {!r}") -> list:
    """`rows`, once every value in them is finite (a flagged row, None, holds none; a finite sum
    clears a row at once): else NumericInputError at the first of `points` where one is not."""
    for p, row in zip(points, rows):
        if row is not None and not cmath.isfinite(sum(row)) and not all(map(cmath.isfinite, row)):
            raise NumericInputError(f"a value at {where.format(p)} passes the float range")
    return rows


def _pole_gap(poles: tuple, z):
    """The distance from z to the nearest of `poles`, the hypot of the parts of z - pole
    (`core.complex_abs`): a float for one complex z, an array with its bits for a complex array."""
    gaps = [complex_abs(z - p) for p in poles]
    return min(gaps) if isinstance(z, complex) else functools.reduce(_numpy().minimum, gaps)


def _evaluate(z, body, poles: tuple) -> tuple:
    """(zs, rows): z as a list of Python complex (one number, or the entries of a sequence or
    array) and the row of `body` at each (`_over_z`; a value past the float range is refused),
    once none lies within _POLE_GAP of one of `poles`: else ResolventSingularityError at the
    first z that does."""
    one = isinstance(z, (int, float, complex))
    zs = [complex(z)] if one else [*map(complex, z.ravel().tolist() if hasattr(z, "ravel") else z)]
    rows = ([None if _pole_gap(poles, zs[0]) <= _POLE_GAP else body(zs[0])] if one  # no loop
            else _over_z(body, zs, lambda w: _pole_gap(poles, w) <= _POLE_GAP))
    if None in rows:
        w = zs[rows.index(None)]
        raise ResolventSingularityError(
            f"z = {w!r} is within {_pole_gap(poles, w):.3e} of a pole of the sampled model")
    if one and not math.isfinite(sum(rows[0])):  # `_finite`'s screen with no call: one is hot
        _finite(rows, zs)
    return zs, rows


def _shaped(z, values, pairs: bool = False):
    """`values`, a float per z or (`pairs`) a planar pair of floats per z, as a public function
    returns them: for one number z its float or a complex array (2,), else an array of the shape
    of z (and 2)."""
    if isinstance(z, (int, float, complex)):
        return _numpy().array(values[0], dtype=float).view(complex) if pairs else values[0]
    out = _numpy().array(values, dtype=float)
    out = out.reshape(-1, 4).view(complex) if pairs else out
    return out.reshape(_numpy().shape(z) + out.shape[1:])


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
    """Input vector of this surface's recursion on its leading partner's clock, planar. A
    surface that opens mid-cycle of its partner sees the partner's edges in a different order:
    its opening edge is the partner's internal edge, so the kick there keeps the partner's
    *current* sample and then rides through the whole half cycle (a phi factor on b_next, whose
    direction equals that opening kick by half-wave symmetry), while its own internal edge is
    the partner's closing edge and takes the *next* sample (a z factor on b_cur). Same physical
    modulator, re-indexed: b(z) = z b_cur + phi b_next."""
    e = model._entries
    pb0, pb1 = _affine((*e.phi[:4], -0.0, -0.0), (e.bn0, e.bn1))  # -0.0 adds exactly 0
    return zr * e.bc0 + pb0, zi * e.bc0, zr * e.bc1 + pb1, zi * e.bc1


def _response(model: HalfCycleModel, c: list, rhs, zr, zi):
    """c (zI - phi)^{-1} rhs(entries, Re z, Im z), planar, for z off the poles."""
    e = model._entries
    return matrix_times(c, resolvent_solve(e.phi, zr, zi, [rhs(e, zr, zi)])[0])


def _transfer_rows(model: HalfCycleModel, c_phys, z, rhs) -> list:
    """`_response` at z, one number or a sequence: a planar row (Re, Im of I_rec, of V_out) per
    z, in Python floats."""
    c = _flat(c_phys)
    return _evaluate(z, lambda w: _response(model, c, rhs, w.real, w.imag), model.poles)[1]


def _transfer(model: HalfCycleModel, c_phys, z, rhs) -> np.ndarray:
    """`_response` at z, one number or an array: a complex array z.shape + (2,)."""
    return _shaped(z, _transfer_rows(model, c_phys, z, rhs), pairs=True)


def transfer_fixed_freq(model: HalfCycleModel, c_phys: np.ndarray, z) -> np.ndarray:
    """Exact control-to-output transfer at z: c_phys (zI - phi)^{-1} (b_cur + z b_next), the
    output pair [I_rec, V_out]; on the unit circle, z = exp(j 2 pi f t_half), the frequency
    response. A scalar z gives shape (2,), a 1-D array of N values shape (N, 2)."""
    return _transfer(model, c_phys, z, _input_vector)


def transfer_same_cycle(model: HalfCycleModel, c_phys: np.ndarray, z) -> np.ndarray:
    """Same-cycle approximation: both duration terms attributed to the current sample."""
    return _transfer(model, c_phys, z, _same_cycle_vector)


def _difference_states(model: HalfCycleModel, z) -> list:
    """The states of the exact, same-cycle and advance inputs at z, planar, from one solve."""
    e, zr, zi = model._entries, z.real, z.imag
    return resolvent_solve(e.phi, zr, zi, [v(e, zr, zi) for v in (
        _input_vector, _same_cycle_vector, _advance_vector)])


def _difference_row(model: HalfCycleModel, c: list, z) -> tuple:
    """At z or an array: the closed-form difference, planar, the subtracted one, their residual."""
    fixed, same_cycle, closed = (matrix_times(c, x) for x in _difference_states(model, z))
    subtracted = tuple(f - s for f, s in zip(fixed, same_cycle))
    return (*closed, *subtracted, planar_residual(closed, subtracted))


def transfer_difference_residual(model: HalfCycleModel, c_phys: np.ndarray, z):
    """Mismatch between the closed-form difference and the two-evaluation subtraction."""
    _, rows = _evaluate(z, functools.partial(_difference_row, model, _flat(c_phys)), model.poles)
    return _shaped(z, [row[8] for row in rows])


def _resolvent_sizes(model: HalfCycleModel, zr, zi):
    """(s_max^2, |det|^2) of zI - phi in closed form, for z off the poles: what bounds a
    transfer's size and its roundoff."""
    phi = model._entries.phi
    a, d, _, _, q = resolvent_det(phi, zr, zi)
    return sigma_max_sq(a, -phi.m01, -phi.m10, d, zi), q


def _dual_path_floor(model: HalfCycleModel, c: list, z: complex, row: tuple) -> float:
    """First-order bound on the dual-path residual that roundoff alone can cause at one z, from
    its `_difference_row`. With M = zI - phi, `resolvent_solve` takes det M to a few u of its
    value, and each entry of adj(M) b is a sum of at most three real products, so it errs by a
    few u of |adj M||b|, whose norm is at most ||M||_F ||b|| <= sqrt(2) s_max^2 ||x||. Divided by
    |det M| = s_max s_min, the solve errs by at most c u kappa ||x||, kappa = s_max / s_min =
    s_max^2 / |det M|, for a small constant c, and comes near that only where adj(M) b cancels:
    Cramer's rule for n = 2 is forward stable (Higham, "Accuracy and Stability of Numerical
    Algorithms", 2nd ed., sec. 1.10.1). The floor takes c = 2, the constant of a solve backward
    stable to u (Thm 7.2). c_phys x and the subtraction add about 4 u ||c_phys|| ||x||; near
    z = 1 the subtraction cancels. A floor past the float range is refused as a row value is."""
    s_max_sq, q = _resolvent_sizes(model, z.real, z.imag)
    kappa = s_max_sq / math.sqrt(q)
    x_norms = sum(map(planar_norm, _difference_states(model, z)))
    c_norm = math.sqrt(sigma_max_sq(*c, 0.0))
    floor = 2.0 ** -53 * (2.0 * kappa + 4.0) * c_norm * x_norms / (1.0 + planar_norm(row[4:8]))
    _finite([(floor,)], [z])
    return floor


def _worst(values) -> float:
    """The largest of 0 and `values`, NaN if one is NaN: a NaN residual fails its check."""
    values = [0.0, *values]
    return math.nan if any(map(math.isnan, values)) else max(values)


def _dual_path_check(model: HalfCycleModel, c: list, z: list, rows: list, rtol: float) -> tuple:
    """(residual, tolerance) of the dual-path identity over the list `z`, judged from their
    `_difference_row`s `rows`: every residual within `rtol` passes, and the check reports the
    largest. Otherwise each z gets `rtol` widened by the factor by which the roundoff floor of
    `_dual_path_floor` exceeds 1e-12 (at the default rtol, max(rtol, floor)), and the check
    reports the z of largest residual minus tolerance, with the tolerance it was judged by."""
    worst = _worst([row[8] for row in rows])
    if not worst > rtol:  # the floor only where the plain check trips
        return worst, rtol
    judged = ((row[8], rtol * max(1.0, _dual_path_floor(model, c, w, row) / 1e-12))
              for w, row in zip(z, rows))
    return max(judged, key=lambda judged: judged[0] - judged[1])


def transfer_difference(model: HalfCycleModel, c_phys: np.ndarray, z,
                        rtol: float = 1e-12) -> np.ndarray:
    """Exact-minus-approximate transfer, c_phys (zI - phi)^{-1} (z - 1) b_next, cross-checked
    against the subtraction of the two transfer evaluations: raises ArithmeticError where
    `_dual_path_check`, the rule of verify's dual-path row, fails. Identically zero at z = 1,
    so the approximation is exact at dc."""
    c = _flat(c_phys)
    zs, rows = _evaluate(z, functools.partial(_difference_row, model, c), model.poles)
    residual, tolerance = _dual_path_check(model, c, zs, rows, rtol)
    if not residual <= tolerance:  # NaN fails too
        raise ArithmeticError(f"transfer difference paths disagree: residual "
                              f"{residual:.3e} exceeds {tolerance:.3e}")
    return _shaped(z, [row[:4] for row in rows], pairs=True)


def _envelope(model: HalfCycleModel, c_norm: float, z) -> tuple:
    """(|z - 1| c_norm ||(zI - phi)^{-1}|| ||b_next||,) at z, or an array of z."""
    s_max_sq, q = _resolvent_sizes(model, z.real, z.imag)
    return complex_abs(z - 1.0) * c_norm * real_sqrt(s_max_sq / q) * model._entries.bn_norm,


def difference_envelope(model: HalfCycleModel, c_phys: np.ndarray, z):
    """Bound |z - 1| ||c_phys|| ||(zI - phi)^{-1}|| ||b_next|| on ||transfer_difference|| at z,
    spectral norms in closed form. On the unit circle |z - 1| = 2 |sin(pi f t_half)| grows
    linearly in f for small f t_half, which bounds how fast the same-cycle approximation
    decays. A 1-D array of z gives one bound per z; a z on a pole raises as every transfer does."""
    c_norm = math.sqrt(sigma_max_sq(*_flat(c_phys), 0.0))
    _, rows = _evaluate(z, functools.partial(_envelope, model, c_norm), model.poles)
    return _shaped(z, [bound for bound, in rows])


def resolvent_similarity_residual(a, t_mat, z: complex) -> float:
    """Residual of the resolvent identity (zI - T^{-1}AT)^{-1} = T^{-1}(zI - A)^{-1}T of real 2x2
    `a` and invertible `t_mat` (`core._flat`) at z off the spectrum, in closed form (`_similar`);
    the surface-equivalence checks apply it to the half-cycle maps."""
    a, t, z = _flat(a), _flat(t_mat), complex(z)
    t_solve, conjugated = _similar(t, a)
    lhs = resolvent_solve(Matrix2x2.of(conjugated), z.real, z.imag,
                          [(1.0, 0.0, 0.0, 0.0), (0.0, 0.0, 1.0, 0.0)])
    rhs = t_solve(resolvent_solve(Matrix2x2.of(a), z.real, z.imag,
                                  [(t[0], 0.0, t[2], 0.0), (t[1], 0.0, t[3], 0.0)]))
    return planar_residual((*lhs[0], *lhs[1]), (*rhs[0], *rhs[1]))


def _similar(t, a) -> tuple:
    """(T^{-1} of planar vectors, T^{-1} A T row by row) of real 2x2 T and A (four floats each):
    T^{-1} = (0 I - (-T))^{-1} in closed form, on the columns of A T (`core.compose`) too."""
    t_neg = Matrix2x2.of([-x for x in t])
    det = resolvent_det(t_neg, 0.0, 0.0)
    t_solve = functools.partial(resolvent_solve, t_neg, 0.0, 0.0, det=det)
    p00, p01, p10, p11 = compose([(*t, 0.0, 0.0), (*a, 0.0, 0.0)])[:4]
    c0, c1 = t_solve([(p00, 0.0, p10, 0.0), (p01, 0.0, p11, 0.0)])
    return t_solve, (c0[0], c1[0], c0[2], c1[2])


_EQUIVALENT_PAIRS = {((1, 2), (2, 3)), ((3, 4), (4, 1))}


def verify_surface_equivalence(dab: DabSchedule, primary: Surface, secondary: Surface,
                               z_grid, rtol: float = 1e-10,
                               similarity_rtol: float = 1e-12) -> list[IdentityCheck]:
    """Numerical check that two surfaces offset by one interval carry the same dynamics. With T
    the transition matrix of the primary surface's leading interval and b_sec(z) the secondary
    input vector rebased onto the primary clock (`_rebased_vector`), the secondary model must
    satisfy, for every z off the poles:

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
    t_solve, conjugated = _similar(t_mat, m_sec.floats[:4])
    sim_res = planar_residual(conjugated, m_pri.floats[:4])
    c, e = dab.c_rev, m_pri._entries

    def residuals(w):  # input-vector, flipped and transfer-chain, at z = w
        zr, zi = w.real, w.imag
        b_sec = _rebased_vector(m_sec, zr, zi)
        x_sec = resolvent_solve(m_sec._entries.phi, zr, zi, [b_sec])[0]
        mapped, chained = t_solve([b_sec, x_sec])
        b_pri = _input_vector(e, zr, zi)
        h_pri = _response(m_pri, c, _input_vector, zr, zi)
        return (planar_residual(b_pri, mapped), planar_residual(b_pri, tuple(-x for x in mapped)),
                planar_residual(h_pri, matrix_times(c, chained)))

    _, rows = _evaluate(z_grid, residuals, m_sec.poles + m_pri.poles)
    input_res, flipped_res, transfer_res = [*map(_worst, zip(*rows))] or [0.0] * 3
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
                      t_half: float) -> list[float]:
    """Sweep grid in hertz, a list of floats; capped at the surface Nyquist frequency
    1/(2 t_half). A log grid is 10^e over evenly spaced exponents e, by the C library's log10
    and pow, whose bits are the same on every host; a linear grid has np.linspace's."""
    nyquist = 0.5 / t_half
    if not (0.0 < f_min < f_max):
        raise ValueError(f"need 0 < f_min < f_max, got {f_min!r}, {f_max!r}")
    if f_max > nyquist * (1.0 + 1e-12):
        raise ValueError(f"f_max {f_max!r} exceeds the sampled bandwidth {nyquist!r}")
    if points < 2:
        raise ValueError(f"a sweep needs at least 2 points, got {points!r}")
    if spacing not in ("log", "linear"):
        raise ValueError(f"spacing must be 'log' or 'linear', got {spacing!r}")
    lo, hi = (math.log10(f_min), math.log10(f_max)) if spacing == "log" else (f_min, f_max)
    step = (hi - lo) / (points - 1)
    if spacing == "log":
        return [f_min, *[10.0 ** (k * step + lo) for k in range(1, points - 1)], f_max]
    return [f_min, *[k * step + lo for k in range(1, points - 1)], f_max]


def bode_sweep(dab: DabSchedule, surface: Surface, kind: str,
               f_min: float, f_max: float, points: int,
               spacing: str = "log") -> list[FrequencyResponseRow]:
    """Frequency response rows of one surface model over a frequency grid. `kind` selects the
    exact model ("fix") or the same-cycle approximation ("sc"). A grid point landing on a pole
    is flagged and the sweep continues; flagged rows carry None in both channels."""
    if kind not in ("fix", "sc"):
        raise ValueError(f"kind must be 'fix' or 'sc', got {kind!r}")
    model = half_cycle_model(dab, surface)
    f = sweep_frequencies(f_min, f_max, points, spacing, model.t_half)
    c, rhs = dab.c_rev, _input_vector if kind == "fix" else _same_cycle_vector

    def at(f):  # z = e^(2 pi i f t_half) of one frequency or of an array of them
        return complex_exp(2j * math.pi * f * model.t_half)

    def near(z):
        return _pole_gap(model.poles, z) <= _POLE_GAP

    def row(z):
        r0, s0, r1, s1 = _response(model, c, rhs, z.real, z.imag)
        return to_complex(r0, s0), to_complex(r1, s1)

    rows = _over_z(row, f, near, "f = {!r} Hz", at)
    if None not in rows:  # no Python call per row
        return list(map(tuple.__new__, repeat(FrequencyResponseRow), zip(f, *zip(*rows))))
    return [FrequencyResponseRow(fk, *(row or (None, None))) for fk, row in zip(f, rows)]


_RESOLVENT_SEED = 20260816  # seeds the random matrices of the resolvent-similarity check


def identity_checks(dab: DabSchedule, tolerances, surfaces, freqs) -> list[IdentityCheck]:
    """Every structural identity that `dabss verify` reports, in its table order. `tolerances`
    is a `config.Tolerances`, `surfaces` maps each label of SURFACES to the
    Surface to check (a polarity override in place of the canonical one), and `freqs` is the
    sweep grid [Hz] of the envelope-ratio check. The dual-path row passes iff
    `transfer_difference` at `tolerances.transfer_difference` does not raise on its circle."""
    import random
    tol = tolerances
    checks = verify_symmetry(dab, rtol=tol.half_wave_symmetry)

    x_full = fixed_point(dab.schedule._period, "periodic solve")
    x_half = half_cycle_fixed_point(dab, 1, "half-cycle solve")[1]
    states = [*accumulate(dab.schedule._entries, lambda x, m: _affine(m, x), initial=x_full)]
    for name, actual, expected in (("fixed-point-equivalence", x_half, x_full),
                                   ("period-closure", states[-1], x_full),
                                   ("midcycle-flip", states[2], (-x_full[0], x_full[1]))):
        checks.append(IdentityCheck(
            f"half-cycle/{name}", relative_residual(actual, expected), tol.half_cycle))

    rng, residuals = random.Random(_RESOLVENT_SEED), []
    while len(residuals) < 20:
        a, t_mat = ([rng.gauss(0.0, 1.0) for _ in range(4)] for _ in range(2))
        z = 2.0 * cmath.exp(2j * math.pi * rng.random())
        if not (cond(t_mat) > 1e6 or min(abs(z - e) for e in eigenvalues(*a)) < 0.1):
            residuals.append(resolvent_similarity_residual(a, t_mat, z))
    checks.append(IdentityCheck("resolvent/similarity-random", _worst(residuals),
                                tol.resolvent_identity))

    circle64, circle100 = ([cmath.exp(2j * math.pi * q / n) for q in range(n)] for n in (64, 100))
    for pri, sec in ((surfaces["P+"], surfaces["S+"]), (surfaces["P-"], surfaces["S-"])):
        try:
            checks.extend(verify_surface_equivalence(
                dab, pri, sec, circle64,
                rtol=tol.surface_equivalence, similarity_rtol=tol.similarity))
        except ParameterError as exc:
            # A skewed schedule can make a straddling surface unbuildable;
            # report that as a failing check instead of aborting the table.
            checks.append(IdentityCheck(
                f"surface-equiv/{pri.label}~{sec.label}/construction",
                math.inf, tol.surface_equivalence, str(exc)))

    # One `_difference_row` evaluation for every transfer-difference row: 100 points of the
    # unit circle (dual path), z = 1 (dc) and the sweep grid (envelope ratio).
    model, c = half_cycle_model(dab, surfaces["P+"]), dab.c_rev
    sweep = [cmath.exp(2j * math.pi * f * model.t_half) for f in freqs]
    _, rows = _evaluate([*circle100, 1 + 0j, *sweep],
                        functools.partial(_difference_row, model, c), model.poles)
    checks.append(IdentityCheck("transfer-difference/dual-path", *_dual_path_check(
        model, c, circle100, rows[:100], tol.transfer_difference)))
    checks.append(IdentityCheck("transfer-difference/dc-zero", planar_norm(rows[100][4:8]),
                                tol.transfer_difference))
    # At z = 1 the envelope and the difference both vanish: 0/0 reads as 0.
    ratios = [d / bound if bound else math.inf if d else 0.0 for d, (bound,) in zip(
        (planar_norm(row[4:8]) for row in rows[101:]),
        _evaluate(sweep, functools.partial(_envelope, model, math.sqrt(sigma_max_sq(*c, 0.0))),
                  model.poles)[1])]
    checks.append(IdentityCheck("transfer-difference/envelope-ratio", _worst(ratios), 1.0))
    return checks
