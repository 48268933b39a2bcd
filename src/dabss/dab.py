"""Four-interval piecewise-LTI model of a dual active bridge converter.

State is x = [i_L, v_C] (primary-referred series inductor current, output
capacitor voltage). One switching period splits into four subintervals set
by the bridge switch pattern; the pattern repeats with half-wave symmetry,
which the sign flips S = diag(1, -1) and Dr = diag(-1, 1) express:

* intervals 1 and 4 share the forward state matrix, intervals 2 and 3 the
  reversed one (both off-diagonal couplings flip sign: conjugation by S),
* the input column flips sign between the first and second half cycle,
* durations satisfy T1 = T3 and T2 = T4.

Those structural facts make the second half cycle a sign-conjugated copy of
the first, so a half-cycle solve with the boundary condition x(T/2) = Dr x(0)
reproduces the full-period steady state; `half_cycle_map` forms that map for
it and for every sampled surface model, and `verify_symmetry` measures the
conjugation identities numerically. The model is Python floats with no numpy
import, each flip a sign change, and arrays are made when first asked for.
"""

from __future__ import annotations

import functools
import math
from typing import TYPE_CHECKING, NamedTuple

from .core import IdentityCheck, compose, fixed_point, planar_residual, validated
from .errors import ParameterError
from .pwlti import Schedule, Segment, _frozen_array

if TYPE_CHECKING:
    import numpy as np


@validated
class DabParams(NamedTuple):
    """Physical converter parameters, SI units throughout.

    n_turns  transformer turns ratio (primary:secondary = n:1)
    L        series inductance, primary referred [H]
    Co       output filter capacitance [F]
    Rt       series resistance of the transformer path [ohm]
    Rc       output capacitor ESR [ohm]
    Ro       load resistance [ohm]
    Vin      dc input voltage [V]
    fs       switching frequency [Hz]
    D_phase  phase-shift duty ratio, fraction of a half cycle in (0, 1)
    Vr       modulator ramp amplitude [V]
    """

    n_turns: float
    L: float
    Co: float
    Rt: float
    Rc: float
    Ro: float
    Vin: float
    fs: float
    D_phase: float
    Vr: float

    def _check(self):
        for name in ("n_turns", "L", "Co", "Ro", "fs", "Vr"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0.0):
                raise ParameterError(f"{name} must be finite and > 0, got {value!r}")
        for name in ("Rt", "Rc"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0.0):
                raise ParameterError(f"{name} must be finite and >= 0, got {value!r}")
        # With no input every transfer is 0, which has no gain in dB and no ratio.
        if not (math.isfinite(self.Vin) and self.Vin != 0.0):
            raise ParameterError(f"Vin must be finite and nonzero, got {self.Vin!r}")
        if not (math.isfinite(self.D_phase) and 0.0 < self.D_phase < 1.0):
            raise ParameterError(f"D_phase must lie in (0, 1), got {self.D_phase!r}")

    @property
    def period(self) -> float:
        return 1.0 / self.fs

    @property
    def t_half(self) -> float:
        return 0.5 / self.fs


@validated
class Surface(NamedTuple):
    """One sampling surface: the pair of consecutive intervals (a, b) it spans.

    `polarity` is the comparator logic sign: -1 for the primary-bridge surfaces, +1 for the
    secondary-bridge surfaces. The canonical instances below carry the correct sign;
    constructing a Surface with the opposite sign is possible but is meaningful only for
    sign-mismatch diagnostics."""

    label: str
    a: int
    b: int
    polarity: int

    def _check(self):
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


class DabSchedule:
    """A converter schedule bundled with its output matrices.

    `c_intervals` holds the per-interval output matrices used for waveform
    reconstruction (their first row carries the rectifier sign of each
    interval). `c_phys` maps the state to the physical output pair
    [I_rec, V_out] and feeds every transfer-function computation; it is
    the matrix of the reversed-coupling intervals 2 and 3, and differs from
    that of intervals 1 and 4 in the sign of the first column. Both are
    read-only arrays made from `c_rev`, c_phys row by row, when first asked for. What is
    solved from the design is kept in its `vars()`, as `Schedule` keeps its maps."""

    def __init__(self, params: DabParams, schedule: Schedule, c_rev: tuple):
        self.params, self.schedule, self.c_rev = params, schedule, c_rev

    @functools.cached_property
    def c_phys(self) -> np.ndarray:
        return _frozen_array((self.c_rev[:2], self.c_rev[2:]))

    @functools.cached_property
    def c_intervals(self) -> tuple[np.ndarray, ...]:
        # c_phys Dr: the first column negated, a 0 to +0.0 as the products give it.
        c00, c01, c10, c11 = self.c_rev
        c_fwd = _frozen_array(((0.0 - c00, c01), (0.0 - c10, c11)))
        return c_fwd, self.c_phys, self.c_phys, c_fwd


def build_dab(params: DabParams, t3_skew: float = 0.0) -> DabSchedule:
    """Assemble the four-interval schedule for one switching period.

    Durations follow T1 = T3 = D_phase*T_half, T2 = T4 = (1-D_phase)*T_half.
    `t3_skew` (seconds, verification use only) is added to T3 and removed
    from T4, deliberately breaking the half-wave timing symmetry while
    keeping the period intact; the symmetry checks must then fail.
    """
    t_half = params.t_half
    t1 = params.D_phase * t_half
    t2 = t_half - t1
    t3 = t1 + t3_skew
    t4 = t_half - t3
    if t3 < 0.0 or t4 < 0.0:
        raise ParameterError(f"t3_skew {t3_skew!r} pushes a duration negative")

    n, L, Co, rt, rc, ro = params.n_turns, params.L, params.Co, params.Rt, params.Rc, params.Ro
    rc_ro = rc * ro / (ro + rc)  # ESR parallel load
    try:
        a00, a01 = -(n * n * rt + rc_ro) / (n * n * L), ro / (n * L * (ro + rc))
        a10, a11 = -ro / (n * Co * (ro + rc)), -1.0 / (Co * (ro + rc))
    except ZeroDivisionError:  # a denominator that underflows to 0 (n_turns of 1e-300)
        a00 = a01 = a10 = a11 = math.nan  # not finite: Segment refuses it
    # Reversed-coupling intervals: both off-diagonal terms change sign.
    a_fwd, a_rev = ((a00, a01), (a10, a11)), ((a00, -a01), (-a10, a11))
    b_fwd, b_rev = ((1.0 / L,), (0.0,)), ((-1.0 / L,), (-0.0,))
    segments = (
        Segment(a_fwd, b_fwd, t1),
        Segment(a_rev, b_fwd, t2),
        Segment(a_rev, b_rev, t3),
        Segment(a_fwd, b_rev, t4),
    )
    # The structural identities of these segments are measured by verify_symmetry.
    return DabSchedule(params=params, schedule=Schedule(segments, (params.Vin,)),
                       c_rev=(1.0 / n, 0.0, rc_ro / n, ro / (rc + ro)))


def verify_symmetry(dab: DabSchedule, rtol: float = 1e-12) -> list[IdentityCheck]:
    """Residuals of the half-wave conjugation identities between the two half cycles.

    With S = diag(1, -1) and Dr = diag(-1, 1) the second-half maps must satisfy

        phi3 = S phi1 S,   phi4 = S phi2 S,
        gamma3 = -S gamma1, gamma4 = -S gamma2,
        phi3 = Dr phi1 Dr,  phi4 = Dr phi2 Dr.

    These hold only because intervals pair up in state matrix, input sign,
    and duration; skewing T3 away from T1 must break them. S phi S = Dr phi Dr and -S gamma
    are exact sign flips, so each S row and its Dr row are one residual, in Python floats.
    """
    m1, m2, m3, m4 = dab.schedule._entries
    phi3, phi4 = (planar_residual(late[:4], (p[0], -p[1], -p[2], p[3]))
                  for late, p in ((m3, m1), (m4, m2)))
    gamma3, gamma4 = (planar_residual(late[4:], (-g[4], g[5])) for late, g in ((m3, m1), (m4, m2)))
    return [IdentityCheck(f"symmetry/{name}", residual, rtol) for name, residual in (
        ("phi3-flip-voltage", phi3), ("phi4-flip-voltage", phi4), ("gamma3-negated", gamma3),
        ("gamma4-negated", gamma4), ("phi3-rectify", phi3), ("phi4-rectify", phi4))]


def half_cycle_map(dab: DabSchedule, first: int) -> tuple:
    """Rectified map x -> phi x + g over intervals `first` and `first % 4 + 1` (one-based), six
    Python floats (phi row by row, then g) composed from the segments' own:

        phi = Dr phi_b phi_a,   g = Dr (phi_b gamma_a + gamma_b),

    where Dr = diag(-1, 1), the rectification, negates row 0."""
    p00, p01, p10, p11, g0, g1 = compose([dab.schedule._entries[i - 1]
                                          for i in (first, first % 4 + 1)])
    return -p00, -p01, p10, p11, -g0, g1


def half_cycle_fixed_point(dab: DabSchedule, first: int, what: str) -> tuple:
    """(`half_cycle_map`, its fixed point) in Python floats, solved once per `dab` and `first`
    for every caller; a failed solve is not kept, so each caller's `what` names its own error."""
    solved = vars(dab).setdefault("_half_cycles", {})
    if first not in solved:
        m = half_cycle_map(dab, first)
        solved[first] = m, fixed_point(m, what)
    return solved[first]


def solve_half_cycle(dab: DabSchedule) -> np.ndarray:
    """Period-start steady state from the first half cycle alone: half-wave symmetry
    reduces x4 = x0 to the fixed point of the rectified map of intervals 1 and 2, the system
    (Dr - phi2 phi1) x0 = phi2 gamma1 + gamma2 with its first row negated. It is
    the P+ surface model's fixed point, from the same solve."""
    import numpy as np
    return np.array(half_cycle_fixed_point(dab, 1, "half-cycle solve")[1])
