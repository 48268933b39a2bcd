"""Exact discrete maps for piecewise-LTI systems with piecewise-constant input.

A switching converter that is linear and time invariant inside each
subinterval admits an exact discrete-time description: over a subinterval of
duration T_i with dynamics dx/dt = A_i x + B_i u, the boundary states obey

    x_i = Phi_i x_{i-1} + Gamma_i,
    Phi_i = exp(A_i T_i),
    Gamma_i = integral_0^{T_i} exp(A_i (T_i - tau)) B_i u dtau.

A `Schedule` keeps each segment's field, its map (`core.augmented_expm`) and the period map
(`core.compose`) as Python floats, and makes read-only arrays of them only where they are asked
for. The functions at the end are the array edges: each steps or solves those floats by the
rules of `core` and imports numpy only to return an array."""

from __future__ import annotations

import functools
import math
import operator
from typing import TYPE_CHECKING, NamedTuple

from .core import _affine, augmented_expm, compose, fixed_point
from .errors import DimensionError, NumericInputError

if TYPE_CHECKING:
    import numpy as np


def _frozen_array(values) -> np.ndarray:
    import numpy as np
    out = np.array(values, dtype=float)
    out.setflags(write=False)
    return out


def _float_rows(m) -> tuple:
    """A matrix, an array or rows of numbers, as a tuple of rows of Python floats."""
    try:
        return tuple(tuple(map(float, row)) for row in (m.tolist() if hasattr(m, "tolist") else m))
    except TypeError:  # a vector, or a stack of matrices
        raise DimensionError("segment matrices must be 2-d") from None


class Segment:
    """One subinterval of a switching period: dx/dt = a x + b u for `duration` seconds.

    `a` (2x2) and `b` (2 rows) are given as arrays or as rows of numbers and kept as rows of
    Python floats; `a` and `b` read back as read-only arrays, made when first asked for."""

    def __init__(self, a, b, duration: float):
        self._a, self._b, self.duration = _float_rows(a), _float_rows(b), duration
        if [*map(len, self._a)] != [2, 2] or len(self._b) != 2 or len({*map(len, self._b)}) != 1:
            raise DimensionError("segment state matrix must be 2x2 and its input matrix have 2 "
                                 f"rows of one width, got {self._a} and {self._b}")
        if not all(map(math.isfinite, (*self._a[0], *self._a[1], *self._b[0], *self._b[1]))):
            raise NumericInputError("segment matrices must be finite")
        if not (math.isfinite(duration) and duration >= 0.0):
            raise NumericInputError(f"segment duration must be finite and >= 0, got {duration!r}")

    @functools.cached_property
    def a(self) -> np.ndarray:
        return _frozen_array(self._a)

    @functools.cached_property
    def b(self) -> np.ndarray:
        return _frozen_array(self._b)


class Schedule:
    """An ordered tuple of segments driven by one constant input vector `u`, given as an array
    or a sequence of numbers and kept as Python floats; `u` reads back as a read-only array."""

    def __init__(self, segments, u):
        self.segments = tuple(segments)
        if not self.segments:
            raise DimensionError("schedule needs at least one segment")
        try:
            self._u = tuple(map(float, u.tolist() if hasattr(u, "tolist") else u))
        except TypeError:
            raise DimensionError("input vector must be 1-d") from None
        if not all(map(math.isfinite, self._u)):
            raise NumericInputError("input vector must be finite")
        m = len(self.segments[0]._b[0])
        for k, seg in enumerate(self.segments):
            if len(seg._b[0]) != m:
                raise DimensionError(f"segment {k+1} shape disagrees with segment 1")
        if len(self._u) != m:
            raise DimensionError(f"input vector length {len(self._u)} is not the {m} input columns")

    @functools.cached_property
    def u(self) -> np.ndarray:
        return _frozen_array(self._u)

    @functools.cached_property
    def _fields(self) -> tuple[tuple, ...]:
        """Per segment, its vector field x -> a x + b u as six Python floats: a row by row, then
        b u, each entry summed from a zero left to right (not finite: refused by `_entries`)."""
        return tuple((*seg._a[0], *seg._a[1], *(sum(map(operator.mul, row, self._u))
                                                for row in seg._b))
                     for seg in self.segments)

    @functools.cached_property
    def _entries(self) -> tuple[tuple, ...]:
        """Per segment, its exact map exp([[a, b u], [0, 0]] T) = [[phi, gamma], [0, 1]] by
        `augmented_expm` (exact for a singular `a`), six Python floats: phi row by row, gamma."""
        return tuple(augmented_expm(*(x * seg.duration for x in field))
                     for seg, field in zip(self.segments, self._fields))

    @functools.cached_property
    def maps(self) -> tuple[SegmentMap, ...]:
        """Read-only arrays of `_entries`, phi = I and gamma = 0 at T = 0. One segment's map is
        `Schedule((seg,), u).maps[0]`."""
        phis = _frozen_array([e[:4] for e in self._entries]).reshape(-1, 2, 2)
        return tuple(map(SegmentMap, phis, _frozen_array([e[4:] for e in self._entries])))

    @functools.cached_property
    def _period(self) -> tuple:
        """The one-period map (Pi, forcing) as six Python floats, `compose` of `_entries`."""
        return compose(self._entries)

    @functools.cached_property
    def period_map(self) -> SegmentMap:
        """Read-only map (Pi, forcing) of one period: the arrays of `_period`, made once."""
        rows = _frozen_array(self._period).reshape(3, 2)
        return SegmentMap(rows[:2], rows[2])


class SegmentMap(NamedTuple):
    """Exact discrete map x -> phi x + gamma of one segment or of a chain of them."""

    phi: np.ndarray
    gamma: np.ndarray


def _run(maps, x0) -> list[np.ndarray]:
    """The state after each map of `maps` (six floats each), stepped from x0 by `core._affine`."""
    import numpy as np
    x = np.asarray(x0, dtype=float)
    if x.shape != (2,):
        raise DimensionError(f"x0 shape {x.shape} is not the state's (2,)")
    x, states = tuple(x.tolist()), []
    for m in maps:
        x = _affine(m, x)
        states.append(np.array(x))
    return states


def propagate(schedule: Schedule, x0: np.ndarray) -> list[np.ndarray]:
    """Boundary states [x_1, ..., x_n], each segment's map applied in turn to x0."""
    return _run(schedule._entries, x0)


def closed_form_state(schedule: Schedule, x0: np.ndarray) -> np.ndarray:
    """End-of-period state Pi x0 + forcing: `propagate(...)[-1]` in one step of the period map."""
    return _run([schedule._period], x0)[0]


def solve_periodic_fixed_point(schedule: Schedule) -> np.ndarray:
    """Steady-state period-boundary state of a schedule, an array, from its cached period map."""
    import numpy as np
    return np.array(fixed_point(schedule._period, "periodic solve"))


def monodromy(schedule: Schedule) -> np.ndarray:
    """One-period state transition matrix Pi = Phi_n ... Phi_1 (read-only, cached). The
    switching cycle is asymptotically stable iff its eigenvalues lie inside the unit circle."""
    return schedule.period_map.phi
