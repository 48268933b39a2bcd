"""Unit tests for the converter schedule builder and its symmetry structure."""

from __future__ import annotations

import math

import numpy as np
import pytest

from dabss import DabParams, build_dab, relative_residual, solve_periodic_fixed_point
from dabss import P_PLUS, half_cycle_model
from dabss.dab import half_cycle_map, solve_half_cycle, verify_symmetry
from dabss.errors import DimensionError, ParameterError
from dabss.pwlti import propagate
from tests import reference
from tests.conftest import CLOSED_FORM_SOLVE, REFERENCE_KWARGS, random_params

# The sign flips of the [i_L, v_C] state: S conjugates the reversed-coupling intervals onto the
# forward ones, and DR, the current flip, is the half-wave boundary condition.
S, DR = np.diag([1.0, -1.0]), np.diag([-1.0, 1.0])


def interval_output(dab, x, interval: int) -> np.ndarray:
    """Output pair of one subinterval, y = C_interval x (interval is 1-based)."""
    if interval not in (1, 2, 3, 4):
        raise IndexError(f"interval must be 1..4, got {interval!r}")
    x = np.asarray(x, dtype=float)
    if x.shape != (2,):
        raise DimensionError(f"state must have shape (2,), got {x.shape}")
    return dab.c_intervals[interval - 1] @ x


def physical_output(dab, x) -> np.ndarray:
    """Physical output pair [I_rec, V_out] = c_phys x."""
    x = np.asarray(x, dtype=float)
    if x.shape != (2,):
        raise DimensionError(f"state must have shape (2,), got {x.shape}")
    return dab.c_phys @ x


class TestParameters:
    @pytest.mark.parametrize("field,value", [
        ("L", 0.0), ("L", -1e-6), ("Co", 0.0), ("Ro", -5.0), ("fs", 0.0),
        ("Vr", 0.0), ("n_turns", -1.0), ("Rt", -0.01), ("Rc", -0.01),
        ("D_phase", 0.0), ("D_phase", 1.0), ("D_phase", 1.5),
        ("Vin", math.nan), ("Vin", 0.0), ("Vin", -0.0), ("fs", math.inf),
    ])
    def test_out_of_range_values_rejected(self, field, value):
        kwargs = dict(REFERENCE_KWARGS)
        kwargs[field] = value
        with pytest.raises(ParameterError):
            DabParams(**kwargs)

    def test_period_properties(self, ref_params):
        assert ref_params.period == pytest.approx(1e-5, rel=1e-15)
        assert ref_params.t_half == pytest.approx(5e-6, rel=1e-15)

    def test_negative_input_voltage_is_allowed(self):
        kwargs = dict(REFERENCE_KWARGS)
        kwargs["Vin"] = -48.0
        DabParams(**kwargs)


class TestScheduleStructure:
    def test_durations_follow_phase_split(self, ref_params, ref_dab):
        d = ref_params.D_phase
        th = ref_params.t_half
        durations = [seg.duration for seg in ref_dab.schedule.segments]
        np.testing.assert_allclose(durations, [d * th, (1 - d) * th, d * th, (1 - d) * th],
                                   rtol=1e-15)
        assert math.isclose(math.fsum(durations), ref_params.period, rel_tol=1e-15)

    def test_state_matrices_pair_by_conjugation(self, ref_dab):
        segs = ref_dab.schedule.segments
        np.testing.assert_array_equal(segs[3].a, segs[0].a)
        np.testing.assert_array_equal(segs[2].a, segs[1].a)
        np.testing.assert_allclose(segs[1].a, S @ segs[0].a @ S,
                                   rtol=1e-15)

    def test_input_matrices_flip_sign_at_half_period(self, ref_dab):
        segs = ref_dab.schedule.segments
        np.testing.assert_array_equal(segs[1].b, segs[0].b)
        np.testing.assert_array_equal(segs[2].b, -segs[0].b)
        np.testing.assert_array_equal(segs[3].b, -segs[0].b)

    def test_interval_output_matrices_pair_up(self, ref_dab):
        c1, c2, c3, c4 = ref_dab.c_intervals
        np.testing.assert_array_equal(c1, c4)
        np.testing.assert_array_equal(c2, c3)
        # The rectifier sign lives in the current column alone.
        np.testing.assert_array_equal(c2, c1 @ DR)
        np.testing.assert_array_equal(c2, ref_dab.c_phys)

    def test_zero_esr_collapses_physical_output(self):
        kwargs = dict(REFERENCE_KWARGS)
        kwargs["Rc"] = 0.0
        dab = build_dab(DabParams(**kwargs))
        np.testing.assert_allclose(dab.c_phys, [[1.0, 0.0], [0.0, 1.0]], rtol=1e-15)

    def test_skew_that_empties_interval_four_raises(self, ref_params):
        with pytest.raises(ParameterError):
            build_dab(ref_params, t3_skew=ref_params.t_half)


class TestSteadyState:
    def test_reference_fixed_point_regression(self, ref_dab):
        x = solve_periodic_fixed_point(ref_dab.schedule)
        np.testing.assert_allclose(x, [-14.40456899, 104.51193189], rtol=1e-6)

    def test_output_voltage_matches_lossless_power_balance(self, ref_params, ref_dab):
        # For small losses the classic phase-shift power transfer predicts
        # Vo ~ Vin*Ro*D*(1-D) / (2*n*fs*L); with 0.05 ohm in a 10 ohm path the
        # converter should sit within 10% of it.
        p = ref_params
        vo_expected = p.Vin * p.Ro * p.D_phase * (1 - p.D_phase) / (2 * p.n_turns * p.fs * p.L)
        x = solve_periodic_fixed_point(ref_dab.schedule)
        vo = physical_output(ref_dab, x)[1]
        assert abs(vo - vo_expected) / vo_expected < 0.10

    def test_half_cycle_solve_matches_full_period(self, ref_dab):
        full = solve_periodic_fixed_point(ref_dab.schedule)
        half = solve_half_cycle(ref_dab)
        assert relative_residual(half, full) < 1e-10

    def test_half_cycle_solve_is_the_p_plus_surface_fixed_point(self):
        # One rectified half-cycle map and one fixed-point solve serve both.
        rng = np.random.default_rng(8_2026)
        for _ in range(50):
            dab = build_dab(random_params(rng))
            assert np.array_equal(solve_half_cycle(dab), half_cycle_model(dab, P_PLUS).x_star)

    def test_half_cycle_solve_keeps_the_flip_current_system(self):
        # DR flips signs only, so the rectified system is the system
        # (DR - phi2 phi1) x = phi2 gamma1 + gamma2 with one row negated, to the
        # bit, and the exact solve of the half-cycle map's floats solves both. The closed form
        # is within its forward-error bound of it.
        rng = np.random.default_rng(9_2026)
        for _ in range(50):
            dab = build_dab(random_params(rng))
            m = half_cycle_map(dab, 1)
            expected = reference.fixed_point(m)
            allowed = (2.0 ** -53 * CLOSED_FORM_SOLVE * reference.cond(m[:4], 1.0)
                       * reference.norm(expected))
            assert reference.distance(solve_half_cycle(dab).tolist(), expected) <= allowed

    @pytest.mark.parametrize("first", [1, 2, 3, 4])
    def test_half_cycle_map_wraps_from_interval_four_to_one(self, ref_dab, first):
        # DR phi_b phi_a and DR (phi_b gamma_a + gamma_b) in Python floats, each
        # entry rounded as written (no fused multiply-add), DR negating row 0.
        maps = ref_dab.schedule.maps
        map_a, map_b = maps[first - 1], maps[first % 4]
        (a00, a01), (a10, a11) = map_a.phi.tolist()
        (b00, b01), (b10, b11) = map_b.phi.tolist()
        (ga0, ga1), (gb0, gb1) = map_a.gamma.tolist(), map_b.gamma.tolist()
        assert half_cycle_map(ref_dab, first) == (
            -(b00 * a00 + b01 * a10), -(b00 * a01 + b01 * a11),
            b10 * a00 + b11 * a10, b10 * a01 + b11 * a11,
            -((b00 * ga0 + b01 * ga1) + gb0), (b10 * ga0 + b11 * ga1) + gb1)

    def test_half_cycle_map_is_the_exact_product_to_roundoff(self):
        # Against the exact product of the same float maps, each entry, a sum of n = 2 (phi)
        # or 3 (g) terms, errs by at most n u times the sum of their magnitudes, the entry of
        # the product of the maps' magnitudes (Higham, "Accuracy and Stability of Numerical
        # Algorithms", 2nd ed., sec. 3.1). On these random designs that is within 8 ulps of
        # each exact entry.
        rng = np.random.default_rng(10_2026)
        for _ in range(50):
            dab = build_dab(random_params(rng))
            magnitudes = [tuple(map(abs, m)) for m in dab.schedule._entries]
            for first in (1, 2, 3, 4):
                exact = reference.half_cycle_map(dab.schedule._entries, first)
                sizes = reference.fold([magnitudes[first - 1], magnitudes[first % 4]])
                for got, e, size, n in zip(half_cycle_map(dab, first), exact, sizes,
                                           (2, 2, 2, 2, 3, 3)):
                    error = reference.distance([got], [e])
                    assert error <= n * 2.0 ** -53 * reference.norm([size])
                    assert error <= 8 * math.ulp(reference.norm([e]))

    def test_half_wave_symmetry_of_boundary_states(self, ref_dab):
        x0 = solve_periodic_fixed_point(ref_dab.schedule)
        x1, x2, x3, x4 = propagate(ref_dab.schedule, x0)
        assert relative_residual(x2, DR @ x0) < 1e-10
        assert relative_residual(x3, DR @ x1) < 1e-10
        assert relative_residual(x4, x0) < 1e-10

    def test_random_designs_close_their_period(self):
        rng = np.random.default_rng(2026)
        for _ in range(20):
            dab = build_dab(random_params(rng))
            x0 = solve_periodic_fixed_point(dab.schedule)
            x4 = propagate(dab.schedule, x0)[-1]
            assert relative_residual(x4, x0) < 1e-10


class TestSymmetryChecks:
    def test_reference_identities_hold_to_machine_precision(self, ref_dab):
        checks = verify_symmetry(ref_dab)
        assert len(checks) == 6
        assert {c.name for c in checks} == {
            "symmetry/phi3-flip-voltage", "symmetry/phi4-flip-voltage",
            "symmetry/gamma3-negated", "symmetry/gamma4-negated",
            "symmetry/phi3-rectify", "symmetry/phi4-rectify",
        }
        # Conjugation by a +-1 diagonal commutes through the matrix exponential
        # term by term, so the residuals are exact zeros, not merely small.
        assert max(c.residual for c in checks) <= 1e-15
        assert all(c.passed for c in checks)

    def test_timing_skew_breaks_the_identities(self, ref_params):
        skewed = build_dab(ref_params, t3_skew=0.02 * ref_params.t_half)
        checks = verify_symmetry(skewed)
        assert not all(c.passed for c in checks)
        assert max(c.residual for c in checks) > 1e-6

    def test_residual_grows_with_skew(self, ref_params):
        worst = []
        for frac in (1e-4, 1e-3, 1e-2):
            skewed = build_dab(ref_params, t3_skew=frac * ref_params.t_half)
            worst.append(max(c.residual for c in verify_symmetry(skewed)))
        assert worst[0] < worst[1] < worst[2]

    def test_random_designs_keep_exact_symmetry(self):
        rng = np.random.default_rng(99)
        for _ in range(10):
            checks = verify_symmetry(build_dab(random_params(rng)))
            assert max(c.residual for c in checks) <= 1e-15


class TestOutputs:
    def test_interval_outputs_flip_with_rectifier_sign(self, ref_dab):
        x = np.array([3.0, 7.0])
        y1 = interval_output(ref_dab, x, 1)
        y2 = interval_output(ref_dab, x, 2)
        # First row changes sign with the rectifier; both intervals see the
        # same load-divider voltage path for the capacitor state.
        assert y1[0] == pytest.approx(-y2[0] + 2 * ref_dab.c_phys[0, 1] * x[1], abs=1e-15)
        np.testing.assert_array_equal(interval_output(ref_dab, x, 4), y1)
        np.testing.assert_array_equal(interval_output(ref_dab, x, 3), y2)

    def test_physical_output_matches_second_interval(self, ref_dab):
        x = np.array([-2.0, 5.0])
        np.testing.assert_array_equal(physical_output(ref_dab, x),
                                      interval_output(ref_dab, x, 2))

    def test_interval_index_bounds(self, ref_dab):
        with pytest.raises(IndexError):
            interval_output(ref_dab, np.zeros(2), 0)
        with pytest.raises(IndexError):
            interval_output(ref_dab, np.zeros(2), 5)

    def test_state_shape_checked(self, ref_dab):
        with pytest.raises(DimensionError):
            physical_output(ref_dab, np.zeros(3))
        with pytest.raises(DimensionError):
            interval_output(ref_dab, np.zeros(1), 1)
