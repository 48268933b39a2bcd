"""Unit tests for the piecewise-LTI discretization and periodic solve layer."""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
import pytest

from dabss import DabParams, build_dab, relative_residual, solve_periodic_fixed_point
from dabss import pwlti
from dabss.dab import half_cycle_map
from dabss.errors import DimensionError, MarginalSystemError, NumericInputError, ParameterError
from dabss.pwlti import (COND_LIMIT, IdentityCheck, Schedule, Segment, SegmentMap,
                         closed_form_state, compose, cond, expm, fixed_point, monodromy,
                         propagate)
from tests.conftest import (CLOSED_FORM_SOLVE, LU_SOLVE, REFERENCE_KWARGS,
                            augmented_step_matrices, max_abs_relative, random_params,
                            reverse_product)
from tests.test_smallsignal import property_range_params


def random_stable_segment(rng, n, m=1, max_duration=1.0):
    """A segment whose state matrix has eigenvalues strictly in the left half plane."""
    a = rng.standard_normal((n, n))
    shift = max(np.real(np.linalg.eigvals(a)).max(), 0.0)
    a = a - (shift + rng.uniform(0.5, 2.0)) * np.eye(n)
    b = rng.standard_normal((n, m))
    return Segment(a=a, b=b, duration=float(rng.uniform(0.05, max_duration)))


def random_schedule(rng) -> Schedule:
    """1 to 6 stable segments of dimension 1 to 4, about one zero duration in ten."""
    n = int(rng.integers(1, 5))
    m = int(rng.integers(1, 3))
    segments = []
    for _ in range(int(rng.integers(1, 7))):
        seg = random_stable_segment(rng, n, m)
        if rng.uniform() < 0.1:
            seg = Segment(a=seg.a, b=seg.b, duration=0.0)
        segments.append(seg)
    return Schedule(segments=tuple(segments), u=rng.standard_normal(m))


def sum_of_reverse_products(maps) -> np.ndarray:
    """The paper's period forcing gamma_n + sum_{i<n} (phi_n ... phi_{i+1}) gamma_i."""
    phis = [m.phi for m in maps]
    out = maps[-1].gamma
    for i in range(1, len(maps)):
        out = out + reverse_product(phis, i + 1, len(maps)) @ maps[i - 1].gamma
    return out


def forcing_via_inverse(seg: Segment, u: np.ndarray) -> np.ndarray:
    """Forced-response vector a^{-1} (phi - I) b u, valid for invertible `a`.

    An independent cross-check of the augmented-exponential route; only
    trustworthy while cond(a) stays moderate (callers gate on ~1e8).
    """
    phi = expm(seg.a * seg.duration)
    return np.linalg.solve(seg.a, (phi - np.eye(seg.dim)) @ (seg.b @ np.asarray(u, dtype=float)))


class TestExpm:
    def test_scalar_decay(self):
        out = expm(np.array([[-1.0]]) * 2.0)
        assert out.shape == (1, 1)
        assert math.isclose(out[0, 0], math.exp(-2.0), rel_tol=1e-14)

    def test_zero_horizon_is_identity(self):
        a = np.array([[0.0, 1.0], [-4.0, -0.5]])
        np.testing.assert_array_equal(expm(a * 0.0), np.eye(2))

    def test_semigroup_property(self):
        rng = np.random.default_rng(7)
        a = rng.standard_normal((4, 4))
        whole = expm(a * 0.9)
        split = expm(a * 0.6) @ expm(a * 0.3)
        assert relative_residual(split, whole) < 1e-13

    def test_rejects_non_square(self):
        with pytest.raises(DimensionError):
            expm(np.zeros((2, 3)))

    def test_rejects_non_finite_matrix(self):
        with pytest.raises(NumericInputError):
            expm(np.array([[np.nan]]))

    def test_rejects_a_non_finite_result(self):
        with pytest.raises(NumericInputError, match="matrix exponential is not finite"):
            expm(np.array([[800.0]]))

    def test_rejects_fifty_three_squarings(self):
        # theta13 * 2^52 takes 52 squarings and theta13 * 2^53 takes 53; exp(-x)
        # underflows to a finite 0 at both, so only the squaring count tells them apart.
        np.testing.assert_array_equal(expm(np.array([[-pwlti._THETA13 * 2.0**52]])), 0.0)
        with pytest.raises(NumericInputError, match="reaches 4.839e[+]16, beyond double"):
            expm(np.array([[-pwlti._THETA13 * 2.0**53]]))

    def test_no_design_in_the_property_ranges_nears_the_squaring_cutoff(self):
        # Bounds of the column sums of [[a, b u], [0, 0]] T over the ranges of
        # tests/test_cli_properties.py, with T at most the half period 1 / (2 fs):
        # n >= 0.5, L >= 1e-7, Co >= 1e-6, Rt, Rc <= 10^-0.5, Ro >= 1, Vin <= 400, fs >= 1e4.
        n, L, Co, r, Ro, Vin, T = 0.5, 1e-7, 1e-6, 10.0**-0.5, 1.0, 400.0, 1.0 / (2.0 * 1e4)
        bound = T * max((r + r / n**2) / L + 1.0 / (n * Co),  # |a00| + |a10|
                        1.0 / (n * L) + 1.0 / (Co * Ro),      # |a01| + |a11|
                        Vin / L)                              # |b u|
        assert math.ceil(math.log2(bound / pwlti._THETA13)) == 16  # far below 53
        rng = np.random.default_rng(7)
        norms = []
        for _ in range(2000):
            try:
                dab = build_dab(property_range_params(rng))
            except ParameterError:
                continue
            norms.append(np.abs(augmented_step_matrices(dab)).sum(axis=-2).max())
        assert len(norms) > 1000 and max(norms) <= bound


class TestPadeKernel:
    """The numpy Pade kernel against scipy.linalg.expm, a reference for the tests only."""

    def test_matches_scipy_on_random_designs(self):
        linalg = pytest.importorskip("scipy.linalg")
        rng = np.random.default_rng(41)
        # Period steps and the oracle's 32-substep waveform steps of 500 designs.
        aug = np.concatenate([augmented_step_matrices(build_dab(random_params(rng)), (1, 32))
                              for _ in range(500)])
        assert max_abs_relative(expm(aug), linalg.expm(aug)).max() <= 1e-14

    def test_stiff_blocked_design_keeps_its_conserved_state(self):
        # The marginal design of the CLI suite: a blocking series path, an
        # unloaded output, about 26 squarings per interval.
        linalg = pytest.importorskip("scipy.linalg")
        dab = build_dab(DabParams(**dict(REFERENCE_KWARGS, Rt=1e9, Rc=0.0, Ro=1e30)))
        aug = augmented_step_matrices(dab)
        ours, reference = expm(aug), linalg.expm(aug)
        for m in ours:
            np.testing.assert_array_equal(m[2], [0.0, 0.0, 1.0])
        assert max_abs_relative(ours[:, :2, :2], reference[:, :2, :2]).max() <= 1e-14
        assert max_abs_relative(ours[:, :2, 2:], reference[:, :2, 2:]).max() <= 1e-14

    def test_mixed_norm_stack_matches_single_calls_bit_for_bit(self):
        # Skew-symmetric matrices keep exp bounded at any norm; 1e8 takes 25
        # squarings and 1e-6 none, so the squaring mask differs per matrix.
        rng = np.random.default_rng(43)
        a = rng.standard_normal((6, 3, 3))
        a = a - np.swapaxes(a, 1, 2)
        target = np.array([1e-6, 1e8, 1e-6, 3.0, 1e8, 40.0])
        a *= (target / np.abs(a).sum(axis=1).max(axis=1))[:, None, None]
        stacked = expm(a)
        for k in range(len(a)):
            np.testing.assert_array_equal(stacked[k], expm(a[k]))


class TestSegmentValidation:
    def test_rejects_non_square_state_matrix(self):
        with pytest.raises(DimensionError):
            Segment(a=np.zeros((2, 3)), b=np.zeros((2, 1)), duration=1.0)

    def test_rejects_mismatched_input_matrix(self):
        with pytest.raises(DimensionError):
            Segment(a=np.zeros((2, 2)), b=np.zeros((3, 1)), duration=1.0)

    def test_rejects_negative_duration(self):
        with pytest.raises(NumericInputError):
            Segment(a=np.zeros((1, 1)), b=np.zeros((1, 1)), duration=-1e-9)

    def test_rejects_nan_entries(self):
        with pytest.raises(NumericInputError):
            Segment(a=np.array([[np.nan]]), b=np.zeros((1, 1)), duration=1.0)

    def test_matrices_are_read_only(self):
        seg = Segment(a=np.zeros((1, 1)), b=np.zeros((1, 1)), duration=1.0)
        with pytest.raises(ValueError):
            seg.a[0, 0] = 1.0


class TestScheduleValidation:
    def _segment(self):
        return Segment(a=-np.eye(2), b=np.ones((2, 1)), duration=0.5)

    def test_rejects_empty_schedule(self):
        with pytest.raises(DimensionError):
            Schedule(segments=(), u=np.array([1.0]))

    def test_rejects_2d_input_vector(self):
        with pytest.raises(DimensionError):
            Schedule(segments=(self._segment(),), u=np.array([[1.0]]))

    def test_rejects_input_length_mismatch(self):
        with pytest.raises(DimensionError):
            Schedule(segments=(self._segment(),), u=np.array([1.0, 2.0]))

    def test_rejects_dimension_disagreement_between_segments(self):
        other = Segment(a=-np.eye(3), b=np.ones((3, 1)), duration=0.5)
        with pytest.raises(DimensionError):
            Schedule(segments=(self._segment(), other), u=np.array([1.0]))


class TestSegmentMap:
    def test_diagonal_forcing_closed_form(self):
        # a = diag(-1, -2), b = e1, u = 1, T = 1:
        # gamma = integral of exp(a s) b u ds = [1 - e^-1, 0]
        seg = Segment(a=np.diag([-1.0, -2.0]), b=np.array([[1.0], [0.0]]), duration=1.0)
        m = Schedule((seg,), np.array([1.0])).maps[0]
        np.testing.assert_allclose(m.phi, np.diag([math.exp(-1.0), math.exp(-2.0)]),
                                   rtol=1e-14)
        np.testing.assert_allclose(m.gamma, [1.0 - math.exp(-1.0), 0.0],
                                   rtol=1e-14, atol=1e-16)

    def test_zero_duration_gives_identity_and_no_forcing(self):
        seg = Segment(a=np.array([[3.0]]), b=np.array([[5.0]]), duration=0.0)
        m = Schedule((seg,), np.array([2.0])).maps[0]
        np.testing.assert_array_equal(m.phi, np.eye(1))
        np.testing.assert_array_equal(m.gamma, np.zeros(1))

    def test_singular_state_matrix_integrates_exactly(self):
        # a = 0 is singular; the forced response must still come out as b u T.
        seg = Segment(a=np.zeros((2, 2)), b=np.array([[1.0], [2.0]]), duration=0.25)
        m = Schedule((seg,), np.array([4.0])).maps[0]
        np.testing.assert_allclose(m.phi, np.eye(2), atol=1e-15)
        np.testing.assert_allclose(m.gamma, [1.0, 2.0], rtol=1e-14)

    def test_agrees_with_inverse_route_when_invertible(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            seg = random_stable_segment(rng, n=int(rng.integers(1, 5)))
            if np.linalg.cond(seg.a) > 1e8:
                continue
            u = rng.standard_normal(1)
            m = Schedule((seg,), u).maps[0]
            alt = forcing_via_inverse(seg, u)
            assert relative_residual(m.gamma, alt) < 1e-10

    def test_rejects_input_shape_mismatch(self):
        seg = Segment(a=np.zeros((2, 2)), b=np.zeros((2, 1)), duration=1.0)
        with pytest.raises(DimensionError):
            Schedule((seg,), np.array([1.0, 2.0])).maps[0]


class TestCompose:
    def test_hand_example_orders_right_to_left(self):
        m1 = np.array([[1.0, 1.0], [0.0, 1.0]])
        m2 = np.array([[2.0, 0.0], [0.0, 1.0]])
        m3 = np.array([[0.0, 1.0], [1.0, 0.0]])
        g1, g2, g3 = np.array([1.0, 2.0]), np.array([-3.0, 5.0]), np.array([7.0, -11.0])
        out = compose([SegmentMap(m1, g1), SegmentMap(m2, g2), SegmentMap(m3, g3)])
        np.testing.assert_array_equal(out.phi, m3 @ m2 @ m1)
        np.testing.assert_array_equal(out.gamma, m3 @ m2 @ g1 + m3 @ g2 + g3)

    def test_one_map_chain_returns_that_map(self):
        m = SegmentMap(phi=np.array([[0.5, 0.25], [-1.0, 2.0]]), gamma=np.array([3.0, -4.0]))
        out = compose([m])
        np.testing.assert_array_equal(out.phi, m.phi)
        np.testing.assert_array_equal(out.gamma, m.gamma)

    def test_one_map_chain_is_the_callers_map_with_its_flags(self):
        m = SegmentMap(phi=np.array([[0.5, 0.25], [-1.0, 2.0]]), gamma=np.array([3.0, -4.0]))
        out = compose([m])
        assert out.phi is m.phi and out.gamma is m.gamma
        assert out.phi.flags.writeable and out.gamma.flags.writeable

    def test_longer_chains_freeze_only_their_own_products(self):
        maps = [SegmentMap(phi=np.eye(2) * k, gamma=np.full(2, k)) for k in (1.0, 2.0, 3.0)]
        out = compose(maps)
        assert isinstance(out, SegmentMap)
        assert not out.phi.flags.writeable and not out.gamma.flags.writeable
        assert all(m.phi.flags.writeable and m.gamma.flags.writeable for m in maps)

    def test_zero_phi_chain_forcing_is_exactly_the_last_gamma(self):
        gammas = [np.array([1.0, -2.0]), np.array([3.0, 4.0]), np.array([-5.0, 6.0])]
        out = compose([SegmentMap(phi=np.zeros((2, 2)), gamma=g) for g in gammas])
        np.testing.assert_array_equal(out.phi, np.zeros((2, 2)))
        np.testing.assert_array_equal(out.gamma, gammas[-1])

    def test_empty_chain_raises(self):
        with pytest.raises(IndexError):
            compose([])

    def test_period_map_is_the_fold_and_pi_the_reverse_product(self):
        # Pi keeps the paper's reverse product to the bit; the forcing, folded by
        # Horner's rule, is rounded differently from the paper's sum.
        rng = np.random.default_rng(7_2026)
        for _ in range(200):
            sched = random_schedule(rng)
            fresh = compose(sched.maps)
            assert np.array_equal(sched.period_map[0], fresh.phi)
            assert np.array_equal(sched.period_map[1], fresh.gamma)
            phis = [m.phi for m in sched.maps]
            assert np.array_equal(fresh.phi, reverse_product(phis, 1, len(phis)))
            assert relative_residual(fresh.gamma, sum_of_reverse_products(sched.maps)) < 1e-13


class TestReverseProduct:
    """The one-based reference product the acceptance and compose checks are built from."""

    @pytest.mark.parametrize("first,last", [(0, 1), (2, 1), (1, 3), (3, 3)])
    def test_invalid_ranges_raise(self, first, last):
        with pytest.raises(IndexError):
            reverse_product([np.eye(2), np.eye(2)], first, last)


class TestPropagationAndClosedForm:
    def test_propagate_returns_every_boundary_state(self):
        rng = np.random.default_rng(3)
        segs = tuple(random_stable_segment(rng, 3) for _ in range(4))
        sched = Schedule(segments=segs, u=rng.standard_normal(1))
        x0 = rng.standard_normal(3)
        states = propagate(sched, x0)
        assert len(states) == 4
        x = x0
        for m, got in zip(sched.maps, states):
            x = m.phi @ x + m.gamma
            np.testing.assert_array_equal(got, x)

    def test_propagate_rejects_bad_initial_shape(self):
        seg = Segment(a=-np.eye(2), b=np.ones((2, 1)), duration=1.0)
        sched = Schedule(segments=(seg,), u=np.array([1.0]))
        with pytest.raises(DimensionError):
            propagate(sched, np.zeros(3))

    def test_closed_form_matches_propagation_end_state(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            n = int(rng.integers(1, 5))
            segs = tuple(random_stable_segment(rng, n)
                         for _ in range(int(rng.integers(1, 7))))
            sched = Schedule(segments=segs, u=rng.standard_normal(1))
            x0 = rng.standard_normal(n)
            assert relative_residual(closed_form_state(sched, x0),
                                     propagate(sched, x0)[-1]) < 1e-12

    def test_closed_form_rejects_bad_initial_shape(self):
        seg = Segment(a=-np.eye(2), b=np.ones((2, 1)), duration=1.0)
        sched = Schedule(segments=(seg,), u=np.array([1.0]))
        with pytest.raises(DimensionError):
            closed_form_state(sched, np.zeros(1))


class TestPeriodicFixedPoint:
    def test_scalar_fixed_point_by_hand(self):
        # phi = exp(-ln 2) = 1/2 and gamma = a^-1 (phi - 1) b u = 1, so the
        # periodic fixed point is gamma / (1 - phi) = 2.
        seg = Segment(a=np.array([[-math.log(2.0)]]),
                      b=np.array([[2.0 * math.log(2.0)]]), duration=1.0)
        sched = Schedule(segments=(seg,), u=np.array([1.0]))
        x = solve_periodic_fixed_point(sched)
        np.testing.assert_allclose(x, [2.0], rtol=1e-13)

    def test_zero_phi_maps_fixed_point_is_last_forcing(self):
        # With every phi = 0 the period map forgets its start, so the fixed
        # point equals the final segment's forcing vector alone.
        gammas = [np.array([1.0, -2.0]), np.array([3.0, 4.0]), np.array([-5.0, 6.0])]
        period = compose([SegmentMap(phi=np.zeros((2, 2)), gamma=g) for g in gammas])
        np.testing.assert_allclose(fixed_point(period.phi, period.gamma, "periodic solve"),
                                   gammas[-1], rtol=1e-15)

    def test_fixed_point_is_invariant_under_propagation(self):
        rng = np.random.default_rng(17)
        segs = tuple(random_stable_segment(rng, 3) for _ in range(4))
        sched = Schedule(segments=segs, u=rng.standard_normal(1))
        x_star = solve_periodic_fixed_point(sched)
        assert relative_residual(closed_form_state(sched, x_star), x_star) < 1e-12

    def test_marginal_system_raises_with_eigenvalues(self):
        # a = 0 makes the period map the identity: (I - Pi) is singular.
        seg = Segment(a=np.zeros((2, 2)), b=np.zeros((2, 1)), duration=1.0)
        sched = Schedule(segments=(seg,), u=np.array([0.0]))
        with pytest.raises(MarginalSystemError) as err:
            solve_periodic_fixed_point(sched)
        np.testing.assert_allclose(sorted(np.real(err.value.eigenvalues)), [1.0, 1.0],
                                   rtol=1e-12)

    def test_monodromy_of_single_segment_is_its_transition_matrix(self):
        rng = np.random.default_rng(23)
        seg = random_stable_segment(rng, 3)
        sched = Schedule(segments=(seg,), u=np.array([0.5]))
        np.testing.assert_allclose(monodromy(sched), expm(seg.a * seg.duration),
                                   rtol=1e-14)


class TestResidualHelpers:
    def test_relative_residual_hand_value(self):
        # ||[3,0]-[1,0]|| / (1 + ||[1,0]||) = 2 / 2 = 1
        assert relative_residual(np.array([3.0, 0.0]), np.array([1.0, 0.0])) == 1.0

    def test_relative_residual_near_zero_reference(self):
        assert relative_residual(np.array([1e-8]), np.array([0.0])) == pytest.approx(1e-8)

    def test_identity_check_passed_threshold(self):
        assert IdentityCheck("x", residual=1e-13, tolerance=1e-12).passed
        assert not IdentityCheck("x", residual=2e-12, tolerance=1e-12).passed


class TestBatchedSegmentMaps:
    def test_batched_maps_equal_per_segment_exponentials(self):
        # Shapes as in the acceptance suite's random schedules: 1 to 6
        # segments, about one zero duration in ten, input widths 1 and 2.
        rng = np.random.default_rng(31)
        for trial in range(200):
            m = 1 + trial % 2
            segs = []
            for _ in range(int(rng.integers(1, 7))):
                seg = random_stable_segment(rng, 2, m=m)
                if rng.uniform() < 0.1:
                    seg = Segment(a=seg.a, b=seg.b, duration=0.0)
                segs.append(seg)
            sched = Schedule(segments=tuple(segs), u=rng.standard_normal(m))
            assert len(sched.maps) == len(segs)
            for seg, got in zip(segs, sched.maps):
                aug = np.zeros((3, 3))
                aug[:2, :2] = seg.a
                aug[:2, 2] = seg.b @ sched.u
                single = expm(aug * seg.duration)
                np.testing.assert_array_equal(got.phi, single[:2, :2])
                np.testing.assert_array_equal(got.gamma, single[:2, 2])
                one = Schedule((seg,), sched.u).maps[0]
                np.testing.assert_array_equal(got.phi, one.phi)
                np.testing.assert_array_equal(got.gamma, one.gamma)

    def test_maps_are_built_once_per_schedule(self):
        seg = Segment(a=-np.eye(2), b=np.ones((2, 1)), duration=0.5)
        sched = Schedule(segments=(seg, seg), u=np.array([1.0]))
        assert sched.maps is sched.maps

    def test_maps_keep_the_expm_finiteness_check(self):
        # Finite b and u whose product overflows: the augmented matrix is not finite.
        seg = Segment(a=-np.eye(2), b=np.full((2, 1), 1e300), duration=0.5)
        sched = Schedule(segments=(seg,), u=np.array([1e300]))
        with np.errstate(over="ignore"), pytest.raises(NumericInputError):
            sched.maps

    def test_expm_of_a_stack_matches_each_matrix(self):
        rng = np.random.default_rng(37)
        a = rng.standard_normal((5, 3, 3))
        stacked = expm(a * 0.7)
        for k in range(5):
            np.testing.assert_array_equal(stacked[k], expm(a[k] * 0.7))
        a[2, 1, 1] = math.nan
        with pytest.raises(NumericInputError):
            expm(a * 0.7)
        with pytest.raises(DimensionError):
            expm(np.zeros((5, 3, 2)))


def _folded_period_map(maps) -> tuple[np.ndarray, np.ndarray]:
    """Pi and the forcing folded first to last, in the order the period map pins."""
    pi, forcing = maps[0].phi, maps[0].gamma
    for m in maps[1:]:
        pi = m.phi @ pi
        forcing = m.phi @ forcing + m.gamma
    return pi, forcing


def _earlier_fixed_point(pi, forcing) -> np.ndarray:
    """The period solve as it stood before the period map was cached, formulas copied."""
    lhs = np.eye(pi.shape[0]) - pi
    c = np.linalg.cond(lhs)
    if not np.isfinite(c) or c > COND_LIMIT:
        raise MarginalSystemError("marginal")
    return np.linalg.solve(lhs, forcing)


class TestPeriodMapCache:
    """Pi and the forcing are composed once per schedule, read-only, with the fold's values."""

    def test_values_match_the_uncached_formulas_bit_for_bit(self):
        # Bit for bit but for the 2x2 fixed point, which the closed form solves: it is within
        # the two solves' first-order forward-error bounds of LAPACK's.
        rng = np.random.default_rng(7_2026)
        for _ in range(200):
            sched = random_schedule(rng)
            x0 = rng.standard_normal(sched.dim)
            pi, forcing = _folded_period_map(sched.maps)
            assert np.array_equal(monodromy(sched), pi)
            assert np.array_equal(closed_form_state(sched, x0), pi @ x0 + forcing)
            try:
                expected = _earlier_fixed_point(pi, forcing)
            except MarginalSystemError:
                with pytest.raises(MarginalSystemError):
                    solve_periodic_fixed_point(sched)
                continue
            for got in (solve_periodic_fixed_point(sched),
                        fixed_point(pi, forcing, "periodic solve")):
                if sched.dim != 2:
                    assert np.array_equal(got, expected)
                    continue
                allowed = (2.0 ** -53 * (LU_SOLVE + CLOSED_FORM_SOLVE)
                           * np.linalg.cond(np.eye(2) - pi) * np.linalg.norm(expected))
                assert np.linalg.norm(got - expected) <= allowed, (got, expected)

    def test_period_map_is_built_once_and_read_only(self):
        sched = random_schedule(np.random.default_rng(8))
        assert monodromy(sched) is monodromy(sched) is sched.period_map[0]
        with pytest.raises(ValueError):
            monodromy(sched)[0, 0] = 1.0
        with pytest.raises(ValueError):
            sched.period_map[1][0] = 1.0

    def test_period_map_is_the_composed_segment_map(self):
        sched = random_schedule(np.random.default_rng(8))
        pi, forcing = sched.period_map
        assert isinstance(sched.period_map, SegmentMap)
        assert pi is sched.period_map.phi is monodromy(sched)
        assert forcing is sched.period_map.gamma
        for m in sched.maps:
            assert not m.phi.flags.writeable and not m.gamma.flags.writeable

    def test_cond_is_numpys_formula(self):
        rng = np.random.default_rng(9)
        for n in (1, 2, 3, 4):
            for _ in range(25):
                a = rng.standard_normal((n, n))
                assert cond(a) == np.linalg.cond(a)
        assert cond(np.zeros((2, 2))) == math.inf == np.linalg.cond(np.zeros((2, 2)))
        assert cond(np.array([[1.0, 0.0], [0.0, 0.0]])) == math.inf


def _exact_solve(phi: np.ndarray, gamma: np.ndarray):
    """x of (I - phi) x = gamma in rational arithmetic on the floats given, and cond(I - phi)
    = s_max^2 / |det| from the exact Frobenius norm and determinant."""
    (p00, p01), (p10, p11) = (map(Fraction, row) for row in phi.tolist())
    g0, g1 = map(Fraction, gamma.tolist())
    a, b, c, d = 1 - p00, -p01, -p10, 1 - p11
    det = a * d - b * c
    x = ((d * g0 - b * g1) / det, (a * g1 - c * g0) / det)
    frob = a * a + b * b + c * c + d * d
    s_max_sq = (float(frob) + math.sqrt(float(frob * frob - 4 * det * det))) / 2.0
    return x, s_max_sq / abs(float(det))


class TestClosedFormFixedPoint:
    """A 2x2 fixed point is the closed form at z = 1, and LAPACK decides near the limit."""

    @staticmethod
    def lapack_calls(monkeypatch) -> list:
        """The matrices that `pwlti.cond`, the LAPACK hand-off, is called on."""
        calls = []
        real = pwlti.cond
        monkeypatch.setattr(pwlti, "cond", lambda m: calls.append(m) or real(m))
        return calls

    def test_forward_error_is_within_the_derived_bound(self, monkeypatch):
        # Every solve of the package on 400 property-range designs (the period, and the
        # half cycle from each interval) against the rational solution of the same floats.
        lapack = self.lapack_calls(monkeypatch)
        rng = np.random.default_rng(19_2026)
        designs = solved = 0
        worst = 0.0
        while designs < 400:
            try:
                dab = build_dab(property_range_params(rng))
            except (ParameterError, NumericInputError):
                continue
            designs += 1
            for phi, gamma in [dab.schedule.period_map] + [
                    half_cycle_map(dab, first) for first in (1, 2, 3, 4)]:
                try:
                    got = fixed_point(phi, gamma, "solve")
                except MarginalSystemError:
                    continue
                if lapack:  # handed off: not the closed form
                    lapack.clear()
                    continue
                x, kappa = _exact_solve(phi, gamma)
                error = math.hypot(*(float(Fraction(g) - e) for g, e in zip(got.tolist(), x)))
                ratio = error / (2.0 ** -53 * kappa * math.hypot(*map(float, x)))
                worst = max(worst, ratio)
                solved += 1
        assert solved >= 1500 and worst <= CLOSED_FORM_SOLVE, (solved, worst)

    def test_the_verdict_and_message_are_lapacks_across_the_band(self, monkeypatch):
        # I - phi = Q1 diag(1, 1/kappa) Q2^T over the band, with kappa 1% on either side of
        # COND_LIMIT / 2 (the hand-off; rounding phi moves cond(I - phi) by about u kappa) and
        # 1e-6 on either side of COND_LIMIT (the verdict, LAPACK's own).
        lapack = self.lapack_calls(monkeypatch)
        rng = np.random.default_rng(20_2026)
        edges = [COND_LIMIT * f * (1.0 + s * e) for f, e in ((0.5, 1e-2), (1.0, 1e-6))
                 for s in (-1, 1)]
        handed = {}
        for kappa in np.geomspace(1e10, 1e13, 301).tolist() + edges:
            q1, q2 = (np.array([[math.cos(t), -math.sin(t)], [math.sin(t), math.cos(t)]])
                      for t in rng.uniform(0.0, 2.0 * math.pi, 2))
            phi = np.eye(2) - q1 @ np.diag([1.0, 1.0 / kappa]) @ q2.T
            gamma = rng.standard_normal(2)
            c = cond(np.eye(2) - phi)
            lapack.clear()
            if c <= COND_LIMIT:
                fixed_point(phi, gamma, "test solve")
            else:
                with pytest.raises(MarginalSystemError) as err:
                    fixed_point(phi, gamma, "test solve")
                assert str(err.value) == f"test solve is marginal: cond ~ {c:.3e} exceeds 1.0e+12"
            handed[kappa] = bool(lapack)
            if abs(kappa / (COND_LIMIT / 2) - 1.0) > 1e-3:
                assert handed[kappa] == (kappa > COND_LIMIT / 2), kappa
        assert handed[edges[0]] is False and handed[edges[1]] is True

    def test_a_solve_off_the_band_makes_no_numpy_linalg_call(self, ref_dab, monkeypatch):
        pi, forcing = ref_dab.schedule.period_map
        expected = np.linalg.solve(np.eye(2) - pi, forcing)

        def refuse(*args, **kwargs):
            raise AssertionError("numpy.linalg called")

        for name in np.linalg.__all__:
            monkeypatch.setattr(np.linalg, name, refuse)
        x = fixed_point(pi, forcing, "periodic solve")
        for first in (1, 2, 3, 4):
            fixed_point(*half_cycle_map(ref_dab, first), "half-cycle solve")
        monkeypatch.undo()
        assert relative_residual(x, expected) < 1e-13

    def test_a_singular_or_overflowing_system_goes_to_lapack(self):
        # det(I - phi) = 0 exactly, and det^2 past the float range with cond 1.
        with pytest.raises(MarginalSystemError, match="cond ~ inf"):
            fixed_point(np.eye(2), np.ones(2), "identity")
        phi = np.diag([1.0 - 1e160, 1.0 - 1e160])
        np.testing.assert_array_equal(fixed_point(phi, np.array([1e160, -2e160]), "big"),
                                      [1.0, -2.0])


class TestPlanarNorm:
    """The sum of squares where it is below 1e150, hypot's scaled form from there on."""

    def test_the_bits_below_the_threshold_are_the_sum_of_squares(self):
        rng = np.random.default_rng(21_2026)
        v = rng.standard_normal((4, 200)) * 10.0 ** rng.uniform(-100, 74, (4, 200))
        expected = np.sqrt(v[0] * v[0] + v[1] * v[1] + v[2] * v[2] + v[3] * v[3])
        np.testing.assert_array_equal(pwlti.planar_norm(tuple(v)), expected)
        assert [pwlti.planar_norm(tuple(col)) for col in v.T.tolist()] == expected.tolist()

    @pytest.mark.parametrize("scale", [1e76, 1e160, 1e300, 1e307])
    def test_large_vectors_take_hypot_without_overflow(self, scale):
        # The C library's hypot for one vector and for an array: the same bits either way.
        v = (3.0 * scale, -0.0, 2.0 * scale, 4.0 * scale)
        expected = float(np.hypot(np.hypot(v[0], v[1]), np.hypot(v[2], v[3])))
        assert pwlti.planar_norm(v) == expected == pytest.approx(math.sqrt(29.0) * scale)
        norms = pwlti.planar_norm(tuple(np.array([x, 1.0]) for x in v))
        assert norms.tolist() == [expected, 2.0]

    def test_a_nan_stays_nan(self):
        assert math.isnan(pwlti.planar_norm((math.nan, math.inf, 0.0, 0.0)))
        assert np.isnan(pwlti.planar_norm((np.array([math.nan]), 1e300, 0.0, 0.0)))
