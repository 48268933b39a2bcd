"""Unit tests for the piecewise-LTI discretization and periodic solve layer."""

from __future__ import annotations

import math
import warnings

import numpy as np
import pytest

from dabss import DabParams, build_dab, relative_residual, solve_periodic_fixed_point
from dabss import core
from dabss.dab import half_cycle_map
from dabss.errors import DimensionError, MarginalSystemError, NumericInputError, ParameterError
from dabss.core import COND_LIMIT, IdentityCheck, augmented_expm, compose, cond, fixed_point
from dabss.pwlti import Schedule, Segment, SegmentMap, closed_form_state, monodromy, propagate


def expm_map(x, w) -> SegmentMap:
    """`augmented_expm` of a 2x2 `x` and a 2-vector `w` as the map (e^x, phi1(x) w)."""
    e = augmented_expm(*np.ravel(x).tolist(), *np.ravel(w).tolist())
    return SegmentMap(np.array([e[:2], e[2:4]]), np.array(e[4:]))
from tests import reference
from tests.conftest import (CLOSED_FORM_SOLVE, REFERENCE_KWARGS, augmented_step_matrices,
                            max_abs_relative, property_range_params, random_params,
                            reverse_product)


def random_stable_segment(rng, m=1, max_duration=1.0):
    """A 2x2 segment whose state matrix has eigenvalues strictly in the left half plane."""
    a = rng.standard_normal((2, 2))
    shift = max(np.real(np.linalg.eigvals(a)).max(), 0.0)
    a = a - (shift + rng.uniform(0.5, 2.0)) * np.eye(2)
    b = rng.standard_normal((2, m))
    return Segment(a=a, b=b, duration=float(rng.uniform(0.05, max_duration)))


def random_schedule(rng) -> Schedule:
    """1 to 6 stable segments, input width 1 or 2, about one zero duration in ten."""
    m = int(rng.integers(1, 3))
    segments = []
    for _ in range(int(rng.integers(1, 7))):
        seg = random_stable_segment(rng, m)
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
    phi = expm_map(seg.a * seg.duration, np.zeros(2)).phi
    return np.linalg.solve(seg.a, (phi - np.eye(2)) @ (seg.b @ np.asarray(u, dtype=float)))


def closed_form(aug: np.ndarray) -> np.ndarray:
    """`augmented_expm` of each [[x, w], [0, 0]] of a (k, 3, 3) stack, as (k, 3, 3) maps."""
    out = np.zeros(aug.shape)
    for m, k in zip(out, aug):
        m[:2, :2], m[:2, 2] = expm_map(k[:2, :2], k[:2, 2])
        m[2, 2] = 1.0
    return out


def augmented(x, w) -> np.ndarray:
    """The (1, 3, 3) stack [[x, w], [0, 0]] of one 2x2 x and 2-vector w."""
    aug = np.zeros((1, 3, 3))
    aug[0, :2, :2], aug[0, :2, 2] = x, w
    return aug


class TestAugmentedExpm:
    def test_diagonal_decay(self):
        m = expm_map(np.diag([-2.0, 0.5]), np.zeros(2))
        np.testing.assert_allclose(m.phi, np.diag([math.exp(-2.0), math.exp(0.5)]),
                                   rtol=1e-15, atol=0.0)
        np.testing.assert_array_equal(m.gamma, 0.0)

    @pytest.mark.parametrize("scale", [0.0, 1e-3, 1.0, 30.0, 1e6])
    def test_zero_horizon_is_exactly_the_identity_and_no_forcing(self, scale):
        a = scale * np.array([[-3.0, 1.0], [-4.0, -0.5]])
        m = expm_map(a * 0.0, np.array([7.0, -2.0]) * 0.0)
        np.testing.assert_array_equal(m.phi, np.eye(2))
        np.testing.assert_array_equal(m.gamma, np.zeros(2))

    @pytest.mark.parametrize("scale", [0.1, 1.0, 3.0, 40.0])
    def test_semigroup_property(self, scale):
        # Scales that put a * 0.9 in each regime of the closed form.
        rng = np.random.default_rng(7)
        for _ in range(20):
            a = scale * rng.standard_normal((2, 2))
            whole = expm_map(a * 0.9, np.zeros(2)).phi
            split = expm_map(a * 0.6, np.zeros(2)).phi @ expm_map(a * 0.3, np.zeros(2)).phi
            assert relative_residual(split, whole) < 1e-13

    @pytest.mark.parametrize("entry", [(0, 0), (1, 1), (0, 2)])
    def test_rejects_non_finite_input(self, entry):
        aug = np.zeros((3, 3))
        aug[entry] = math.nan
        with pytest.raises(NumericInputError, match="matrix exponential is not finite"):
            expm_map(aug[:2, :2], aug[:2, 2])

    @pytest.mark.parametrize("x", [[[800.0, 0.0], [0.0, 0.0]], [[800.0, 1.0], [0.0, 800.0]],
                                   [[800.0, 2.0], [-2.0, 800.0]]])
    def test_rejects_a_non_finite_result(self, x):
        # e^800 overflows in each regime it can reach: a real pair, a double eigenvalue and
        # a complex pair.
        with pytest.raises(NumericInputError, match="matrix exponential is not finite"):
            expm_map(x, np.ones(2))

    def test_rejects_a_result_that_overflows_past_its_exponentials(self):
        # e^700 and e^-700 are finite, but the off-diagonal entry of e^X is about e^700 / 1400
        # times x01 = 1e10, past the float range: refused by the check of the result.
        with pytest.raises(NumericInputError, match="matrix exponential is not finite"):
            expm_map([[700.0, 1e10], [0.0, -700.0]], np.zeros(2))

    def test_the_refusal_sits_exactly_at_theta13_times_2_to_the_52(self):
        # The oracle's Pade kernel takes 52 squarings at this 1-norm and 53 above it. exp(-x)
        # underflows to a finite 0 on both sides, so only the norm tells them apart.
        limit = core._NORM_LIMIT
        m = expm_map(np.diag([-limit, 0.0]), [0.0, 1.0])
        np.testing.assert_array_equal(m.phi, np.diag([0.0, 1.0]))
        np.testing.assert_array_equal(m.gamma, [0.0, 1.0])
        above = math.nextafter(limit, math.inf)
        for x, w in ((np.diag([-above, 0.0]), np.zeros(2)), (np.zeros((2, 2)), [above, 0.0]),
                     (np.array([[0.0, -above / 2], [0.0, -above / 2]]), np.zeros(2))):
            with pytest.raises(NumericInputError, match="reaches 2.419e[+]16, above the "
                               "2.419e[+]16 up to which the oracle's Pade kernel"):
                expm_map(x, w)

    def test_no_design_in_the_property_ranges_nears_the_squaring_cutoff(self):
        # Bounds of the column sums of [[a, b u], [0, 0]] T over the ranges of
        # tests/test_cli_properties.py, with T at most the half period 1 / (2 fs):
        # n >= 0.5, L >= 1e-7, Co >= 1e-6, Rt, Rc <= 10^-0.5, Ro >= 1, Vin <= 400, fs >= 1e4.
        n, L, Co, r, Ro, Vin, T = 0.5, 1e-7, 1e-6, 10.0**-0.5, 1.0, 400.0, 1.0 / (2.0 * 1e4)
        bound = T * max((r + r / n**2) / L + 1.0 / (n * Co),  # |a00| + |a10|
                        1.0 / (n * L) + 1.0 / (Co * Ro),      # |a01| + |a11|
                        Vin / L)                              # |b u|
        assert math.ceil(math.log2(bound / (core._NORM_LIMIT / 2.0**52))) == 16  # far below 53
        rng = np.random.default_rng(7)
        norms = []
        for _ in range(2000):
            try:
                dab = build_dab(property_range_params(rng))
            except ParameterError:
                continue
            norms.append(np.abs(augmented_step_matrices(dab)).sum(axis=-2).max())
        assert len(norms) > 1000 and max(norms) <= bound


class TestClosedFormKernel:
    """The closed form against scipy.linalg.expm and 50-digit mpmath (`reference.expm`),
    references for the tests only."""

    def test_matches_scipy_on_random_designs(self):
        linalg = pytest.importorskip("scipy.linalg")
        rng = np.random.default_rng(41)
        # Period steps and the oracle's 32-substep waveform steps of 500 designs.
        aug = np.concatenate([augmented_step_matrices(build_dab(random_params(rng)), (1, 32))
                              for _ in range(500)])
        assert max_abs_relative(closed_form(aug), linalg.expm(aug)).max() <= 1e-14

    def test_matches_mpmath_over_the_property_ranges(self):
        # Near-marginal loads, lossless paths and L, Co over four decades.
        rng = np.random.default_rng(47)
        aug = []
        while len(aug) < 400:
            try:
                aug.extend(augmented_step_matrices(build_dab(property_range_params(rng))))
            except (ParameterError, NumericInputError):
                continue
        aug = np.array(aug)
        assert max_abs_relative(closed_form(aug), reference.expm(aug)).max() <= 1e-14

    def test_stiff_blocked_design_keeps_its_slow_mode(self):
        # The nearly marginal design: a blocking series path and an unloaded output make
        # eigenvalues of a T near -1e8 and -1e-11. scipy is 3.5e-11 off here.
        dab = build_dab(DabParams(**dict(REFERENCE_KWARGS, Rt=1e9, Rc=0.0, Ro=1e30)))
        aug = augmented_step_matrices(dab)
        ours, exact = closed_form(aug), reference.expm(aug)
        assert max_abs_relative(ours[:, :2, :2], exact[:, :2, :2]).max() <= 1e-14
        assert max_abs_relative(ours[:, :2, 2:], exact[:, :2, 2:]).max() <= 1e-14

    def test_the_period_map_of_the_stiff_design_leaks_its_slow_mode(self):
        # The capacitor discharges through Rt in 1 - T / (Rt Co) = 1 - 1.0e-10 per period:
        # Pi's slow eigenvalue is not 1, and cond(I - Pi) is about 1e10, below COND_LIMIT.
        dab = build_dab(DabParams(**dict(REFERENCE_KWARGS, Rt=1e9, Rc=0.0, Ro=1e30)))
        pi = reference.fold(reference.segment_maps(dab.schedule))  # 50 digits
        leak = 1.0 - max(e.real for e in reference.eigenvalues(pi))
        assert leak == pytest.approx(1e-10, rel=1e-3)
        slow = max(np.linalg.eigvals(monodromy(dab.schedule)).real)
        assert 1.0 - slow == pytest.approx(leak, rel=1e-4)
        x = solve_periodic_fixed_point(dab.schedule)
        assert relative_residual(closed_form_state(dab.schedule, x), x) < 1e-12


# Points on each regime boundary of the closed form and 1 ulp on either side: X = [[mu,
# delta^2], [1, mu]] has tr X / 2 = mu and delta^2 exactly, and w is generic. Where |mu| < 1
# an ulp of mu or of delta^2 moves |mu| + sqrt|delta^2| by less than an ulp of 1.5, so the
# radius is crossed in delta^2 = +-1, whose 1 + 2^-52 still gives sqrt 1 and 1 + 2^-51 not.
_W = (0.7, -1.3)


def _ulps(x, steps=(-1, 0, 1)):
    """x moved by each number of ulps in `steps`."""
    out = []
    for k in steps:
        y = x
        for _ in range(abs(k)):
            y = math.nextafter(y, math.copysign(math.inf, k))
        out.append(y)
    return out


def _regime(mu, delta2) -> str:
    """The regime of X = [[mu, delta2], [1, mu]], by the thresholds of the closed form."""
    if abs(mu) + math.sqrt(abs(delta2)) <= core._RADIUS:
        return "taylor"
    if delta2 > core._SPREAD:
        return "real pair"
    return "cosh" if delta2 >= 0.0 else "cos"


class TestRegimeBoundaries:
    """Each threshold at +-1 ulp: every side within 1e-15 of 50-digit mpmath, and no jump
    between neighbours beyond roundoff."""

    @pytest.mark.parametrize("points, regimes", [
        ([(m, 0.25) for m in _ulps(1.0)], ["taylor", "taylor", "cosh"]),
        ([(m, 0.25) for m in _ulps(-1.0)], ["cosh", "taylor", "taylor"]),
        ([(m, -0.25) for m in _ulps(1.0)], ["taylor", "taylor", "cos"]),
        ([(0.5, d) for d in _ulps(1.0, (0, 1, 2))], ["taylor", "taylor", "real pair"]),
        ([(-0.5, d) for d in _ulps(1.0, (0, 1, 2))], ["taylor", "taylor", "real pair"]),
        ([(0.5, d) for d in _ulps(-1.0, (0, -1, -2))], ["taylor", "taylor", "cos"]),
        ([(2.0, d) for d in _ulps(0.25)], ["cosh", "cosh", "real pair"]),
        ([(-3.0, d) for d in _ulps(0.25)], ["cosh", "cosh", "real pair"]),
        ([(2.0, d) for d in _ulps(0.0)], ["cos", "cosh", "cosh"]),
        ([(-3.0, d) for d in _ulps(0.0)], ["cos", "cosh", "cosh"]),
    ], ids=["radius", "radius-negative", "radius-complex", "radius-real-pair",
            "radius-real-pair-negative", "radius-complex-pair", "spread", "spread-negative",
            "double", "double-negative"])
    def test_each_side_is_accurate_and_continuous(self, points, regimes):
        assert [_regime(mu, delta2) for mu, delta2 in points] == regimes
        aug = np.concatenate([augmented([[mu, delta2], [1.0, mu]], _W) for mu, delta2 in points])
        maps = closed_form(aug)
        assert max_abs_relative(maps, reference.expm(aug)).max() <= 1e-15
        jumps = max_abs_relative(maps[1:], maps[:-1])
        assert jumps.max() <= 1e-15, jumps

    @pytest.mark.parametrize("x00, x11", [(-0.0, 0.0), (0.0, -0.0), (-0.0, -0.0), (0.0, 0.0)])
    def test_signed_zeros_on_the_diagonal_of_a_real_pair(self, x00, x11):
        # h = (x00 - x11) / 2 and mu = (x00 + x11) / 2 are zeros of either sign here.
        aug = augmented([[x00, 2.0], [2.0, x11]], _W)
        assert max_abs_relative(closed_form(aug), reference.expm(aug)).max() <= 1e-15

    def test_a_real_pair_through_a_zero_eigenvalue(self):
        # X = [[-3, 1], [3, -1 + d]] has mu near -2 and delta^2 near 4, and det X = -3 d:
        # det X = 0 takes phi1(0) = 1 in place of expm1(small) / small.
        points = [((-3.0, 1.0), (3.0, -1.0 + d)) for d in (-1e-17, -1e-300, 0.0, 1e-300, 1e-17)]
        aug = np.concatenate([augmented(x, _W) for x in points])
        maps = closed_form(aug)
        assert max_abs_relative(maps, reference.expm(aug)).max() <= 1e-15
        assert max_abs_relative(maps[1:], maps[:-1]).max() <= 1e-15


class TestSegmentValidation:
    @pytest.mark.parametrize("shape", [(2, 3), (1, 1), (3, 3), (4, 4)])
    def test_rejects_a_state_matrix_other_than_2x2(self, shape):
        with pytest.raises(DimensionError, match="must be 2x2"):
            Segment(a=np.zeros(shape), b=np.zeros((shape[0], 1)), duration=1.0)

    def test_rejects_mismatched_input_matrix(self):
        with pytest.raises(DimensionError):
            Segment(a=np.zeros((2, 2)), b=np.zeros((3, 1)), duration=1.0)

    def test_rejects_a_vector_state_matrix(self):
        with pytest.raises(DimensionError, match="segment matrices must be 2-d"):
            Segment(a=np.zeros(2), b=np.zeros((2, 1)), duration=1.0)

    def test_rejects_negative_duration(self):
        with pytest.raises(NumericInputError):
            Segment(a=np.zeros((2, 2)), b=np.zeros((2, 1)), duration=-1e-9)

    def test_rejects_nan_entries(self):
        with pytest.raises(NumericInputError):
            Segment(a=np.array([[np.nan, 0.0], [0.0, 0.0]]), b=np.zeros((2, 1)), duration=1.0)

    def test_matrices_are_read_only(self):
        seg = Segment(a=np.zeros((2, 2)), b=np.zeros((2, 1)), duration=1.0)
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

    def test_rejects_a_nan_input_vector(self):
        with pytest.raises(NumericInputError, match="input vector must be finite"):
            Schedule(segments=(self._segment(),), u=[math.nan])

    def test_rejects_input_length_mismatch(self):
        with pytest.raises(DimensionError):
            Schedule(segments=(self._segment(),), u=np.array([1.0, 2.0]))

    def test_rejects_input_width_disagreement_between_segments(self):
        other = Segment(a=-np.eye(2), b=np.ones((2, 2)), duration=0.5)
        with pytest.raises(DimensionError, match="segment 2 shape disagrees"):
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

    def test_zero_duration_gives_identity_and_no_forcing(self, ref_dab):
        seg = Segment(a=np.array([[3.0, -1e6], [2e4, -7.0]]), b=np.array([[5.0], [1e3]]),
                      duration=0.0)
        m = Schedule((seg,), np.array([2.0])).maps[0]
        np.testing.assert_array_equal(m.phi, np.eye(2))
        np.testing.assert_array_equal(m.gamma, np.zeros(2))
        zero = Schedule(tuple(Segment(seg.a, seg.b, 0.0) for seg in ref_dab.schedule.segments),
                        ref_dab.schedule.u)
        for m in zero.maps:
            np.testing.assert_array_equal(m.phi, np.eye(2))
            np.testing.assert_array_equal(m.gamma, np.zeros(2))

    def test_singular_state_matrix_integrates_exactly(self):
        # a = 0 is singular; the forced response must still come out as b u T.
        seg = Segment(a=np.zeros((2, 2)), b=np.array([[1.0], [2.0]]), duration=0.25)
        m = Schedule((seg,), np.array([4.0])).maps[0]
        np.testing.assert_allclose(m.phi, np.eye(2), atol=1e-15)
        np.testing.assert_allclose(m.gamma, [1.0, 2.0], rtol=1e-14)

    def test_agrees_with_inverse_route_when_invertible(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            seg = random_stable_segment(rng)
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


def floats(phi, gamma) -> tuple:
    """A map as `compose` and `fixed_point` take it: six Python floats, phi row by row and then
    gamma."""
    return (*np.ravel(phi).tolist(), *np.ravel(gamma).tolist())


def float_fold(maps) -> tuple:
    """The chain first to last in Python floats, each entry rounded as written: the rule that
    `compose` pins, spelled out on each map's (phi, gamma)."""
    (p00, p01), (p10, p11) = maps[0][0].tolist()
    g0, g1 = maps[0][1].tolist()
    for phi, gamma in maps[1:]:
        (a00, a01), (a10, a11) = phi.tolist()
        h0, h1 = gamma.tolist()
        p00, p01, p10, p11, g0, g1 = (
            a00 * p00 + a01 * p10, a00 * p01 + a01 * p11, a10 * p00 + a11 * p10,
            a10 * p01 + a11 * p11, (a00 * g0 + a01 * g1) + h0, (a10 * g0 + a11 * g1) + h1)
    return p00, p01, p10, p11, g0, g1


class TestCompose:
    def test_hand_example_orders_right_to_left(self):
        m1 = np.array([[1.0, 1.0], [0.0, 1.0]])
        m2 = np.array([[2.0, 0.0], [0.0, 1.0]])
        m3 = np.array([[0.0, 1.0], [1.0, 0.0]])
        g1, g2, g3 = np.array([1.0, 2.0]), np.array([-3.0, 5.0]), np.array([7.0, -11.0])
        out = compose([floats(m1, g1), floats(m2, g2), floats(m3, g3)])
        assert out == floats(m3 @ m2 @ m1, m3 @ m2 @ g1 + m3 @ g2 + g3)

    def test_one_map_chain_returns_that_map(self):
        m = (0.5, 0.25, -1.0, 2.0, 3.0, -4.0)
        assert compose([m]) == m

    def test_a_chain_is_six_python_floats_and_its_maps_are_untouched(self):
        maps = [(k, 0.0, 0.0, k, k, k) for k in (1.0, 2.0, 3.0)]
        out = compose(maps)
        assert out == (6.0, 0.0, 0.0, 6.0, 15.0, 15.0)  # gamma: 3 (2 * 1 + 2) + 3
        assert all(type(x) is float for x in out)
        assert maps == [(k, 0.0, 0.0, k, k, k) for k in (1.0, 2.0, 3.0)]

    def test_longer_chains_round_each_entry_as_written(self):
        # No fused multiply-add: each product is rounded before the sum, as the spelled-out
        # fold rounds it, on chains of 1 to 6 random maps.
        rng = np.random.default_rng(6_2026)
        for _ in range(300):
            maps = [SegmentMap(rng.standard_normal((2, 2)), rng.standard_normal(2))
                    for _ in range(int(rng.integers(1, 7)))]
            assert compose([floats(*m) for m in maps]) == float_fold(maps)

    def test_zero_phi_chain_forcing_is_exactly_the_last_gamma(self):
        gammas = [(1.0, -2.0), (3.0, 4.0), (-5.0, 6.0)]
        out = compose([(0.0, 0.0, 0.0, 0.0, *g) for g in gammas])
        assert out == (0.0, 0.0, 0.0, 0.0, *gammas[-1])

    def test_empty_chain_raises(self):
        with pytest.raises(IndexError):
            compose([])

    def test_period_map_is_the_fold_and_pi_the_reverse_product(self):
        # The period map is the fold of the segment maps to the bit. Pi is the paper's reverse
        # product up to roundoff (numpy's products fuse some multiply-adds, the fold does not),
        # and the forcing, folded by Horner's rule, is rounded differently from the paper's sum.
        rng = np.random.default_rng(7_2026)
        for _ in range(200):
            sched = random_schedule(rng)
            fresh = compose(sched._entries)
            assert floats(*sched.period_map) == fresh == float_fold(sched.maps)
            phis = [m.phi for m in sched.maps]
            assert relative_residual(sched.period_map.phi, reverse_product(
                phis, 1, len(phis))) < 1e-15
            assert relative_residual(sched.period_map.gamma,
                                     sum_of_reverse_products(sched.maps)) < 1e-13


class TestReverseProduct:
    """The one-based reference product the acceptance and compose checks are built from."""

    @pytest.mark.parametrize("first,last", [(0, 1), (2, 1), (1, 3), (3, 3)])
    def test_invalid_ranges_raise(self, first, last):
        with pytest.raises(IndexError):
            reverse_product([np.eye(2), np.eye(2)], first, last)


class TestPropagationAndClosedForm:
    def test_propagate_returns_every_boundary_state(self):
        rng = np.random.default_rng(3)
        segs = tuple(random_stable_segment(rng) for _ in range(4))
        sched = Schedule(segments=segs, u=rng.standard_normal(1))
        x0 = rng.standard_normal(2)
        states = propagate(sched, x0)
        assert len(states) == 4
        # The float step rule, each entry rounded as written (no fused multiply-add).
        x0_, x1_ = x0.tolist()
        for m, got in zip(sched.maps, states):
            (p00, p01), (p10, p11) = m.phi.tolist()
            g0, g1 = m.gamma.tolist()
            x0_, x1_ = p00 * x0_ + p01 * x1_ + g0, p10 * x0_ + p11 * x1_ + g1
            assert got.tolist() == [x0_, x1_]

    def test_propagate_rejects_bad_initial_shape(self):
        seg = Segment(a=-np.eye(2), b=np.ones((2, 1)), duration=1.0)
        sched = Schedule(segments=(seg,), u=np.array([1.0]))
        with pytest.raises(DimensionError):
            propagate(sched, np.zeros(3))

    def test_closed_form_matches_propagation_end_state(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            segs = tuple(random_stable_segment(rng) for _ in range(int(rng.integers(1, 7))))
            sched = Schedule(segments=segs, u=rng.standard_normal(1))
            x0 = rng.standard_normal(2)
            assert relative_residual(closed_form_state(sched, x0),
                                     propagate(sched, x0)[-1]) < 1e-12

    def test_closed_form_rejects_bad_initial_shape(self):
        seg = Segment(a=-np.eye(2), b=np.ones((2, 1)), duration=1.0)
        sched = Schedule(segments=(seg,), u=np.array([1.0]))
        with pytest.raises(DimensionError):
            closed_form_state(sched, np.zeros(1))


class TestPeriodicFixedPoint:
    def test_decoupled_fixed_point_by_hand(self):
        # phi = exp(-ln 2) I = I / 2 and gamma = a^-1 (phi - I) b u = [1, 1/2], so the
        # periodic fixed point is gamma / (1 - 1/2) = [2, 1].
        ln2 = math.log(2.0)
        seg = Segment(a=-ln2 * np.eye(2), b=np.array([[2.0 * ln2], [ln2]]), duration=1.0)
        sched = Schedule(segments=(seg,), u=np.array([1.0]))
        x = solve_periodic_fixed_point(sched)
        np.testing.assert_allclose(x, [2.0, 1.0], rtol=1e-13)

    def test_zero_phi_maps_fixed_point_is_last_forcing(self):
        # With every phi = 0 the period map forgets its start, so the fixed
        # point equals the final segment's forcing vector alone.
        gammas = [(1.0, -2.0), (3.0, 4.0), (-5.0, 6.0)]
        period = compose([(0.0, 0.0, 0.0, 0.0, *g) for g in gammas])
        np.testing.assert_allclose(fixed_point(period, "periodic solve"), gammas[-1],
                                   rtol=1e-15)

    def test_fixed_point_is_invariant_under_propagation(self):
        rng = np.random.default_rng(17)
        segs = tuple(random_stable_segment(rng) for _ in range(4))
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
        linalg = pytest.importorskip("scipy.linalg")
        rng = np.random.default_rng(23)
        seg = random_stable_segment(rng)
        sched = Schedule(segments=(seg,), u=np.array([0.5]))
        np.testing.assert_allclose(monodromy(sched), linalg.expm(seg.a * seg.duration),
                                   rtol=1e-14)


class TestResidualHelpers:
    def test_relative_residual_hand_value(self):
        # ||[3,0]-[1,0]|| / (1 + ||[1,0]||) = 2 / 2 = 1
        assert relative_residual(np.array([3.0, 0.0]), np.array([1.0, 0.0])) == 1.0

    def test_relative_residual_near_zero_reference(self):
        assert relative_residual(np.array([1e-8]), np.array([0.0])) == pytest.approx(1e-8)

    @pytest.mark.parametrize("shape,complex_", [((2,), False), ((2,), True), ((2, 2), False),
                                                ((2, 2), True)])
    def test_relative_residual_is_the_planar_rule_within_its_roundoff_bound(self, shape,
                                                                             complex_):
        # relative_residual is planar_residual of the real and imaginary parts, entry by entry.
        # Of n parts, the sum of squares of the differences errs by at most gamma_n relative
        # (one product and at most n - 1 additions on each nonnegative term), so the root of it
        # by n/2 u and its rounding by u more, and the subtractions move the norm by u: n/2 + 2.
        # 1 + ||expected|| errs by as much (u for the +1 in place of the subtractions), and the
        # quotient by u: (n + 5) u to first order, gamma_{n+5} in all.
        rng = np.random.default_rng(28_2026)
        n = 2 * math.prod(shape)
        bound = (n + 5) * 2.0 ** -53 / (1.0 - (n + 5) * 2.0 ** -53)

        def draw():  # parts spread over 40 decades
            x, y = rng.standard_normal((2, *shape)) * 10.0 ** rng.uniform(-20, 20, (2, *shape))
            return x + 1j * y if complex_ else x

        for k in range(400):
            expected = draw()
            # A third of the draws nearly cancel: actual within 1e-9 of expected.
            actual = expected * (1.0 + 1e-9 * draw()) if k % 3 == 0 else draw()
            a, e = ([p for z in np.ravel(x).tolist() for p in (z.real, z.imag)]
                    for x in (actual, expected))
            got = relative_residual(actual, expected)
            assert type(got) is float and float.hex(got) == float.hex(core.planar_residual(a, e))
            exact = reference.residual(a, e)
            assert reference.distance([got], [exact]) <= bound * reference.norm([exact])

    def test_identity_check_passed_threshold(self):
        assert IdentityCheck("x", residual=1e-13, tolerance=1e-12).passed
        assert not IdentityCheck("x", residual=2e-12, tolerance=1e-12).passed


class TestBatchedSegmentMaps:
    def test_maps_equal_one_kernel_call_per_segment(self):
        # Shapes as in the acceptance suite's random schedules: 1 to 6
        # segments, about one zero duration in ten, input widths 1 and 2.
        rng = np.random.default_rng(31)
        for trial in range(200):
            m = 1 + trial % 2
            segs = []
            for _ in range(int(rng.integers(1, 7))):
                seg = random_stable_segment(rng, m=m)
                if rng.uniform() < 0.1:
                    seg = Segment(a=seg.a, b=seg.b, duration=0.0)
                segs.append(seg)
            sched = Schedule(segments=tuple(segs), u=rng.standard_normal(m))
            assert len(sched.maps) == len(segs)
            for seg, got in zip(segs, sched.maps):
                # b u in Python floats, summed left to right from 0 (no fused multiply-add).
                forcing = np.array([sum(x * y for x, y in zip(row, sched.u.tolist()))
                                    for row in seg.b.tolist()])
                single = expm_map(seg.a * seg.duration, forcing * seg.duration)
                np.testing.assert_array_equal(got.phi, single.phi)
                np.testing.assert_array_equal(got.gamma, single.gamma)
                one = Schedule((seg,), sched.u).maps[0]
                np.testing.assert_array_equal(got.phi, one.phi)
                np.testing.assert_array_equal(got.gamma, one.gamma)

    def test_maps_are_built_once_per_schedule(self):
        seg = Segment(a=-np.eye(2), b=np.ones((2, 1)), duration=0.5)
        sched = Schedule(segments=(seg, seg), u=np.array([1.0]))
        assert sched.maps is sched.maps

    def test_maps_keep_the_finiteness_check(self):
        # Finite b and u whose product overflows: the augmented matrix is not finite.
        seg = Segment(a=-np.eye(2), b=np.full((2, 1), 1e300), duration=0.5)
        sched = Schedule(segments=(seg,), u=np.array([1e300]))
        with np.errstate(over="ignore"), pytest.raises(NumericInputError):
            sched.maps

    def test_a_map_is_the_same_in_any_schedule(self):
        rng = np.random.default_rng(37)
        segs = [random_stable_segment(rng, m=2) for _ in range(5)]
        u = rng.standard_normal(2)
        together = Schedule(tuple(segs), u).maps
        for k, seg in enumerate(segs):
            alone = Schedule((seg,), u).maps[0]
            np.testing.assert_array_equal(together[k].phi, alone.phi)
            np.testing.assert_array_equal(together[k].gamma, alone.gamma)


class TestPeriodMapCache:
    """Pi and the forcing are composed once per schedule, read-only, with the fold's values."""

    def test_values_match_the_uncached_formulas_bit_for_bit(self):
        # Bit for bit but for the fixed point, which the closed form solves: it is within its
        # first-order forward-error bound of the exact solve of the same floats.
        rng = np.random.default_rng(7_2026)
        for _ in range(200):
            sched = random_schedule(rng)
            x0 = rng.standard_normal(2)
            p00, p01, p10, p11, f0, f1 = float_fold(sched.maps)
            pi, forcing = np.array([[p00, p01], [p10, p11]]), np.array([f0, f1])
            assert np.array_equal(monodromy(sched), pi)
            x0_, x1_ = x0.tolist()
            assert closed_form_state(sched, x0).tolist() == [p00 * x0_ + p01 * x1_ + f0,
                                                             p10 * x0_ + p11 * x1_ + f1]
            kappa = reference.cond([p00, p01, p10, p11], 1.0)
            if not kappa <= COND_LIMIT:
                with pytest.raises(MarginalSystemError):
                    solve_periodic_fixed_point(sched)
                continue
            x = reference.fixed_point((p00, p01, p10, p11, f0, f1))
            allowed = 2.0 ** -53 * CLOSED_FORM_SOLVE * kappa * reference.norm(x)
            for got in (solve_periodic_fixed_point(sched).tolist(),
                        fixed_point(floats(pi, forcing), "periodic solve")):
                assert reference.distance(got, x) <= allowed, (got, x)

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

    def test_cond_of_a_singular_matrix_is_inf(self):
        assert cond(np.zeros((2, 2))) == math.inf == reference.cond([0.0] * 4)
        assert cond(np.array([[1.0, 0.0], [0.0, 0.0]])) == math.inf
        assert cond([1.0, 2.0, 2.0, 4.0]) == math.inf

    def test_cond_past_the_float_range_is_inf_without_a_warning(self):
        # s_max / s_min = 1e310 overflows: inf, as the exact cond rounds, and no RuntimeWarning.
        m = np.array([[1e300, 0.0], [0.0, 1e-10]])
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert cond(m) == math.inf == reference.cond(m.ravel().tolist())


def _solved_maps(seed: int, count: int):
    """The period map and the four half-cycle maps of `count` property-range designs."""
    rng = np.random.default_rng(seed)
    designs = 0
    while designs < count:
        try:
            dab = build_dab(property_range_params(rng))
        except (ParameterError, NumericInputError):
            continue
        designs += 1
        yield from [dab.schedule._period] + [half_cycle_map(dab, first) for first in (1, 2, 3, 4)]


class TestClosedFormFixedPoint:
    """A 2x2 fixed point, its verdict and its printed cond are the closed form at z = 1."""

    def test_forward_error_is_within_the_derived_bound(self):
        # Every solve of the package on 400 property-range designs (the period, and the
        # half cycle from each interval) against the rational solution of the same floats.
        solved, worst = 0, 0.0
        for m in _solved_maps(19_2026, 400):
            try:
                got = fixed_point(m, "solve")
            except MarginalSystemError:
                continue
            x = reference.fixed_point(m)
            ratio = reference.distance(got, x) / (
                2.0 ** -53 * reference.cond(m[:4], 1.0) * reference.norm(x))
            worst = max(worst, ratio)
            solved += 1
        assert solved >= 1900 and worst <= CLOSED_FORM_SOLVE, (solved, worst)

    def test_the_verdict_and_message_follow_the_exact_cond_across_the_band(self):
        # I - phi = Q1 diag(1, 1/kappa) Q2^T over the band, with kappa 1e-6 on either side of
        # COND_LIMIT too. Rounding phi moves cond(I - phi) by about u kappa, so the verdict and
        # the printed cond are judged against the exact cond of the floats phi.
        rng = np.random.default_rng(20_2026)
        edges = [COND_LIMIT * (1.0 + s * 1e-6) for s in (-1, 1)]
        refused = 0
        for kappa in np.geomspace(1e10, 1e13, 301).tolist() + edges:
            q1, q2 = (np.array([[math.cos(t), -math.sin(t)], [math.sin(t), math.cos(t)]])
                      for t in rng.uniform(0.0, 2.0 * math.pi, 2))
            phi = np.eye(2) - q1 @ np.diag([1.0, 1.0 / kappa]) @ q2.T
            m = floats(phi, rng.standard_normal(2))
            c = reference.cond(m[:4], 1.0)
            if c <= COND_LIMIT:
                fixed_point(m, "test solve")
                continue
            with pytest.raises(MarginalSystemError) as err:
                fixed_point(m, "test solve")
            assert str(err.value) == f"test solve is marginal: cond ~ {c:.3e} exceeds 1.0e+12"
            refused += 1
        assert 95 <= refused <= 105, refused

    def test_the_printed_cond_is_the_exact_cond_of_the_map(self):
        # Every cond that `fixed_point` judges on 400 property-range designs is within a few
        # u of the exact cond(I - phi) of its floats, and `cond` likewise of random matrices.
        worst = 0.0
        for m in _solved_maps(19_2026, 400):
            exact = reference.cond(m[:4], 1.0)
            c = core._shifted(m[:4], 1.0)[0]
            assert c == exact if math.isinf(exact) else abs(c - exact) <= 8e-16 * exact, m
            worst = max(worst, abs(c - exact) / exact if math.isfinite(exact) else 0.0)
        rng = np.random.default_rng(22_2026)
        for _ in range(300):
            t = rng.standard_normal((2, 2)) * 10.0 ** rng.uniform(-300, 300)
            exact = reference.cond(t.ravel().tolist())
            assert abs(cond(t) - exact) <= 8e-16 * exact, t
        assert worst > 0.0

    def test_a_singular_or_overflowing_system_is_scaled_exactly(self):
        # det(I - phi) = 0 exactly; det^2 past the float range with cond 1, and I - phi of
        # 2^-990 next to phi of 1 with cond 1: a power of two scales each, no bit lost.
        with pytest.raises(MarginalSystemError, match="cond ~ inf"):
            fixed_point(floats(np.eye(2), np.ones(2)), "identity")
        assert fixed_point((1.0 - 1e160, 0.0, 0.0, 1.0 - 1e160, 1e160, -2e160), "big") == (
            1.0, -2.0)
        tiny = 2.0 ** -990
        assert fixed_point((1.0, tiny, -tiny, 1.0, 3.0 * tiny, -2.0 * tiny), "tiny") == (
            -2.0, -3.0)


class TestClosedFormEigenvalues:
    """`core.eigenvalues` against 50-digit mpmath of the same floats (`reference.eigenvalues`)."""

    U = 2.0 ** -53

    def assert_close(self, m, bound: float = 4.0):
        """Each eigenvalue within bound u ||m||_F of its exact value; a pair exact conjugates."""
        ours, exact = core.eigenvalues(*m), reference.eigenvalues(m)
        scale = math.hypot(*m)
        for e in ours:
            assert min(abs(e - x) for x in exact) <= bound * self.U * scale, (m, ours, exact)
        assert ours[0].imag >= 0.0 and ours[0].imag == -ours[1].imag
        if ours[0].imag:
            assert ours[0].real == ours[1].real
        return ours

    def test_the_maps_of_property_range_designs(self):
        for m in _solved_maps(23_2026, 400):
            self.assert_close(m[:4])

    def test_random_matrices_with_complex_pairs_double_and_zero_eigenvalues(self):
        rng = np.random.default_rng(24_2026)
        complex_pairs = 0
        for _ in range(300):
            scale = 10.0 ** rng.uniform(-300, 300)
            m = (rng.standard_normal(4) * scale).tolist()
            complex_pairs += self.assert_close(m)[0].imag != 0.0
        assert complex_pairs > 50
        for m in ([2.0, 1.0, 0.0, 2.0], [3.0, 0.0, 0.0, 3.0], [0.0, 1.0, 0.0, 0.0],
                  [0.0, 0.0, 0.0, 0.0], [1.0, 2.0, 2.0, 4.0], [1e300, -1e300, 1e300, -1e300],
                  [1.5, -0.25, 1.0, 0.5]):  # the last: (x - 1)^2, a double eigenvalue 1
            self.assert_close(m)
        assert core.eigenvalues(0.0, 1.0, -1.0, 0.0) == (1j, -1j)
        assert core.eigenvalues(1.0, 2.0, 2.0, 4.0) == (5.0, 0.0)

    def test_the_small_eigenvalue_of_the_marginal_fixture_is_resolved(self):
        # An unloaded output behind a blocking series path: Pi has eigenvalues 1 and about
        # -4.8e-49, which det(Pi) / 1 gives to a few u of itself (numpy's eigvals gives 0.0).
        dab = build_dab(DabParams(**dict(REFERENCE_KWARGS, Rt=1e15, Rc=0.0, Ro=1e30)))
        m = dab.schedule._period[:4]
        big, small = core.eigenvalues(*m)
        one, tiny = sorted(reference.eigenvalues(m), key=abs, reverse=True)
        assert big == 1.0 and abs(one - 1.0) <= self.U
        assert -5e-49 < small.real < -4.7e-49 and small.imag == 0.0
        assert abs(small - tiny) <= 4.0 * self.U * abs(tiny)


class TestPlanarNorm:
    """The sum of squares where it is below 1e150, hypot's scaled form from there on."""

    def test_the_bits_below_the_threshold_are_the_sum_of_squares(self):
        rng = np.random.default_rng(21_2026)
        v = rng.standard_normal((4, 200)) * 10.0 ** rng.uniform(-100, 74, (4, 200))
        expected = np.sqrt(v[0] * v[0] + v[1] * v[1] + v[2] * v[2] + v[3] * v[3])
        np.testing.assert_array_equal(core.planar_norm(tuple(v)), expected)
        assert [core.planar_norm(tuple(col)) for col in v.T.tolist()] == expected.tolist()

    @pytest.mark.parametrize("scale", [1e76, 1e160, 1e300, 1e307])
    def test_large_vectors_take_hypot_without_overflow(self, scale):
        # The C library's hypot for one vector and for an array: the same bits either way.
        v = (3.0 * scale, -0.0, 2.0 * scale, 4.0 * scale)
        expected = float(np.hypot(np.hypot(v[0], v[1]), np.hypot(v[2], v[3])))
        assert core.planar_norm(v) == expected == pytest.approx(math.sqrt(29.0) * scale)
        norms = core.planar_norm(tuple(np.array([x, 1.0]) for x in v))
        assert norms.tolist() == [expected, 2.0]

    def test_a_norm_past_the_float_range_is_inf_without_an_error_or_a_warning(self):
        # One vector and an array: the vector's sum of squares and its hypot overflow.
        v = (1.5e308, 0.0, 1.5e308, 0.0)
        arrays = tuple(np.array([x, 1.0]) for x in v)
        assert core.planar_norm(v) == core.planar_residual(v, (0.0,) * 4) == math.inf
        for got in (core.planar_norm(arrays), core.planar_residual(arrays, (0.0,) * 4)):
            assert got.tolist() == [math.inf, 2.0]
        assert core.planar_residual(v, v) == 0.0
        assert core.planar_residual(arrays, arrays).tolist() == [0.0, 0.0]

    def test_a_residual_past_the_float_range_is_scaled_without_a_warning(self):
        # The differences or ||expected|| overflow on finite parts: the parts and the 1 are
        # scaled by a power of two instead, so the quotient comes out as it is (RuntimeWarning
        # is an error in this suite).
        big = 1.5e308
        cases = [((big, 0.0, big, 0.0), (-big, 0.0, -big, 0.0), 2.0),
                 ((0.0, 0.0, big, 0.0), (big, 0.0, big, 0.0), math.sqrt(0.5)),
                 ((big, 0.0, big, 0.0), (2.0, 2.0, 2.0, 2.0), big / 5.0 * math.sqrt(2.0))]
        for actual, expected, value in cases:
            assert core.planar_residual(actual, expected) == pytest.approx(value, rel=1e-15)
            assert relative_residual(np.array(actual[::2]) + 1j * np.array(actual[1::2]),
                                     np.array(expected[::2]) + 1j * np.array(expected[1::2])
                                     ) == core.planar_residual(actual, expected)
        # An array gives each vector's own bits: the scaled ones and the plain one beside them.
        plain = ((3.0, 0.0, 1.0, 0.0), (1.0, 0.0, 1.0, 0.0))
        arrays = [tuple(np.array(p) for p in zip(*(case[j] for case in (*cases, plain))))
                  for j in (0, 1)]
        assert core.planar_residual(*arrays).tolist() == [
            core.planar_residual(*case[:2]) for case in (*cases, plain)]
        assert core.planar_residual(*plain) == 2.0 / (1.0 + math.sqrt(2.0))

    def test_a_nan_stays_nan(self):
        assert math.isnan(core.planar_norm((math.nan, math.inf, 0.0, 0.0)))
        assert np.isnan(core.planar_norm((np.array([math.nan]), 1e300, 0.0, 0.0)))
