"""Unit tests for the sampled small-signal models and their identities."""

from __future__ import annotations

import cmath
import functools
import math
import random
import re
from unittest import mock

import numpy as np
import pytest

from dabss import (P_MINUS, P_PLUS, S_MINUS, S_PLUS, SURFACES, DabParams,
                   ResolventSingularityError, Surface, build_dab, difference_envelope,
                   half_cycle_model, relative_residual, solve_periodic_fixed_point,
                   sweep_frequencies, transfer_difference, transfer_difference_residual,
                   transfer_fixed_freq, transfer_same_cycle)
from dabss.dab import half_cycle_map, solve_half_cycle, verify_symmetry
from dabss.core import IdentityCheck, cond
from dabss.pwlti import closed_form_state, propagate
from dabss.smallsignal import (FrequencyResponseRow, HalfCycleModel, bode_sweep, identity_checks,
                               resolvent_similarity_residual, verify_surface_equivalence)
from dabss import core, smallsignal
from dabss.config import Tolerances, load_config
from dabss.errors import MarginalSystemError, NumericInputError, ParameterError
from dabss.pwlti import monodromy
from tests import reference
from tests.conftest import (REFERENCE_KWARGS, T_SOLVE, fd_sensitivities, numpy_blocked,
                            property_range_params, random_params, run_cli, write_config)


def unit_circle(points: int, t_half: float | None = None) -> np.ndarray:
    """Evenly spaced z values on the upper half unit circle (dc excluded)."""
    thetas = np.linspace(0.0, np.pi, points + 1)[1:]
    return np.exp(1j * thetas)


def row_norms(v: np.ndarray) -> np.ndarray:
    """2-norm along the last axis, rounded as np.linalg.norm rounds one vector (one BLAS dot)."""
    v = np.asarray(v)
    re, im = v.real[..., None, :], v.imag[..., None, :]
    return np.sqrt((re @ np.swapaxes(re, -1, -2) + im @ np.swapaxes(im, -1, -2))[..., 0, 0])


def planar(v: np.ndarray):
    """(re0, im0, re1, im1) of a complex array of shape (..., 2)."""
    return v[..., 0].real, v[..., 0].imag, v[..., 1].real, v[..., 1].imag


class TestSurface:
    def test_canonical_registry(self):
        assert set(SURFACES) == {"P+", "S+", "P-", "S-"}
        assert SURFACES["P+"] is P_PLUS
        assert (P_PLUS.a, P_PLUS.b, P_PLUS.polarity) == (1, 2, -1)
        assert (S_PLUS.a, S_PLUS.b, S_PLUS.polarity) == (2, 3, +1)
        assert (P_MINUS.a, P_MINUS.b, P_MINUS.polarity) == (3, 4, -1)
        assert (S_MINUS.a, S_MINUS.b, S_MINUS.polarity) == (4, 1, +1)

    def test_non_consecutive_intervals_rejected(self):
        with pytest.raises(ValueError):
            Surface("bad", 1, 3, -1)

    def test_bad_polarity_rejected(self):
        with pytest.raises(ValueError):
            Surface("bad", 1, 2, 0)

    def test_empty_label_rejected(self):
        with pytest.raises(ValueError):
            Surface("", 1, 2, -1)


class TestHalfCycleModel:
    def test_surface_fixed_points_are_the_boundary_states(self, ref_dab):
        # Each surface samples one interval boundary of the periodic orbit.
        x0 = solve_periodic_fixed_point(ref_dab.schedule)
        x1, x2, x3, _ = propagate(ref_dab.schedule, x0)
        for surface, expected in ((P_PLUS, x0), (S_PLUS, x1), (P_MINUS, x2), (S_MINUS, x3)):
            model = half_cycle_model(ref_dab, surface)
            assert relative_residual(model.x_star, expected) < 1e-10, surface.label

    def test_fixed_point_closes_the_half_cycle(self, ref_dab):
        for surface in SURFACES.values():
            m = half_cycle_model(ref_dab, surface)
            assert relative_residual(m.phi @ m.x_star + m.g, m.x_star) < 1e-12

    def test_end_states_chain_through_the_segments(self, ref_dab):
        m = half_cycle_model(ref_dab, P_PLUS)
        assert relative_residual(np.diag([-1.0, 1.0]) @ m.x_b_end, m.x_star) < 1e-12

    def test_skewed_timing_rejected_on_straddling_surfaces_only(self, ref_params):
        skewed = build_dab(ref_params, t3_skew=0.01 * ref_params.t_half)
        half_cycle_model(skewed, P_PLUS)
        half_cycle_model(skewed, P_MINUS)
        for surface in (S_PLUS, S_MINUS):
            with pytest.raises(ValueError):
                half_cycle_model(skewed, surface)

    def test_sensitivities_match_finite_differences(self, ref_dab):
        for surface in SURFACES.values():
            model, fd_a, fd_b = fd_sensitivities(ref_dab, surface)
            assert relative_residual(fd_a, model.sens_a) < 1e-8, surface.label
            assert relative_residual(fd_b, model.sens_b) < 1e-8, surface.label

    def test_ramp_amplitude_only_scales_the_control_gain(self, ref_params):
        base = half_cycle_model(build_dab(ref_params), P_PLUS)
        doubled_params = ref_params._replace(Vr=2.0 * ref_params.Vr)
        doubled = half_cycle_model(build_dab(doubled_params), P_PLUS)
        np.testing.assert_array_equal(doubled.phi, base.phi)
        np.testing.assert_array_equal(doubled.x_star, base.x_star)
        assert doubled.comp_gain == pytest.approx(0.5 * base.comp_gain, rel=1e-15)
        np.testing.assert_allclose(doubled.b_cur, 0.5 * base.b_cur, rtol=1e-15)
        np.testing.assert_allclose(doubled.b_next, 0.5 * base.b_next, rtol=1e-15)

    def test_timing_law_antisymmetry_of_input_vectors(self, ref_dab):
        # The leading edge enters with the opposite sign of the trailing edge:
        # b_cur is built from +sens_a, b_next from -sens_b, scaled identically.
        for surface in SURFACES.values():
            m = half_cycle_model(ref_dab, surface)
            np.testing.assert_allclose(
                m.b_cur, surface.polarity * m.comp_gain * m.sens_a, rtol=1e-15)
            np.testing.assert_allclose(
                m.b_next, -surface.polarity * m.comp_gain * m.sens_b, rtol=1e-15)

    def test_input_vector_assembly(self, ref_dab):
        m = half_cycle_model(ref_dab, P_PLUS)
        z = 0.3 + 0.4j
        exact = smallsignal._shaped(
            z, [smallsignal._input_vector(m._entries, z.real, z.imag)], pairs=True)
        rebased = smallsignal._shaped(
            z, [smallsignal._rebased_vector(m, z.real, z.imag)], pairs=True)
        np.testing.assert_array_equal(exact, m.b_cur + z * m.b_next)
        np.testing.assert_array_equal(rebased, z * m.b_cur + m.phi @ m.b_next)


class TestTransferFunctions:
    def test_fixed_freq_matches_hand_resolvent(self, ref_dab):
        m = half_cycle_model(ref_dab, P_PLUS)
        z = cmath.exp(0.7j)
        v = (m.b_cur + z * m.b_next).view(float).tolist()  # planar
        x = reference.resolvent_solve(m.phi.ravel().tolist(), z, v)
        expected = ref_dab.c_phys @ np.array(x, dtype=float).view(complex)
        np.testing.assert_allclose(transfer_fixed_freq(m, ref_dab.c_phys, z), expected,
                                   rtol=1e-12)

    def test_conjugate_symmetry(self, ref_dab):
        m = half_cycle_model(ref_dab, P_PLUS)
        for z in unit_circle(7):
            h = transfer_fixed_freq(m, ref_dab.c_phys, z)
            h_conj = transfer_fixed_freq(m, ref_dab.c_phys, np.conj(z))
            np.testing.assert_allclose(h_conj, np.conj(h), rtol=1e-12)

    def test_pole_evaluation_raises(self, ref_dab):
        m = half_cycle_model(ref_dab, P_PLUS)
        pole = complex(np.linalg.eigvals(m.phi)[0])
        with pytest.raises(ResolventSingularityError):
            transfer_fixed_freq(m, ref_dab.c_phys, pole)

    def test_difference_dual_paths_agree_on_the_unit_circle(self, ref_dab):
        m = half_cycle_model(ref_dab, P_PLUS)
        worst = max(transfer_difference_residual(m, ref_dab.c_phys, z)
                    for z in unit_circle(25))
        assert worst < 1e-12

    def test_difference_vanishes_at_dc(self, ref_dab):
        m = half_cycle_model(ref_dab, P_PLUS)
        diff = transfer_difference(m, ref_dab.c_phys, 1.0)
        assert np.all(diff == 0.0)
        assert transfer_difference_residual(m, ref_dab.c_phys, 1.0) == 0.0

    def test_difference_raises_when_tolerance_is_undercut(self, ref_dab):
        m = half_cycle_model(ref_dab, P_PLUS)
        # Find a point with a nonzero (if tiny) cross-check residual, then
        # demand better than that: the guard must trip.
        for z in unit_circle(50):
            res = transfer_difference_residual(m, ref_dab.c_phys, z)
            if res > 0.0:
                with pytest.raises(ArithmeticError):
                    transfer_difference(m, ref_dab.c_phys, z, rtol=res / 2.0)
                return
        pytest.fail("no grid point produced a nonzero dual-path residual")

    def test_envelope_bounds_the_difference(self, ref_dab):
        m = half_cycle_model(ref_dab, P_PLUS)
        for z in unit_circle(25):
            diff = transfer_difference(m, ref_dab.c_phys, z)
            assert np.linalg.norm(diff) <= difference_envelope(m, ref_dab.c_phys, z) * (1 + 1e-12)

    def test_same_cycle_approximation_degrades_with_frequency(self, ref_dab):
        # ||H_fix - H_sc|| relative to ||H_fix|| should grow monotonically in
        # the envelope sense from dc toward the band edge on a coarse grid.
        m = half_cycle_model(ref_dab, P_PLUS)
        freqs = np.geomspace(100.0, 0.5 / m.t_half * 0.9, 8)
        gaps = []
        for f in freqs:
            z = cmath.exp(2j * cmath.pi * f * m.t_half)
            gaps.append(difference_envelope(m, ref_dab.c_phys, z))
        assert all(a < b for a, b in zip(gaps, gaps[1:]))


class TestResolventSimilarity:
    def test_random_conjugations_satisfy_the_identity(self):
        rng = np.random.default_rng(31)
        for _ in range(20):
            a = rng.standard_normal((2, 2))
            t = rng.standard_normal((2, 2)) + 3.0 * np.eye(2)
            if np.linalg.cond(t) > 1e6:
                continue
            z = complex(2.0 * np.exp(2j * np.pi * rng.uniform()))
            assert resolvent_similarity_residual(a, t, z) < 1e-12

    def test_identity_transform_gives_zero_residual(self):
        a = np.array([[0.0, 1.0], [-2.0, -0.3]])
        assert resolvent_similarity_residual(a, np.eye(2), 2.0 + 1.0j) < 1e-15

    def test_arrays_and_floats_give_the_same_bits(self):
        rng = np.random.default_rng(37)
        for a, t, z in zip(rng.standard_normal((50, 2, 2)), rng.standard_normal((50, 2, 2)),
                           2.0 * np.exp(2j * np.pi * rng.uniform(size=50))):
            residual = resolvent_similarity_residual(a, t, z)
            assert type(residual) is float
            assert residual == resolvent_similarity_residual(
                a.ravel().tolist(), t.ravel().tolist(), complex(z))


class TestSurfaceEquivalence:
    @pytest.mark.parametrize("pair", [(P_PLUS, S_PLUS), (P_MINUS, S_MINUS)])
    def test_equivalent_pairs_pass_on_the_reference(self, ref_dab, pair):
        checks = verify_surface_equivalence(ref_dab, *pair, z_grid=unit_circle(64))
        assert len(checks) == 3
        for check in checks:
            assert check.passed, f"{check.name}: {check.residual:.3e}"
            assert check.note == ""

    def test_equivalent_pairs_pass_on_random_designs(self):
        rng = np.random.default_rng(404)
        grid = unit_circle(16)
        for _ in range(5):
            dab = build_dab(random_params(rng))
            for pair in ((P_PLUS, S_PLUS), (P_MINUS, S_MINUS)):
                checks = verify_surface_equivalence(dab, *pair, z_grid=grid)
                assert all(c.passed for c in checks)

    def test_non_adjacent_pair_rejected(self, ref_dab):
        with pytest.raises(ValueError):
            verify_surface_equivalence(ref_dab, P_PLUS, P_MINUS, z_grid=unit_circle(4))

    def test_same_polarity_fails_as_a_pure_sign_flip(self, ref_dab):
        # Forcing the secondary surface to the primary's comparator polarity
        # must break the input-vector identity by exactly a global sign.
        wrong = Surface("S+", 2, 3, -1)
        checks = verify_surface_equivalence(ref_dab, P_PLUS, wrong,
                                            z_grid=unit_circle(16))
        by_name = {c.name.rsplit("/", 1)[-1]: c for c in checks}
        assert by_name["similarity"].passed
        assert not by_name["input-vector"].passed
        assert by_name["input-vector"].note == (
            "matches after a global sign flip: surface polarity mismatch")


class TestSweeps:
    def test_linear_two_point_grid_is_exactly_the_endpoints(self):
        grid = sweep_frequencies(100.0, 5000.0, 2, "linear", t_half=5e-6)
        np.testing.assert_array_equal(grid, [100.0, 5000.0])

    def test_log_grid_hits_endpoints_and_is_geometric(self):
        grid = np.array(sweep_frequencies(10.0, 10000.0, 4, "log", t_half=5e-6))
        assert grid[0] == 10.0 and grid[-1] == 10000.0
        ratios = grid[1:] / grid[:-1]
        np.testing.assert_allclose(ratios, ratios[0], rtol=1e-12)

    @pytest.mark.parametrize("kwargs", [
        dict(f_min=0.0, f_max=100.0, points=3, spacing="log"),
        dict(f_min=200.0, f_max=100.0, points=3, spacing="log"),
        dict(f_min=10.0, f_max=2e5, points=3, spacing="log"),
        dict(f_min=10.0, f_max=100.0, points=1, spacing="log"),
        dict(f_min=10.0, f_max=100.0, points=3, spacing="cubic"),
    ])
    def test_invalid_grids_rejected(self, kwargs):
        with pytest.raises(ValueError):
            sweep_frequencies(t_half=5e-6, **kwargs)

    def test_log_grids_are_the_c_librarys_powers_of_ten(self):
        # np.geomspace's exponents k (hi - lo) / (points - 1) + lo, from the C library's log10
        # and raised by its pow, both the same on every glibc host; numpy's log10 and power
        # can take SIMD kernels that differ by CPU.
        rng = np.random.default_rng(22_2026)
        for _ in range(20_000):
            f_min = float(10.0 ** rng.uniform(-3.0, 6.0))
            f_max = f_min * float(10.0 ** rng.uniform(1e-9, 6.0))
            points = int(rng.integers(2, 130))
            grid = sweep_frequencies(f_min, f_max, points, "log", t_half=1e-30)
            lo, hi = math.log10(f_min), math.log10(f_max)
            exponents = np.arange(points) * ((hi - lo) / (points - 1)) + lo
            expected = [f_min, *map(math.pow, [10.0] * points, exponents[1:-1].tolist()), f_max]
            assert type(grid) is list and grid == expected, (f_min, f_max, points)

    def test_linear_grids_keep_the_bits_of_numpy_linspace(self):
        rng = np.random.default_rng(23_2026)
        for _ in range(2_000):
            f_min = float(10.0 ** rng.uniform(-3.0, 6.0))
            f_max = f_min * float(10.0 ** rng.uniform(1e-9, 6.0))
            points = int(rng.integers(2, 130))
            grid = sweep_frequencies(f_min, f_max, points, "linear", t_half=1e-30)
            assert grid == np.linspace(f_min, f_max, points).tolist(), (f_min, f_max, points)

    def test_band_edge_is_allowed(self):
        grid = sweep_frequencies(10.0, 1e5, 3, "log", t_half=5e-6)
        assert grid[-1] == pytest.approx(1e5, rel=1e-15)

    def test_bode_rows_cover_the_grid(self, ref_dab):
        rows = bode_sweep(ref_dab, P_PLUS, "fix", 100.0, 10000.0, 9)
        assert len(rows) == 9
        assert all(not r.flagged for r in rows)
        freqs = [r.f for r in rows]
        assert freqs == sorted(freqs)
        assert freqs[0] == pytest.approx(100.0) and freqs[-1] == pytest.approx(10000.0)

    def test_bode_kinds_differ_away_from_dc(self, ref_dab):
        fix = bode_sweep(ref_dab, P_PLUS, "fix", 1000.0, 10000.0, 5)
        sc = bode_sweep(ref_dab, P_PLUS, "sc", 1000.0, 10000.0, 5)
        assert any(abs(a.h_irec - b.h_irec) > 1e-9 for a, b in zip(fix, sc))

    def test_bode_rejects_unknown_kind(self, ref_dab):
        with pytest.raises(ValueError):
            bode_sweep(ref_dab, P_PLUS, "exact", 100.0, 1000.0, 3)

    def test_flagged_row_reports_none_channels(self):
        row = FrequencyResponseRow(f=1.0, h_irec=None, h_vout=None)
        assert row.flagged
        live = FrequencyResponseRow(f=1.0, h_irec=0j, h_vout=1j)
        assert not live.flagged


class TestArrayFrequencyAxis:
    """A 1-D array of z gives, row by row, exactly what scalar calls give."""

    @staticmethod
    def z_axis(model, fs: float) -> np.ndarray:
        # A Bode grid up to the surface Nyquist frequency plus points all round the circle.
        f = np.array(sweep_frequencies(fs / 1000.0, fs, 40, "log", model.t_half))
        return np.concatenate([np.exp(2j * np.pi * f * model.t_half), unit_circle(24) ** 2])

    def test_array_transfers_equal_scalar_transfers_on_random_designs(self):
        rng = np.random.default_rng(20_2026)
        for _ in range(20):
            params = random_params(rng)
            dab = build_dab(params)
            c = dab.c_phys
            for surface in SURFACES.values():
                m = half_cycle_model(dab, surface)
                zs = self.z_axis(m, params.fs)
                batched = {
                    "fix": transfer_fixed_freq(m, c, zs),
                    "sc": transfer_same_cycle(m, c, zs),
                    "difference": transfer_difference(m, c, zs, rtol=np.inf),
                    "residual": transfer_difference_residual(m, c, zs),
                    "envelope": difference_envelope(m, c, zs),
                }
                assert batched["fix"].shape == (zs.size, 2)
                assert batched["envelope"].shape == (zs.size,)
                for k, z in enumerate(zs.tolist()):
                    scalar = {
                        "fix": transfer_fixed_freq(m, c, z),
                        "sc": transfer_same_cycle(m, c, z),
                        "difference": transfer_difference(m, c, z, rtol=np.inf),
                        "residual": transfer_difference_residual(m, c, z),
                        "envelope": difference_envelope(m, c, z),
                    }
                    for name, value in scalar.items():
                        assert np.array_equal(batched[name][k], value), (surface.label, name, z)

    def test_scalar_z_keeps_the_scalar_shapes(self, ref_dab):
        m = half_cycle_model(ref_dab, P_PLUS)
        z = cmath.exp(0.3j)
        assert transfer_fixed_freq(m, ref_dab.c_phys, z).shape == (2,)
        assert transfer_difference(m, ref_dab.c_phys, z).shape == (2,)
        assert isinstance(difference_envelope(m, ref_dab.c_phys, z), float)
        assert isinstance(transfer_difference_residual(m, ref_dab.c_phys, z), float)

    def test_an_empty_array_keeps_the_array_shapes(self, ref_dab):
        m, empty = half_cycle_model(ref_dab, P_PLUS), np.array([], dtype=complex)
        for transfer in (transfer_fixed_freq, transfer_same_cycle, transfer_difference):
            assert transfer(m, ref_dab.c_phys, empty).shape == (0, 2)
        for bound in (difference_envelope, transfer_difference_residual):
            assert bound(m, ref_dab.c_phys, empty).shape == (0,)

    def test_a_pole_anywhere_in_an_array_raises(self, ref_dab):
        m = half_cycle_model(ref_dab, P_PLUS)
        zs = np.array([cmath.exp(0.3j), complex(m.poles[0]), cmath.exp(0.5j)])
        for transfer in (transfer_fixed_freq, transfer_same_cycle, transfer_difference,
                         transfer_difference_residual, difference_envelope):
            with pytest.raises(ResolventSingularityError):
                transfer(m, ref_dab.c_phys, zs)

    def test_the_envelope_at_a_scalar_pole_raises(self, ref_dab):
        # Inverted at the pole, zI - phi gave a finite bound of about 2.3e16.
        m = half_cycle_model(ref_dab, P_PLUS)
        for pole in m.poles:
            with pytest.raises(ResolventSingularityError, match="of a pole"):
                difference_envelope(m, ref_dab.c_phys, complex(pole))

    def test_difference_solves_once_for_all_three_paths(self, ref_dab, monkeypatch):
        m = half_cycle_model(ref_dab, P_PLUS)
        solves, conversions = [], []
        real_solve, real_shaped = smallsignal.resolvent_solve, smallsignal._shaped

        def counted_solve(phi, zr, zi, vectors):
            solves.append((np.shape(zr), len(vectors)))
            return real_solve(phi, zr, zi, vectors)

        def counted_shaped(z, values, pairs=False):
            conversions.append(len(values))
            return real_shaped(z, values, pairs)

        monkeypatch.setattr(smallsignal, "resolvent_solve", counted_solve)
        monkeypatch.setattr(smallsignal, "_shaped", counted_shaped)
        transfer_difference(m, ref_dab.c_phys, unit_circle(25))
        assert solves == [((25,), 3)]
        solves.clear()
        conversions.clear()
        transfer_difference(m, ref_dab.c_phys, cmath.exp(0.7j))
        assert solves == [((), 3)]
        assert conversions == [1]  # planar to complex once, at the return

    def test_bode_sweep_flags_the_pole_row_and_keeps_the_others(self, ref_dab, monkeypatch):
        # A model whose phi is a rotation has its poles on the unit circle, so
        # the last point of a linear grid ending at the rotation frequency is one.
        real = half_cycle_model(ref_dab, P_PLUS)
        theta = 0.8
        rotation = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
        model = HalfCycleModel(real.surface, (*rotation.ravel().tolist(), *real.floats[4:]),
                               real.comp_gain, real.t_half)
        monkeypatch.setattr(smallsignal, "half_cycle_model", lambda dab, surface: model)
        f_pole = theta / (2.0 * np.pi * model.t_half)
        for kind, transfer in (("fix", transfer_fixed_freq), ("sc", transfer_same_cycle)):
            rows = bode_sweep(ref_dab, P_PLUS, kind, f_pole / 4.0, f_pole, 7, "linear")
            assert [row.flagged for row in rows] == [False] * 6 + [True]
            assert rows[-1].h_irec is None and rows[-1].h_vout is None
            for row in rows[:-1]:
                h = transfer(model, ref_dab.c_phys, cmath.exp(2j * cmath.pi * row.f * model.t_half))
                assert (row.h_irec, row.h_vout) == (complex(h[0]), complex(h[1]))


MODEL_ARRAYS = ("phi", "g", "x_star", "x_a_end", "x_b_end", "sens_a", "sens_b", "b_cur", "b_next")


@pytest.fixture()
def model_builds(monkeypatch):
    """How many HalfCycleModel objects half_cycle_model has built since the test began."""
    built = []
    real = smallsignal.HalfCycleModel

    def counted(**fields):
        built.append(fields["surface"])
        return real(**fields)

    monkeypatch.setattr(smallsignal, "HalfCycleModel", counted)
    return built


class TestModelCache:
    """One model per surface and design object, shared read-only, failures never kept."""

    def test_each_surface_model_is_built_once_per_design(self, ref_params):
        dab = build_dab(ref_params)
        models = {s: half_cycle_model(dab, s) for s in SURFACES.values()}
        for surface, model in models.items():
            assert half_cycle_model(dab, surface) is model
            assert model.surface is surface
        fresh = build_dab(ref_params)
        for surface, model in models.items():
            assert half_cycle_model(fresh, surface) is not model

    def test_a_polarity_override_gets_its_own_model(self, ref_params):
        dab = build_dab(ref_params)
        canonical = half_cycle_model(dab, P_PLUS)
        flipped = half_cycle_model(dab, P_PLUS._replace(polarity=+1))
        assert flipped is not canonical
        assert half_cycle_model(dab, P_PLUS) is canonical
        assert np.array_equal(flipped.b_cur, -canonical.b_cur)
        assert np.array_equal(flipped.b_next, -canonical.b_next)
        for name in ("phi", "g", "x_star"):
            assert np.array_equal(getattr(flipped, name), getattr(canonical, name))

    def test_model_arrays_and_the_monodromy_are_read_only(self, ref_params):
        dab = build_dab(ref_params)
        model = half_cycle_model(dab, S_MINUS)
        for name in MODEL_ARRAYS:
            with pytest.raises(ValueError):
                getattr(model, name)[0] = 1.0
        with pytest.raises(ValueError):
            monodromy(dab.schedule)[0, 0] = 1.0

    def test_phi_holds_the_floats_its_fixed_point_was_solved_from(self, ref_params):
        dab = build_dab(ref_params)
        for surface in SURFACES.values():
            model, m = half_cycle_model(dab, surface), half_cycle_map(dab, surface.a)
            assert (*model.phi.ravel().tolist(), *model.g.tolist()) == m
            assert tuple(model.x_star.tolist()) == core.fixed_point(m, "solve")
            assert model.poles == core.eigenvalues(*m[:4])

    def test_eight_sweeps_on_one_design_build_four_models(self, ref_params, model_builds):
        dab = build_dab(ref_params)
        for surface in SURFACES.values():
            for kind in ("fix", "sc"):
                bode_sweep(dab, surface, kind, 100.0, 10e3, 16)
        assert sorted(s.label for s in model_builds) == sorted(SURFACES)

    def test_bode_both_builds_one_model_and_verify_four(self, tmp_path, model_builds):
        path = write_config(tmp_path / "reference.json")
        assert run_cli("bode", path, "--model", "both", "--out", str(tmp_path / "b.csv")
                       ).returncode == 0
        assert len(model_builds) == 1
        assert run_cli("verify", path).returncode == 0
        assert len(model_builds) == 1 + 4

    def test_a_failed_build_is_not_kept(self, ref_params, model_builds):
        skewed = build_dab(ref_params, t3_skew=1e-7)
        for _ in range(3):
            with pytest.raises(ParameterError):
                half_cycle_model(skewed, S_PLUS)
        marginal = build_dab(DabParams(**dict(REFERENCE_KWARGS, Rt=1e15, Rc=0.0, Ro=1e30)))
        for _ in range(3):
            with pytest.raises(MarginalSystemError):
                half_cycle_model(marginal, P_PLUS)
        assert model_builds == []

    @pytest.mark.parametrize("vr", [1e-307, 5e-324])
    def test_control_input_vectors_that_are_not_finite_raise_and_are_not_kept(
            self, ref_params, model_builds, vr):
        # T_half / Vr is 5e301 or inf: b_cur overflows, silently (warnings fail this suite).
        dab = build_dab(ref_params._replace(Vr=vr))
        for _ in range(2):
            with pytest.raises(NumericInputError, match="control-input vectors are not finite"):
                half_cycle_model(dab, P_PLUS)
        assert model_builds == [] and not vars(dab)["_surface_models"]

    @pytest.mark.parametrize("vr, first", [(1e-304, None), (1e-305, 32), (1e-306, 0)])
    def test_inputs_whose_transfers_overflow_are_refused(self, ref_params, model_builds, vr,
                                                         first):
        # The largest entry of b_cur and b_next is 99.4 / Vr: finite, so each model builds. At
        # Vr = 1, |H_vout| is 194.5 at z = 1 and |H_irec| 3284 at z = -1, next to the pole at
        # -0.97 (3461 same-cycle): on the 64-point circle the transfers stay finite at 1e-304,
        # and pass the float range at z = -1 from 1e-305 on and at z = 1 from 1e-306 on. They
        # are refused at the first z where they do, as an array and z by z alike.
        dab = build_dab(ref_params._replace(Vr=vr))
        model = half_cycle_model(dab, P_PLUS)
        assert len(model_builds) == 1
        circle = np.exp(2j * np.pi * np.arange(64) / 64)
        for transfer in (transfer_fixed_freq, transfer_same_cycle):
            if first is None:
                assert np.isfinite(transfer(model, dab.c_rev, circle)).all()
                continue
            message = re.escape(f"a value at z = {complex(circle[first])!r} passes the float range")
            for z in (circle, circle.tolist(), complex(circle[first])):
                with pytest.raises(NumericInputError, match=message):
                    transfer(model, dab.c_rev, z)

    @pytest.mark.parametrize("points", [4, 40], ids=["z-by-z", "arrays"])
    def test_a_sweep_names_the_frequency_it_refuses(self, ref_params, points):
        # At Vr = 1e-305 the transfers pass the float range at z = -1, the sweep's last point.
        dab = build_dab(ref_params._replace(Vr=1e-305))
        message = re.escape(f"a value at f = {ref_params.fs!r} Hz passes the float range")
        for kind in ("fix", "sc"):
            with pytest.raises(NumericInputError, match=message):
                bode_sweep(dab, P_PLUS, kind, 100.0, ref_params.fs, points)


class TestRampScalingLaw:
    """Vr enters a model only through the comparator gain T_half / Vr, so Vr 2^-k scales every
    transfer by exactly 2^k: bit for bit, until a value passes the float range, which is
    refused where it is evaluated and not by the model's build."""

    def test_transfers_scale_by_powers_of_two_until_evaluation_refuses(self):
        rng = np.random.default_rng(30_2026)
        circle = np.exp(2j * np.pi * np.arange(24) / 24)  # more than 16 z: as arrays

        def transfers(params, k):
            dab = build_dab(params._replace(Vr=params.Vr * 2.0 ** -k))
            model = half_cycle_model(dab, P_PLUS)  # never the refusal: outside the caller's try
            return lambda: [transfer_fixed_freq(model, dab.c_rev, circle),
                            transfer_same_cycle(model, dab.c_rev, circle),
                            *(np.array([row[1:] for row in bode_sweep(  # z by z
                                dab, P_PLUS, kind, params.fs / 1000.0, params.fs / 2.0, 4)])
                              for kind in ("fix", "sc"))]

        for params in (DabParams(**REFERENCE_KWARGS), random_params(rng), random_params(rng)):
            base = transfers(params, 0)()
            for k in range(1, 1100):
                evaluate = transfers(params, k)
                try:
                    scaled = evaluate()
                except NumericInputError as exc:
                    assert "passes the float range" in str(exc)
                    break
                assert [v.tobytes() for v in scaled] == [(v * 2.0 ** k).tobytes() for v in base], k
            assert 1000 < k < 1099, k


class TestDualPathFloor:
    """transfer_difference's cross-check tolerates roundoff and nothing more."""

    @staticmethod
    def criterion_8_grid(params, model) -> np.ndarray:
        f = np.array(sweep_frequencies(params.fs / 1000.0, params.fs / 10.0, 25, "log",
                                       model.t_half))
        return np.exp(2j * np.pi * f * model.t_half)

    def test_the_first_seed_164_design_passes_its_grid(self):
        # The first design random_params draws from seed 164: at its second grid point
        # its dual-path residual is 1.25e-12, over the plain 1e-12 check.
        params = random_params(np.random.default_rng(164))
        dab = build_dab(params)
        model = half_cycle_model(dab, P_PLUS)
        z = self.criterion_8_grid(params, model)
        assert np.max(transfer_difference_residual(model, dab.c_phys, z)) > 1e-12
        transfer_difference(model, dab.c_phys, z)
        for zk in z.tolist():
            transfer_difference(model, dab.c_phys, zk)

    def test_a_floor_past_the_float_range_is_refused(self):
        # The same design at Vr 2^-1012: every row of its grid is finite and the plain check
        # trips, but kappa ||c_phys|| ||x|| of a floor passes the float range. Judged against an
        # inf tolerance, any residual would pass; the floor is refused as a row value is.
        params = random_params(np.random.default_rng(164))
        for k in (1011, 1012):
            dab = build_dab(params._replace(Vr=2.0 ** -k))
            model = half_cycle_model(dab, P_PLUS)
            z = self.criterion_8_grid(params, model)
            residuals = transfer_difference_residual(model, dab.c_phys, z)
            assert np.isfinite(residuals).all() and residuals.max() > 1e-12
            for zk in (z, z.tolist()):
                if k == 1011:
                    transfer_difference(model, dab.c_phys, zk)
                    continue
                with pytest.raises(NumericInputError, match=r"^a value at z = \(.*\) passes the "
                                                            r"float range$"):
                    transfer_difference(model, dab.c_phys, zk)

    def test_the_floor_covers_the_residuals_of_random_designs(self):
        rng = np.random.default_rng(30_2026)
        worst = 0.0
        for _ in range(1000):
            params = random_params(rng)
            dab = build_dab(params)
            for surface in (P_PLUS, S_MINUS):
                model = half_cycle_model(dab, surface)
                f = np.array(sweep_frequencies(params.fs / 1000.0, params.fs, 24, "log",
                                               model.t_half))
                z = np.concatenate([np.exp(2j * np.pi * f * model.t_half), unit_circle(8)])
                for zk, row in zip(*smallsignal._evaluate(z, functools.partial(
                        smallsignal._difference_row, model, dab.c_rev), model.poles)):
                    floor = smallsignal._dual_path_floor(model, dab.c_rev, zk, row)
                    assert row[8] == core.planar_residual(row[:4], row[4:8])
                    worst = max(worst, row[8] / floor)
        assert worst <= 1.0

    def test_a_diverged_closed_path_still_raises(self, monkeypatch):
        params = random_params(np.random.default_rng(164))
        dab = build_dab(params)
        model = half_cycle_model(dab, P_PLUS)
        z = self.criterion_8_grid(params, model)
        real = smallsignal._difference_row

        def perturbed(model, c, z):  # one z or an array of them, as the real row
            row = real(model, c, z)
            zr, zi = z.real, z.imag
            bn0, bn1 = (model.b_next * (1.0 + 1e-6)).tolist()
            advance = (zr - 1.0) * bn0, zi * bn0, (zr - 1.0) * bn1, zi * bn1
            solved = core.resolvent_solve(model._entries.phi, zr, zi, [advance])[0]
            closed = core.matrix_times(c, solved)
            return (*closed, *row[4:8], core.planar_residual(closed, row[4:8]))

        monkeypatch.setattr(smallsignal, "_difference_row", perturbed)
        for zk in (z, z[0], z[-1]):
            with pytest.raises(ArithmeticError) as err:
                transfer_difference(model, dab.c_phys, zk)
            residual, tolerance = map(float, re.search(
                r"residual (\S+) exceeds (\S+)", str(err.value)).groups())
            assert residual >= 100.0 * tolerance


def _earlier_verify_checks(cfg, dab, surfaces):
    """The verify suite as the command line assembled it before `identity_checks`, copied,
    with BLAS norms and the surface rows of `checked_surface_rows`."""
    tol = cfg.tolerances
    checks = list(verify_symmetry(dab, rtol=tol.half_wave_symmetry))
    x_full = solve_periodic_fixed_point(dab.schedule)
    x_half = solve_half_cycle(dab)
    states = propagate(dab.schedule, x_full)
    for name, actual, expected in (("fixed-point-equivalence", x_half, x_full),
                                   ("period-closure", states[-1], x_full),
                                   ("midcycle-flip", states[1], (-x_full[0], x_full[1]))):
        checks.append(IdentityCheck(
            f"half-cycle/{name}", relative_residual(actual, expected), tol.half_cycle))
    rng = random.Random(20260816)  # the draws and rule of the closed-form row
    worst = 0.0
    draws = 0
    while draws < 20:
        a = [rng.gauss(0.0, 1.0) for _ in range(4)]
        t_mat = [rng.gauss(0.0, 1.0) for _ in range(4)]
        z = 2.0 * cmath.exp(2j * math.pi * rng.random())
        if cond(t_mat) > 1e6 or np.min(np.abs(z - np.linalg.eigvals(np.reshape(a, (2, 2))))) < 0.1:
            continue
        worst = max(worst, resolvent_similarity_residual(a, t_mat, z))
        draws += 1
    checks.append(IdentityCheck("resolvent/similarity-random", worst, tol.resolvent_identity))
    z_grid = np.exp(1j * (2.0 * np.pi * np.arange(64) / 64))
    for pri, sec in ((surfaces["P+"], surfaces["S+"]), (surfaces["P-"], surfaces["S-"])):
        try:
            checks.extend(checked_surface_rows(dab, pri, sec, z_grid, rtol=tol.surface_equivalence,
                                               similarity_rtol=tol.similarity))
        except ParameterError as exc:
            checks.append(IdentityCheck(
                f"surface-equiv/{pri.label}~{sec.label}/construction",
                math.inf, tol.surface_equivalence, str(exc)))
    model = half_cycle_model(dab, surfaces["P+"])
    dual = transfer_difference_residual(
        model, dab.c_phys, np.exp(1j * (2.0 * np.pi * np.arange(100) / 100)))
    checks.append(IdentityCheck(
        "transfer-difference/dual-path", float(np.max(dual)), tol.transfer_difference))
    dc = transfer_fixed_freq(model, dab.c_phys, 1.0) - \
        transfer_same_cycle(model, dab.c_phys, 1.0)
    checks.append(IdentityCheck(
        "transfer-difference/dc-zero", float(np.linalg.norm(dc)), tol.transfer_difference))
    f = np.array(sweep_frequencies(cfg.sweep.f_min, cfg.sweep.f_max, cfg.sweep.points,
                                   cfg.sweep.spacing, model.t_half))
    z = np.exp(2j * np.pi * f * model.t_half)
    delta = transfer_fixed_freq(model, dab.c_phys, z) - transfer_same_cycle(model, dab.c_phys, z)
    diff = row_norms(delta)
    envelope = difference_envelope(model, dab.c_phys, z)
    ratio = np.max(np.divide(diff, envelope, out=np.where(diff == 0.0, 0.0, np.inf),
                             where=envelope != 0.0))
    checks.append(IdentityCheck("transfer-difference/envelope-ratio", float(ratio), 1.0))
    return checks


class TestIdentityChecks:
    """identity_checks is the suite verify printed before it moved into the library: the same
    names, tolerances, notes and verdicts, and every residual's bits but the envelope ratio's.
    That one sums its four squares in another order than BLAS (gamma_3 apiece, 6 u apart), so
    its root is 3 u apart, plus 1 u for each root's own rounding: at most 4 ulps."""

    CONFIGS = {
        "reference": {},
        "t3-skew": dict(extra={"unsafe_t3_skew": 5e-8}),
        "s-plus-override": dict(extra={"unsafe_polarity_override": {"S+": -1}}),
        # Lossless and nearly marginal: cond(I - Pi) ~ 2.4e5, so roundoff shows.
        "lossless": dict(converter=dict(REFERENCE_KWARGS, Rt=0.0, Rc=0.0, Ro=1.0, L=8.9e-5,
                                        Co=6.1e-3, fs=96.7e3, D_phase=1e-6)),
    }

    @pytest.mark.parametrize("name", CONFIGS)
    def test_rows_match_the_earlier_suite_bit_for_bit(self, tmp_path, name):
        cfg = load_config(write_config(tmp_path / "config.json", **self.CONFIGS[name]))
        freqs = sweep_frequencies(cfg.sweep.f_min, cfg.sweep.f_max, cfg.sweep.points,
                                  cfg.sweep.spacing, cfg.converter.t_half)
        new = identity_checks(build_dab(cfg.converter, t3_skew=cfg.t3_skew),
                              cfg.tolerances, cfg.surfaces, freqs)
        old = _earlier_verify_checks(cfg, build_dab(cfg.converter, t3_skew=cfg.t3_skew),
                                     cfg.surfaces)
        assert [(c.name, c.tolerance, c.note, c.passed) for c in new] == \
            [(c.name, c.tolerance, c.note, c.passed) for c in old]
        *rows, (n, o) = zip(new, old)
        assert [float.hex(n.residual) for n, _ in rows] == [float.hex(o.residual) for _, o in rows]
        assert n.name == "transfer-difference/envelope-ratio"
        assert abs(n.residual - o.residual) <= 4.0 * math.ulp(o.residual)


def float_path_probe(paths: list) -> list:
    """Every identity_checks residual and the P+ bode_sweep rows of 40 points, as float.hex, of
    the config files named: with numpy loaded, many z go through arrays; where numpy cannot be
    imported, z by z in Python floats."""
    out = []
    for path in paths:
        cfg = load_config(path)
        dab = build_dab(cfg.converter, t3_skew=cfg.t3_skew)
        freqs = sweep_frequencies(cfg.sweep.f_min, cfg.sweep.f_max, cfg.sweep.points,
                                  cfg.sweep.spacing, cfg.converter.t_half)
        out.append([[c.name, c.residual.hex()] for c in identity_checks(
            dab, cfg.tolerances, cfg.surfaces, freqs)])
        fs = cfg.converter.fs
        out.append([[x.hex() for h in row[1:] for x in (h.real, h.imag)] + [row.f.hex()]
                    for kind in ("fix", "sc")
                    for row in bode_sweep(dab, P_PLUS, kind, fs / 1000.0, fs / 2.0, 40)])
    return out


class TestFloatPath:
    """Many z z by z in Python floats, as a command with no numpy runs them, give the bits of
    the array path of an in-process caller."""

    def test_identity_checks_and_bode_rows_match_without_numpy(self, tmp_path):
        paths = [write_config(tmp_path / f"{name}.json", **kwargs)
                 for name, kwargs in TestIdentityChecks.CONFIGS.items()]
        with numpy_blocked():
            floats = float_path_probe(paths)
        arrays = float_path_probe(paths)
        assert floats == arrays
        assert len(arrays) == 8 and all(len(rows) == 80 for rows in arrays[1::2])

    def test_scalar_and_array_pole_gaps_agree_bit_for_bit(self):
        # z from 1e-14 to 1e-4 of each pole, across the 1e-12 gate, and on the unit circle. The
        # gap is the hypot of the parts for one z and for an array: numpy's complex abs, the
        # earlier array rule, rounds otherwise on some inputs.
        rng = np.random.default_rng(29_2026)
        for _ in range(20):
            model = half_cycle_model(build_dab(random_params(rng)), P_PLUS)
            z = [p + gap * cmath.exp(2j * math.pi * rng.uniform()) for p in model.poles
                 for gap in (10.0 ** rng.uniform(-14.0, -4.0, 100)).tolist()]
            z += np.exp(2j * np.pi * rng.uniform(size=100)).tolist()
            gaps = smallsignal._pole_gap(model.poles, np.array(z)).tolist()
            assert [g.hex() for g in gaps] == [
                smallsignal._pole_gap(model.poles, w).hex() for w in z]
            assert any(g <= smallsignal._POLE_GAP for g in gaps)


def checked_surface_rows(dab, primary, secondary, z, **tolerances) -> list:
    """verify_surface_equivalence's rows, once each vector of its T-solves, `core.resolvent_solve`
    at z = 0 on -T (the columns of phi_sec T, then b_sec and x_sec at each z, z by z or as
    arrays), is within T_SOLVE u cond(T) ||y|| of the exact solve y of the same floats, 1 u more
    for rounding y."""
    calls = []

    def recorded(m, zr, zi, vectors, det=None):
        solved = core.resolvent_solve(m, zr, zi, vectors, det)
        if isinstance(zr, float) and zr == zi == 0.0:  # not a transfer: those take |z| = 1
            calls.append((m, vectors, solved))
        return solved

    with mock.patch.object(smallsignal, "resolvent_solve", recorded):
        rows = verify_surface_equivalence(dab, primary, secondary, z, **tolerances)
    (m,) = {m for m, _, _ in calls}
    given, got = (np.concatenate([np.stack(np.broadcast_arrays(*v), axis=-1).reshape(-1, 4)
                                  for call in calls for v in call[k]]) for k in (1, 2))
    t = [-x for x in m[:4]]
    re, im = (np.array(reference.solve(t, zip(given[:, j], given[:, j + 2])), dtype=float)
              for j in (0, 1))
    exact = np.stack([re[:, 0], im[:, 0], re[:, 1], im[:, 1]], axis=-1)
    bound = 2.0 ** -53 * (T_SOLVE + 1.0) * reference.cond(t) * np.linalg.norm(exact, axis=1)
    assert np.all(np.linalg.norm(got - exact, axis=1) <= bound)
    return rows


class TestPlanarSurfaceEquivalence:
    """verify_surface_equivalence's closed-form T-solves are the exact ones to roundoff
    (`checked_surface_rows`), and it raises the errors pinned below."""

    GRIDS = (np.exp(1j * (2.0 * np.pi * np.arange(64) / 64)), unit_circle(8))
    PAIRS = ((P_PLUS, S_PLUS), (P_MINUS, S_MINUS))
    # What verify_surface_equivalence raised on the first 50 valid property-range designs of
    # default_rng(16_2026), by design number, for either pair ({} is the primary's label).
    MARGINAL = "surface {} fixed point is marginal: cond ~ %s exceeds 1.0e+12"
    RAISED = {8: (ResolventSingularityError, "z = (-1+1.2246467991473532e-16j) is within "
                                             "2.947e-13 of a pole of the sampled model"),
              11: (MarginalSystemError, MARGINAL % "5.629e+12"),
              13: (MarginalSystemError, MARGINAL % "3.689e+13"),
              17: (MarginalSystemError, "similarity transform is singular: cond ~ 6.071e+14"),
              47: (MarginalSystemError, MARGINAL % "2.406e+12")}

    @pytest.mark.parametrize("polarity", [+1, -1])
    def test_the_reference_design(self, ref_dab, polarity):
        # polarity -1 is the S+ override of verify's negative path: a sign-flip note.
        secondary = S_PLUS._replace(polarity=polarity)
        for z in self.GRIDS:
            rows = checked_surface_rows(ref_dab, P_PLUS, secondary, z)
            assert (rows[1].note != "") == (polarity == -1)
            checked_surface_rows(ref_dab, P_MINUS, S_MINUS, z)

    def test_property_range_designs(self):
        rng = np.random.default_rng(16_2026)
        built = 0
        while built < 50:
            try:
                dab = build_dab(property_range_params(rng))
            except (ParameterError, NumericInputError):
                continue
            built += 1
            for pair in self.PAIRS:
                if built not in self.RAISED:
                    checked_surface_rows(dab, *pair, self.GRIDS[0])
                    continue
                kind, message = self.RAISED[built]
                with pytest.raises(kind) as err:
                    verify_surface_equivalence(dab, *pair, self.GRIDS[0])
                assert str(err.value) == message.format(pair[0].label)

    def test_a_skewed_schedule_raises_the_same_error(self, ref_params):
        dab = build_dab(ref_params, t3_skew=5e-8)
        for pair, span in zip(self.PAIRS, ("5.050000000000001e-06", "4.95e-06")):
            with pytest.raises(ParameterError) as err:
                verify_surface_equivalence(dab, *pair, self.GRIDS[0])
            assert str(err.value) == (f"surface {pair[1].label} spans {span} s, expected the "
                                      "half cycle 5e-06 s")


class TestClosedFormResolvent:
    """The closed-form 2x2 rule against the exact one of the same floats, near the poles too."""

    @staticmethod
    def designs(count: int):
        """Solvable random_params and property_range_params designs, each with its z grid:
        25 log points of the unit circle from fs / 1000 to the surface Nyquist frequency fs,
        then 4 points 1e-9 to 1e-6 from each pole."""
        rng = np.random.default_rng(15_2026)
        found = 0
        while found < count:
            try:
                params = random_params(rng) if found % 2 else property_range_params(rng)
                dab = build_dab(params)
                model = half_cycle_model(dab, (P_PLUS, S_MINUS)[found % 4 // 2])
            except (ParameterError, NumericInputError, MarginalSystemError):
                continue
            f = np.array(sweep_frequencies(params.fs / 1000.0, params.fs, 25, "log", model.t_half))
            near = [pole + gap * cmath.exp(2j * math.pi * rng.uniform())
                    for pole in model.poles for gap in (1e-9, 1e-8, 1e-7, 1e-6)]
            found += 1
            yield dab, model, np.concatenate([np.exp(2j * np.pi * f * model.t_half), near])

    def test_solves_and_envelopes_are_exact_to_roundoff(self):
        # Each solve within what the dual-path floor allows one solve, 2^-53 (2 kappa + 4)
        # relative, of the exact solve, 1 u more for rounding that; each envelope within twice
        # the floor of the envelope from the exact singular values, which is rounded too.
        for dab, model, z in self.designs(60):
            m = model.phi.ravel().tolist()
            rhs = smallsignal._input_vector(model._entries, z.real, z.imag)
            closed = np.stack(core.resolvent_solve(model._entries.phi, z.real, z.imag, [rhs])[0],
                              -1)
            exact = np.array([reference.resolvent_solve(m, zk, v) for zk, v in zip(
                z.tolist(), np.stack(rhs, -1).tolist())], dtype=float)
            s_max, s_min = np.array([reference.singular_values(m, zk) for zk in z.tolist()]).T
            floor = 2.0 ** -53 * (2.0 * s_max / s_min + 4.0)
            assert np.all(np.linalg.norm(closed - exact, axis=1)
                          <= (floor + 2.0 ** -53) * np.linalg.norm(exact, axis=1))
            envelope = np.abs(z - 1.0) * reference.singular_values(
                dab.c_phys.ravel().tolist())[0] / s_min * reference.norm(model.b_next.tolist())
            assert np.all(np.abs(difference_envelope(model, dab.c_phys, z) - envelope)
                          <= 2.0 * floor * envelope)

    def test_the_envelope_bounds_the_difference(self):
        for dab, model, z in self.designs(60):
            diff = row_norms(transfer_difference(model, dab.c_phys, z, rtol=np.inf))
            assert np.all(diff <= difference_envelope(model, dab.c_phys, z))

    def test_the_determinant_keeps_its_digits_where_it_cancels(self):
        # Next to a pole det(zI - phi) cancels by up to 1e9; it must still be within a few
        # ulps of the exact determinant of the floats z and phi.
        for _, model, z in self.designs(20):
            m = core.Matrix2x2.of(model.phi)
            for zk in z[-8:].tolist():  # the points next to the poles
                _, _, det_re, det_im, _ = core.resolvent_det(m, zk.real, zk.imag)
                exact = reference.determinant(model.phi.ravel().tolist(), zk)
                assert reference.distance((det_re, det_im), exact) <= (
                    4.0 * 2.0 ** -53 * reference.norm(exact)), zk

    def test_scalar_z_calls_make_no_numpy_linalg_call(self, ref_dab, monkeypatch):
        model = half_cycle_model(ref_dab, P_PLUS)
        model.poles  # the one eigenvalue solve, kept with the model

        def refuse(*args, **kwargs):
            raise AssertionError("numpy.linalg called")

        for name in ("solve", "inv", "svd", "norm", "eigvals", "cond"):
            monkeypatch.setattr(np.linalg, name, refuse)
        c = ref_dab.c_phys
        for z in (cmath.exp(0.3j), 1.0, complex(model.poles[0]) + 1e-9):
            for transfer in (transfer_fixed_freq, transfer_same_cycle, transfer_difference,
                             transfer_difference_residual, difference_envelope):
                transfer(model, c, z)
            with pytest.raises(ArithmeticError):  # the roundoff floor of the tripped check
                transfer_difference(model, c, cmath.exp(0.3j), rtol=1e-300)

    def test_verify_calls_no_numpy_linalg(self, ref_dab, monkeypatch):
        # The closed-form path has one arithmetic, the float rules of dabss.core, the random
        # resolvent-similarity row included; the sweep grid of 25 points runs as arrays.
        calls = []
        for name in ("solve", "inv", "svd", "norm", "eig", "eigvals", "cond", "det"):
            monkeypatch.setattr(np.linalg, name, lambda *args, _name=name, **kwargs: calls.append(
                _name))
        p = ref_dab.params
        checks = identity_checks(ref_dab, Tolerances(), SURFACES, sweep_frequencies(
            p.fs / 1000.0, p.fs / 10.0, 25, "log", p.t_half))
        assert calls == [] and all(c.passed for c in checks)
        x = solve_periodic_fixed_point(ref_dab.schedule)
        relative_residual(closed_form_state(ref_dab.schedule, x),
                          propagate(ref_dab.schedule, x)[-1])
        relative_residual(np.eye(2) * (1.0 + 1j), ref_dab.c_phys)
        assert calls == []


class TestDualPathRule:
    """verify's dual-path row and transfer_difference are one decision."""

    def test_the_row_passes_iff_transfer_difference_accepts_its_circle(self):
        rng = np.random.default_rng(7)
        rtol = Tolerances().transfer_difference
        circle = np.exp(1j * (2.0 * np.pi * np.arange(100) / 100))
        compared = floored = 0
        for _ in range(300):
            try:
                params = property_range_params(rng)
                dab = build_dab(params)
                checks = identity_checks(dab, Tolerances(), SURFACES, sweep_frequencies(
                    params.fs / 1000.0, params.fs / 10.0, 25, "log", params.t_half))
            except (ParameterError, NumericInputError, MarginalSystemError,
                    ResolventSingularityError):  # invalid or unsolvable: exit 2 or 3
                continue
            row = next(c for c in checks if c.name == "transfer-difference/dual-path")
            try:
                transfer_difference(half_cycle_model(dab, P_PLUS), dab.c_phys, circle, rtol=rtol)
                accepted = True
            except ArithmeticError:
                accepted = False
            assert row.passed == accepted, params
            compared += 1
            floored += row.tolerance > rtol
        # Enough designs to mean something, and some where the plain check tripped.
        assert compared >= 250 and floored >= 1, (compared, floored)
