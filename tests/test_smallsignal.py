"""Unit tests for the sampled small-signal models and their identities."""

from __future__ import annotations

import cmath
import dataclasses
import math
import re
from fractions import Fraction

import numpy as np
import pytest

from dabss import (P_MINUS, P_PLUS, S_MINUS, S_PLUS, SURFACES, DabParams,
                   ResolventSingularityError, Surface, build_dab, difference_envelope,
                   half_cycle_model, relative_residual, solve_periodic_fixed_point,
                   sweep_frequencies, transfer_difference, transfer_difference_residual,
                   transfer_fixed_freq, transfer_same_cycle)
from dabss.dab import FLIP_CURRENT, solve_half_cycle, verify_symmetry
from dabss.pwlti import IdentityCheck, cond, propagate
from dabss.smallsignal import (FrequencyResponseRow, bode_sweep, identity_checks,
                               resolvent_similarity_residual, verify_surface_equivalence)
from dabss import cli, pwlti, smallsignal
from dabss.config import Tolerances, load_config
from dabss.errors import MarginalSystemError, NumericInputError, ParameterError
from dabss.pwlti import monodromy
from tests.conftest import REFERENCE_KWARGS, fd_sensitivities, random_params, write_config


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
        from dabss.dab import RECTIFY
        assert relative_residual(RECTIFY @ m.x_b_end, m.x_star) < 1e-12

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
        doubled_params = dataclasses.replace(ref_params, Vr=2.0 * ref_params.Vr)
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
        exact = pwlti.planar_array([smallsignal._input_vector(m._entries, z.real, z.imag)], ())
        rebased = pwlti.planar_array([smallsignal._rebased_vector(m, z.real, z.imag)], ())
        np.testing.assert_array_equal(exact[0], m.b_cur + z * m.b_next)
        np.testing.assert_array_equal(rebased[0], z * m.b_cur + m.phi @ m.b_next)


class TestTransferFunctions:
    def test_fixed_freq_matches_hand_resolvent(self, ref_dab):
        m = half_cycle_model(ref_dab, P_PLUS)
        z = cmath.exp(0.7j)
        resolvent = np.linalg.inv(z * np.eye(2) - m.phi)
        expected = ref_dab.c_phys @ resolvent @ (m.b_cur + z * m.b_next)
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
            n = int(rng.integers(2, 6))
            a = rng.standard_normal((n, n))
            t = rng.standard_normal((n, n)) + 3.0 * np.eye(n)
            if np.linalg.cond(t) > 1e6:
                continue
            z = complex(2.0 * np.exp(2j * np.pi * rng.uniform()))
            assert resolvent_similarity_residual(a, t, z) < 1e-12

    def test_identity_transform_gives_zero_residual(self):
        a = np.array([[0.0, 1.0], [-2.0, -0.3]])
        assert resolvent_similarity_residual(a, np.eye(2), 2.0 + 1.0j) < 1e-15

    def test_a_stack_of_draws_gives_each_draw_its_own_bits(self):
        rng = np.random.default_rng(37)
        a = rng.standard_normal((50, 2, 2))
        t = rng.standard_normal((50, 2, 2))
        z = 2.0 * np.exp(2j * np.pi * rng.uniform(size=50))
        np.testing.assert_array_equal(
            resolvent_similarity_residual(a, t, z),
            [resolvent_similarity_residual(*draw) for draw in zip(a, t, z)])


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
        grid = sweep_frequencies(10.0, 10000.0, 4, "log", t_half=5e-6)
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
        f = sweep_frequencies(fs / 1000.0, fs, 40, "log", model.t_half)
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
        real_solve, real_array = smallsignal.resolvent_solve, smallsignal.planar_array

        def counted_solve(phi, zr, zi, vectors):
            solves.append((np.shape(zr), len(vectors)))
            return real_solve(phi, zr, zi, vectors)

        def counted_array(vectors, shape):
            conversions.append(shape)
            return real_array(vectors, shape)

        monkeypatch.setattr(smallsignal, "resolvent_solve", counted_solve)
        monkeypatch.setattr(smallsignal, "planar_array", counted_array)
        transfer_difference(m, ref_dab.c_phys, unit_circle(25))
        assert solves == [((25,), 3)]
        solves.clear()
        conversions.clear()
        transfer_difference(m, ref_dab.c_phys, cmath.exp(0.7j))
        assert solves == [((), 3)]
        assert conversions == [()]  # planar to complex once, at the return

    def test_bode_sweep_flags_the_pole_row_and_keeps_the_others(self, ref_dab, monkeypatch):
        # A model whose phi is a rotation has its poles on the unit circle, so
        # the last point of a linear grid ending at the rotation frequency is one.
        real = half_cycle_model(ref_dab, P_PLUS)
        theta = 0.8
        rotation = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
        model = dataclasses.replace(real, phi=rotation)
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
        flipped = half_cycle_model(dab, dataclasses.replace(P_PLUS, polarity=+1))
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

    def test_eight_sweeps_on_one_design_build_four_models(self, ref_params, model_builds):
        dab = build_dab(ref_params)
        for surface in SURFACES.values():
            for kind in ("fix", "sc"):
                bode_sweep(dab, surface, kind, 100.0, 10e3, 16)
        assert sorted(s.label for s in model_builds) == sorted(SURFACES)

    def test_bode_both_builds_one_model_and_verify_four(self, tmp_path, model_builds, capsys):
        path = write_config(tmp_path / "reference.json")
        assert cli.main(["bode", path, "--model", "both", "--out", str(tmp_path / "b.csv")]) == 0
        assert len(model_builds) == 1
        assert cli.main(["verify", path]) == 0
        assert len(model_builds) == 1 + 4

    def test_a_failed_build_is_not_kept(self, ref_params, model_builds):
        skewed = build_dab(ref_params, t3_skew=1e-7)
        for _ in range(3):
            with pytest.raises(ParameterError):
                half_cycle_model(skewed, S_PLUS)
        marginal = build_dab(DabParams(**dict(REFERENCE_KWARGS, Rt=1e9, Rc=0.0, Ro=1e30)))
        for _ in range(3):
            with pytest.raises(MarginalSystemError):
                half_cycle_model(marginal, P_PLUS)
        assert model_builds == []

    @pytest.mark.parametrize("vr", [1e-307, 5e-324])
    def test_control_input_vectors_that_are_not_finite_raise_and_are_not_kept(
            self, ref_params, model_builds, vr):
        # T_half / Vr is 5e301 or inf: b_cur overflows, silently (warnings fail this suite).
        dab = build_dab(dataclasses.replace(ref_params, Vr=vr))
        for _ in range(2):
            with pytest.raises(NumericInputError, match="control-input vectors are not finite"):
                half_cycle_model(dab, P_PLUS)
        assert model_builds == [] and not vars(dab)["_surface_models"]


class TestDualPathFloor:
    """transfer_difference's cross-check tolerates roundoff and nothing more."""

    @staticmethod
    def criterion_8_grid(params, model) -> np.ndarray:
        f = sweep_frequencies(params.fs / 1000.0, params.fs / 10.0, 25, "log", model.t_half)
        return np.exp(2j * np.pi * f * model.t_half)

    def test_the_first_seed_164_design_passes_its_grid(self):
        # The first design random_params draws from seed 164: at fs / 1000 its
        # dual-path residual is 1.07e-12, over the plain 1e-12 check.
        params = random_params(np.random.default_rng(164))
        dab = build_dab(params)
        model = half_cycle_model(dab, P_PLUS)
        z = self.criterion_8_grid(params, model)
        assert transfer_difference_residual(model, dab.c_phys, z[0]) > 1e-12
        transfer_difference(model, dab.c_phys, z)
        for zk in z.tolist():
            transfer_difference(model, dab.c_phys, zk)

    def test_the_floor_covers_the_residuals_of_random_designs(self):
        rng = np.random.default_rng(30_2026)
        worst = 0.0
        for _ in range(1000):
            params = random_params(rng)
            dab = build_dab(params)
            for surface in (P_PLUS, S_MINUS):
                model = half_cycle_model(dab, surface)
                f = sweep_frequencies(params.fs / 1000.0, params.fs, 24, "log", model.t_half)
                z = np.concatenate([np.exp(2j * np.pi * f * model.t_half), unit_circle(8)])
                closed, subtracted, states = smallsignal._difference_paths(model, dab.c_phys, z)
                floor = smallsignal._dual_path_floor(model, dab.c_phys, z, states, subtracted)
                res = smallsignal._row_residuals(closed, subtracted)
                worst = max(worst, float(np.max(res / floor)))
        assert worst <= 1.0

    def test_a_diverged_closed_path_still_raises(self, monkeypatch):
        params = random_params(np.random.default_rng(164))
        dab = build_dab(params)
        model = half_cycle_model(dab, P_PLUS)
        z = self.criterion_8_grid(params, model)
        real = smallsignal._difference_paths

        def perturbed(model, c_phys, z):
            _, subtracted, states = real(model, c_phys, z)
            zr, zi = smallsignal._z_parts(model, z)
            bn0, bn1 = (model.b_next * (1.0 + 1e-6)).tolist()
            advance = (zr - 1.0) * bn0, zi * bn0, (zr - 1.0) * bn1, zi * bn1
            solved = pwlti.resolvent_solve(model._entries.phi, zr, zi, [advance])[0]
            closed = pwlti.matrix_times(np.ravel(c_phys).tolist(), solved)
            return closed, subtracted, states

        monkeypatch.setattr(smallsignal, "_difference_paths", perturbed)
        for zk in (z, z[0], z[-1]):
            with pytest.raises(ArithmeticError) as err:
                transfer_difference(model, dab.c_phys, zk)
            residual, tolerance = map(float, re.search(
                r"residual (\S+) exceeds (\S+)", str(err.value)).groups())
            assert residual >= 100.0 * tolerance


def _earlier_verify_checks(cfg, dab):
    """The verify suite as the command line assembled it before `identity_checks`, copied,
    with its LAPACK T-solve (`_complex_route_surface_equivalence`) and BLAS norms."""
    def surface(label):
        base = SURFACES[label]
        if label in cfg.polarity_override:
            return dataclasses.replace(base, polarity=cfg.polarity_override[label])
        return base

    tol = cfg.tolerances
    checks = list(verify_symmetry(dab, rtol=tol.half_wave_symmetry))
    x_full = solve_periodic_fixed_point(dab.schedule)
    x_half = solve_half_cycle(dab)
    states = propagate(dab.schedule, x_full)
    for name, actual, expected in (("fixed-point-equivalence", x_half, x_full),
                                   ("period-closure", states[-1], x_full),
                                   ("midcycle-flip", states[1], FLIP_CURRENT @ x_full)):
        checks.append(IdentityCheck(
            f"half-cycle/{name}", relative_residual(actual, expected), tol.half_cycle))
    rng = np.random.default_rng(20260816)
    worst = 0.0
    draws = 0
    while draws < 20:
        a = rng.standard_normal((2, 2))
        t_mat = rng.standard_normal((2, 2))
        z = 2.0 * cmath.exp(2j * math.pi * rng.uniform())
        if cond(t_mat) > 1e6 or np.min(np.abs(z - np.linalg.eigvals(a))) < 0.1:
            continue
        worst = max(worst, resolvent_similarity_residual(a, t_mat, z))
        draws += 1
    checks.append(IdentityCheck("resolvent/similarity-random", worst, tol.resolvent_identity))
    z_grid = np.exp(1j * (2.0 * np.pi * np.arange(64) / 64))
    for primary, secondary in ((P_PLUS, S_PLUS), (P_MINUS, S_MINUS)):
        pri = surface(primary.label)
        sec = surface(secondary.label)
        try:
            checks.extend(_complex_route_surface_equivalence(
                dab, pri, sec, z_grid,
                rtol=tol.surface_equivalence, similarity_rtol=tol.similarity))
        except ParameterError as exc:
            checks.append(IdentityCheck(
                f"surface-equiv/{pri.label}~{sec.label}/construction",
                math.inf, tol.surface_equivalence, str(exc)))
    model = half_cycle_model(dab, surface("P+"))
    dual = transfer_difference_residual(
        model, dab.c_phys, np.exp(1j * (2.0 * np.pi * np.arange(100) / 100)))
    checks.append(IdentityCheck(
        "transfer-difference/dual-path", float(np.max(dual)), tol.transfer_difference))
    dc = transfer_fixed_freq(model, dab.c_phys, 1.0) - \
        transfer_same_cycle(model, dab.c_phys, 1.0)
    checks.append(IdentityCheck(
        "transfer-difference/dc-zero", float(np.linalg.norm(dc)), tol.transfer_difference))
    f = sweep_frequencies(cfg.sweep.f_min, cfg.sweep.f_max, cfg.sweep.points,
                          cfg.sweep.spacing, model.t_half)
    z = np.exp(2j * np.pi * f * model.t_half)
    delta = transfer_fixed_freq(model, dab.c_phys, z) - transfer_same_cycle(model, dab.c_phys, z)
    diff = row_norms(delta)
    envelope = difference_envelope(model, dab.c_phys, z)
    ratio = np.max(np.divide(diff, envelope, out=np.where(diff == 0.0, 0.0, np.inf),
                             where=envelope != 0.0))
    checks.append(IdentityCheck("transfer-difference/envelope-ratio", float(ratio), 1.0))
    return checks


class TestIdentityChecks:
    """identity_checks is the suite verify printed before it moved into the library: every
    row's bits, but for the roundoff that its closed-form T-solve and planar norms move."""

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
        surfaces = {label: dataclasses.replace(s, polarity=cfg.polarity_override.get(
            label, s.polarity)) for label, s in SURFACES.items()}
        freqs = sweep_frequencies(cfg.sweep.f_min, cfg.sweep.f_max, cfg.sweep.points,
                                  cfg.sweep.spacing, cfg.converter.t_half)
        new = identity_checks(build_dab(cfg.converter, t3_skew=cfg.t3_skew),
                              cfg.tolerances, surfaces, freqs)
        dab = build_dab(cfg.converter, t3_skew=cfg.t3_skew)
        old = _earlier_verify_checks(cfg, dab)
        pairs = ((surfaces["P+"], surfaces["S+"]), (surfaces["P-"], surfaces["S-"]))
        assert_rows_agree(dab, new, old, pairs, np.exp(1j * (2.0 * np.pi * np.arange(64) / 64)))


def property_range_params(rng: np.random.Generator) -> DabParams:
    """One design drawn over the ranges of tests/test_cli_properties.py: nearly lossless,
    near-marginal loads, phase shifts next to 0, 0.5 and 1, and L and Co over four decades.
    A draw can be invalid (ParameterError) or unsolvable like the property test's own."""
    def log_uniform(lo, hi):
        return float(10.0 ** rng.uniform(lo, hi))

    def resistance():
        return 0.0 if rng.uniform() < 0.5 else log_uniform(-3.0, -0.5)

    edges = [1e-9, 1e-6, 1e-3, 0.5 - 1e-9, 0.5, 0.5 + 1e-9, 1.0 - 1e-3, 1.0 - 1e-6, 1.0 - 1e-9]
    return DabParams(
        n_turns=float(rng.uniform(0.5, 2.0)), L=log_uniform(-7.0, -3.0),
        Co=log_uniform(-6.0, -2.0), Rt=resistance(), Rc=resistance(),
        Ro=log_uniform(0.0, 2.0) if rng.uniform() < 0.5 else log_uniform(6.0, 12.0),
        Vin=float(rng.uniform(10.0, 400.0)), fs=log_uniform(4.0, 5.5),
        D_phase=(edges[rng.integers(len(edges))] if rng.uniform() < 0.5
                 else float(rng.uniform(0.01, 0.99))),
        Vr=1.0)


def _complex_route_surface_equivalence(dab, primary, secondary, z_grid, rtol=1e-10,
                                       similarity_rtol=1e-12):
    """verify_surface_equivalence as it ran through complex arrays, copied: numpy input
    vectors, a planar `resolvent_solve` round trip, the complex LAPACK T-solve, and the
    c_phys products."""
    t_mat = dab.schedule.maps[primary.a - 1].phi
    t_cond = cond(t_mat)
    if not t_cond <= pwlti.COND_LIMIT:
        raise MarginalSystemError(f"similarity transform is singular: cond ~ {t_cond:.3e}")
    m_pri = half_cycle_model(dab, primary)
    m_sec = half_cycle_model(dab, secondary)
    sim_res = relative_residual(np.linalg.solve(t_mat, m_sec.phi @ t_mat), m_pri.phi)
    z = np.asarray(z_grid, dtype=complex)
    b_pri = m_pri.b_cur + np.multiply.outer(z, m_pri.b_next)
    b_sec = np.multiply.outer(z, m_sec.b_cur) + m_sec.phi @ m_sec.b_next
    zr, zi = smallsignal._z_parts(m_sec, z)  # the pole gate
    solved = pwlti.planar_array(pwlti.resolvent_solve(
        pwlti.Matrix2x2.of(m_sec.phi), zr, zi, [planar(b_sec)]), z.shape)[0]
    mapped, chained = np.linalg.solve(t_mat.astype(complex),
                                      np.stack([b_sec, solved])[..., None])[..., 0]
    c = np.ravel(dab.c_phys).tolist()
    h_chain = pwlti.planar_array([pwlti.matrix_times(c, planar(chained))], z.shape)[0]

    def worst(actual, expected):
        def norm(v):
            return np.sqrt(v[..., 0].real ** 2 + v[..., 0].imag ** 2
                           + v[..., 1].real ** 2 + v[..., 1].imag ** 2)
        return float(np.max(norm(actual - expected) / (1.0 + norm(expected)), initial=0.0))

    input_res, flipped_res = worst(b_pri, mapped), worst(b_pri, -mapped)
    transfer_res = worst(transfer_fixed_freq(m_pri, dab.c_phys, z), h_chain)
    note = ""
    if input_res > rtol and flipped_res <= rtol:
        note = "matches after a global sign flip: surface polarity mismatch"
    name = f"surface-equiv/{primary.label}~{secondary.label}"
    return [IdentityCheck(f"{name}/similarity", sim_res, similarity_rtol),
            IdentityCheck(f"{name}/input-vector", input_res, rtol, note),
            IdentityCheck(f"{name}/transfer-chain", transfer_res, rtol)]


# Largest ||y_new - y_old|| / (u cond(T) ||y||) of the two routes' solves of T y = v, from
# Higham, "Accuracy and Stability of Numerical Algorithms", 2nd ed. LAPACK's LU with partial
# pivoting has ||dT||_inf <= n^2 gamma_3n rho_n ||T||_inf = 48 u ||T||_inf for n = 2, rho_2 <= 2
# (Thm 9.5), so by Thm 7.2 it errs by at most 2 cond_inf(T) 48 u ||y||_inf, which is at most
# 192 sqrt(2) u cond(T) ||y|| in 2-norms (cond_inf <= 2 cond, ||.||_2 <= sqrt(2) ||.||_inf). The
# closed form errs by at most (2 sqrt(2) + 3) u cond(T) ||y||: adj(T) v is two products and a
# sum per entry (|adj T| |v| <= sqrt(2) s_max^2 ||y||), the summed determinant and the
# quotient a few u more. T is real, so the real and imaginary parts obey each bound apiece.
_T_SOLVES = 192.0 * math.sqrt(2.0) + 2.0 * math.sqrt(2.0) + 3.0


def _allowed_differences(dab, pairs, z, old) -> dict:
    """The largest |new - old| residual each moved row of `old` may show, to first order.

    A row's residual is max over z of ||actual - y|| / (1 + ||y||), with y = T^{-1} v (the
    input-vector row) or c_phys T^{-1} v (the transfer-chain row). A change dy moves it by
    at most ||dy|| (1 + r) / (1 + ||y||); computing the residual adds 4 u r to each route, and
    c_phys y 2 u ||c_phys|| ||T^{-1} v|| to each. The envelope ratio sums its four squares in
    another order than BLAS (gamma_3 apiece, 6 u apart), so its root is 3 u apart, plus 1 u
    for each root's own rounding: 4 u relative, at most 4 ulps.
    """
    u = 2.0 ** -53
    residual = {c.name: c.residual for c in old}
    allowed = {}
    for pri, sec in pairs:
        name = f"surface-equiv/{pri.label}~{sec.label}"
        if f"{name}/input-vector" not in residual:  # the pair raised a construction row
            continue
        t_mat = dab.schedule.maps[pri.a - 1].phi
        m_sec = half_cycle_model(dab, sec)
        b_sec = np.multiply.outer(z, m_sec.b_cur) + m_sec.phi @ m_sec.b_next
        x_sec = np.linalg.solve(z[:, None, None] * np.eye(2) - m_sec.phi, b_sec[..., None])
        chain = float(np.linalg.norm(dab.c_phys, 2)
                      * np.max(np.linalg.norm(np.linalg.solve(t_mat, x_sec), axis=-2)))
        kappa = float(np.linalg.cond(t_mat))
        for row, scale, extra in (("input-vector", 1.0, 0.0), ("transfer-chain", chain, 4.0)):
            r = residual[f"{name}/{row}"]
            allowed[f"{name}/{row}"] = u * (
                (_T_SOLVES + extra) * kappa * scale * (1.0 + r) + 8.0 * r)
    ratio = "transfer-difference/envelope-ratio"
    if ratio in residual:
        allowed[ratio] = 4.0 * math.ulp(residual[ratio])
    return allowed


def assert_rows_agree(dab, new, old, pairs, z):
    """The same names, tolerances, notes and verdicts; the same residual bits except in the
    rows of `_allowed_differences`, which move by no more than it allows."""
    assert [(c.name, c.tolerance, c.note, c.passed) for c in new] == \
        [(c.name, c.tolerance, c.note, c.passed) for c in old]
    allowed = _allowed_differences(dab, pairs, z, old)
    for n, o in zip(new, old):
        if n.name in allowed and n.residual != o.residual:
            assert abs(n.residual - o.residual) <= allowed[n.name], (n, o, allowed[n.name])
        else:
            assert float.hex(n.residual) == float.hex(o.residual), (n, o)


class TestPlanarSurfaceEquivalence:
    """verify_surface_equivalence keeps every bit of its earlier complex-array route, but for
    the roundoff of its closed-form T-solve, and raises the same errors."""

    GRIDS = (np.exp(1j * (2.0 * np.pi * np.arange(64) / 64)), unit_circle(8))
    PAIRS = ((P_PLUS, S_PLUS), (P_MINUS, S_MINUS))

    @staticmethod
    def same_rows_or_error(dab, pri, sec, z):
        """The rows of both routes, compared by `assert_rows_agree`, or the one error both
        raise."""
        try:
            old = _complex_route_surface_equivalence(dab, pri, sec, z)
        except (ParameterError, MarginalSystemError, ResolventSingularityError) as exc:
            with pytest.raises(type(exc)) as err:
                verify_surface_equivalence(dab, pri, sec, z)
            assert str(err.value) == str(exc)
            return None
        new = verify_surface_equivalence(dab, pri, sec, z)
        assert_rows_agree(dab, new, old, [(pri, sec)], z)
        return new

    @pytest.mark.parametrize("polarity", [+1, -1])
    def test_the_reference_design(self, ref_dab, polarity):
        # polarity -1 is the S+ override of verify's negative path: a sign-flip note.
        secondary = dataclasses.replace(S_PLUS, polarity=polarity)
        for z in self.GRIDS:
            rows = self.same_rows_or_error(ref_dab, P_PLUS, secondary, z)
            assert (rows[1].note != "") == (polarity == -1)
            assert self.same_rows_or_error(ref_dab, P_MINUS, S_MINUS, z) is not None

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
                self.same_rows_or_error(dab, *pair, self.GRIDS[0])

    def test_a_skewed_schedule_raises_the_same_error(self, ref_params):
        dab = build_dab(ref_params, t3_skew=5e-8)
        for pair in self.PAIRS:
            with pytest.raises(ParameterError) as old:
                _complex_route_surface_equivalence(dab, *pair, self.GRIDS[0])
            with pytest.raises(ParameterError) as new:
                verify_surface_equivalence(dab, *pair, self.GRIDS[0])
            assert str(new.value) == str(old.value)


class TestClosedFormResolvent:
    """The closed-form 2x2 rule against numpy.linalg, near the poles too."""

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
            f = sweep_frequencies(params.fs / 1000.0, params.fs, 25, "log", model.t_half)
            near = [pole + gap * cmath.exp(2j * math.pi * rng.uniform())
                    for pole in model.poles.tolist() for gap in (1e-9, 1e-8, 1e-7, 1e-6)]
            found += 1
            yield dab, model, np.concatenate([np.exp(2j * np.pi * f * model.t_half), near])

    @staticmethod
    def solve_floor(model, z) -> np.ndarray:
        """What the dual-path floor allows one solve: 2^-53 (2 kappa + 4) relative."""
        return 2.0 ** -53 * (2.0 * np.linalg.cond(z[:, None, None] * np.eye(2) - model.phi) + 4.0)

    def test_solves_and_envelopes_agree_with_numpy_linalg(self):
        for dab, model, z in self.designs(60):
            lhs = z[:, None, None] * np.eye(2) - model.phi
            rhs = smallsignal._input_vector(model._entries, z.real, z.imag)
            expected = np.linalg.solve(lhs, pwlti.planar_array([rhs], z.shape)[0][..., None])
            expected = expected[..., 0]
            floor = 2.0 * self.solve_floor(model, z)  # both solves err
            closed = pwlti.planar_array(pwlti.resolvent_solve(
                model._entries.phi, z.real, z.imag, [rhs]), z.shape)[0]
            assert np.all(row_norms(closed - expected) <= floor * row_norms(expected))
            envelope = (np.abs(z - 1.0) * np.linalg.norm(dab.c_phys, 2)
                        * np.linalg.norm(np.linalg.inv(lhs), 2, axis=(-2, -1))
                        * np.linalg.norm(model.b_next))
            assert np.all(np.abs(difference_envelope(model, dab.c_phys, z) - envelope)
                          <= floor * envelope)

    def test_the_envelope_bounds_the_difference(self):
        for dab, model, z in self.designs(60):
            diff = row_norms(transfer_difference(model, dab.c_phys, z, rtol=np.inf))
            assert np.all(diff <= difference_envelope(model, dab.c_phys, z))

    def test_the_determinant_keeps_its_digits_where_it_cancels(self):
        # Next to a pole det(zI - phi) cancels by up to 1e9; it must still be within a few
        # ulps of the exact determinant of the floats z and phi (rational arithmetic).
        for _, model, z in self.designs(20):
            (p00, p01), (p10, p11) = (map(Fraction, row) for row in model.phi.tolist())
            m = pwlti.Matrix2x2.of(model.phi)
            for zk in z[-8:].tolist():  # the points next to the poles
                _, _, det_re, det_im, _ = pwlti.resolvent_det(m, zk.real, zk.imag)
                zr, zi = Fraction(zk.real), Fraction(zk.imag)
                exact_re = (zr - p00) * (zr - p11) - zi * zi - p01 * p10
                exact_im = zi * (2 * zr - p00 - p11)
                error = abs(complex(Fraction(det_re) - exact_re, Fraction(det_im) - exact_im))
                assert error <= 4.0 * 2.0 ** -53 * abs(complex(exact_re, exact_im)), zk

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
