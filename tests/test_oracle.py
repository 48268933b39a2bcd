"""Unit tests for the brute-force time-domain reference simulator."""

from __future__ import annotations

import ast
import cmath
import contextlib
import inspect
import math
import re
import tracemalloc
import warnings

import numpy as np
import pytest

from dabss import (P_MINUS, P_PLUS, S_MINUS, S_PLUS, DabParams, Injection, SimConfig, build_dab,
                   half_cycle_model, relative_residual, solve_periodic_fixed_point,
                   transfer_fixed_freq)
from dabss.config import require_coherent
from dabss.errors import (AmplitudeError, ConfigError, ConvergenceError, MarginalSystemError,
                          NumericInputError)
from dabss.oracle import (measure_frequency_response, measure_frequency_responses,
                          run_to_steady_state)
from dabss import core, dab as dab_module, dft, oracle, pwlti
from tests import reference
from tests.conftest import (REFERENCE_KWARGS, augmented_step_matrices, max_abs_relative,
                            numpy_blocked, random_params)

RECTIFY = np.diag([-1.0, 1.0])  # the inductor current negated: the half-wave state flip


class TestInjectionValidation:
    @pytest.mark.parametrize("kwargs", [
        dict(f=0.0), dict(f=-100.0), dict(f=float("nan")),
        dict(amplitude=-1e-3), dict(amplitude=float("inf")),
        dict(settle_periods=-1), dict(settle_periods=1.5),
        dict(measure_periods=0), dict(measure_periods=100.0),
    ])
    def test_bad_fields_rejected(self, kwargs):
        with pytest.raises(ConfigError):
            Injection(**kwargs)

    def test_zero_amplitude_is_a_valid_floor_probe(self):
        Injection(f=1000.0, amplitude=0.0)


class TestSimConfigValidation:
    @pytest.mark.parametrize("kwargs", [
        dict(periods=0), dict(periods=2.5),
        dict(substeps_per_interval=0),
        dict(convergence_tol=0.0), dict(convergence_tol=-1e-9),
    ])
    def test_bad_fields_rejected(self, kwargs):
        with pytest.raises(ConfigError):
            SimConfig(**kwargs)

    def test_substeps_capped_at_ten_thousand(self):
        assert SimConfig(substeps_per_interval=10**4).substeps_per_interval == 10**4
        with pytest.raises(ConfigError, match="sim.substeps_per_interval"):
            SimConfig(substeps_per_interval=10**4 + 1)


class TestCoherence:
    def test_integer_cycle_count_returned(self):
        # 1000 Hz over 1000 periods of 10 us spans exactly 10 cycles.
        inj = Injection(f=1000.0, measure_periods=1000)
        assert require_coherent(inj, 1e-5) == 10

    def test_tiny_float_noise_is_tolerated(self):
        inj = Injection(f=1000.0 * (1.0 + 1e-12), measure_periods=1000)
        assert require_coherent(inj, 1e-5) == 10

    def test_fractional_cycles_rejected(self):
        with pytest.raises(ConfigError):
            require_coherent(Injection(f=1050.0, measure_periods=1000), 1e-5)

    def test_sub_cycle_window_rejected(self):
        with pytest.raises(ConfigError):
            require_coherent(Injection(f=1.0, measure_periods=1000), 1e-5)

    def test_unset_frequency_rejected(self):
        with pytest.raises(ConfigError):
            require_coherent(Injection(), 1e-5)


class TestSteadyState:
    def test_matches_closed_form_at_default_budget(self, ref_dab):
        x_star, _ = run_to_steady_state(ref_dab, SimConfig())
        expected = solve_periodic_fixed_point(ref_dab.schedule)
        assert relative_residual(x_star, expected) < 1e-6

    def test_tighter_tolerance_converges_further(self, ref_dab):
        cfg = SimConfig(periods=8000, convergence_tol=1e-13)
        x_star, _ = run_to_steady_state(ref_dab, cfg)
        expected = solve_periodic_fixed_point(ref_dab.schedule)
        assert relative_residual(x_star, expected) < 1e-9

    def test_budget_exhaustion_raises_with_diagnostics(self, ref_dab):
        with pytest.raises(ConvergenceError) as err:
            run_to_steady_state(ref_dab, SimConfig(periods=3, convergence_tol=1e-13))
        assert err.value.residual > 0.0
        assert 0.9 < err.value.spectral_radius < 1.0

    def test_exhaustion_message_names_rho_and_the_error_bound(self, ref_dab):
        with pytest.raises(ConvergenceError) as err:
            run_to_steady_state(ref_dab, SimConfig(periods=3, convergence_tol=1e-13))
        rho = err.value.spectral_radius
        assert f"last change {err.value.residual:.3e}" in str(err.value)
        assert f"spectral radius rho = {rho:.10g}" in str(err.value)
        assert f"{err.value.residual * rho / (1.0 - rho):.3e} > tol" in str(err.value)

    def test_exhaustion_message_predicts_the_periods_left(self):
        # Seed 100 of random_params contracts at rho = 0.99955, so the default
        # budget ends far from the fixed point; the rate predicts how far.
        dab = build_dab(random_params(np.random.default_rng(100)))
        with pytest.raises(ConvergenceError) as err:
            run_to_steady_state(dab, SimConfig())
        assert 0.999 < err.value.spectral_radius < 1.0
        more = int(re.search(r"; at rate rho about (\d+) more periods would meet it$",
                             str(err.value)).group(1))
        assert more > 0
        x_star, _ = run_to_steady_state(dab, SimConfig(periods=2 * (4000 + more)))
        expected = solve_periodic_fixed_point(dab.schedule)
        assert relative_residual(x_star, expected) < 1e-6

    def test_a_subnormal_tolerance_still_estimates_the_periods_left(self, ref_dab):
        tol = 5e-324
        with pytest.raises(ConvergenceError) as err:
            run_to_steady_state(ref_dab, SimConfig(periods=3, convergence_tol=tol))
        rho = err.value.spectral_radius
        assert tol / (err.value.residual * rho / (1.0 - rho)) == 0.0  # the ratio underflows
        more = re.search(r"; at rate rho about (\d+) more periods would meet it$", str(err.value))
        assert int(more.group(1)) > 0

    @pytest.mark.parametrize("rt", [1e9, 1e15])
    def test_a_marginal_period_map_raises_instead_of_iterating(self, rt):
        # A blocking series path and no load conserve the capacitor state, so the period map
        # keeps an eigenvalue at 1 and no iteration can settle. Its floats' rho is exactly 1.
        dab = build_dab(DabParams(**dict(REFERENCE_KWARGS, Rt=rt, Rc=0.0, Ro=1e30)))
        with pytest.raises(MarginalSystemError) as err:
            run_to_steady_state(dab, SimConfig())
        assert "spectral radius rho = 1 is not below 1" in str(err.value)
        assert max(map(abs, err.value.eigenvalues)) == 1.0

    @pytest.mark.parametrize("tol", [1e-9, 1e-11])
    def test_stopping_rule_meets_the_requested_tolerance(self, ref_params, tol):
        # The period-to-period change alone stopped at 100x tol on this design
        # (spectral radius 0.98996); scaled by rho / (1 - rho) it bounds the error.
        x_star, _ = run_to_steady_state(build_dab(ref_params),
                                        SimConfig(periods=4000, convergence_tol=tol))
        expected = solve_periodic_fixed_point(build_dab(ref_params).schedule)
        assert relative_residual(x_star, expected) <= tol

    def test_substep_count_does_not_touch_the_fixed_point(self, ref_dab):
        coarse, _ = run_to_steady_state(ref_dab, SimConfig(substeps_per_interval=8))
        fine, _ = run_to_steady_state(ref_dab, SimConfig(substeps_per_interval=64))
        np.testing.assert_array_equal(coarse, fine)


class TestWaveform:
    def test_layout_covers_every_subinterval_boundary(self, ref_dab, ref_params):
        _, wf = run_to_steady_state(ref_dab, SimConfig(substeps_per_interval=32))
        assert wf.t.shape == (1 + 4 * 32,)
        assert wf.x.shape == (len(wf.t), 2)
        assert wf.y.shape == (len(wf.t), 2)
        assert wf.t[0] == 0.0
        assert wf.t[-1] == pytest.approx(ref_params.period, rel=1e-12)
        assert np.all(np.diff(wf.t) > 0.0)

    def test_zero_duration_interval_is_skipped(self, ref_params):
        # Skew T3 to swallow T4 entirely; the sampler must drop the empty
        # interval instead of duplicating its boundary. D = 1/2 keeps the
        # duration arithmetic exact so T4 lands on 0.0, not on an ulp of it.
        params = ref_params._replace(D_phase=0.5)
        skew = params.t_half - params.D_phase * params.t_half
        dab = build_dab(params, t3_skew=skew)
        assert dab.schedule.segments[3].duration == 0.0
        _, wf = run_to_steady_state(dab, SimConfig(substeps_per_interval=16))
        assert wf.t.shape == (1 + 3 * 16,)
        assert wf.t[-1] == pytest.approx(params.period, rel=1e-12)
        assert np.all(np.diff(wf.t) > 0.0)

    def test_states_obey_half_wave_symmetry(self, ref_dab):
        substeps = 32
        cfg = SimConfig(periods=8000, convergence_tol=1e-13,
                        substeps_per_interval=substeps)
        _, wf = run_to_steady_state(ref_dab, cfg)
        half = 2 * substeps
        for k in range(half + 1):
            assert relative_residual(wf.x[k + half], RECTIFY @ wf.x[k]) < 1e-9

    def test_rectified_outputs_repeat_every_half_period(self, ref_dab):
        substeps = 32
        cfg = SimConfig(periods=8000, convergence_tol=1e-13,
                        substeps_per_interval=substeps)
        _, wf = run_to_steady_state(ref_dab, cfg)
        half = 2 * substeps
        for k in range(half + 1):
            assert relative_residual(wf.y[k + half], wf.y[k]) < 1e-9


class TestFrequencyResponse:
    def test_matches_the_sampled_model_on_both_surfaces(self, ref_dab):
        f = 1000.0
        cfg = SimConfig(periods=4000, convergence_tol=1e-11, injection=Injection(f=f))
        for surface in (P_PLUS, S_PLUS):
            model = half_cycle_model(ref_dab, surface)
            z = cmath.exp(2j * cmath.pi * f * model.t_half)
            h_model = transfer_fixed_freq(model, ref_dab.c_phys, z)
            h_meas = measure_frequency_response(ref_dab, surface, cfg)
            for ch in range(2):
                assert abs(h_meas[ch] - h_model[ch]) / abs(h_model[ch]) < 1e-4

    def test_response_is_linear_in_the_injected_amplitude(self, ref_dab):
        def measure(amplitude):
            inj = Injection(f=2000.0, amplitude=amplitude,
                            settle_periods=400, measure_periods=500)
            cfg = SimConfig(periods=4000, convergence_tol=1e-11, injection=inj)
            return measure_frequency_response(ref_dab, P_PLUS, cfg)

        h_full = measure(1e-4)
        h_half = measure(5e-5)
        assert np.all(np.abs(h_full - h_half) / np.abs(h_full) < 1e-3)

    def test_response_is_stable_under_a_longer_settle_window(self, ref_dab):
        def measure(settle):
            inj = Injection(f=2000.0, amplitude=1e-4,
                            settle_periods=settle, measure_periods=500)
            cfg = SimConfig(periods=4000, convergence_tol=1e-11, injection=inj)
            return measure_frequency_response(ref_dab, P_PLUS, cfg)

        h_short = measure(400)
        h_long = measure(800)
        assert np.all(np.abs(h_long - h_short) / np.abs(h_long) < 2e-3)

    def test_zero_amplitude_probe_sits_at_the_numerical_floor(self, ref_dab):
        inj = Injection(f=2000.0, amplitude=0.0, settle_periods=1000,
                        measure_periods=500)
        cfg = SimConfig(periods=8000, convergence_tol=1e-13, injection=inj)
        floor = measure_frequency_response(ref_dab, P_PLUS, cfg)
        assert np.linalg.norm(floor) < 1e-12

    def test_oversized_amplitude_rejected_up_front(self, ref_dab):
        # comp_gain is 5 us/V against a 1.5 us shortest interval, so one volt
        # of injection cannot fit.
        inj = Injection(f=2000.0, amplitude=1.0)
        cfg = SimConfig(injection=inj)
        with pytest.raises(AmplitudeError):
            measure_frequency_response(ref_dab, P_PLUS, cfg)

    def test_missing_injection_rejected(self, ref_dab):
        with pytest.raises(ConfigError):
            measure_frequency_response(ref_dab, P_PLUS, SimConfig())

    def test_non_coherent_frequency_rejected(self, ref_dab):
        cfg = SimConfig(injection=Injection(f=1050.0))
        with pytest.raises(ConfigError):
            measure_frequency_response(ref_dab, P_PLUS, cfg)


def step_exponentials(aug):
    """The oracle's kernel on a (k, 3, 3) stack of [[a T, w T], [0, 0]], as (k, 3, 3) maps:
    each matrix the table of an interval of its own, stepped for a duration of 1."""
    tables = oracle._pade_tables(aug[:, :2].reshape(-1, 6).tolist())
    maps = np.zeros(aug.shape)
    maps[:, :2] = oracle._step_maps(tables, range(len(aug)), np.ones(len(aug)))
    maps[:, 2, 2] = 1.0
    return maps


class TestStepExponentials:
    """The oracle's Pade kernel against scipy.linalg.expm, a reference for
    the tests only, on the sets that check core.augmented_expm."""

    def test_matches_scipy_on_random_designs(self):
        linalg = pytest.importorskip("scipy.linalg")
        rng = np.random.default_rng(41)
        # Period steps and the oracle's 32-substep waveform steps of 500 designs.
        aug = np.concatenate([augmented_step_matrices(build_dab(random_params(rng)), (1, 32))
                              for _ in range(500)])
        assert max_abs_relative(step_exponentials(aug), linalg.expm(aug)).max() <= 1e-14

    def test_stiff_blocked_design_keeps_its_conserved_state(self):
        # A blocking series path and an unloaded output: about 26 squarings per interval.
        linalg = pytest.importorskip("scipy.linalg")
        dab = build_dab(DabParams(**dict(REFERENCE_KWARGS, Rt=1e9, Rc=0.0, Ro=1e30)))
        expected = linalg.expm(augmented_step_matrices(dab))
        durations = [seg.duration for seg in dab.schedule.segments]
        ours = oracle._step_maps(oracle._tables(dab), range(4), durations)
        assert max_abs_relative(ours[:, :, :2], expected[:, :2, :2]).max() <= 1e-14
        assert max_abs_relative(ours[:, :, 2:], expected[:, :2, 2:]).max() <= 1e-14

    def test_mixed_norm_stack_matches_single_calls_bit_for_bit(self):
        # Skew-symmetric state blocks keep exp bounded at any norm; 1e8 takes 25
        # squarings and 1e-6 none, and the forcing norms set different balancing
        # shifts, so both differ per map. The last four blocks have 1-norms of exactly
        # theta9 / 2 and theta9 (degree 9), one ulp above theta9 and 4 (degree 13 with
        # no squaring), so the degree differs per map too.
        theta9 = oracle._THETA9
        rng = np.random.default_rng(43)
        aug = np.zeros((10, 3, 3))
        aug[:, :2] = rng.standard_normal((10, 2, 3))
        aug[:, :2, :2] -= np.swapaxes(aug[:, :2, :2], 1, 2)
        aug[:6, :2, :2] *= np.array([1e-6, 1e8, 1e-6, 3.0, 1e8, 40.0])[:, None, None]
        aug[6:, 0, 1] = [theta9 / 2, -theta9, math.nextafter(theta9, math.inf), 4.0]
        aug[6:, 1, 0] = -aug[6:, 0, 1]
        aug[:, :2, 2] *= np.array([1e3, 1.0, 0.0, 1e-9, 1e12, 40.0, 1e4, 1.0, 1e6, 1e2])[:, None]
        stacked = step_exponentials(aug)
        for k in range(len(aug)):
            np.testing.assert_array_equal(stacked[k], step_exponentials(aug[k:k + 1])[0])

    @pytest.mark.parametrize("norm", [oracle._THETA9 / 2, oracle._THETA9,
                                      math.nextafter(oracle._THETA9, math.inf)],
                             ids=["half theta9", "theta9", "above theta9"])
    def test_matches_mpmath_at_the_low_degree_bound(self, monkeypatch, norm):
        # State blocks of 1-norm exactly theta9 / 2, theta9 or one ulp above (column 0
        # holds +-norm / 2 twice, column 1 less); forcing columns 1e2-1e6 times the
        # state block's norm set the balancing shift. Degree 9 serves up to theta9 and
        # degree 13 above it; both measured within 2 u of 50-digit mpmath, bound 4.5 u.
        rng = np.random.default_rng(59)
        aug = np.zeros((16, 3, 3))
        aug[:, :2, 0] = rng.choice([-0.5, 0.5], (16, 2)) * norm
        aug[:, :2, 1] = rng.uniform(-0.45, 0.45, (16, 2)) * norm
        aug[:, :2, 2] = rng.standard_normal((16, 2)) * norm * 10.0 ** rng.uniform(2, 6, (16, 1))
        assert np.all(np.abs(aug[:, :2, :2]).sum(axis=1).max(axis=1) == norm)
        degrees = []
        pade = oracle._pade

        def counting(terms, keys, tau, scratch):
            # Odd keys are the intervals' degree-13 tables, even ones their degree-9 tables.
            degrees.append((len(terms), {13 if key % 2 else 9 for key in keys.tolist()}))
            return pade(terms, keys, tau, scratch)

        monkeypatch.setattr(oracle, "_pade", counting)
        ours, exact = step_exponentials(aug), reference.expm(aug)
        assert degrees == [(5, {9}) if norm <= oracle._THETA9 else (7, {13})]
        assert max_abs_relative(ours[:, :2, :2], exact[:, :2, :2]).max() <= 1e-15
        assert max_abs_relative(ours[:, :2, 2:], exact[:, :2, 2:]).max() <= 1e-15

    def test_a_time_scaled_design_keeps_its_step_maps(self, ref_dab):
        # L and Co times 1e-150 and fs times 1e150 leave every a T as it is, with ||a||_1
        # near 1e155, whose powers overflow unless each interval's table is scaled by a power
        # of two. Row-relative, measured 1.1e-16; 4.8e-16 with a T formed per map instead.
        scaled = build_dab(DabParams(**dict(REFERENCE_KWARGS, L=10e-156, Co=100e-156,
                                            fs=100e153)))
        assert max(np.abs(seg.a).sum(axis=0).max() for seg in scaled.schedule.segments) > 1e155
        maps = [oracle._step_maps(oracle._tables(dab), range(4),
                                  [seg.duration for seg in dab.schedule.segments]).copy()
                for dab in (ref_dab, scaled)]
        rows = np.abs(maps[1] - maps[0]).max(axis=2) / np.abs(maps[0]).max(axis=2)
        assert rows.max() <= 2e-15

    def test_a_forcing_column_near_the_overflow_threshold_keeps_its_step_maps(self, ref_dab):
        # Vin of 1e300 puts b u near 1e305, whose degree-9 terms b_j a^(j-1) b u would
        # overflow unless its own power of two scales it. phi does not see Vin; gamma scales
        # with it, measured within 2.1e-16 here and with a T formed per map.
        loud = build_dab(DabParams(**dict(REFERENCE_KWARGS, Vin=1e300)))
        maps = [oracle._step_maps(oracle._tables(dab), range(4),
                                  [seg.duration for seg in dab.schedule.segments]).copy()
                for dab in (ref_dab, loud)]
        np.testing.assert_array_equal(maps[1][..., :2], maps[0][..., :2])
        gamma = maps[0][..., 2]
        assert np.abs(maps[1][..., 2] / 1e298 - gamma).max() <= 1e-15 * np.abs(gamma).max()

    def test_zero_duration_is_exactly_the_identity(self, ref_dab):
        # Each step's entries (a00, a01, g0, a10, a11, g1): phi = I and gamma = 0, from the
        # stacked kernel and, with the same bits, from the float one.
        tables = oracle._tables(ref_dab)
        entries = oracle._step_maps(tables, range(4), [0.0] * 4)
        assert list(oracle._rows(entries)) == [(1.0, 0.0, 0.0, 0.0, 1.0, 0.0)] * 4
        rows = oracle._step_rows(tables, range(4), [0.0] * 4)
        assert entries.tobytes() == np.array(rows).tobytes()

    @pytest.mark.parametrize("entry", [np.nan, np.inf, 800.0, 1e300])
    def test_a_result_beyond_double_precision_raises(self, entry):
        # 800 overflows; 1e300 needs about 1,000 squarings, whose roundoff leaves
        # no significant bit even where the result stays finite.
        aug = np.zeros((2, 3, 3))
        aug[1, 0, 0] = entry
        with np.errstate(all="raise"):
            with pytest.raises(NumericInputError, match="matrix exponential is not finite"):
                step_exponentials(aug)

    def test_an_unresolvable_design_raises_instead_of_a_finite_map(self):
        # Co = 1e-300 puts the 1-norm of a T near 3.5e294. Scaling and squaring
        # in double precision keeps a finite map here, which has lost the slow
        # mode of the true exponential.
        dab = build_dab(DabParams(**dict(REFERENCE_KWARGS, Co=1e-300)))
        durations = [seg.duration for seg in dab.schedule.segments]
        with pytest.raises(NumericInputError, match="reaches 3.497e[+]294, beyond double"):
            oracle._step_maps(oracle._tables(dab), range(4), durations)

    def test_durations_that_overflow_a_t_are_refused_without_a_warning(self):
        # L 4.7e202, Co 8.5e-296 and fs 2.5e-16: the entries of a are finite, a T is not.
        dab = build_dab(DabParams(**dict(REFERENCE_KWARGS, L=4.7e202, Co=8.5e-296, fs=2.5e-16)))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(NumericInputError, match="matrix exponential is not finite"):
                run_to_steady_state(dab, SimConfig())


def both_kernels(tables, intervals, durations) -> list:
    """What `_step_maps` and `_step_rows` give for the same steps: the bytes of their maps, row
    by row (so -0.0 is not 0.0), or the text of the NumericInputError each raised."""
    results = []
    for kernel in (oracle._step_maps, oracle._step_rows):
        try:
            results.append(np.asarray(kernel(tables, intervals, durations), float).tobytes())
        except NumericInputError as exc:
            results.append(str(exc))
    return results


class TestFloatKernel:
    """`_step_rows`, the kernel of the pre-run and the waveform in Python floats, gives the bits
    of the stacked `_step_maps` on the same tables, and refuses with its text."""

    def test_every_map_of_random_designs(self):
        # Period steps, the waveform's 32 substeps and steps 2^20 times longer, which take
        # about 10 squarings: in one stack, and each map in a call of its own.
        rng = np.random.default_rng(67)
        for _ in range(60):
            dab = build_dab(random_params(rng))
            tables = oracle._tables(dab)
            base = [seg.duration for seg in dab.schedule.segments]
            durations = [d * scale for scale in (1.0, 1.0 / 32.0, 2.0 ** 20) for d in base]
            intervals = [*range(4)] * 3
            stacked, floats = both_kernels(tables, intervals, durations)
            assert isinstance(stacked, bytes) and stacked == floats
            for i, d in zip(intervals, durations):
                single = both_kernels(tables, [i], [d])
                assert isinstance(single[0], bytes) and single[0] == single[1]

    @pytest.mark.parametrize("converter", [
        # Steps on either side of theta9, a mixed stack; every step on degree 13 with one or
        # two squarings; about 26 squarings; L and Co times 2^-500 and fs times 2^500.
        dict(Rt=6.0), dict(Rt=50.0), dict(Rt=1e9, Rc=0.0, Ro=1e30),
        dict(L=10e-6 * 2.0 ** -500, Co=100e-6 * 2.0 ** -500, fs=100e3 * 2.0 ** 500)],
        ids=["Rt=6", "Rt=50", "blocking", "time-scaled"])
    def test_designs_at_the_degree_bound_with_squarings_and_time_scaled(self, converter):
        dab = build_dab(DabParams(**dict(REFERENCE_KWARGS, **converter)))
        tables = oracle._tables(dab)
        base = [seg.duration for seg in dab.schedule.segments]
        stacked, floats = both_kernels(tables, range(4), base)
        assert isinstance(stacked, bytes) and stacked == floats
        for i, d in enumerate(base):
            single = both_kernels(tables, [i], [d])
            assert single[0] == single[1]

    @pytest.mark.parametrize("converter, message", [
        (dict(Co=1e-300), "a*t (state matrix times duration) reaches 3.497e+294"),
        (dict(Vin=1e308), "b*u*t (input column times duration) reaches inf"),
        (dict(L=4.7e202, Co=8.5e-296, fs=2.5e-16),
         "a*t (state matrix times duration) reaches inf")],
        ids=["53+ squarings", "b u overflows", "a T overflows"])
    def test_designs_beyond_double_precision_are_refused_alike(self, converter, message):
        dab = build_dab(DabParams(**dict(REFERENCE_KWARGS, **converter)))
        durations = [seg.duration for seg in dab.schedule.segments]
        stacked, floats = both_kernels(oracle._tables(dab), range(4), durations)
        assert stacked == floats
        assert floats.startswith("matrix exponential is not finite") and message in floats

    @pytest.mark.parametrize("entry", [math.nan, math.inf, 800.0, 1e300, -800.0])
    def test_entries_beyond_double_precision_are_refused_alike(self, entry):
        # 800 overflows and -800 does not; 1e300 needs about 1,000 squarings.
        tables = oracle._pade_tables([(0.0,) * 6, (entry, 0.0, 0.0, 0.0, 0.0, 0.0)])
        stacked, floats = both_kernels(tables, [0, 1], [1.0, 1.0])
        assert stacked == floats
        assert (entry == -800.0) == isinstance(floats, bytes)

    @pytest.mark.parametrize("above", [False, True], ids=["52 squarings", "53 squarings"])
    def test_the_squaring_limit_is_one_rule(self, above):
        # ||A t||_1 = theta13 2^52 takes 52 squarings; one ulp more takes 53, which is refused.
        norm = oracle._THETA13 * 2.0 ** 52
        norm = math.nextafter(norm, math.inf) if above else norm
        tables = oracle._pade_tables([(-norm, 0.0, 1.0, 0.0, -0.5 * norm, 1.0)])
        stacked, floats = both_kernels(tables, [0], [1.0])
        assert stacked == floats
        assert isinstance(floats, str) == above
        if above:
            assert floats == ("matrix exponential is not finite: the 1-norm of a*t (state "
                              f"matrix times duration) reaches {norm:.3e}, beyond double precision")


class TestOracleEigenvalues:
    """The oracle's own 2x2 eigenvalue rule, which gives the pre-run its rho."""

    def test_period_maps_within_a_few_u_of_mpmath(self):
        rng = np.random.default_rng(71)
        for _ in range(100):
            dab = build_dab(random_params(rng))
            rows = oracle._step_rows(oracle._tables(dab), range(4),
                                     [seg.duration for seg in dab.schedule.segments])
            pi = np.eye(2)
            for m in rows:
                pi = np.array(m).reshape(2, 3)[:, :2] @ pi
            ours = oracle._eigenvalues(*pi.ravel().tolist())
            exact = reference.eigenvalues(pi.ravel().tolist())
            scale = np.abs(pi).sum(axis=0).max()
            for e in ours:
                assert min(abs(e - x) for x in exact) <= 4e-16 * scale
            rho = max(map(abs, exact))  # rho as the pre-run takes it: within a rounding
            assert abs(max(map(abs, ours)) - rho) <= 2.0 ** -53 * rho

    def test_a_rho_one_ulp_below_one_is_not_rounded_up(self):
        # A lossless, nearly unloaded design whose period map's floats have spectral radius
        # 1 - 2^-53 (50-digit mpmath), the diagonal entry m00 plus about 4e-17: mu + delta
        # rounds that to 1, the diagonal-plus-correction form does not. So the pre-run
        # iterates, and exhausts its budget, instead of refusing the map as marginal.
        dab = build_dab(DabParams(
            n_turns=1.7589367564046976, L=1.0994386073127588e-06, Co=0.001619850469200214,
            Rt=0.0, Rc=0.0, Ro=8920180119.656918, Vin=187.67620509228058, fs=274356.41105755686,
            D_phase=1e-06, Vr=1.0))
        with pytest.raises(ConvergenceError) as err:
            run_to_steady_state(dab, SimConfig(periods=10))
        assert err.value.spectral_radius == 1.0 - 2.0 ** -53

    def test_exact_cases(self):
        assert oracle._eigenvalues(0.0, 1.0, -1.0, 0.0) == (1j, -1j)
        assert oracle._eigenvalues(1.0, 2.0, 2.0, 4.0) == (5.0, 0.0)
        assert oracle._eigenvalues(0.0, 0.0, 0.0, 0.0) == (0j, 0j)
        # Entries near the float range and below the normal range scale to [1/2, 1) first.
        assert oracle._eigenvalues(1e300, 1e300, -1e300, 1e300) == (1e300 + 1e300j,
                                                                    1e300 - 1e300j)
        assert oracle._eigenvalues(2.0 ** -1070, 0.0, 0.0, 2.0 ** -1072) == (
            2.0 ** -1070, 2.0 ** -1072)

    def test_a_period_map_past_the_float_range_is_marginal(self):
        # The product of two finite maps overflows: rho is not a number, not an exception.
        with pytest.raises(MarginalSystemError, match="rho = nan is not below 1"):
            oracle._iterate_to_period_start([(1e200, 0.0, 0.0, 0.0, 0.5, 0.0)] * 2, 10, 1e-9)


class TestIndependence:
    def test_oracle_runs_without_the_closed_form_maps(self, ref_params, monkeypatch):
        # The oracle shares no code with the closed-form route: with every public
        # name of core and pwlti (augmented_expm among them), wherever it is bound,
        # the segment and period maps and the half-cycle map all refusing, it still runs.
        def refuse(*args):
            raise AssertionError("the oracle reached the closed-form route")

        dab = build_dab(ref_params)
        monkeypatch.setattr(pwlti.Schedule, "maps", property(refuse))
        monkeypatch.setattr(pwlti.Schedule, "period_map", property(refuse))
        public = {name for module in (core, pwlti) for name, value in vars(module).items()
                  if not name.startswith("_") and callable(value)
                  and getattr(value, "__module__", None) == module.__name__}
        assert {"augmented_expm", "compose", "fixed_point", "Schedule"} <= public
        for module in (core, pwlti, dab_module):
            for name in public & vars(module).keys():
                monkeypatch.setattr(module, name, refuse)
        monkeypatch.setattr(dab_module, "half_cycle_map", refuse)
        for closed_form in (lambda: dab.schedule.maps, lambda: dab.schedule.period_map,
                            lambda: solve_periodic_fixed_point(dab.schedule),
                            lambda: dab_module.solve_half_cycle(dab)):
            with pytest.raises(AssertionError):
                closed_form()
        x_star, waveform = run_to_steady_state(dab, SimConfig())
        assert np.all(np.isfinite(x_star)) and np.all(np.isfinite(waveform.x))
        injection = Injection(f=2000.0, settle_periods=50, measure_periods=50)
        h = measure_frequency_response(dab, P_PLUS, SimConfig(injection=injection))
        assert np.all(np.isfinite(h))
        h = measure_frequency_responses(dab, P_PLUS, SimConfig(injection=injection),
                                        [2000.0, 6000.0])
        assert h.shape == (2, 2) and np.all(np.isfinite(h))

    def test_oracle_imports_nothing_from_pwlti(self):
        imported = set()
        for node in ast.walk(ast.parse(inspect.getsource(oracle))):
            if isinstance(node, ast.ImportFrom):
                imported.add(node.module or "")
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                imported.update(alias.name for alias in node.names)
        assert not [name for name in imported
                    if name.split(".")[-1] in ("core", "pwlti", "smallsignal")]


class TestPreRunCache:
    @pytest.fixture()
    def pre_runs(self, monkeypatch):
        """Counts the unperturbed pre-runs the oracle iterates."""
        calls = []
        iterate = oracle._iterate_to_period_start

        def counting(step_maps, periods, tol):
            calls.append((periods, tol))
            return iterate(step_maps, periods, tol)

        monkeypatch.setattr(oracle, "_iterate_to_period_start", counting)
        return calls

    def test_one_pre_run_per_design_and_budget(self, ref_params, pre_runs):
        dab = build_dab(ref_params)
        cfg = SimConfig(periods=4000, convergence_tol=1e-11)
        x_star, _ = run_to_steady_state(dab, cfg)
        for f in (5000.0, 15000.0, 35000.0):
            injection = Injection(f=f, settle_periods=10, measure_periods=20)
            measure_frequency_response(dab, P_PLUS, SimConfig(
                periods=4000, convergence_tol=1e-11, injection=injection))
        assert pre_runs == [(4000, 1e-11)]
        np.testing.assert_array_equal(run_to_steady_state(dab, cfg)[0], x_star)
        run_to_steady_state(dab, SimConfig(periods=4000, convergence_tol=1e-9))
        assert pre_runs == [(4000, 1e-11), (4000, 1e-9)]
        run_to_steady_state(build_dab(ref_params), cfg)
        assert len(pre_runs) == 3

    def test_the_unperturbed_step_maps_are_made_once(self, ref_params, monkeypatch):
        # Calls of either kernel whose first four steps are intervals 1-4 at their own
        # durations: the pre-run's period maps. Perturbed half cycles never start at the base
        # durations.
        dab = build_dab(ref_params)
        base = [seg.duration for seg in dab.schedule.segments]
        unperturbed = []

        def counting(kernel):
            def counted(tables, intervals, durations):
                if (np.ravel(intervals)[:4].tolist() == [0, 1, 2, 3]
                        and np.ravel(durations)[:4].tolist() == base):
                    unperturbed.append(np.size(durations))
                return kernel(tables, intervals, durations)
            return counted

        for name in ("_step_maps", "_step_rows"):
            monkeypatch.setattr(oracle, name, counting(getattr(oracle, name)))
        run_to_steady_state(dab, SimConfig())
        for f in (5000.0, 15000.0, 35000.0):
            injection = Injection(f=f, settle_periods=10, measure_periods=20)
            measure_frequency_response(dab, P_PLUS, SimConfig(injection=injection))
        assert unperturbed == [4]

    def test_designs_and_measurements_share_the_thread_scratch(self, ref_params):
        # The kernel's work arrays are made once per thread, not per design or call.
        cfg = SimConfig(injection=Injection(f=15000.0, settle_periods=10, measure_periods=20))
        measure_frequency_response(build_dab(ref_params), P_PLUS, cfg)
        scratch = oracle._thread.scratch
        measure_frequency_response(build_dab(ref_params), S_MINUS, cfg)
        run_to_steady_state(build_dab(ref_params), SimConfig())
        assert oracle._thread.scratch is scratch

    def test_callers_get_a_copy(self, ref_params):
        dab = build_dab(ref_params)
        x_star, _ = run_to_steady_state(dab, SimConfig())
        expected = x_star.copy()
        x_star[:] = 0.0
        np.testing.assert_array_equal(run_to_steady_state(dab, SimConfig())[0], expected)


def responses_in_calls(dab, surface, cfg, freqs, group):
    """`measure_frequency_responses` rows of `freqs`, the bins passed in consecutive calls
    of at most `group` bins x half cycles each (at least one bin per call)."""
    injection = cfg.injection
    per_call = max(1, group // (2 * (injection.settle_periods + injection.measure_periods)))
    return np.concatenate([measure_frequency_responses(dab, surface, cfg, freqs[i:i + per_call])
                           for i in range(0, len(freqs), per_call)])


class TestMultiBin:
    INJECTION = dict(settle_periods=10, measure_periods=20)
    # Coherent bins of the 20-period window are multiples of 5 kHz.
    FREQS = [5000.0, 15000.0, 35000.0, 65000.0, 95000.0]

    @pytest.mark.parametrize("surface", [P_PLUS, S_MINUS], ids=lambda s: s.label)
    @pytest.mark.parametrize("amplitude", [1e-4, None], ids=["explicit", "automatic"])
    @pytest.mark.parametrize("block", [oracle.HALF_CYCLES_PER_EXPM, 7])
    @pytest.mark.parametrize("group", [2**17, 2 * 60])
    def test_rows_equal_one_bin_calls(self, ref_dab, monkeypatch, surface, amplitude, block,
                                      group):
        # Each bin steps on its own, so its row has the bits of its own call, whichever
        # bins share the call: 2**17 passes the five bins at once, 2 x 60 as 2 + 2 + 1.
        monkeypatch.setattr(oracle, "HALF_CYCLES_PER_EXPM", block)
        cfg = SimConfig(injection=Injection(amplitude=amplitude, **self.INJECTION))
        rows = responses_in_calls(ref_dab, surface, cfg, self.FREQS, group)
        assert rows.shape == (len(self.FREQS), 2)
        for f, row in zip(self.FREQS, rows):
            single = measure_frequency_response(ref_dab, surface, SimConfig(
                injection=Injection(f=f, amplitude=amplitude, **self.INJECTION)))
            np.testing.assert_array_equal(row, single)

    def test_bin_order_does_not_move_a_row(self, ref_dab):
        cfg = SimConfig(injection=Injection(**self.INJECTION))
        rows = measure_frequency_responses(ref_dab, P_PLUS, cfg, self.FREQS)
        np.testing.assert_array_equal(
            measure_frequency_responses(ref_dab, P_PLUS, cfg, self.FREQS[::-1]), rows[::-1])

    def test_every_bin_must_be_coherent(self, ref_dab):
        cfg = SimConfig(injection=Injection(**self.INJECTION))
        with pytest.raises(ConfigError, match="non-coherent"):
            measure_frequency_responses(ref_dab, P_PLUS, cfg, [5000.0, 7000.0])

    def test_negative_duration_names_the_first_offending_bin(self, ref_dab, monkeypatch):
        # The first bin in list order that drives a duration negative is named, as alone.
        segments = ref_dab.schedule.segments
        comp_gain = ref_dab.params.t_half / ref_dab.params.Vr
        amp = 1.5 * min(seg.duration for seg in segments) / comp_gain
        monkeypatch.setattr(oracle, "_resolve_amplitude", lambda *args: amp)
        cfg = SimConfig(injection=Injection(**self.INJECTION))
        with pytest.raises(AmplitudeError) as one_bin:
            measure_frequency_responses(ref_dab, P_PLUS, cfg, [15000.0])
        with pytest.raises(AmplitudeError) as two_bins:
            measure_frequency_responses(ref_dab, P_PLUS, cfg, [15000.0, 5000.0])
        assert str(two_bins.value) == str(one_bin.value)
        assert str(one_bin.value).startswith("perturbation at 15000.0 Hz drove a duration ")

    def test_memory_does_not_grow_with_the_bin_count(self, ref_dab):
        injection = Injection(settle_periods=10, measure_periods=40)
        cfg = SimConfig(injection=injection)
        freqs = [2500.0 * m for m in range(1, 33)]

        def peak(bins):
            tracemalloc.start()
            try:
                measure_frequency_responses(ref_dab, P_PLUS, cfg, bins)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        measure_frequency_responses(ref_dab, P_PLUS, cfg, freqs[:1])  # pre-run cached
        assert peak(freqs) <= 1.5 * peak(freqs[:1])

    @pytest.mark.parametrize("floats", [False, True], ids=["arrays", "floats"])
    def test_memory_does_not_grow_with_the_window(self, ref_dab, floats):
        # A bin runs a block at a time and sums its DFT a chunk at a time, so a window of 16,000
        # half cycles holds no more than one of 4,000, on either path.
        def peak(measure):
            cfg = SimConfig(injection=Injection(settle_periods=10, measure_periods=measure))
            freqs = [3 / (measure * ref_dab.params.period)]
            tracemalloc.start()
            try:
                with numpy_blocked() if floats else contextlib.nullcontext():
                    oracle._responses(ref_dab, P_PLUS, cfg, freqs)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(2000)  # pre-run cached, kernel scratch grown
        assert peak(8000) <= 1.2 * peak(2000)


def single_step(dab, interval, duration):
    """One oracle step's entries (a00, a01, g0, a10, a11, g1), from its own call of the
    oracle's exponential."""
    return tuple(oracle._step_maps(oracle._tables(dab), [interval], [duration]).ravel().tolist())


def step(m, x):
    """x -> phi x + gamma for one step's entries m, in Python floats in the oracle's order."""
    a00, a01, g0, a10, a11, g1 = m
    x0, x1 = x
    return a00 * x0 + a01 * x1 + g0, a10 * x0 + a11 * x1 + g1


def phi_gamma_pre_run(period_maps, periods, tol):
    """The pre-run's stopping rule, stepping x -> phi x + gamma from x = 0."""
    phis = [np.array(m).reshape(2, 3)[:, :2] for m in period_maps]
    pi = phis[0]
    for phi in phis[1:]:
        pi = phi @ pi
    rho = float(np.max(np.abs(np.linalg.eigvals(pi))))
    scale = rho / (1.0 - rho)
    x = prev = (0.0, 0.0)
    for _ in range(periods):
        for m in period_maps:
            x = step(m, x)
        (x0, x1), (p0, p1) = x, prev
        d0, d1 = x0 - p0, x1 - p1
        if math.sqrt(d0 * d0 + d1 * d1) * scale <= tol * (1.0 + math.sqrt(x0 * x0 + x1 * x1)):
            return x
        prev = x
    raise AssertionError("the reference pre-run did not settle")


def halving_sum(terms) -> float:
    """The DFT rule's sum, written as a recursion: the terms zero-padded to a power of two, the
    sum of each half taken on its own and the two added."""
    size = 1 << (len(terms) - 1).bit_length()
    padded = [*terms, *[0.0] * (size - len(terms))]

    def halves(v):
        return v[0] if len(v) == 1 else halves(v[:len(v) // 2]) + halves(v[len(v) // 2:])

    return halves(padded)


def dft_bin(basis, series) -> complex:
    """sum_k basis[k] series[k] by the DFT rule: each part of each term a product of floats,
    each part summed by `halving_sum`."""
    return complex(halving_sum([b.real * s for b, s in zip(basis, series)]),
                   halving_sum([b.imag * s for b, s in zip(basis, series)]))


def per_step_response(dab, surface, cfg):
    """measure_frequency_response one half cycle at a time, each step map its own call; each
    sample a row of c_rev times Dr^k x, two products and a sum, and each bin `dft_bin`."""
    injection, params = cfg.injection, dab.params
    segments = dab.schedule.segments
    comp_gain = params.t_half / params.Vr
    amp = oracle._resolve_amplitude(injection, params.Vr, comp_gain,
                                    min(seg.duration for seg in segments))
    period_maps = [single_step(dab, i, seg.duration) for i, seg in enumerate(segments)]
    x = phi_gamma_pre_run(period_maps, cfg.periods, cfg.convergence_tol)
    for m in period_maps[:surface.a - 1]:
        x = step(m, x)
    n_half = 2 * (injection.settle_periods + injection.measure_periods)
    control = [amp * math.sin(2.0 * math.pi * injection.f * k * params.t_half)
               for k in range(n_half + 1)]
    c00, c01, c10, c11 = dab.c_rev
    samples = []
    for k in range(n_half):
        x0, x1 = x if k % 2 == 0 else (-x[0], x[1])
        samples.append((c00 * x0 + c01 * x1, c10 * x0 + c11 * x1))
        ia = (surface.a - 1 + 2 * k) % 4
        ib = (surface.b - 1 + 2 * k) % 4
        ta = segments[ia].duration + surface.polarity * comp_gain * control[k]
        tb = segments[ib].duration - surface.polarity * comp_gain * control[k + 1]
        for interval, duration in ((ia, ta), (ib, tb)):
            x = step(single_step(dab, interval, duration), x)
    k0, n = 2 * injection.settle_periods, 2 * injection.measure_periods
    basis = np.exp(-2j * math.pi * injection.f * params.t_half * np.arange(k0, k0 + n)).tolist()
    into = dft_bin(basis, control[k0:k0 + n])
    return np.array([dft_bin(basis, series) / into for series in zip(*samples[k0:k0 + n])])


class TestStackedStepMaps:
    # 3 cycles over a 20-period window of 40 half cycles: coprime, so no
    # control sample repeats and every step has its own duration.
    INJECTION = dict(f=15000.0, settle_periods=10, measure_periods=20)

    @pytest.mark.parametrize("surface", [P_PLUS, S_MINUS], ids=lambda s: s.label)
    @pytest.mark.parametrize("amplitude", [1e-4, None], ids=["explicit", "automatic"])
    @pytest.mark.parametrize("block", [oracle.HALF_CYCLES_PER_EXPM, 7])
    def test_response_equals_the_per_step_loop_bit_for_bit(self, ref_dab, monkeypatch,
                                                          surface, amplitude, block):
        monkeypatch.setattr(oracle, "HALF_CYCLES_PER_EXPM", block)
        cfg = SimConfig(injection=Injection(amplitude=amplitude, **self.INJECTION))
        np.testing.assert_array_equal(measure_frequency_response(ref_dab, surface, cfg),
                                      per_step_response(ref_dab, surface, cfg))

    @pytest.mark.parametrize("block", [20, 1])
    def test_a_settle_window_ending_on_a_block_boundary_equals_the_per_step_loop(
            self, ref_dab, monkeypatch, block):
        # The 20 settle half cycles end where a block of 20 (or of 1) ends, so the first
        # recorded state opens a block.
        monkeypatch.setattr(oracle, "HALF_CYCLES_PER_EXPM", block)
        cfg = SimConfig(injection=Injection(**self.INJECTION))
        assert 2 * cfg.injection.settle_periods % block == 0
        np.testing.assert_array_equal(measure_frequency_response(ref_dab, P_PLUS, cfg),
                                      per_step_response(ref_dab, P_PLUS, cfg))

    @pytest.mark.parametrize("change, mixed", [(dict(Rc=10.0), False), (dict(Rt=6.0), True)],
                             ids=["Rc 10", "Rt 6"])
    def test_designs_near_the_low_degree_bound_equal_the_per_step_loop(self, change, mixed):
        # Rc = 10 puts the steps' ||a T||_1 near 0.77 and 1.79, both below theta9; Rt = 6
        # near 0.92 and 2.14, on either side of it, so every block is a mixed stack.
        dab = build_dab(DabParams(**dict(REFERENCE_KWARGS, **change)))
        norms = [np.abs(seg.a * seg.duration).sum(axis=0).max() for seg in dab.schedule.segments]
        assert (max(norms) > oracle._THETA9) == mixed and min(norms) < oracle._THETA9
        cfg = SimConfig(injection=Injection(**self.INJECTION))
        for surface in (P_PLUS, S_MINUS):
            np.testing.assert_array_equal(measure_frequency_response(dab, surface, cfg),
                                          per_step_response(dab, surface, cfg))

    def test_a_measurement_without_settling_equals_the_per_step_loop(self, ref_dab):
        # Every half cycle from the first is sampled.
        cfg = SimConfig(injection=Injection(**dict(self.INJECTION, settle_periods=0)))
        np.testing.assert_array_equal(measure_frequency_response(ref_dab, S_PLUS, cfg),
                                      per_step_response(ref_dab, S_PLUS, cfg))

    def test_steady_state_maps_equal_single_calls(self, ref_dab):
        # Seeds 0-4 of random_params contract at rho = 0.9977-0.9990 and settle
        # within 50,000 periods.
        cfg = SimConfig(periods=50_000, substeps_per_interval=8)
        for seed in (None, 0, 1, 2, 3, 4):
            dab = ref_dab if seed is None else build_dab(random_params(np.random.default_rng(seed)))
            x_star, waveform = run_to_steady_state(dab, cfg)
            segments = dab.schedule.segments
            period_maps = [single_step(dab, i, seg.duration) for i, seg in enumerate(segments)]
            x = phi_gamma_pre_run(period_maps, cfg.periods, cfg.convergence_tol)
            np.testing.assert_array_equal(x_star, x, err_msg=f"seed {seed}")
            states = [x]
            for i, seg in enumerate(segments):
                m = single_step(dab, i, seg.duration / 8)
                for _ in range(8):
                    x = step(m, x)
                    states.append(x)
            np.testing.assert_array_equal(waveform.x, np.array(states), err_msg=f"seed {seed}")

    def test_negative_duration_names_the_first_offending_half_cycle(self, ref_dab, monkeypatch):
        params = ref_dab.params
        segments = ref_dab.schedule.segments
        comp_gain = params.t_half / params.Vr
        amp = 1.5 * min(seg.duration for seg in segments) / comp_gain
        monkeypatch.setattr(oracle, "_resolve_amplitude", lambda *args: amp)
        injection = Injection(**self.INJECTION)
        control = [amp * math.sin(2.0 * math.pi * injection.f * k * params.t_half)
                   for k in range(2 * 30 + 1)]

        def negative(k):
            ta = segments[(2 * k) % 4].duration + P_PLUS.polarity * comp_gain * control[k]
            tb = segments[(1 + 2 * k) % 4].duration - P_PLUS.polarity * comp_gain * control[k + 1]
            return ta < 0.0 or tb < 0.0

        first = next(k for k in range(2 * 30) if negative(k))
        assert first > 0
        with pytest.raises(AmplitudeError, match=rf"negative at half cycle {first}$"):
            measure_frequency_response(ref_dab, P_PLUS, SimConfig(injection=injection))


def homogeneous_states(dab, cfg):
    """Pre-run and waveform states of the earlier stepping, kept as a reference for the
    tests only: [x; 1] advanced by one numpy product with each whole augmented 3x3 map,
    under the same stopping rule."""
    substeps = cfg.substeps_per_interval
    maps = step_exponentials(augmented_step_matrices(dab, (1, substeps)))
    period_maps, substep_maps = maps[0::2], maps[1::2]
    pi = period_maps[0][:-1, :-1]
    for m in period_maps[1:]:
        pi = m[:-1, :-1] @ pi
    rho = float(np.max(np.abs(np.linalg.eigvals(pi))))
    xh = np.array([0.0, 0.0, 1.0])
    prev = xh[:-1]
    for _ in range(cfg.periods):
        for m in period_maps:
            xh = m @ xh
        x, d = xh[:-1], xh[:-1] - prev
        if math.sqrt(d @ d) * rho / (1.0 - rho) <= cfg.convergence_tol * (1.0 + math.sqrt(x @ x)):
            break
        prev = x
    else:
        raise AssertionError("the reference pre-run did not settle")
    states = [xh[:-1]]
    for seg, m in zip(dab.schedule.segments, substep_maps):
        for _ in range(substeps if seg.duration else 0):
            xh = m @ xh
            states.append(xh[:-1])
    return np.array(states)


class TestHomogeneousStep:
    """The scalar step rule against the recursions it must reproduce, off the reference
    design too: each bin of a multi-bin measurement equals the per-step phi x + gamma loop
    bit for bit, and the pre-run and waveform states lie within roundoff of the stacked
    [x; 1] products; both of these runs stop within tol * (1 + ||x||) of the fixed point,
    so within twice that of each other."""

    SEEDS = range(5)
    # These designs contract at rho = 0.9977-0.9990 and settle within 50,000 periods.
    CFG = dict(periods=50_000, substeps_per_interval=8)
    INJECTION = dict(settle_periods=10, measure_periods=20)

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("block", [oracle.HALF_CYCLES_PER_EXPM, 7, 1])
    @pytest.mark.parametrize("group", [2**17, 2 * 60])
    def test_three_bins_equal_the_phi_gamma_recursion(self, monkeypatch, seed, block, group):
        # Blocks of 7 straddle the first measured half cycle (20); blocks of 1 take one
        # exponential call per half cycle. A group of 2 x 60 passes the bins as 2 + 1.
        dab = build_dab(random_params(np.random.default_rng(seed)))
        surface = (P_PLUS, P_MINUS, S_PLUS, S_MINUS)[seed % 4]
        monkeypatch.setattr(oracle, "HALF_CYCLES_PER_EXPM", block)
        window = self.INJECTION["measure_periods"] * dab.params.period
        freqs = [m / window for m in (1, 3, 7)]
        rows = responses_in_calls(
            dab, surface, SimConfig(**self.CFG, injection=Injection(**self.INJECTION)), freqs,
            group)
        for f, row in zip(freqs, rows):
            cfg = SimConfig(**self.CFG, injection=Injection(f=f, **self.INJECTION))
            np.testing.assert_array_equal(row, per_step_response(dab, surface, cfg))

    @pytest.mark.parametrize("seed", [None, *SEEDS], ids=["reference", *map(str, SEEDS)])
    def test_pre_run_and_waveform_states(self, ref_dab, seed):
        dab = ref_dab if seed is None else build_dab(random_params(np.random.default_rng(seed)))
        cfg = SimConfig(**self.CFG)
        _, waveform = run_to_steady_state(dab, cfg)
        reference = homogeneous_states(dab, cfg)
        bound = 2.0 * cfg.convergence_tol * (1.0 + np.linalg.norm(reference, axis=1))
        assert np.all(np.linalg.norm(waveform.x - reference, axis=1) <= bound)


def float_responses(dab, surface, cfg, freqs) -> bytes:
    """The bytes of `oracle._responses` where numpy cannot be imported: Python floats alone."""
    with numpy_blocked():
        rows = oracle._responses(dab, surface, cfg, freqs)
    return np.array(rows, dtype=complex).tobytes()


class TestFloatMeasurement:
    """The measurement in Python floats (`_step_rows`, lists and `dft.bin_sums`' float branch) gives the
    bits of the one with numpy loaded (`_step_maps` and arrays), and its sums keep the pairwise
    error bound."""

    INJECTION = dict(settle_periods=10, measure_periods=20)
    # A loose tolerance keeps the pre-runs short; both paths start from the same cached one.
    CFG = dict(periods=10**6, convergence_tol=1e-6)

    @pytest.mark.parametrize("block", [oracle.HALF_CYCLES_PER_EXPM, 7])
    def test_random_designs_measure_the_same_bits_without_numpy(self, monkeypatch, block):
        monkeypatch.setattr(oracle, "HALF_CYCLES_PER_EXPM", block)
        rng = np.random.default_rng(35)
        for i in range(20):
            dab = build_dab(random_params(rng))
            surface = (P_PLUS, P_MINUS, S_PLUS, S_MINUS)[i % 4]
            window = self.INJECTION["measure_periods"] * dab.params.period
            freqs = [m / window for m in (1, 3, 7)]
            cfg = SimConfig(**self.CFG, injection=Injection(**self.INJECTION))
            arrays = measure_frequency_responses(dab, surface, cfg, freqs)
            assert float_responses(dab, surface, cfg, freqs) == arrays.tobytes(), i

    @pytest.mark.parametrize("converter, amplitude", [
        # Every step on degree 13 with one or two squarings; steps on either side of theta9, a
        # mixed stack; degree 13 with more squarings; the zero-amplitude floor probe.
        (dict(Rt=50.0), None), (dict(Rt=6.0), None), (dict(Co=1e-8), None), ({}, 0.0)],
        ids=["Rt=50", "Rt=6", "Co=1e-8", "amplitude-0"])
    def test_designs_by_degree_measure_the_same_bits_without_numpy(self, converter, amplitude):
        dab = build_dab(DabParams(**dict(REFERENCE_KWARGS, **converter)))
        window = self.INJECTION["measure_periods"] * dab.params.period
        freqs = [m / window for m in (1, 3, 7)]
        cfg = SimConfig(**self.CFG, injection=Injection(amplitude=amplitude, **self.INJECTION))
        for surface in (P_PLUS, S_MINUS):
            arrays = measure_frequency_responses(dab, surface, cfg, freqs)
            assert float_responses(dab, surface, cfg, freqs) == arrays.tobytes()

    def test_a_quotient_by_zero_is_numpys(self):
        # Python's complex division raises on a 0 divisor; numpy's divides each part by +0.0:
        # the same infinities, and NaN where numpy gives one (whose sign `compare` never prints).
        parts = [0.0, -0.0, 1.5, -2.0, math.inf, -math.inf, math.nan]
        for a in (complex(re, im) for re in parts for im in parts):
            for b in (0j, complex(-0.0, 0.0), complex(0.0, -0.0), complex(-0.0, -0.0)):
                with np.errstate(divide="ignore", invalid="ignore"):
                    expected = complex(np.complex128(a) / np.complex128(b))
                got = dft.quotient(a, b)
                for x, y in ((got.real, expected.real), (got.imag, expected.imag)):
                    assert x == y or math.isnan(x) and math.isnan(y), (a, b, got, expected)

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 64, 500, 2000, 2049, 6200])
    def test_a_sum_is_within_the_pairwise_bound_of_fsum(self, n):
        # A halving tree of depth h = ceil(log2 n) errs by at most gamma_h sum |terms| (Higham,
        # "Accuracy and Stability of Numerical Algorithms", 2nd ed., 4.2); one more u covers
        # fsum's own rounding. The samples span 60 binades and both signs, so the sums cancel.
        # They come in runs of uneven lengths, as a measurement's blocks hand them over, and the
        # chunked sum is the one tree over all of them.
        rng = np.random.default_rng(n)
        samples = (rng.choice([-1.0, 1.0], n) * 2.0 ** rng.uniform(-30.0, 30.0, n)).tolist()
        control = rng.standard_normal(n).tolist()
        w, first = -2j * math.pi * 0.137, 40
        cuts = [0, *sorted(rng.choice(np.arange(1, n), min(n - 1, 4), replace=False)), n]

        def pieces(form):
            return [(first + i, form(samples[i:j]), form(control[i:j]))
                    for i, j in zip(cuts, cuts[1:])]

        sums = dft.bin_sums(pieces(list), w, first, n, None)
        assert np.array(sums).tobytes() == np.array(
            dft.bin_sums(pieces(np.array), w, first, n, np)).tobytes()
        basis = [cmath.exp(w * k) for k in range(first, first + n)]
        depth = (n - 1).bit_length()
        gamma = (depth + 1) * 2.0 ** -53 / (1.0 - (depth + 1) * 2.0 ** -53)
        expected = [[part(b) * s for b, s in zip(basis, series)]
                    for series in (samples, control)
                    for part in (lambda b: b.real, lambda b: b.imag)]
        for got, terms in zip(sums, expected, strict=True):
            assert abs(got - math.fsum(terms)) <= gamma * math.fsum(map(abs, terms))
            assert got == halving_sum(terms)
