"""Acceptance suite: ten gate criteria, one printed PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines alongside the test results. Every tolerance here is a pinned gate
value, not a style choice; loosening one is a contract change.
"""

from __future__ import annotations

import cmath
import functools
import json
import math
import subprocess
import sys
import time

import numpy as np

from dabss import (P_MINUS, P_PLUS, S_MINUS, S_PLUS, SURFACES, DabParams, Injection, SimConfig,
                   Surface, build_dab, difference_envelope, half_cycle_model, relative_residual,
                   solve_periodic_fixed_point, sweep_frequencies, transfer_difference,
                   transfer_difference_residual, transfer_fixed_freq)
from dabss.dab import solve_half_cycle, verify_symmetry
from dabss.oracle import measure_frequency_response, run_to_steady_state
from dabss.pwlti import Schedule, Segment, propagate
from dabss.smallsignal import resolvent_similarity_residual, verify_surface_equivalence
from tests.conftest import REFERENCE_KWARGS, fd_sensitivities, random_params, reverse_product


def _report(num: int, passed: bool, detail: str = "") -> None:
    line = f"ACCEPTANCE {num}: {'PASS' if passed else 'FAIL'}"
    if detail:
        line += f"  [{detail}]"
    print(line)


@functools.lru_cache(maxsize=1)
def _fifty_designs() -> tuple:
    rng = np.random.default_rng(50_2026)
    return tuple(random_params(rng) for _ in range(50))


def _random_schedule(rng) -> tuple[Schedule, np.ndarray]:
    """A stable 2x2 schedule with 1..6 segments; roughly 10% zero durations."""
    n_segments = int(rng.integers(1, 7))
    m = int(rng.integers(1, 3))
    segments = []
    for _ in range(n_segments):
        a = rng.standard_normal((2, 2))
        shift = max(np.real(np.linalg.eigvals(a)).max(), 0.0)
        a = a - (shift + rng.uniform(0.2, 2.0)) * np.eye(2)
        duration = 0.0 if rng.uniform() < 0.1 else float(rng.uniform(0.05, 1.0))
        segments.append(Segment(a=a, b=rng.standard_normal((2, m)), duration=duration))
    return Schedule(segments=tuple(segments), u=rng.standard_normal(m)), rng.standard_normal(2)


class TestAcceptance:
    def test_criterion_01_closed_form_equals_propagation(self):
        """Prefix closed form against sequential propagation, every boundary index."""
        rng = np.random.default_rng(1_2026)
        worst = 0.0
        for _ in range(100):
            schedule, x0 = _random_schedule(rng)
            maps = schedule.maps
            phis = [m.phi for m in maps]
            states = propagate(schedule, x0)
            for i in range(1, len(maps) + 1):
                closed = reverse_product(phis, 1, i) @ x0
                for j in range(1, i):
                    closed = closed + reverse_product(phis, j + 1, i) @ maps[j - 1].gamma
                closed = closed + maps[i - 1].gamma
                worst = max(worst, relative_residual(closed, states[i - 1]))
        passed = worst <= 1e-12
        _report(1, passed, f"worst residual {worst:.3e}, gate 1e-12")
        assert passed

    def test_criterion_02_fixed_point_residual(self):
        """The periodic solve leaves no drift across one full period, 50 designs."""
        worst = 0.0
        for params in _fifty_designs():
            dab = build_dab(params)
            x_star = solve_periodic_fixed_point(dab.schedule)
            end = propagate(dab.schedule, x_star)[-1]
            worst = max(worst, float(np.linalg.norm(end - x_star)
                                     / (1.0 + np.linalg.norm(x_star))))
        passed = worst <= 1e-10
        _report(2, passed, f"worst residual {worst:.3e}, gate 1e-10")
        assert passed

    def test_criterion_03_half_cycle_equivalence(self):
        """Half-cycle route equals the full-period route and the period closes."""
        worst_half = 0.0
        worst_closure = 0.0
        for params in _fifty_designs():
            dab = build_dab(params)
            x_full = solve_periodic_fixed_point(dab.schedule)
            worst_half = max(worst_half,
                             relative_residual(solve_half_cycle(dab), x_full))
            worst_closure = max(worst_closure,
                                relative_residual(propagate(dab.schedule, x_full)[-1],
                                                  x_full))
        passed = worst_half <= 1e-10 and worst_closure <= 1e-10
        _report(3, passed, f"half-vs-full {worst_half:.3e}, closure {worst_closure:.3e}, "
                           "gate 1e-10")
        assert passed

    def test_criterion_04_half_wave_identities_with_negative(self):
        """Conjugation identities on 50 designs; a timing skew must break them."""
        worst = 0.0
        for params in _fifty_designs():
            worst = max(worst, max(c.residual for c in verify_symmetry(build_dab(params))))
        skewed = build_dab(DabParams(**REFERENCE_KWARGS), t3_skew=5e-8)
        negative_failed = any(not c.passed for c in verify_symmetry(skewed))
        passed = worst <= 1e-12 and negative_failed
        _report(4, passed, f"worst residual {worst:.3e}, gate 1e-12; "
                           f"negative test failed as required: {negative_failed}")
        assert passed

    def test_criterion_05_oracle_steady_state(self, ref_dab):
        """Time-domain iteration agrees with the closed-form fixed point."""
        start = time.monotonic()
        x_sim, _ = run_to_steady_state(ref_dab, SimConfig())
        elapsed = time.monotonic() - start
        expected = solve_periodic_fixed_point(ref_dab.schedule)
        residual = relative_residual(x_sim, expected)
        passed = residual <= 1e-6 and elapsed <= 5.0
        _report(5, passed, f"residual {residual:.3e}, gate 1e-6; {elapsed:.2f}s of 5s")
        assert passed

    def test_criterion_06_sensitivities_vs_finite_differences(self):
        """Analytic duration sensitivities vs central differences, 20 designs."""
        rng = np.random.default_rng(6_2026)
        worst = 0.0
        for _ in range(20):
            dab = build_dab(random_params(rng))
            for surface in SURFACES.values():
                model, fd_a, fd_b = fd_sensitivities(dab, surface, delta=1e-9)
                worst = max(worst, relative_residual(fd_a, model.sens_a),
                            relative_residual(fd_b, model.sens_b))
        passed = worst <= 1e-4
        _report(6, passed, f"worst residual {worst:.3e}, gate 1e-4")
        assert passed

    def test_criterion_07_transfer_function_oracle_match(self, ref_dab, ref_params):
        """Closed-form response vs injected measurement, 8 frequencies, 2% / 2 deg."""
        start = time.monotonic()
        model = half_cycle_model(ref_dab, P_PLUS)
        window = 1000 * ref_params.period  # measurement window fixes the bin grid
        targets = np.geomspace(ref_params.fs / 1000.0, ref_params.fs / 10.0, 8)
        freqs = sorted({round(f * window) / window for f in targets})
        assert len(freqs) == 8
        worst_mag = 0.0
        worst_phase = 0.0
        for f in freqs:
            inj = Injection(f=f, settle_periods=800, measure_periods=1000)
            cfg = SimConfig(periods=4000, convergence_tol=1e-11, injection=inj)
            measured = measure_frequency_response(ref_dab, P_PLUS, cfg)
            z = cmath.exp(2j * cmath.pi * f * model.t_half)
            predicted = transfer_fixed_freq(model, ref_dab.c_phys, z)
            for ch in range(2):
                worst_mag = max(worst_mag,
                                abs(abs(predicted[ch]) / abs(measured[ch]) - 1.0))
                diff = math.degrees(cmath.phase(predicted[ch] / measured[ch]))
                worst_phase = max(worst_phase, abs(diff))
        elapsed = time.monotonic() - start
        passed = worst_mag <= 0.02 and worst_phase <= 2.0 and elapsed <= 30.0
        _report(7, passed, f"worst mag dev {worst_mag:.3e} of 0.02, "
                           f"worst phase dev {worst_phase:.3e} deg of 2; "
                           f"{elapsed:.2f}s of 30s")
        assert passed

    def test_criterion_08_difference_identity_and_bound(self, ref_dab, ref_params):
        """Dual-path agreement, exact dc zero, envelope bound on the sweep grid."""
        model = half_cycle_model(ref_dab, P_PLUS)
        dual = max(transfer_difference_residual(model, ref_dab.c_phys,
                                                cmath.exp(2j * math.pi * q / 100))
                   for q in range(100))
        dc = transfer_difference(model, ref_dab.c_phys, 1.0)
        dc_zero = bool(np.all(dc == 0.0))
        worst_ratio = 0.0
        for f in sweep_frequencies(ref_params.fs / 1000.0, ref_params.fs / 10.0,
                                   25, "log", model.t_half):
            z = cmath.exp(2j * cmath.pi * f * model.t_half)
            delta = transfer_difference(model, ref_dab.c_phys, z)
            bound = difference_envelope(model, ref_dab.c_phys, z)
            worst_ratio = max(worst_ratio, float(np.linalg.norm(delta)) / bound)
        passed = dual <= 1e-12 and dc_zero and worst_ratio <= 1.0
        _report(8, passed, f"dual-path {dual:.3e} of 1e-12, dc exactly zero: {dc_zero}, "
                           f"bound ratio {worst_ratio:.3f} of 1")
        assert passed

    def test_criterion_09_surface_equivalence_with_negative(self, ref_dab):
        """Resolvent identity, both surface pairs over 64 points, sign-flip negative."""
        rng = np.random.default_rng(9_2026)
        worst_random = 0.0
        draws = 0
        while draws < 20:
            a = rng.standard_normal((2, 2))
            t_mat = rng.standard_normal((2, 2))
            z = 2.0 * cmath.exp(2j * math.pi * rng.uniform())
            if np.linalg.cond(t_mat) > 1e6 or np.min(np.abs(z - np.linalg.eigvals(a))) < 0.1:
                continue
            worst_random = max(worst_random, resolvent_similarity_residual(a, t_mat, z))
            draws += 1

        z_grid = [cmath.exp(2j * math.pi * q / 64) for q in range(64)]
        worst_chain = 0.0
        for pair in ((P_PLUS, S_PLUS), (P_MINUS, S_MINUS)):
            checks = verify_surface_equivalence(ref_dab, *pair, z_grid=z_grid)
            worst_chain = max(worst_chain, max(c.residual for c in checks))

        flipped = Surface("S+", 2, 3, -1)
        negative = verify_surface_equivalence(ref_dab, P_PLUS, flipped, z_grid=z_grid)
        input_check = next(c for c in negative if c.name.endswith("input-vector"))
        sign_mismatch = (not input_check.passed) and (
            input_check.note == "matches after a global sign flip: surface polarity mismatch")

        passed = worst_random <= 1e-12 and worst_chain <= 1e-10 and sign_mismatch
        _report(9, passed, f"random identity {worst_random:.3e} of 1e-12, "
                           f"chain {worst_chain:.3e} of 1e-10, "
                           f"sign mismatch detected: {sign_mismatch}")
        assert passed

    def test_criterion_10_cli_determinism(self, tmp_path):
        """Byte-identical reruns of every command; verify exits 0 on the reference."""
        config = tmp_path / "reference.json"
        config.write_text(json.dumps({
            "converter": dict(REFERENCE_KWARGS),
            "sim": {"injection": {"settle_periods": 800, "measure_periods": 250}},
            "sweep": {"f_min": 400.0, "f_max": 4000.0, "points": 5, "spacing": "log"},
        }, indent=2))

        def run(*argv):
            return subprocess.run([sys.executable, "-m", "dabss.cli", *argv],
                                  capture_output=True, text=True)

        verify_ok = True
        deterministic = True
        details = []
        for command, extra, uses_out in (
                ("steady-state", (), True),
                ("verify", (), False),
                ("bode", ("--model", "both"), True),
                ("simulate", (), True),
                ("compare", (), True)):
            outputs = []
            for attempt in range(2):
                argv = [command, str(config)]
                out = tmp_path / f"{command}-{attempt}.out"
                if uses_out:
                    argv += ["--out", str(out)]
                proc = run(*argv)
                if command == "verify":
                    verify_ok = verify_ok and proc.returncode == 0
                    outputs.append(proc.stdout.encode())
                else:
                    if proc.returncode != 0:
                        details.append(f"{command} exited {proc.returncode}")
                    outputs.append(out.read_bytes() if out.exists() else b"")
            if outputs[0] != outputs[1] or not outputs[0]:
                deterministic = False
                details.append(f"{command} not byte-identical")
        passed = verify_ok and deterministic and not details
        _report(10, passed, "; ".join(details) if details
                else "5 commands byte-identical twice, verify exit 0")
        assert passed
