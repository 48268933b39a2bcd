"""End-to-end tests of the command line interface via subprocess."""

from __future__ import annotations

import cmath
import dataclasses
import json
import math
import re
import subprocess
import sys

import numpy as np
import pytest

from dabss import (P_PLUS, S_PLUS, DabParams, build_dab, half_cycle_model,
                   solve_periodic_fixed_point, transfer_fixed_freq)
from dabss import cli, oracle, smallsignal
from tests.conftest import REFERENCE_KWARGS


def run_cli(*argv: str):
    return subprocess.run([sys.executable, "-m", "dabss.cli", *argv],
                          capture_output=True, text=True)


class TestSteadyStateCommand:
    def test_reports_fixed_point_and_eigenvalues(self, config_file, tmp_path):
        out = tmp_path / "ss.json"
        proc = run_cli("steady-state", config_file(), "--out", str(out))
        assert proc.returncode == 0, proc.stderr
        doc = json.loads(out.read_text())
        assert set(doc) == {"eigenvalues_of_Pi", "method", "residual", "x_star"}
        assert doc["method"] == "full"
        assert doc["residual"] < 1e-10
        np.testing.assert_allclose(doc["x_star"], [-14.40456899, 104.51193189],
                                   rtol=1e-6)
        eigs = [complex(re, im) for re, im in doc["eigenvalues_of_Pi"]]
        assert len(eigs) == 2
        assert all(abs(e) < 1.0 for e in eigs)
        assert sorted(eigs, key=lambda e: (e.real, e.imag)) == eigs

    def test_half_cycle_method_agrees_with_full(self, config_file, tmp_path):
        path = config_file()
        full_out = tmp_path / "full.json"
        half_out = tmp_path / "half.json"
        assert run_cli("steady-state", path, "--out", str(full_out)).returncode == 0
        assert run_cli("steady-state", path, "--method", "half",
                       "--out", str(half_out)).returncode == 0
        x_full = json.loads(full_out.read_text())["x_star"]
        x_half = json.loads(half_out.read_text())["x_star"]
        np.testing.assert_allclose(x_half, x_full, rtol=1e-12)


class TestVerifyCommand:
    def test_reference_design_passes_every_check(self, config_file):
        proc = run_cli("verify", config_file())
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "RESULT: PASS (19/19)" in proc.stdout
        assert "FAILED" not in proc.stdout

    def test_grid_point_at_z_equal_one_passes(self, config_file):
        # f_min = 1e-320 rounds the first grid point to z = 1 exactly, where
        # the transfer difference and its envelope both vanish.
        proc = run_cli("verify", config_file(sweep={"f_min": 1e-320}))
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "RESULT: PASS (19/19)" in proc.stdout
        assert "Warning" not in proc.stderr

    def test_output_is_deterministic(self, config_file):
        path = config_file()
        first = run_cli("verify", path)
        second = run_cli("verify", path)
        assert first.stdout == second.stdout

    def test_polarity_override_fails_with_sign_flip_note(self, config_file):
        path = config_file(extra={"unsafe_polarity_override": {"S+": -1}})
        proc = run_cli("verify", path)
        assert proc.returncode == 1
        assert "FAILED: surface-equiv/P+~S+/input-vector" in proc.stdout
        assert "matches after a global sign flip: surface polarity mismatch" in proc.stdout
        # The untouched pair must still pass.
        assert "FAILED: surface-equiv/P-~S-/input-vector" not in proc.stdout

    def test_timing_skew_breaks_the_symmetry_checks(self, config_file):
        path = config_file(extra={"unsafe_t3_skew": 5e-8})
        proc = run_cli("verify", path)
        assert proc.returncode == 1
        assert "FAILED: symmetry/phi3-flip-voltage" in proc.stdout

    def test_dual_path_row_takes_the_roundoff_floor_of_transfer_difference(self, config_file):
        # Nearly unloaded with D_phase = 1e-9: a plain 1e-12 check fails the largest
        # residual, 1.099e-12, while transfer_difference's roundoff floor passes every point.
        converter = {"n_turns": 1.995841322100797, "L": 4.23327278452814e-07,
                     "Co": 0.001784110195335032, "Rt": 0.0, "Rc": 0.16960862543076624,
                     "Ro": 26498497311.89119, "Vin": 396.879293312669,
                     "fs": 25064.714806248972, "D_phase": 1e-09, "Vr": 1.0}
        proc = run_cli("verify", config_file(converter=converter))
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert re.search(r"^transfer-difference/dual-path +5\.653e-13 +1\.477e-10  PASS$",
                         proc.stdout, re.M), proc.stdout
        assert "RESULT: PASS (19/19)" in proc.stdout


class TestBodeCommand:
    def test_rows_cover_the_grid_with_finite_values(self, config_file, tmp_path):
        out = tmp_path / "bode.csv"
        path = config_file(sweep={"f_min": 100.0, "f_max": 10000.0, "points": 7,
                                  "spacing": "log"})
        proc = run_cli("bode", path, "--out", str(out))
        assert proc.returncode == 0, proc.stderr
        lines = out.read_text().splitlines()
        assert lines[0] == "f_hz,mag_db_irec,phase_deg_irec,mag_db_vout,phase_deg_vout"
        assert len(lines) == 1 + 7
        rows = [list(map(float, line.split(","))) for line in lines[1:]]
        freqs = [r[0] for r in rows]
        assert freqs == sorted(freqs)
        assert freqs[0] == pytest.approx(100.0) and freqs[-1] == pytest.approx(10000.0)
        assert all(math.isfinite(v) for r in rows for v in r)

    def test_values_match_the_library_transfer(self, config_file, tmp_path):
        out = tmp_path / "bode.csv"
        path = config_file(sweep={"f_min": 1000.0, "f_max": 5000.0, "points": 2,
                                  "spacing": "linear"})
        assert run_cli("bode", path, "--out", str(out)).returncode == 0
        row = out.read_text().splitlines()[1].split(",")
        dab = build_dab(__import__("dabss").DabParams(**REFERENCE_KWARGS))
        model = half_cycle_model(dab, P_PLUS)
        z = cmath.exp(2j * cmath.pi * 1000.0 * model.t_half)
        h = transfer_fixed_freq(model, dab.c_phys, z)
        assert float(row[1]) == pytest.approx(20 * math.log10(abs(h[0])), abs=1e-9)
        assert float(row[2]) == pytest.approx(math.degrees(cmath.phase(h[0])), abs=1e-9)
        assert float(row[3]) == pytest.approx(20 * math.log10(abs(h[1])), abs=1e-9)
        assert float(row[4]) == pytest.approx(math.degrees(cmath.phase(h[1])), abs=1e-9)

    def test_both_models_interleave_per_frequency(self, config_file, tmp_path):
        out = tmp_path / "bode.csv"
        path = config_file(sweep={"f_min": 100.0, "f_max": 10000.0, "points": 3,
                                  "spacing": "log"})
        proc = run_cli("bode", path, "--model", "both", "--out", str(out))
        assert proc.returncode == 0
        lines = out.read_text().splitlines()
        assert lines[0].endswith(",model")
        assert len(lines) == 1 + 2 * 3
        kinds = [line.rsplit(",", 1)[1] for line in lines[1:]]
        assert kinds == ["fix", "sc"] * 3
        f_pairs = [line.split(",", 1)[0] for line in lines[1:]]
        assert f_pairs[0] == f_pairs[1] and f_pairs[2] == f_pairs[3]

    def test_surface_selection(self, config_file, tmp_path):
        out_p = tmp_path / "p.csv"
        out_s = tmp_path / "s.csv"
        path = config_file(sweep={"f_min": 1000.0, "f_max": 5000.0, "points": 2,
                                  "spacing": "linear"})
        assert run_cli("bode", path, "--out", str(out_p)).returncode == 0
        assert run_cli("bode", path, "--surface", "S+", "--out", str(out_s)).returncode == 0
        # Same dynamics, shifted sampling instant: magnitudes differ in detail.
        assert out_p.read_text() != out_s.read_text()


    def test_flagged_rows_warn_and_keep_empty_cells(self, config_file, tmp_path, monkeypatch,
                                                    capsys):
        # A model whose phi is a rotation has its poles on the unit circle, so the
        # last point of a linear grid ending at the rotation frequency is one.
        real = half_cycle_model(build_dab(DabParams(**REFERENCE_KWARGS)), P_PLUS)
        theta = 0.8
        rotation = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
        model = dataclasses.replace(real, phi=rotation)
        monkeypatch.setattr(smallsignal, "half_cycle_model", lambda dab, surface: model)
        f_pole = theta / (2.0 * np.pi * model.t_half)
        path = config_file(sweep={"f_min": f_pole / 4.0, "f_max": f_pole, "points": 7,
                                  "spacing": "linear"})
        out = tmp_path / "bode.csv"
        assert cli.main(["bode", path, "--model", "both", "--out", str(out)]) == 0
        f = cli._fmt(f_pole)
        assert capsys.readouterr().err.splitlines() == [
            f"warning: sweep point {f} Hz sits on a pole, row flagged"] * 2
        lines = out.read_text().splitlines()
        assert len(lines) == 1 + 2 * 7
        assert lines[-2:] == [f"{f},,,,,fix", f"{f},,,,,sc"]
        for line in lines[1:-2]:
            cells = line.split(",")
            assert all(cells) and all(math.isfinite(float(c)) for c in cells[:5])


class TestSimulateCommand:
    def test_waveform_rows(self, config_file, tmp_path):
        out = tmp_path / "wf.csv"
        path = config_file(sim={"substeps_per_interval": 8})
        proc = run_cli("simulate", path, "--out", str(out))
        assert proc.returncode == 0, proc.stderr
        lines = out.read_text().splitlines()
        assert lines[0] == "t,i_L,v_C,i_rec,v_out"
        assert len(lines) == 1 + (1 + 4 * 8)
        first = list(map(float, lines[1].split(",")))
        assert first[0] == 0.0
        last = list(map(float, lines[-1].split(",")))
        assert last[0] == pytest.approx(1e-5, rel=1e-12)


class TestCompareCommand:
    def test_model_tracks_measurement_within_band(self, config_file, tmp_path):
        out = tmp_path / "cmp.csv"
        path = config_file(
            sim={"injection": {"settle_periods": 800, "measure_periods": 250}},
            sweep={"f_min": 400.0, "f_max": 4000.0, "points": 3, "spacing": "log"})
        proc = run_cli("compare", path, "--out", str(out))
        assert proc.returncode == 0, proc.stderr
        lines = out.read_text().splitlines()
        assert lines[0].startswith("# x_star=[")
        assert lines[1].startswith("# steady_state_rel_dev=")
        assert float(lines[1].split("=", 1)[1]) < 1e-5
        assert lines[2] == ("f_hz,mag_ratio_irec,phase_diff_deg_irec,"
                            "mag_ratio_vout,phase_diff_deg_vout")
        rows = [list(map(float, line.split(","))) for line in lines[3:]]
        assert len(rows) == 3
        for f, mag_i, ph_i, mag_v, ph_v in rows:
            # coherent bins of the 250-period window are multiples of 400 Hz
            assert (f / 400.0) == pytest.approx(round(f / 400.0), abs=1e-9)
            for mag, ph in ((mag_i, ph_i), (mag_v, ph_v)):
                assert abs(mag - 1.0) < 0.02
                assert abs(ph) < 2.0

    def test_every_bin_shares_one_oracle_pre_run(self, config_file, tmp_path, monkeypatch):
        calls = []
        iterate = oracle._iterate_to_period_start

        def counting(*args):
            calls.append(args)
            return iterate(*args)

        monkeypatch.setattr(oracle, "_iterate_to_period_start", counting)
        out = tmp_path / "cmp.csv"
        assert cli.main(["compare", config_file(), "--out", str(out)]) == 0
        assert len(out.read_text().splitlines()) == 3 + 21  # the reference sweep's 21 bins
        assert len(calls) == 1

    def test_set_injection_frequency_is_the_one_bin_measured(self, config_file, tmp_path):
        out = tmp_path / "cmp.csv"
        path = config_file(
            sim={"injection": {"f": 2000.0, "settle_periods": 800, "measure_periods": 50}},
            sweep={"f_min": 400.0, "f_max": 4000.0, "points": 3, "spacing": "log"})
        proc = run_cli("compare", path, "--out", str(out))
        assert proc.returncode == 0, proc.stderr
        rows = [list(map(float, line.split(","))) for line in out.read_text().splitlines()[3:]]
        assert [row[0] for row in rows] == [2000.0]
        _, mag_i, ph_i, mag_v, ph_v = rows[0]
        for mag, ph in ((mag_i, ph_i), (mag_v, ph_v)):
            assert abs(mag - 1.0) < 0.02
            assert abs(ph) < 2.0


class TestFailureExitCodes:
    def test_missing_config_file_is_a_config_error(self, tmp_path):
        proc = run_cli("verify", str(tmp_path / "absent.json"))
        assert proc.returncode == 2
        assert "error:" in proc.stderr

    def test_malformed_json_is_a_config_error(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert run_cli("verify", str(bad)).returncode == 2

    def test_unknown_key_is_a_config_error(self, config_file):
        path = config_file(extra={"typo_section": {"a": 1}})
        proc = run_cli("verify", path)
        assert proc.returncode == 2
        assert "typo_section" in proc.stderr

    def test_out_of_range_converter_value_is_a_config_error(self, config_file):
        path = config_file(converter=dict(REFERENCE_KWARGS, D_phase=1.5))
        proc = run_cli("verify", path)
        assert proc.returncode == 2
        assert "D_phase" in proc.stderr

    def test_marginal_design_exits_three(self, config_file, tmp_path):
        # An unloaded output with a blocking series path conserves the
        # capacitor state, parking a monodromy eigenvalue at +1.
        conv = dict(REFERENCE_KWARGS, Rt=1e9, Rc=0.0, Ro=1e30)
        path = config_file(converter=conv)
        proc = run_cli("steady-state", path, "--out", str(tmp_path / "ss.json"))
        assert proc.returncode == 3
        assert "marginal" in proc.stderr
        assert "(1+0j)" in proc.stderr.splitlines()[-1]

    @pytest.mark.parametrize("argv", [("steady-state", "--method", "full"),
                                      ("steady-state", "--method", "half"),
                                      ("bode", "--surface", "P+")],
                             ids=["periodic", "half-cycle", "surface"])
    def test_every_marginal_fixed_point_reports_one_message(self, config_file, tmp_path, argv):
        path = config_file(converter=dict(REFERENCE_KWARGS, Rt=1e9, Rc=0.0, Ro=1e30))
        proc = run_cli(argv[0], path, *argv[1:], "--out", str(tmp_path / "out"))
        assert proc.returncode == 3
        error, eigenvalues = proc.stderr.splitlines()
        assert re.fullmatch(r"error: .+ is marginal: cond ~ \S+ exceeds 1\.0e\+12", error), error
        assert eigenvalues.startswith("eigenvalues:") and "(1+0j)" in eigenvalues

    def test_singular_similarity_transform_exits_three(self, config_file):
        # Co = 1e-9 makes the leading interval's transition matrix numerically singular.
        proc = run_cli("verify", config_file(converter=dict(REFERENCE_KWARGS, Co=1e-9)))
        assert proc.returncode == 3
        assert proc.stdout == ""
        assert proc.stderr.splitlines() == [
            "error: similarity transform is singular: cond ~ 2.049e+18"]

    def test_simulate_on_a_marginal_design_exits_three(self, config_file, tmp_path):
        path = config_file(converter=dict(REFERENCE_KWARGS, Rt=1e9, Rc=0.0, Ro=1e30))
        proc = run_cli("simulate", path, "--out", str(tmp_path / "wf.csv"))
        assert proc.returncode == 3, proc.stderr
        assert "spectral radius rho = 1 is not below 1" in proc.stderr
        assert "UserWarning" not in proc.stderr and "oracle.py" not in proc.stderr

    @pytest.mark.parametrize("command", ["bode", "compare"])
    def test_zero_input_voltage_is_a_config_error(self, config_file, tmp_path, command):
        # With no input every transfer is 0: no gain in dB and no model/measurement ratio.
        path = config_file(converter=dict(REFERENCE_KWARGS, Vin=0.0))
        proc = run_cli(command, path, "--out", str(tmp_path / "out"))
        assert proc.returncode == 2, proc.stderr
        assert "Vin must be finite and nonzero" in proc.stderr
        assert "Traceback" not in proc.stderr and "Warning" not in proc.stderr
        assert not (tmp_path / "out").exists()

    def test_exhausted_iteration_budget_exits_four(self, config_file, tmp_path):
        path = config_file(sim={"periods": 2, "convergence_tol": 1e-13})
        proc = run_cli("simulate", path, "--out", str(tmp_path / "wf.csv"))
        assert proc.returncode == 4
        assert "no steady state" in proc.stderr
        assert "spectral radius rho = 0.98995" in proc.stderr

    def test_substeps_above_the_cap_exit_two(self, config_file, tmp_path, capsys):
        path = config_file(sim={"substeps_per_interval": 10**4 + 1})
        assert cli.main(["simulate", path, "--out", str(tmp_path / "wf.csv")]) == 2
        assert "sim.substeps_per_interval" in capsys.readouterr().err

    def test_oversized_amplitude_exits_five(self, config_file, tmp_path):
        path = config_file(sim={"injection": {"f": 2000.0, "amplitude": 1e6}})
        proc = run_cli("compare", path, "--out", str(tmp_path / "cmp.csv"))
        assert proc.returncode == 5
        assert "amplitude" in proc.stderr

    @pytest.mark.parametrize("command", ["bode", "verify"])
    def test_sweep_above_the_surface_nyquist_frequency_exits_two(self, config_file, tmp_path,
                                                                 command):
        path = config_file(sweep={"f_min": 100.0, "f_max": 500000.0, "points": 5,
                                  "spacing": "log"})
        argv = [command, path] + (["--out", str(tmp_path / "b.csv")] if command == "bode" else [])
        proc = run_cli(*argv)
        assert proc.returncode == 2, proc.stderr
        assert "sweep.f_max" in proc.stderr and "Traceback" not in proc.stderr

    @pytest.mark.parametrize("command", ["bode", "verify", "compare"])
    def test_sweep_just_past_the_sampled_bandwidth_exits_two(self, config_file, tmp_path,
                                                             command):
        # For this fs the sampled bandwidth 0.5 / (0.5 / fs) is one ulp below fs, so an
        # f_max within fs's 1e-12 allowance can still lie past the sweep's own bound.
        fs = 3735.761669977947
        assert 0.5 / (0.5 / fs) < fs
        path = config_file(converter=dict(REFERENCE_KWARGS, fs=fs),
                           sweep={"f_max": fs * (1.0 + 1e-12)})
        argv = [command, path] + (["--out", str(tmp_path / "o.csv")] if command != "verify" else [])
        proc = run_cli(*argv)
        assert proc.returncode == 2, proc.stderr
        assert "sweep.f_max" in proc.stderr and "Traceback" not in proc.stderr

    def test_sweep_points_beyond_the_cap_exit_two(self, config_file):
        # Rejected by the loader, before any per-point array is allocated.
        proc = run_cli("verify", config_file(sweep={"points": 10**12}))
        assert proc.returncode == 2, proc.stderr
        assert "sweep.points" in proc.stderr and "Traceback" not in proc.stderr

    @pytest.mark.parametrize("surface", ["S+", "S-"])
    def test_bode_on_a_surface_the_skew_breaks_exits_two(self, config_file, tmp_path, surface):
        path = config_file(extra={"unsafe_t3_skew": 1e-7})
        proc = run_cli("bode", path, "--surface", surface, "--out", str(tmp_path / "b.csv"))
        assert proc.returncode == 2, proc.stderr
        assert f"surface {surface}" in proc.stderr and "unsafe_t3_skew = 1e-07" in proc.stderr
        assert not (tmp_path / "b.csv").exists()

    def test_skew_that_empties_an_interval_exits_two(self, config_file, tmp_path):
        path = config_file(extra={"unsafe_t3_skew": 1e-5})
        proc = run_cli("steady-state", path, "--out", str(tmp_path / "ss.json"))
        assert proc.returncode == 2, proc.stderr
        assert "t3_skew" in proc.stderr and "Traceback" not in proc.stderr

    def test_compare_with_one_measure_period_names_the_key(self, config_file, tmp_path):
        path = config_file(sim={"injection": {"measure_periods": 1}})
        proc = run_cli("compare", path, "--out", str(tmp_path / "cmp.csv"))
        assert proc.returncode == 2, proc.stderr
        assert "sim.injection.measure_periods" in proc.stderr
        assert "injection frequency" not in proc.stderr

    @pytest.mark.parametrize("f", [100e3, 200e3])
    def test_injection_at_or_above_the_surface_nyquist_frequency_exits_two(
            self, config_file, tmp_path, f):
        # Both frequencies are coherent with the 50-period window (fs = 100 kHz).
        path = config_file(sim={"injection": {"f": f, "measure_periods": 50}})
        proc = run_cli("compare", path, "--out", str(tmp_path / "cmp.csv"))
        assert proc.returncode == 2, proc.stderr
        assert "sim.injection.f" in proc.stderr and "Traceback" not in proc.stderr
        assert not (tmp_path / "cmp.csv").exists()

    @pytest.mark.parametrize("command, co", [
        *[pytest.param(command, 1e-300, id=command)
          for command in ("steady-state", "verify", "simulate")],
        *[pytest.param(command, 1e-25, id=f"{command}-Co=1e-25")
          for command in ("steady-state", "bode", "verify", "simulate")]])
    def test_non_finite_exponential_is_a_config_error(self, config_file, tmp_path, command, co):
        # A 1e-300 F capacitor puts the 1-norm of a*t near 1e295: the
        # exponential overflows in closed form and in the oracle alike. At
        # 1e-25 F it needs more than 53 squarings, whose roundoff leaves no
        # significant bit of a finite map.
        path = config_file(converter=dict(REFERENCE_KWARGS, Co=co))
        argv = [command, path] + ([] if command == "verify" else ["--out", str(tmp_path / "o")])
        proc = run_cli(*argv)
        assert proc.returncode == 2, proc.stderr
        assert "matrix exponential is not finite" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_failed_run_leaves_no_partial_output(self, config_file, tmp_path):
        out = tmp_path / "wf.csv"
        path = config_file(sim={"periods": 2, "convergence_tol": 1e-13})
        run_cli("simulate", path, "--out", str(out))
        assert not out.exists()


class TestUnwritableOut:
    """Every --out that cannot be written exits 2 with one error line and leaves no temp file."""

    OUTS = {"missing-directory": "missing/out.csv", "file-as-parent": "afile/out.csv",
            "empty": "", "dot": ".", "existing-directory": "adir"}

    @pytest.mark.parametrize("where", sorted(OUTS))
    @pytest.mark.parametrize("argv", [["steady-state"], ["bode", "--model", "both"],
                                      ["simulate"], ["compare"]], ids=lambda a: a[0])
    def test_exits_two_naming_the_path(self, config_file, tmp_path, monkeypatch, capsys,
                                       argv, where):
        path = config_file(sim={"injection": {"settle_periods": 10, "measure_periods": 20}},
                           sweep={"f_min": 400.0, "f_max": 4000.0, "points": 3,
                                  "spacing": "log"})
        (tmp_path / "afile").write_text("kept\n")
        (tmp_path / "adir").mkdir()
        monkeypatch.chdir(tmp_path)
        before = sorted(tmp_path.rglob("*"))
        out = self.OUTS[where]
        assert cli.main([argv[0], path, *argv[1:], "--out", out]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ") and repr(out) in err[0]
        assert sorted(tmp_path.rglob("*")) == before
        assert (tmp_path / "afile").read_text() == "kept\n"


class TestValuesAtTheEdgeOfDoublePrecision:
    """Converter values whose products or transfers underflow to 0: README exit codes only."""

    SIM = {"periods": 200, "injection": {"settle_periods": 5, "measure_periods": 10}}
    COMMANDS = (["steady-state"], ["verify"], ["bode", "--model", "both"], ["simulate"],
                ["compare"])

    def run_all(self, config_file, tmp_path, capsys, converter):
        """(command, exit code, stderr lines) of every command, run in-process."""
        path = config_file(converter=dict(REFERENCE_KWARGS, **converter), sim=self.SIM,
                           sweep={"points": 3})
        results = []
        for command, *extra in self.COMMANDS:
            out = [] if command == "verify" else ["--out", str(tmp_path / command)]
            code = cli.main([command, path, *extra, *out])
            results.append((command, code, capsys.readouterr().err.splitlines()))
        return results

    @pytest.mark.parametrize("converter", [
        pytest.param(dict(n_turns=1e-300), id="n_turns=1e-300"),
        pytest.param(dict(n_turns=1e-160, L=1e-170), id="n_turns=1e-160,L=1e-170"),
        pytest.param(dict(Co=1e-320, Ro=1e-5, Rc=0.0), id="Co=1e-320,Ro=1e-5,Rc=0")])
    def test_an_underflowing_denominator_is_a_config_error(self, config_file, tmp_path, capsys,
                                                           converter):
        # n^2 L, n L (ro + rc) or Co (ro + rc) rounds to 0: a state matrix is not finite.
        for command, code, err in self.run_all(config_file, tmp_path, capsys, converter):
            assert code == 2, (command, err)
            assert len(err) == 1 and err[0].startswith("error: "), (command, err)

    @pytest.mark.parametrize("converter", [
        pytest.param(dict(Ro=5e-324), id="Ro=5e-324"),
        pytest.param(dict(Vin=5e-324), id="Vin=5e-324"),
        pytest.param(dict(Vin=1e-300, Vr=1e300), id="Vin=1e-300,Vr=1e300")])
    def test_a_transfer_of_zero_exits_with_a_readme_code(self, config_file, tmp_path, capsys,
                                                         converter):
        for command, code, err in self.run_all(config_file, tmp_path, capsys, converter):
            assert code in (0, 2, 3, 4, 5) or (code == 1 and command == "verify"), (command, err)
            assert code == 0 or err[0].startswith("error: "), (command, err)

    @pytest.mark.parametrize("vin", [1e308, -1e308])
    def test_an_overflowing_input_column_is_a_config_error(self, config_file, tmp_path, capsys,
                                                          vin):
        # b u overflows to inf in both exponentials' augmented matrices: no RuntimeWarning.
        for command, code, err in self.run_all(config_file, tmp_path, capsys, dict(Vin=vin)):
            assert code == 2, (command, err)
            assert len(err) == 1 and err[0].startswith("error: "), (command, err)

    @pytest.mark.parametrize("vr", [1e-307, 5e-324])
    def test_control_input_vectors_that_are_not_finite_are_a_config_error(
            self, config_file, tmp_path, capsys, vr):
        # T_half / Vr times a sensitivity overflows; the steady state needs no input vector,
        # and the oracle's 200 periods do not settle this lightly damped design.
        expected = {"steady-state": 0, "verify": 2, "bode": 2, "simulate": 4, "compare": 2}
        for command, code, err in self.run_all(config_file, tmp_path, capsys, dict(Vr=vr)):
            assert code == expected[command], (command, err)
            if code == 2:
                assert len(err) == 1 and "control-input vectors are not finite" in err[0], err

    def test_a_zero_magnitude_is_minus_inf_db(self, config_file, tmp_path):
        # A load of 5e-324 ohm shorts the output: V_out is exactly 0 at every frequency.
        path = config_file(converter=dict(REFERENCE_KWARGS, Ro=5e-324), sweep={"points": 3})
        out = tmp_path / "bode.csv"
        assert cli.main(["bode", path, "--model", "both", "--out", str(out)]) == 0
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        assert len(rows) == 6
        for row in rows:
            assert row[3] == "-inf" and math.isfinite(float(row[1])), row

    def test_a_zero_measured_magnitude_is_a_nan_ratio(self, config_file, tmp_path):
        # With Vin = 5e-324 the model and the measurement are both 0: 0 / 0.
        path = config_file(converter=dict(REFERENCE_KWARGS, Vin=5e-324), sim=self.SIM,
                           sweep={"points": 3})
        out = tmp_path / "compare.csv"
        assert cli.main(["compare", path, "--out", str(out)]) == 0
        rows = [line.split(",") for line in out.read_text().splitlines()[3:]]
        assert rows and all(row[1] == "nan" and row[3] == "nan" for row in rows)


class TestTempFile:
    """--out goes through a temp file of its own: a user's `<out>.tmp` is never touched."""

    @pytest.mark.parametrize("out, code", [("ss.json", 0), ("adir", 2)],
                             ids=["success", "failure"])
    def test_an_existing_out_tmp_survives(self, config_file, tmp_path, monkeypatch, capsys,
                                          out, code):
        path = config_file()
        (tmp_path / "adir").mkdir()  # renaming a file over a directory fails
        users = tmp_path / f"{out}.tmp"
        users.write_text("the user's data\n")
        monkeypatch.chdir(tmp_path)
        before = set(tmp_path.iterdir())
        assert cli.main(["steady-state", path, "--out", out]) == code
        assert users.read_text() == "the user's data\n"
        created = set(tmp_path.iterdir()) - before
        assert created == ({tmp_path / out} if code == 0 else set())
        if code == 0:
            assert json.loads((tmp_path / out).read_text())["x_star"]


class TestMisc:
    def test_version_flag(self):
        proc = run_cli("--version")
        assert proc.returncode == 0
        assert "dabss" in proc.stdout

    def test_missing_subcommand_is_a_usage_error(self):
        assert run_cli().returncode == 2

    @pytest.mark.parametrize("argv", [("-c", "import dabss"), ("-m", "dabss.cli", "--version")],
                             ids=["import", "cli-version"])
    def test_scipy_is_never_imported(self, argv):
        # -X importtime lists every module the interpreter imports, one per line.
        proc = subprocess.run([sys.executable, "-X", "importtime", *argv],
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        imported = {line.rsplit("|", 1)[-1].strip() for line in proc.stderr.splitlines()}
        assert "dabss" in imported and "numpy" in imported
        assert not [name for name in imported if name.split(".")[0] == "scipy"]
