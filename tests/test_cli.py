"""End-to-end tests of the command line interface.

Every command runs in process through `tests.conftest.run_cli`, which holds it to README's
exit-code table and runs every command (`steady-state`, `verify`, `bode`, `simulate` and
`compare`) where `import numpy` fails, so each takes the float path of a cold run. Only
`TestMisc`'s import gates start an interpreter (`test_scipy_is_never_imported` with
`-X importtime`, `test_top_level_names_load_on_first_use` and
`test_the_float_modules_load_neither_dataclasses_nor_inspect`): only a fresh interpreter shows
what a cold command line or `import dabss` loads.

`TestSteadyStateWithoutNumpy`, `TestVerifyAndBodeWithoutNumpy`, `TestCompareWithoutNumpy` and
`TestLargeGrids` also run `cli.main` with numpy loaded, whose sweeps of more than 16 points and
whose oracle measurement go through arrays, and compare its bytes with the float path's.
"""

from __future__ import annotations

import cmath
import json
import math
import os
import re
import stat
import subprocess
import sys

import numpy as np
import pytest

from dabss import P_PLUS, DabParams, build_dab, half_cycle_model, transfer_fixed_freq
from dabss import cli, core, oracle, smallsignal
from dabss.config import load_config
from dabss.dab import half_cycle_map
from dabss.smallsignal import HalfCycleModel
from tests import interpreter_bytes, reference
from tests.conftest import NUMPY_FREE_COMMANDS, REFERENCE_KWARGS, random_params, run_cli


class TestSteadyStateCommand:
    def test_reports_fixed_point_and_eigenvalues(self, config_file, tmp_path):
        out = tmp_path / "ss.json"
        proc = run_cli("steady-state", config_file(), "--out", str(out))
        assert proc.returncode == 0 and not proc.stderr, proc.stderr
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
        for method, out in (("full", full_out), ("half", half_out)):
            proc = run_cli("steady-state", path, "--method", method, "--out", str(out))
            assert proc.returncode == 0 and not proc.stderr, proc.stderr
        x_full = json.loads(full_out.read_text())["x_star"]
        x_half = json.loads(half_out.read_text())["x_star"]
        np.testing.assert_allclose(x_half, x_full, rtol=1e-12)


class TestSteadyStateWithoutNumpy:
    """`steady-state` runs on the float core alone: with numpy unimportable it writes the bytes
    of a run with numpy loaded, and fails with the exit codes and messages of README's table."""

    @pytest.mark.parametrize("method", ["full", "half"])
    def test_writes_the_bytes_of_a_normal_run(self, config_file, tmp_path, method):
        path = config_file()
        proc = run_cli("steady-state", path, "--method", method, "--out", str(tmp_path / "a.json"))
        assert proc.returncode == 0 and not proc.stderr, proc.stderr
        assert cli.main(["steady-state", path, "--method", method,
                         "--out", str(tmp_path / "b.json")]) == 0
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()

    @pytest.mark.parametrize("method", ["full", "half"])
    @pytest.mark.parametrize("converter, code, message", [
        pytest.param(dict(Rt=1e15, Rc=0.0, Ro=1e30), 3, "\neigenvalues: (1+0j) ", id="blocking"),
        # Python floats raise ZeroDivisionError where n^2 L underflows to 0.
        pytest.param(dict(n_turns=1e-300), 2, "segment matrices must be finite",
                     id="n_turns=1e-300"),
        pytest.param(dict(Vin=1e308), 2, "b*u*t (input column times duration)", id="Vin=1e308")])
    def test_fails_as_a_normal_run(self, config_file, tmp_path, method, converter, code, message):
        path = config_file(converter=dict(REFERENCE_KWARGS, **converter))
        proc = run_cli("steady-state", path, "--method", method, "--out", str(tmp_path / "ss.json"))
        assert proc.returncode == code, proc.stderr
        assert message in proc.stderr and not (tmp_path / "ss.json").exists()


class TestVerifyAndBodeWithoutNumpy:
    """`verify` and `bode` run on the float rules alone: where numpy cannot be imported they
    print and write the bytes of a run with numpy loaded, whose sweep of more than 16 points
    goes through arrays."""

    SWEEPS = {"default": None, "40-points": {"f_min": 10.0, "f_max": 40000.0, "points": 40}}

    @pytest.mark.parametrize("sweep", SWEEPS.values(), ids=SWEEPS)
    def test_verify_prints_the_bytes_of_a_normal_run(self, config_file, capsys, sweep):
        path = config_file(sweep=sweep)
        without = run_cli("verify", path)
        assert without.returncode == 0 and not without.stderr, without.stderr
        assert cli.main(["verify", path]) == 0
        assert without.stdout == capsys.readouterr().out

    @pytest.mark.parametrize("sweep", SWEEPS.values(), ids=SWEEPS)
    def test_bode_writes_the_bytes_of_a_normal_run(self, config_file, tmp_path, sweep):
        path = config_file(sweep=sweep)
        proc = run_cli("bode", path, "--model", "both", "--out", str(tmp_path / "a.csv"))
        assert proc.returncode == 0 and not proc.stderr, proc.stderr
        assert cli.main(["bode", path, "--model", "both", "--out", str(tmp_path / "b.csv")]) == 0
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()

    # The ramp amplitude Vr, the sweep, and the exit codes of verify and bode there.
    RAMPS = {**{f"Vr=2^-{k}": (2.0 ** -k, "40-points", 0 if k < 1013 else 2, 0)
                for k in range(1009, 1015)},
             "Vr=1e-305": (1e-305, "40-points", 2, 0), "Vr=1e-306": (1e-306, "40-points", 2, 2),
             "Vr=1e-305,default-sweep": (1e-305, "default", 2, 0)}

    @pytest.mark.parametrize("command", ["verify", "bode"])
    @pytest.mark.parametrize("vr, sweep, verify_code, bode_code", RAMPS.values(), ids=RAMPS)
    def test_refuses_as_a_normal_run_where_values_pass_the_float_range(
            self, config_file, tmp_path, capsys, command, vr, sweep, verify_code, bode_code):
        # Where a transfer or a verify row passes the float range, the arrays of a run with numpy
        # loaded and the floats of one without refuse at the same z or frequency. Where bode
        # writes its sweep, every value in it is finite. A RuntimeWarning fails the suite.
        path = config_file(converter=dict(REFERENCE_KWARGS, Vr=vr), sweep=self.SWEEPS[sweep])
        extra = [[] if command == "verify" else ["--model", "both", "--out", str(tmp_path / f"{k}")]
                 for k in range(2)]
        code = cli.main([command, path, *extra[0]])
        normal = capsys.readouterr()
        without = run_cli(command, path, *extra[1])
        assert (without.returncode, without.stderr, without.stdout) == (code, normal.err, normal.out)
        assert code == (verify_code if command == "verify" else bode_code), normal.err
        assert code == 0 or normal.err.startswith("error: a value at "), normal.err
        if command == "bode" and code == 0:
            assert (tmp_path / "0").read_bytes() == (tmp_path / "1").read_bytes()
            assert not re.search(rb"inf|nan", (tmp_path / "0").read_bytes(), re.I)

    def test_a_design_whose_roundoff_floor_passes_the_float_range_is_refused(
            self, config_file, capsys):
        # The first random_params design of seed 164 at Vr 2^-1012, where a roundoff floor on
        # its criterion-8 grid passes the float range (`TestDualPathFloor`). verify's own rows
        # pass it first, at z = 1: refused alike with and without numpy, never a PASS with an
        # inf tolerance.
        params = random_params(np.random.default_rng(164))._replace(Vr=2.0 ** -1012)
        path = config_file(converter=params._asdict())
        code = cli.main(["verify", path])
        normal = capsys.readouterr()
        without = run_cli("verify", path)
        assert (without.returncode, without.stderr, without.stdout) == (code, normal.err, normal.out)
        assert code == 2 and re.fullmatch(r"error: a value at z = \(.*\) passes the float range\n",
                                          normal.err), normal.err


class TestLargeGrids:
    """A sweep of many thousand points runs z by z where numpy cannot be imported, and writes
    the bytes of a run with numpy loaded, whose sweep goes through arrays."""

    @pytest.mark.parametrize("command", ["bode", "verify"])
    @pytest.mark.parametrize("points", [12_001, 20_000])
    def test_floats_and_arrays_write_the_same_bytes(self, config_file, tmp_path, capsys,
                                                    command, points):
        path = config_file(sweep={"points": points})
        extra = [[] if command == "verify" else ["--model", "both", "--out", str(tmp_path / f"{k}")]
                 for k in range(2)]
        without = run_cli(command, path, *extra[0])
        assert without.returncode == 0 and not without.stderr, without.stderr
        assert cli.main([command, path, *extra[1]]) == 0
        if command == "verify":
            assert without.stdout == capsys.readouterr().out
        else:
            assert (tmp_path / "0").read_bytes() == (tmp_path / "1").read_bytes()


class TestSimulateWithoutNumpy:
    """`simulate` runs the oracle in Python floats: with numpy unimportable it writes the
    arrays of `run_to_steady_state`, and fails with the exit codes and messages of README's
    table."""

    def test_writes_the_bytes_of_a_normal_run(self, config_file, tmp_path):
        path = config_file(sim={"substeps_per_interval": 8})
        proc = run_cli("simulate", path, "--out", str(tmp_path / "wf.csv"))
        assert proc.returncode == 0 and not proc.stderr, proc.stderr
        x_star, waveform = oracle.run_to_steady_state(
            build_dab(DabParams(**REFERENCE_KWARGS)), load_config(path).sim)
        rows = [line.split(",") for line in (tmp_path / "wf.csv").read_text().splitlines()[1:]]
        assert [cli._fmt(x) for x in x_star] == rows[0][1:3]
        for row, t, x, y in zip(rows, waveform.t, waveform.x, waveform.y, strict=True):
            assert row == [cli._fmt(v) for v in (t, *x, *y)]

    @pytest.mark.parametrize("converter, sim, code, message", [
        pytest.param(dict(Rt=1e9, Rc=0.0, Ro=1e30), None, 3,
                     "rho = 1 is not below 1, so iteration from x = 0 cannot settle\n"
                     "eigenvalues: (1+0j) 0j\n", id="blocking"),
        pytest.param(dict(Co=1e-300), None, 2, "a*t (state matrix times duration) reaches "
                     "3.497e+294, beyond double precision\n", id="Co=1e-300"),
        pytest.param(dict(Vin=1e308), None, 2, "b*u*t (input column times duration) reaches "
                     "inf, beyond double precision\n", id="Vin=1e308"),
        pytest.param({}, {"periods": 3}, 4, " more periods would meet it\n", id="exhausted")])
    def test_fails_as_a_normal_run(self, config_file, tmp_path, converter, sim, code, message):
        path = config_file(converter=dict(REFERENCE_KWARGS, **converter), sim=sim)
        proc = run_cli("simulate", path, "--out", str(tmp_path / "wf.csv"))
        assert proc.returncode == code and proc.stderr.endswith(message), proc.stderr
        assert not (tmp_path / "wf.csv").exists()


class TestCompareWithoutNumpy:
    """`compare` runs the oracle's measurement in Python floats: with numpy unimportable it writes
    the bytes of a run with numpy loaded, whose measurement runs on arrays, and fails with the
    exit codes and messages of README's table."""

    @pytest.mark.parametrize("name", ["readme", "cli-workload", "settle-past-a-block",
                                      "amplitude-1e-323", "amplitude-5e-324"])
    def test_writes_the_bytes_of_a_normal_run(self, tmp_path, capsys, name):
        # README's and the cli workload's measurements (1,600 settle half cycles, then 2,000 or
        # 500 measured) take one block of oracle.HALF_CYCLES_PER_EXPM = 2,048 half cycles for
        # each window, and README's 21 bins pass oracle.FLOAT_HALF_CYCLES, so with numpy loaded
        # they run on arrays; the third one's settle window (2,060 half cycles) takes a full
        # block and a short one. At the two subnormal amplitudes the input bin is a few
        # subnormals, so each bin's quotient overflows.
        configs = interpreter_bytes.configs()
        configs["settle-past-a-block"] = json.dumps({
            "converter": REFERENCE_KWARGS,
            "sim": {"injection": {"settle_periods": 1030, "measure_periods": 20}},
            "sweep": {"f_min": 400.0, "f_max": 4000.0, "points": 3}})
        for amplitude in (1e-323, 5e-324):
            configs[f"amplitude-{amplitude!r}"] = json.dumps({
                "converter": REFERENCE_KWARGS,
                "sim": {"injection": {"f": 5000.0, "amplitude": amplitude,
                                      "settle_periods": 10, "measure_periods": 20}}})
        path = tmp_path / "config.json"
        path.write_text(configs[name])
        proc = run_cli("compare", str(path), "--out", str(tmp_path / "a.csv"))
        assert proc.returncode == 0 and not proc.stderr, proc.stderr
        assert cli.main(["compare", str(path), "--out", str(tmp_path / "b.csv")]) == 0
        assert not capsys.readouterr().err
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()

    @pytest.mark.parametrize("converter, sim, code, message", [
        pytest.param(dict(Rt=1e9, Rc=0.0, Ro=1e30), None, 3,
                     "rho = 1 is not below 1, so iteration from x = 0 cannot settle\n"
                     "eigenvalues: (1+0j) 0j\n", id="blocking"),
        pytest.param(dict(Co=1e-300), None, 2, "a*t (state matrix times duration) reaches "
                     "1.499e+294, above the 2.419e+16 up to which the oracle's Pade kernel can "
                     "cross-check it\n", id="Co=1e-300"),
        pytest.param(dict(Vin=1e308), None, 2, "b*u*t (input column times duration) reaches "
                     "inf, beyond double precision\n", id="Vin=1e308"),
        pytest.param({}, {"periods": 3}, 4, "about 2377 more periods would meet it\n",
                     id="exhausted"),
        pytest.param({}, {"injection": {"f": 2000.0, "amplitude": 1e6}}, 5,
                     "exceeding the shortest interval 1.500e-06 s\n", id="amplitude"),
        pytest.param(dict(D_phase=1e-320), None, 5, "error: automatic amplitude halving failed "
                     "to fit the shortest interval\n", id="D_phase=1e-320")])
    def test_fails_as_a_normal_run(self, config_file, tmp_path, capsys, converter, sim, code,
                                   message):
        path = config_file(converter=dict(REFERENCE_KWARGS, **converter), sim=sim)
        proc = run_cli("compare", path, "--out", str(tmp_path / "a.csv"))
        assert proc.returncode == code and proc.stderr.endswith(message), proc.stderr
        assert cli.main(["compare", path, "--out", str(tmp_path / "b.csv")]) == code
        assert capsys.readouterr().err == proc.stderr
        assert not (tmp_path / "a.csv").exists() and not (tmp_path / "b.csv").exists()

    def test_a_zero_or_nan_measurement_reads_inf_and_nan(self, config_file, tmp_path,
                                                         monkeypatch):
        # A measured modulus of 0 under a finite predicted one is an infinite ratio, a NaN one a
        # NaN ratio and phase, with no ZeroDivisionError and no warning.
        monkeypatch.setattr(oracle, "_responses", lambda dab, surface, sim, freqs: [
            [0j, complex(math.nan, math.nan)] for _ in freqs])
        out = tmp_path / "cmp.csv"
        proc = run_cli("compare", config_file(sweep={"points": 3}), "--out", str(out))
        assert proc.returncode == 0 and not proc.stderr, proc.stderr
        rows = [line.split(",") for line in out.read_text().splitlines()[3:]]
        assert len(rows) == 3
        for _, mag_i, phase_i, mag_v, phase_v in rows:
            assert (mag_i, mag_v, phase_v) == ("inf", "nan", "nan")
            assert math.isfinite(float(phase_i))


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
        # Lossless series path, light load and D_phase = 1e-6: a plain 1e-12 check fails the
        # largest residual, 1.732e-11, while transfer_difference's roundoff floor passes every
        # point.
        converter = {"n_turns": 1.1981807695336046, "L": 5.693302585338254e-07,
                     "Co": 0.0006028203491706796, "Rt": 0.0, "Rc": 0.0023304191123274458,
                     "Ro": 1336748.3830496017, "Vin": 97.56416390727443,
                     "fs": 16206.278467949383, "D_phase": 1e-06, "Vr": 1.0}
        proc = run_cli("verify", config_file(converter=converter))
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert re.search(r"^transfer-difference/dual-path +1\.110e-12 +7\.622e-10  PASS$",
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


    def test_flagged_rows_warn_and_keep_empty_cells(self, config_file, tmp_path, monkeypatch):
        # A model whose phi is a rotation has its poles on the unit circle, so the
        # last point of a linear grid ending at the rotation frequency is one.
        real = half_cycle_model(build_dab(DabParams(**REFERENCE_KWARGS)), P_PLUS)
        theta = 0.8
        rotation = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
        model = HalfCycleModel(real.surface, (*rotation.ravel().tolist(), *real.floats[4:]),
                               real.comp_gain, real.t_half)
        monkeypatch.setattr(smallsignal, "half_cycle_model", lambda dab, surface: model)
        f_pole = theta / (2.0 * np.pi * model.t_half)
        path = config_file(sweep={"f_min": f_pole / 4.0, "f_max": f_pole, "points": 7,
                                  "spacing": "linear"})
        out = tmp_path / "bode.csv"
        proc = run_cli("bode", path, "--model", "both", "--out", str(out))
        assert proc.returncode == 0
        f = cli._fmt(f_pole)
        assert proc.stderr.splitlines() == [
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
        assert run_cli("compare", config_file(), "--out", str(out)).returncode == 0
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
        # An unloaded output with a blocking series path conserves the capacitor state,
        # parking a monodromy eigenvalue at +1: at Rt = 1e15 it leaks 1e-16 per period,
        # below 2^-53, so Pi's eigenvalue is 1 in double precision.
        conv = dict(REFERENCE_KWARGS, Rt=1e15, Rc=0.0, Ro=1e30)
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
        path = config_file(converter=dict(REFERENCE_KWARGS, Rt=1e15, Rc=0.0, Ro=1e30))
        proc = run_cli(argv[0], path, *argv[1:], "--out", str(tmp_path / "out"))
        assert proc.returncode == 3
        error, eigenvalues = proc.stderr.splitlines()
        assert re.fullmatch(r"error: .+ is marginal: cond ~ \S+ exceeds 1\.0e\+12", error), error
        assert eigenvalues.startswith("eigenvalues:") and "(1+0j)" in eigenvalues

    @pytest.mark.parametrize("converter", [
        dict(REFERENCE_KWARGS, Rt=1e15, Rc=0.0, Ro=1e30),
        # Two lossless, nearly unloaded designs of the verify scan. The exact cond of I - phi
        # is 1.609e15 on the first design's half-cycle map, and inf on the second design's
        # period map, whose det(I - Pi) is 0 in the floats.
        dict(n_turns=1.8172817891274207, L=4.431845374724478e-06, Co=0.004909511760243753,
             Rt=0.0, Rc=0.0, Ro=507725730937.29315, Vin=107.88970619925567,
             fs=161829.88327987894, D_phase=0.7127441861955005, Vr=1.0),
        dict(n_turns=0.6871614533595655, L=0.0009002072473435353, Co=0.0015879796123822085,
             Rt=0.0, Rc=0.0, Ro=37714501292.14086, Vin=68.05295331031928,
             fs=276030.1317011144, D_phase=0.500000001, Vr=1.0)],
        ids=["fixture", "half-cycle", "period"])
    def test_exit_three_prints_the_exact_cond_and_eigenvalues_of_the_solved_map(
            self, config_file, tmp_path, converter):
        dab = build_dab(DabParams(**converter))
        period, half = dab.schedule._period, half_cycle_map(dab, 1)
        path, out = config_file(converter=converter), str(tmp_path / "out")
        marginal = 0
        for argv, what, m in ((["steady-state", "--method", "full"], "periodic solve", period),
                              (["steady-state", "--method", "half"], "half-cycle solve", half),
                              (["bode", "--surface", "P+"], "surface P+ fixed point", half)):
            proc = run_cli(argv[0], path, *argv[1:], "--out", out)
            c = reference.cond(m[:4], 1.0)  # 50-digit mpmath of the map's floats
            if not c > 1e12:
                assert proc.returncode == 0
                continue
            marginal += 1
            assert proc.returncode == 3
            error, eigenvalues = proc.stderr.splitlines()
            assert error == f"error: {what} is marginal: cond ~ {c:.3e} exceeds 1.0e+12"
            assert eigenvalues == " ".join(["eigenvalues:", *map(str, core.eigenvalues(*m[:4]))])
            for e in core.eigenvalues(*m[:4]):  # a few u ||phi|| off those of 50-digit mpmath
                assert min(abs(e - x) for x in reference.eigenvalues(m)) <= 4e-16 * math.hypot(
                    *m[:4])
        assert marginal >= 2

    def test_singular_similarity_transform_exits_three(self, config_file):
        # Co = 1e-9 makes the leading interval's transition matrix numerically singular: the
        # exact cond of its floats is 4.607e19, which the closed form prints (LAPACK's cond of
        # the same floats reads 2.885e18 from a roundoff-level s_min).
        converter = dict(REFERENCE_KWARGS, Co=1e-9)
        t_mat = build_dab(DabParams(**converter)).schedule.maps[0].phi
        assert f"{reference.cond(t_mat.ravel().tolist()):.3e}" == "4.607e+19"
        proc = run_cli("verify", config_file(converter=converter))
        assert proc.returncode == 3
        assert proc.stdout == ""
        assert proc.stderr.splitlines() == [
            "error: similarity transform is singular: cond ~ 4.607e+19"]

    def test_simulate_on_a_marginal_design_exits_three(self, config_file, tmp_path):
        path = config_file(converter=dict(REFERENCE_KWARGS, Rt=1e15, Rc=0.0, Ro=1e30))
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

    def test_substeps_above_the_cap_exit_two(self, config_file, tmp_path):
        path = config_file(sim={"substeps_per_interval": 10**4 + 1})
        proc = run_cli("simulate", path, "--out", str(tmp_path / "wf.csv"))
        assert proc.returncode == 2
        assert "sim.substeps_per_interval" in proc.stderr

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

    @pytest.mark.parametrize("command, converter", [
        *[pytest.param(command, dict(Co=1e-300), id=command)
          for command in ("steady-state", "verify", "simulate")],
        *[pytest.param(command, dict(Co=1e-25), id=f"{command}-Co=1e-25")
          for command in ("steady-state", "bode", "verify", "simulate")],
        pytest.param("simulate", dict(L=4.7e202, Co=8.5e-296, fs=2.5e-16),
                     id="simulate-L=4.7e202,Co=8.5e-296,fs=2.5e-16")])
    def test_non_finite_exponential_is_a_config_error(self, config_file, tmp_path, command,
                                                      converter):
        # A 1e-300 F capacitor puts the 1-norm of a*t near 1e295, and 1e-25 F near 1e20:
        # the oracle's Pade kernel would need more than 53 squarings, whose roundoff leaves
        # no significant bit of a finite map, so it refuses, and so does the closed form,
        # whose maps the oracle could then not cross-check. With L 4.7e202, Co 8.5e-296 and
        # fs 2.5e-16 the entries of a are finite, and the oracle's a*t overflows.
        path = config_file(converter=dict(REFERENCE_KWARGS, **converter))
        argv = [command, path] + ([] if command == "verify" else ["--out", str(tmp_path / "o")])
        proc = run_cli(*argv)
        assert proc.returncode == 2, proc.stderr
        if command == "simulate":
            assert "matrix exponential is not finite" in proc.stderr
        else:
            assert "matrix exponential is refused" in proc.stderr
            assert "oracle's Pade kernel can cross-check it" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_failed_run_leaves_no_partial_output(self, config_file, tmp_path):
        out = tmp_path / "wf.csv"
        path = config_file(sim={"periods": 2, "convergence_tol": 1e-13})
        run_cli("simulate", path, "--out", str(out))
        assert not out.exists()


class TestUnwritableOut:
    """Every --out that cannot be written exits 2 with one error line and leaves no temp file."""

    OUTS = {"missing-directory": "missing/out.csv", "file-as-parent": "afile/out.csv",
            "empty": "", "dot": ".", "existing-directory": "adir", "fifo": "afifo"}

    @pytest.mark.parametrize("where", sorted(OUTS))
    @pytest.mark.parametrize("argv", [["steady-state"], ["bode", "--model", "both"],
                                      ["simulate"], ["compare"]], ids=lambda a: a[0])
    def test_exits_two_naming_the_path(self, config_file, tmp_path, monkeypatch, argv, where):
        path = config_file(sim={"injection": {"settle_periods": 10, "measure_periods": 20}},
                           sweep={"f_min": 400.0, "f_max": 4000.0, "points": 3,
                                  "spacing": "log"})
        (tmp_path / "afile").write_text("kept\n")
        (tmp_path / "adir").mkdir()
        os.mkfifo(tmp_path / "afifo")  # a rename would replace it with a regular file
        monkeypatch.chdir(tmp_path)
        before = sorted(tmp_path.rglob("*"))
        out = self.OUTS[where]
        proc = run_cli(argv[0], path, *argv[1:], "--out", out)
        assert proc.returncode == 2
        err = proc.stderr.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ") and repr(out) in err[0]
        assert sorted(tmp_path.rglob("*")) == before
        assert (tmp_path / "afile").read_text() == "kept\n"
        assert stat.S_ISFIFO(os.lstat(tmp_path / "afifo").st_mode)

    def test_a_symlink_out_is_written_through_to_its_target(self, config_file, tmp_path,
                                                            monkeypatch):
        path = config_file()
        (tmp_path / "target.json").write_text("old\n")
        (tmp_path / "link.json").symlink_to("target.json")
        monkeypatch.chdir(tmp_path)
        before = set(tmp_path.iterdir())
        assert run_cli("steady-state", path, "--out", "link.json").returncode == 0
        assert set(tmp_path.iterdir()) == before
        assert os.readlink(tmp_path / "link.json") == "target.json"
        assert json.loads((tmp_path / "target.json").read_text())["x_star"]


class TestValuesAtTheEdgeOfDoublePrecision:
    """Converter values whose products or transfers underflow to 0: README exit codes only."""

    SIM = {"periods": 200, "injection": {"settle_periods": 5, "measure_periods": 10}}
    COMMANDS = (["steady-state"], ["verify"], ["bode", "--model", "both"], ["simulate"],
                ["compare"])

    def run_all(self, config_file, tmp_path, converter):
        """(command, exit code, stderr lines) of every command, run in-process."""
        path = config_file(converter=dict(REFERENCE_KWARGS, **converter), sim=self.SIM,
                           sweep={"points": 3})
        results = []
        for command, *extra in self.COMMANDS:
            out = [] if command == "verify" else ["--out", str(tmp_path / command)]
            proc = run_cli(command, path, *extra, *out)
            results.append((command, proc.returncode, proc.stderr.splitlines()))
        return results

    @pytest.mark.parametrize("converter", [
        pytest.param(dict(n_turns=1e-300), id="n_turns=1e-300"),
        pytest.param(dict(n_turns=1e-160, L=1e-170), id="n_turns=1e-160,L=1e-170"),
        pytest.param(dict(Co=1e-320, Ro=1e-5, Rc=0.0), id="Co=1e-320,Ro=1e-5,Rc=0")])
    def test_an_underflowing_denominator_is_a_config_error(self, config_file, tmp_path,
                                                           converter):
        # n^2 L, n L (ro + rc) or Co (ro + rc) rounds to 0: a state matrix is not finite.
        for command, code, err in self.run_all(config_file, tmp_path, converter):
            assert code == 2, (command, err)
            assert len(err) == 1 and err[0].startswith("error: "), (command, err)

    @pytest.mark.parametrize("converter", [
        pytest.param(dict(Ro=5e-324), id="Ro=5e-324"),
        pytest.param(dict(Vin=5e-324), id="Vin=5e-324"),
        pytest.param(dict(Vin=1e-300, Vr=1e300), id="Vin=1e-300,Vr=1e300")])
    def test_a_transfer_of_zero_exits_with_a_readme_code(self, config_file, tmp_path, converter):
        for command, code, err in self.run_all(config_file, tmp_path, converter):
            assert code in (0, 2, 3, 4, 5) or (code == 1 and command == "verify"), (command, err)
            assert code == 0 or err[0].startswith("error: "), (command, err)

    @pytest.mark.parametrize("vin", [1e308, -1e308])
    def test_an_overflowing_input_column_is_a_config_error(self, config_file, tmp_path, vin):
        # b u overflows to inf in both exponentials' augmented matrices: no RuntimeWarning.
        # The closed form and the oracle both name the input column, not a t (near 0.1 here).
        for command, code, err in self.run_all(config_file, tmp_path, dict(Vin=vin)):
            assert code == 2, (command, err)
            assert len(err) == 1 and err[0] == (
                "error: matrix exponential is not finite: the 1-norm of b*u*t (input column "
                "times duration) reaches inf, beyond double precision"), (command, err)

    @pytest.mark.parametrize("vr", [1e-305, 1e-306, 1e-307, 5e-324])
    def test_control_input_vectors_that_are_not_finite_are_a_config_error(
            self, config_file, tmp_path, vr):
        # From 1e-307 on T_half / Vr times a sensitivity overflows. At 1e-305 and 1e-306 the
        # vectors are finite: a verify row passes the float range where it is evaluated, while
        # the 3-point sweep and compare's predicted transfers stay finite, so compare follows the
        # oracle, whose 200 periods do not settle this lightly damped design. The steady state
        # needs no input vector.
        built = vr > 1e-307
        expected = {"steady-state": 0, "verify": 2, "bode": 0 if built else 2, "simulate": 4,
                    "compare": 4 if built else 2}
        message = "passes the float range" if built else "control-input vectors are not finite"
        for command, code, err in self.run_all(config_file, tmp_path, dict(Vr=vr)):
            assert code == expected[command], (command, err)
            if code == 2:
                assert len(err) == 1 and message in err[0], err
        if built:
            rows = [line.split(",")[:-1] for line in (tmp_path / "bode").read_text().splitlines()]
            assert len(rows) == 7 and all(map(math.isfinite, map(float, sum(rows[1:], []))))

    def test_a_transfer_whose_modulus_overflows_is_a_config_error(self, config_file, tmp_path,
                                                                   monkeypatch):
        # Vr = 165.11 / DBL_MAX / 1.01, where 165.11 is |H_vout| at 100 Hz for Vr = 1: both parts
        # of that transfer are finite and its modulus is not. bode refuses it, and compare
        # before its oracle's pre-run.
        path = config_file(converter=dict(REFERENCE_KWARGS, Vr=9.09e-307), sweep={"points": 3})
        message = ["error: |H| at f = 100.0 Hz passes the float range"]
        monkeypatch.setattr(oracle, "_period_start", lambda *_: pytest.fail("simulated"))
        for command, *extra in (["bode", "--model", "both"], ["compare"]):
            out = tmp_path / command
            proc = run_cli(command, path, *extra, "--out", str(out))
            assert proc.returncode == 2, command
            assert proc.stderr.splitlines() == message, command
            assert not out.exists()

    @pytest.mark.parametrize("converter", [
        # L and Co times 1e-150 and fs times 1e150: ||a||_1 near 1e155, every a T as in the
        # reference design.
        pytest.param(dict(L=10e-156, Co=100e-156, fs=100e153), id="time-scaled"),
        # The oracle's exponential by degree: Rt 50 puts every step on degree 13 with one or two
        # squarings, Rc 10 every step below theta9 (degree 9), and Rt 6 the steps on either side
        # of theta9, a mixed stack.
        pytest.param(dict(Rt=50.0), id="Rt=50"), pytest.param(dict(Rc=10.0), id="Rc=10"),
        pytest.param(dict(Rt=6.0), id="Rt=6")])
    def test_a_design_simulates_and_compares(self, config_file, tmp_path, converter):
        # A RuntimeWarning fails the suite.
        path = config_file(converter=dict(REFERENCE_KWARGS, **converter))
        for command in ("simulate", "compare"):
            out = tmp_path / f"{command}.csv"
            assert run_cli(command, path, "--out", str(out)).returncode == 0, command
            assert out.stat().st_size > 0, command

    def test_a_small_ramp_amplitude_verifies_without_a_warning(self, config_file):
        # Vr = 10^-k scales every transfer by 10^k: from k = 151 on, sums of squares in
        # verify's norms overflow unless scaled (hypot's form, from 1e150 on). From k = 305
        # a transfer itself overflows. k = 200 runs the default sweep as well.
        for k, sweep in [*((k, {"points": 3}) for k in range(151, 305)), (200, None)]:
            path = config_file(converter=dict(REFERENCE_KWARGS, Vr=float(f"1e-{k}")), sweep=sweep)
            proc = run_cli("verify", path)
            assert proc.returncode == 0, (k, proc.stdout)
            assert proc.stderr == "", k

    def test_a_zero_magnitude_is_minus_inf_db(self, config_file, tmp_path):
        # A load of 5e-324 ohm shorts the output: V_out is exactly 0 at every frequency.
        # It also decouples i_L, which then sees no phase shift: the two duration
        # sensitivities agree in i_L, so b_cur + b_next is exactly 0 there, and its v_C entry
        # (about 1e-322) times phi's denormal coupling underflows. The same-cycle I_rec
        # transfer is exactly 0, while the exact model's, with its z b_next, is finite.
        path = config_file(converter=dict(REFERENCE_KWARGS, Ro=5e-324), sweep={"points": 3})
        out = tmp_path / "bode.csv"
        assert run_cli("bode", path, "--model", "both", "--out", str(out)).returncode == 0
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        assert len(rows) == 6
        for row in rows:
            assert row[3] == "-inf", row
            if row[5] == "sc":
                assert row[1] == "-inf", row
            else:
                assert math.isfinite(float(row[1])), row

    def test_a_zero_measured_magnitude_is_a_nan_ratio(self, config_file, tmp_path):
        # With Vin = 5e-324 the model and the measurement are both 0: 0 / 0.
        path = config_file(converter=dict(REFERENCE_KWARGS, Vin=5e-324), sim=self.SIM,
                           sweep={"points": 3})
        out = tmp_path / "compare.csv"
        assert run_cli("compare", path, "--out", str(out)).returncode == 0
        rows = [line.split(",") for line in out.read_text().splitlines()[3:]]
        assert rows and all(row[1] == "nan" and row[3] == "nan" for row in rows)


class TestTempFile:
    """--out goes through a temp file of its own: a user's `<out>.tmp` is never touched."""

    @pytest.mark.parametrize("out, code", [("ss.json", 0), ("adir", 2)],
                             ids=["success", "failure"])
    def test_an_existing_out_tmp_survives(self, config_file, tmp_path, monkeypatch, out, code):
        path = config_file()
        (tmp_path / "adir").mkdir()  # renaming a file over a directory fails
        users = tmp_path / f"{out}.tmp"
        users.write_text("the user's data\n")
        monkeypatch.chdir(tmp_path)
        before = set(tmp_path.iterdir())
        assert run_cli("steady-state", path, "--out", out).returncode == code
        assert users.read_text() == "the user's data\n"
        created = set(tmp_path.iterdir()) - before
        assert created == ({tmp_path / out} if code == 0 else set())
        if code == 0:
            assert json.loads((tmp_path / out).read_text())["x_star"]


    def test_a_temp_name_in_use_is_drawn_again(self, config_file, tmp_path, monkeypatch):
        # The first name drawn is taken, so the second is used, and the file of the first is
        # not touched.
        draws = iter([b"\0" * 6, b"\1" * 6])
        monkeypatch.setattr(os, "urandom", lambda n: next(draws))
        taken = tmp_path / f".ss.json.{'00' * 6}.tmp"
        taken.write_text("another writer's\n")
        assert run_cli("steady-state", config_file(), "--out", str(tmp_path / "ss.json")) \
            .returncode == 0
        assert taken.read_text() == "another writer's\n"
        assert {p.name for p in tmp_path.iterdir()} >= {"ss.json", taken.name}
        assert not (tmp_path / f".ss.json.{'01' * 6}.tmp").exists()

    def test_a_hundred_names_in_use_exit_two(self, config_file, tmp_path, monkeypatch):
        path = config_file()
        monkeypatch.setattr(os, "urandom", lambda n: b"\0" * n)
        (tmp_path / f".ss.json.{'00' * 6}.tmp").write_text("another writer's\n")
        before = set(tmp_path.iterdir())
        proc = run_cli("steady-state", path, "--out", str(tmp_path / "ss.json"))
        assert proc.returncode == 2
        assert proc.stderr == (f"error: cannot write --out {str(tmp_path / 'ss.json')!r}: no "
                               f"unused temporary name next to {str(tmp_path / 'ss.json')!r}\n")
        assert set(tmp_path.iterdir()) == before

    def test_a_failed_rename_removes_the_temp_file(self, config_file, tmp_path, monkeypatch):
        def failing(src, dst):
            raise PermissionError(13, "Permission denied")

        path = config_file()
        before = set(tmp_path.iterdir())
        monkeypatch.setattr(os, "replace", failing)
        proc = run_cli("steady-state", path, "--out", str(tmp_path / "ss.json"))
        assert proc.returncode == 2
        assert proc.stderr == (f"error: cannot write --out {str(tmp_path / 'ss.json')!r}: "
                               "Permission denied\n")
        assert set(tmp_path.iterdir()) == before


def _after_importing_numpy(function):
    """`function`, called after an `import numpy`."""
    def wrapped(*args):
        import numpy  # noqa: F401
        return function(*args)
    return wrapped


class TestMisc:
    @pytest.mark.parametrize("command, module, name, replacement, failure", [
        pytest.param("verify", smallsignal, "identity_checks",
                     _after_importing_numpy(smallsignal.identity_checks),
                     "raised ModuleNotFoundError", id="numpy-import"),
        pytest.param("steady-state", cli, "cmd_steady_state", lambda *_: {}["x_star"],
                     "raised KeyError", id="exception"),
        pytest.param("bode", cli, "cmd_bode", lambda *_: 1, "exited 1:", id="bode-exits-1"),
        pytest.param("simulate", cli, "cmd_simulate", lambda *_: 7, "exited 7:", id="exit-7")])
    def test_run_cli_fails_a_command_that_breaks_the_contract(
            self, config_file, tmp_path, monkeypatch, command, module, name, replacement,
            failure):
        # A numpy import in a numpy-free command, a traceback, exit 1 from a command other than
        # verify, and an exit code outside README's table.
        monkeypatch.setattr(module, name, replacement)
        out = [] if command == "verify" else ["--out", str(tmp_path / "out")]
        with pytest.raises(pytest.fail.Exception, match=f"`dabss {command} .*` {failure}"):
            run_cli(command, config_file(), *out)
        assert sys.modules["numpy"] is np

    def test_version_flag(self):
        proc = run_cli("--version")
        assert proc.returncode == 0
        assert "dabss" in proc.stdout

    def test_missing_subcommand_is_a_usage_error(self):
        assert run_cli().returncode == 2

    def test_top_level_names_load_on_first_use(self):
        # A fresh interpreter: `import dabss` loads no numpy, and every name of __all__ is
        # the object its module defines, listed by dir() and bound by a star import.
        script = """if True:
            import importlib, sys
            import dabss
            assert dabss.relative_residual((3.0, 0.0), (1.0, 0.0)) == 1.0
            assert "numpy" not in sys.modules
            assert set(dabss.__all__) <= set(dir(dabss))
            for name in dabss.__all__:
                module = importlib.import_module("dabss." + dabss._EXPORTS[name])
                assert getattr(dabss, name) is getattr(module, name), name
            namespace = {}
            exec("from dabss import *", namespace)
            assert set(dabss.__all__) <= namespace.keys()
            try:
                dabss.no_such_name
            except AttributeError as exc:
                assert "no_such_name" in str(exc)
            else:
                raise AssertionError("an unknown name resolved")
            """
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr

    COMMANDS = ("steady-state", "verify", "bode", "simulate", "compare")
    # Whether each command line loads numpy, dabss.smallsignal and dabss.oracle: the surface
    # models where a transfer is evaluated, the simulator where it runs. `simulate` and a short
    # `compare` run the oracle in floats, the measurement too; a sweep of 12,001 points, past any
    # size where arrays would pay for numpy's import, runs z by z too. Only a measurement past
    # oracle.FLOAT_HALF_CYCLES (3 bins of 8,020 half cycles here) imports numpy.
    LOADS = {"import": (False, False, False), "cli-version": (False, False, False),
             "steady-state": (False, False, False), "verify": (False, True, False),
             "bode": (False, True, False), "simulate": (False, False, True),
             "compare": (False, True, True), "bode-12001-points": (False, True, False),
             "compare-4000-periods": (True, True, True)}

    @pytest.mark.parametrize("argv", [("-c", "import dabss"), ("-m", "dabss.cli", "--version"),
                                      *(("-m", "dabss.cli", command)
                                        for command in (*COMMANDS, "bode", "compare"))],
                             ids=["import", "cli-version", *COMMANDS, "bode-12001-points",
                                  "compare-4000-periods"])
    def test_scipy_is_never_imported(self, config_file, tmp_path, argv, request):
        # -X importtime lists every module the interpreter imports, one per line.
        command, case = argv[-1], request.node.callspec.id
        if command in self.COMMANDS:
            points = 12_001 if case == "bode-12001-points" else 3
            measure = 4000 if case == "compare-4000-periods" else 20
            argv += (config_file(sim={"injection": {"settle_periods": 10,
                                                    "measure_periods": measure}},
                                 sweep={"f_min": 400.0, "f_max": 4000.0, "points": points}),)
            if command != "verify":
                argv += ("--out", str(tmp_path / "out"))
        proc = subprocess.run([sys.executable, "-X", "importtime", *argv],
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        imported = {line.rsplit("|", 1)[-1].strip() for line in proc.stderr.splitlines()}
        assert "dabss" in imported
        assert not [name for name in imported if name.split(".")[0] == "scipy"]
        loads = tuple(name in imported for name in ("numpy", "dabss.smallsignal", "dabss.oracle"))
        assert loads == self.LOADS[case]
        assert loads[0] == (case == "compare-4000-periods"
                            or case in self.COMMANDS and case not in NUMPY_FREE_COMMANDS)

    def test_the_float_modules_load_neither_dataclasses_nor_inspect(self):
        # A frozen dataclass costs a cold command about 0.7 ms to create, and `import
        # dataclasses` loads `inspect`: the modules every numpy-free command runs on use
        # NamedTuples and plain classes. SimConfig, which perfbench copies with
        # `dataclasses.replace`, is the one dataclass left.
        script = """if True:
            import sys
            import dabss.core, dabss.pwlti, dabss.dab, dabss.smallsignal
            print(sorted({"dataclasses", "inspect"} & sys.modules.keys()))
            import dataclasses
            import dabss.cli, dabss.config, dabss.errors, dabss.oracle
            print(sorted(f"{name}.{value.__name__}" for name, module in sys.modules.items()
                         if name.startswith("dabss") for value in vars(module).values()
                         if isinstance(value, type) and dataclasses.is_dataclass(value)
                         and value.__module__ == name))
            """
        proc = subprocess.run([sys.executable, "-c", script],
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines() == ["[]", "['dabss.config.SimConfig']"]
