"""The four benchmark workloads: seeded inputs, one op each, and a per-op correctness gate.

Every workload is a closed loop with one client: the benchmark issues one op,
waits for it, then issues the next. Constructing a workload is its input
generation; everything the program receives (DabParams, config files,
frequency sets) is drawn from the seed here. Calls into dabss go through the
`layers` namespace from `bind_layers`, so a traced run can time each call at
the benchmark's side of the layer boundary. An op that raises, exits
non-zero or misses its gate counts as failed; the gates use the acceptance
suite's pinned values.
"""

from __future__ import annotations

import cmath
import contextlib
import dataclasses
import importlib
import io
import json
import math
import os
import resource
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import numpy as np

import dabss.cli
import reference
from dabss import (P_MINUS, P_PLUS, S_MINUS, S_PLUS, SURFACES, DabParams, Injection,
                   SimConfig, relative_residual, sweep_frequencies)

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# Public functions whose calls from this file are spanned, by dabss module.
LAYER_FUNCTIONS = {
    "pwlti": ("solve_periodic_fixed_point", "monodromy", "closed_form_state"),
    "dab": ("build_dab", "solve_half_cycle", "verify_symmetry"),
    "smallsignal": ("half_cycle_model", "bode_sweep", "transfer_fixed_freq",
                    "verify_surface_equivalence", "transfer_difference",
                    "difference_envelope"),
    "oracle": ("run_to_steady_state", "measure_frequency_response"),
    "config": ("load_config",),
}

# The reference design of the acceptance suite (tests/conftest.py).
REFERENCE = dict(n_turns=1.0, L=10e-6, Co=100e-6, Rt=0.05, Rc=0.01, Ro=10.0,
                 Vin=100.0, fs=100e3, D_phase=0.3, Vr=1.0)

IMPORT_PROBE = ("import time; t = time.perf_counter(); import dabss; "
                "print(repr(time.perf_counter() - t))")


class GateError(AssertionError):
    """An op finished but its output failed the correctness gate."""


def require(ok: bool, what: str) -> None:
    if not ok:
        raise GateError(what)


def bind_layers(tracer) -> SimpleNamespace:
    """The layer functions, each wrapped in a span named `<module>.<function>`."""
    functions = {}
    for module, names in LAYER_FUNCTIONS.items():
        mod = importlib.import_module(f"dabss.{module}")
        for name in names:
            functions[name] = tracer.wrap(f"{module}.{name}", getattr(mod, name))
    return SimpleNamespace(**functions)


def child_env() -> dict:
    """Environment for child interpreters: dabss comes from this checkout's src/."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    return env


def startup_probe(tracer, env: dict) -> None:
    """Bare interpreter start and `import dabss`, each in a fresh subprocess."""
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "pass"], env=env, check=True)
    tracer.sample("startup.python_ms", (time.perf_counter() - start) * 1e3)
    proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env, check=True,
                          capture_output=True, text=True)
    tracer.sample("startup.import_dabss_ms", float(proc.stdout) * 1e3)


def draw_design(rng: np.random.Generator) -> DabParams:
    """One converter from the ranges of the acceptance suite's random designs."""
    return DabParams(
        n_turns=float(rng.uniform(0.5, 2.0)),
        L=float(rng.uniform(5e-6, 50e-6)),
        Co=float(rng.uniform(20e-6, 500e-6)),
        Rt=float(rng.uniform(0.01, 0.5)),
        Rc=float(rng.uniform(0.0, 0.05)),
        Ro=float(rng.uniform(2.0, 50.0)),
        Vin=float(rng.uniform(20.0, 400.0)),
        fs=float(rng.uniform(20e3, 500e3)),
        D_phase=float(rng.uniform(0.05, 0.45)),
        Vr=float(rng.uniform(0.5, 5.0)),
    )


def count_rows(tracer, rows) -> None:
    tracer.count("smallsignal.freq_points", len(rows))
    tracer.count("bode_rows", len(rows))
    tracer.count("bode_flagged", sum(row.flagged for row in rows))


class InProcess:
    """A workload whose ops run inside the benchmark process."""

    warm_up_ops = 1
    rss_of = "benchmark process"
    reference_nominal_s = reference.NOMINAL_S

    def reference_s(self) -> float:
        """The host's current speed, read the way that tracks this workload's ops."""
        return reference.seconds()

    def warm_up(self, layers, tracer) -> None:
        # A failing op is counted by the timed window; warm-up only fills caches.
        for _ in range(self.warm_up_ops):
            with contextlib.suppress(Exception):
                self.op(layers, tracer)

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class DesignSweep(InProcess):
    """Fresh seeded designs, each analysed from its maps to an 8-point Bode sweep.

    Nothing carries over between designs, so every one rebuilds the segment
    maps. An op is a batch of designs: single designs take a few
    milliseconds, short enough that each lands wholly inside or outside a
    burst of contention from other tenants of a shared host, which made the
    median op latency flip between two modes from run to run.
    """

    name = "design-sweep"
    designs_per_op = 25
    warm_up_ops = 2

    def __init__(self, seed: int, workdir: Path):
        self.rng = np.random.default_rng(seed)

    def op(self, layers, tracer) -> None:
        for _ in range(self.designs_per_op):
            self.analyse(layers, tracer)

    def analyse(self, layers, tracer) -> None:
        params = draw_design(self.rng)
        dab = layers.build_dab(params)
        x_full = layers.solve_periodic_fixed_point(dab.schedule)
        x_half = layers.solve_half_cycle(dab)
        half = relative_residual(x_half, x_full)
        require(half <= 1e-10, f"half-cycle vs full fixed point {half:.3e} > 1e-10")
        rho = float(np.max(np.abs(np.linalg.eigvals(layers.monodromy(dab.schedule)))))
        require(rho < 1.0, f"monodromy spectral radius {rho!r} >= 1")
        closure = relative_residual(layers.closed_form_state(dab.schedule, x_full), x_full)
        require(closure <= 1e-10, f"period closure {closure:.3e} > 1e-10")
        failing = [c.name for c in layers.verify_symmetry(dab, rtol=1e-12) if not c.passed]
        require(not failing, f"symmetry checks failed: {failing}")
        models = [layers.half_cycle_model(dab, surface) for surface in SURFACES.values()]
        anchored = relative_residual(models[0].x_star, x_full)
        require(anchored <= 1e-10, f"P+ surface fixed point vs full {anchored:.3e} > 1e-10")
        rows = layers.bode_sweep(dab, P_PLUS, "fix", params.fs / 1000.0, params.fs / 10.0, 8)
        count_rows(tracer, rows)
        require(not any(row.flagged for row in rows), "bode sweep flagged a row")


class DenseBode(InProcess):
    """Full frequency characterisation of designs from a small pool, round-robin.

    Thousands of z evaluations per op, with the pwlti work a small share.
    """

    name = "dense-bode"
    pool_size = 4
    points = 128
    warm_up_ops = pool_size

    def __init__(self, seed: int, workdir: Path):
        rng = np.random.default_rng(seed)
        self.pool = [draw_design(rng) for _ in range(self.pool_size)]
        self.pairs = ((P_PLUS, S_PLUS), (P_MINUS, S_MINUS))
        self.z_grid = [cmath.exp(2j * math.pi * q / 64) for q in range(64)]
        self.next = 0

    def op(self, layers, tracer) -> None:
        params = self.pool[self.next % self.pool_size]
        self.next += 1
        dab = layers.build_dab(params)
        # Up to half the surface Nyquist frequency 1/(2 t_half) = fs.
        f_min, f_max = params.fs / 1000.0, params.fs / 2.0
        sweeps = {}
        for surface in SURFACES.values():
            for kind in ("fix", "sc"):
                rows = layers.bode_sweep(dab, surface, kind, f_min, f_max, self.points)
                count_rows(tracer, rows)
                require(not any(row.flagged for row in rows),
                        f"{surface.label} {kind} sweep flagged a row")
                sweeps[surface.label, kind] = rows

        model = layers.half_cycle_model(dab, P_PLUS)
        spot = sweeps["P+", "fix"][::16]
        tracer.count("smallsignal.freq_points", len(spot))
        for row in spot:
            z = cmath.exp(2j * cmath.pi * row.f * model.t_half)
            h = layers.transfer_fixed_freq(model, dab.c_phys, z)
            dev = relative_residual(np.array([row.h_irec, row.h_vout]), h)
            require(dev <= 1e-12, f"bode row at {row.f!r} Hz deviates {dev:.3e} from the transfer")

        for pair in self.pairs:
            checks = layers.verify_surface_equivalence(dab, *pair, z_grid=self.z_grid)
            tracer.count("smallsignal.freq_points", len(self.z_grid))
            worst = max(c.residual for c in checks)
            require(worst <= 1e-10,
                    f"surface chain {pair[0].label}~{pair[1].label} {worst:.3e} > 1e-10")

        # Criterion 8's loop on its own grid. transfer_difference's built-in 1e-12
        # dual-path cross-check trips on about 1 pool design in 700 (seed 20
        # has one), and those ops fail.
        ratio = 0.0
        grid = sweep_frequencies(params.fs / 1000.0, params.fs / 10.0, 25, "log", model.t_half)
        for f in grid:
            z = cmath.exp(2j * cmath.pi * f * model.t_half)
            delta = layers.transfer_difference(model, dab.c_phys, z)
            bound = layers.difference_envelope(model, dab.c_phys, z)
            ratio = max(ratio, float(np.linalg.norm(delta)) / bound)
        tracer.count("smallsignal.freq_points", len(grid))
        require(ratio <= 1.0, f"difference envelope ratio {ratio!r} > 1")


class OracleCompare(InProcess):
    """Criterion 7 on the reference design at seeded coherent bins.

    The bins below 7 are criterion 7's own; each higher bin is drawn within
    +-15% of criterion 7's and coprime with the 2000 half cycles of the
    window, so its control samples never repeat inside the window and the
    oracle needs a fresh step map on nearly every half cycle whatever the
    seed.
    """

    name = "oracle-compare"
    settle, measure = 800, 1000

    def __init__(self, seed: int, workdir: Path):
        rng = np.random.default_rng(seed)
        self.params = DabParams(**REFERENCE)
        fs = self.params.fs
        window = self.measure * self.params.period
        half_cycles = 2 * self.measure
        bins = []
        for m in sorted({round(f * window) for f in np.geomspace(fs / 1000.0, fs / 10.0, 8)}):
            if m >= 7:
                low, high = math.ceil(0.85 * m), math.floor(1.15 * m)
                m = int(rng.choice([c for c in range(low, high + 1)
                                    if math.gcd(c, half_cycles) == 1]))
            bins.append(m)
        self.freqs = [m / window for m in bins]
        self.sim = SimConfig(periods=4000, convergence_tol=1e-11)

    def op(self, layers, tracer) -> None:
        dab = layers.build_dab(self.params)
        model = layers.half_cycle_model(dab, P_PLUS)
        x_sim, _ = layers.run_to_steady_state(dab, self.sim)
        x_model = layers.solve_periodic_fixed_point(dab.schedule)
        steady = relative_residual(x_sim, x_model)
        require(steady <= 1e-6, f"oracle steady state deviates {steady:.3e} > 1e-6")
        worst_mag = worst_phase = 0.0
        for f in self.freqs:
            injection = Injection(f=f, settle_periods=self.settle, measure_periods=self.measure)
            measured = layers.measure_frequency_response(
                dab, P_PLUS, dataclasses.replace(self.sim, injection=injection))
            z = cmath.exp(2j * cmath.pi * f * model.t_half)
            predicted = layers.transfer_fixed_freq(model, dab.c_phys, z)
            for ch in range(2):
                worst_mag = max(worst_mag, abs(abs(predicted[ch]) / abs(measured[ch]) - 1.0))
                worst_phase = max(worst_phase, abs(math.degrees(
                    cmath.phase(predicted[ch] / measured[ch]))))
        tracer.count("oracle.bins", len(self.freqs))
        tracer.count("oracle.half_cycles", len(self.freqs) * 2 * (self.settle + self.measure))
        tracer.count("smallsignal.freq_points", len(self.freqs))
        require(worst_mag <= 0.02, f"oracle magnitude deviation {worst_mag:.3e} > 0.02")
        require(worst_phase <= 2.0, f"oracle phase deviation {worst_phase:.3e} deg > 2")


class Cli:
    """One cold `python -m dabss.cli <command>` subprocess per op, commands in rotation.

    The config has acceptance criterion 10's shape with every reference
    parameter jittered within +-10% by the seed. Warm-up runs each command
    once; its output bytes are the reference every later repeat must match.
    """

    name = "cli"
    rss_of = "largest child"
    reference_nominal_s = reference.COLD_NOMINAL_S
    commands = (("steady-state", ()), ("verify", ()), ("bode", ("--model", "both")),
                ("simulate", ()), ("compare", ()))

    def __init__(self, seed: int, workdir: Path):
        rng = np.random.default_rng(seed)
        converter = {k: v * float(rng.uniform(0.9, 1.1)) for k, v in REFERENCE.items()}
        self.workdir = workdir
        self.config = workdir / "config.json"
        self.config.write_text(json.dumps({
            "converter": converter,
            "sim": {"injection": {"settle_periods": 800, "measure_periods": 250}},
            "sweep": {"f_min": 400.0, "f_max": 4000.0, "points": 5, "spacing": "log"},
        }, indent=2))
        self.env = child_env()
        self.reference: dict[str, bytes] = {}
        self.cold_walls: dict[str, list[float]] = {c: [] for c, _ in self.commands}
        self.peak_child_kb = 0
        self.next = 0
        self.last = self.commands[0]

    def argv(self, command: str, extra, out: Path) -> list[str]:
        argv = [command, str(self.config), *extra]
        return argv if command == "verify" else argv + ["--out", str(out)]

    def cold(self, command: str, extra) -> tuple[int, bytes, float, int]:
        """Run one command in a fresh interpreter: (exit code, output, wall s, max RSS KiB)."""
        out = self.workdir / f"{command}.out"
        out.unlink(missing_ok=True)
        stdout_path = self.workdir / "stdout.txt"
        with open(stdout_path, "wb") as stdout, open(self.workdir / "stderr.txt", "wb") as stderr:
            start = time.perf_counter()
            proc = subprocess.Popen(
                [sys.executable, "-m", "dabss.cli", *self.argv(command, extra, out)],
                stdout=stdout, stderr=stderr, env=self.env, cwd=self.workdir)
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        output = stdout_path.read_bytes() if command == "verify" else (
            out.read_bytes() if out.exists() else b"")
        return proc.returncode, output, wall, usage.ru_maxrss

    def reference_s(self) -> float:
        return reference.cold_seconds(self.env)

    def warm_up(self, layers, tracer) -> None:
        for command, extra in self.commands:
            _, self.reference[command], _, _ = self.cold(command, extra)

    def op(self, layers, tracer) -> None:
        command, extra = self.last = self.commands[self.next % len(self.commands)]
        self.next += 1
        with tracer.span(f"cli.cold.{command}"):
            code, output, wall, max_rss = self.cold(command, extra)
        self.cold_walls[command].append(wall)
        self.peak_child_kb = max(self.peak_child_kb, max_rss)
        require(code == 0, f"{command} exited {code}")
        require(bool(output), f"{command} wrote no output")
        if command == "verify":
            require(b"\nRESULT: PASS" in output, "verify did not print RESULT: PASS")
        require(output == self.reference[command],
                f"{command} output differs from the first run's bytes")

    def probe(self, layers, tracer) -> None:
        """Split the op just run into start-up, import and in-process command time."""
        command, extra = self.last
        startup_probe(tracer, self.env)
        layers.load_config(self.config)
        argv = self.argv(command, extra, self.workdir / f"{command}.inproc.out")
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            with tracer.span(f"cli.main.{command}"):
                dabss.cli.main(argv)  # a failing command already failed its cold op

    def peak_rss_mb(self) -> float:
        return self.peak_child_kb / 1024.0


WORKLOADS = {w.name: w for w in (DesignSweep, DenseBode, OracleCompare, Cli)}
