"""Command line front end.

Exit codes: 0 success, 1 verification failure, 2 configuration problem,
3 marginal or singular system, 4 simulator non-convergence, 5 injection
amplitude violation. Result data goes to output files (or stdout for the
verify table); diagnostics go to stderr. File writes are
write-temp-then-rename so a failing command never leaves partial output,
and all output is byte deterministic for identical inputs.
"""

from __future__ import annotations

import argparse
import cmath
import contextlib
import dataclasses
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .config import AppConfig, load_config
from .dab import DabSchedule, build_dab, solve_half_cycle
from .errors import (AmplitudeError, ConfigError, ConvergenceError, MarginalSystemError,
                     NumericInputError, ParameterError, ResolventSingularityError)
from .oracle import measure_frequency_responses, run_to_steady_state
from .pwlti import closed_form_state, monodromy, relative_residual, solve_periodic_fixed_point
from .smallsignal import (SURFACES, bode_sweep, half_cycle_model, identity_checks,
                          sweep_frequencies, transfer_fixed_freq)


def _fmt(value: float) -> str:
    return f"{value:.17g}"


def _new_temp_file(path: Path) -> tuple[int, Path]:
    """A file created for writing next to `path` under a fresh random name, never one that
    exists: its descriptor and its path."""
    for _ in range(100):
        tmp = path.with_name(f".{path.name}.{os.urandom(6).hex()}.tmp")
        try:
            return os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666), tmp
        except FileExistsError:
            continue
    raise FileExistsError(f"no unused temporary name next to {str(path)!r}")


def _atomic_write(out: str, text: str) -> None:
    """Write `text` to `out` through a temp file of its own (`_new_temp_file`) and a rename,
    so no other file is touched. An `out` that cannot be written is a ConfigError naming
    it, and its temp file does not stay behind."""
    path = Path(out)
    if not path.name:  # '' and '.' name no file
        raise ConfigError(f"--out {out!r} names no file")
    tmp = None
    try:
        fd, tmp = _new_temp_file(path)
        with os.fdopen(fd, "w") as f:
            f.write(text)
        os.replace(tmp, path)
    except OSError as exc:
        if tmp is not None:
            with contextlib.suppress(OSError):
                tmp.unlink()
        raise ConfigError(f"cannot write --out {out!r}: {exc.strerror or exc}") from exc


def _wrap_degrees(angle: float) -> float:
    wrapped = (angle + 180.0) % 360.0 - 180.0
    return 180.0 if wrapped == -180.0 else wrapped


def _surfaces(cfg: AppConfig) -> dict:
    """SURFACES with the config's polarity overrides applied."""
    return {label: dataclasses.replace(s, polarity=cfg.polarity_override.get(label, s.polarity))
            for label, s in SURFACES.items()}


def cmd_steady_state(args, cfg: AppConfig, dab: DabSchedule) -> int:
    if args.method == "full":
        x_star = solve_periodic_fixed_point(dab.schedule)
    else:
        x_star = solve_half_cycle(dab)
    residual = relative_residual(closed_form_state(dab.schedule, x_star), x_star)
    eigs = sorted(np.linalg.eigvals(monodromy(dab.schedule)),
                  key=lambda e: (e.real, e.imag))
    eig_rows = ",\n    ".join(f"[{_fmt(e.real)}, {_fmt(e.imag)}]" for e in eigs)
    text = (
        "{\n"
        f"  \"eigenvalues_of_Pi\": [\n    {eig_rows}\n  ],\n"
        f"  \"method\": \"{args.method}\",\n"
        f"  \"residual\": {_fmt(residual)},\n"
        f"  \"x_star\": [{_fmt(x_star[0])}, {_fmt(x_star[1])}]\n"
        "}\n")
    _atomic_write(args.out, text)
    return 0


def cmd_verify(args, cfg: AppConfig, dab: DabSchedule) -> int:
    sweep = cfg.sweep
    checks = identity_checks(
        dab, cfg.tolerances, _surfaces(cfg),
        sweep_frequencies(sweep.f_min, sweep.f_max, sweep.points, sweep.spacing,
                          dab.params.t_half))
    width = max(len(c.name) for c in checks)
    lines = [f"{'identity':<{width}}  {'residual':>12}  {'tolerance':>12}  status"]
    for c in checks:
        status = "PASS" if c.passed else "FAIL"
        note = f"  [{c.note}]" if c.note else ""
        lines.append(f"{c.name:<{width}}  {c.residual:>12.3e}  {c.tolerance:>12.3e}  {status}{note}")
    failing = [c.name for c in checks if not c.passed]
    n_pass = len(checks) - len(failing)
    lines.append(f"RESULT: {'PASS' if not failing else 'FAIL'} ({n_pass}/{len(checks)})")
    for name in failing:
        lines.append(f"FAILED: {name}")
    print("\n".join(lines))
    return 1 if failing else 0


def cmd_bode(args, cfg: AppConfig, dab: DabSchedule) -> int:
    surface = _surfaces(cfg)[args.surface]
    sweep = cfg.sweep
    kinds = ("fix", "sc") if args.model == "both" else (args.model,)
    try:
        per_kind = {kind: bode_sweep(dab, surface, kind, sweep.f_min, sweep.f_max,
                                     sweep.points, sweep.spacing) for kind in kinds}
    except ParameterError as exc:
        raise ConfigError(f"unsafe_t3_skew = {cfg.t3_skew!r} s: {exc}") from exc
    header = "f_hz,mag_db_irec,phase_deg_irec,mag_db_vout,phase_deg_vout"
    if args.model == "both":
        header += ",model"
    lines = [header]
    for idx in range(sweep.points):
        for kind in kinds:
            row = per_kind[kind][idx]
            if row.flagged:
                print(f"warning: sweep point {_fmt(row.f)} Hz sits on a pole, row flagged",
                      file=sys.stderr)
                cells = [_fmt(row.f), "", "", "", ""]
            else:
                cells = [_fmt(row.f)]
                for h in (row.h_irec, row.h_vout):
                    cells.append(_fmt(20.0 * math.log10(abs(h))))
                    cells.append(_fmt(math.degrees(cmath.phase(h))))
            if args.model == "both":
                cells.append(kind)
            lines.append(",".join(cells))
    _atomic_write(args.out, "\n".join(lines) + "\n")
    return 0


def cmd_simulate(args, cfg: AppConfig, dab: DabSchedule) -> int:
    _, waveform = run_to_steady_state(dab, cfg.sim)
    lines = ["t,i_L,v_C,i_rec,v_out"]
    for t, x, y in zip(waveform.t, waveform.x, waveform.y):
        lines.append(",".join(_fmt(v) for v in (t, x[0], x[1], y[0], y[1])))
    _atomic_write(args.out, "\n".join(lines) + "\n")
    return 0


def _coherent_frequencies(cfg: AppConfig, t_half: float) -> list[float]:
    # Snap every sweep point to the coherent bin grid m / (measure_periods * Ts),
    # keeping 1 <= m < measure_periods so the injected sinusoid never lands on
    # dc or on the surface Nyquist point.
    injection = cfg.sim.injection
    if injection.measure_periods < 2:
        raise ConfigError(
            "sim.injection.measure_periods must be at least 2 for a coherent bin strictly "
            f"between dc and the surface Nyquist frequency, got {injection.measure_periods}")
    period = cfg.converter.period
    window = injection.measure_periods * period
    bins = []
    for f in sweep_frequencies(cfg.sweep.f_min, cfg.sweep.f_max, cfg.sweep.points,
                               cfg.sweep.spacing, t_half):
        m = min(max(1, round(f * window)), injection.measure_periods - 1)
        if m not in bins:
            bins.append(m)
    return [m / window for m in sorted(bins)]


def cmd_compare(args, cfg: AppConfig, dab: DabSchedule) -> int:
    surface = _surfaces(cfg)["P+"]
    model = half_cycle_model(dab, surface)

    x_model = solve_periodic_fixed_point(dab.schedule)
    x_sim, _ = run_to_steady_state(dab, cfg.sim)
    steady_dev = relative_residual(x_sim, x_model)

    lines = [
        f"# x_star=[{_fmt(x_model[0])}, {_fmt(x_model[1])}]",
        f"# steady_state_rel_dev={_fmt(steady_dev)}",
        "f_hz,mag_ratio_irec,phase_diff_deg_irec,mag_ratio_vout,phase_diff_deg_vout",
    ]
    freqs = ([cfg.sim.injection.f] if cfg.sim.injection.f is not None
             else _coherent_frequencies(cfg, model.t_half))
    z = np.exp(2j * np.pi * np.array(freqs) * model.t_half)
    # Every bin in one oracle run, from the pre-run that run_to_steady_state cached.
    for f, predicted, measured in zip(freqs, transfer_fixed_freq(model, dab.c_phys, z),
                                      measure_frequency_responses(dab, surface, cfg.sim, freqs)):
        cells = [_fmt(f)]
        for pred, meas in zip(predicted, measured):
            cells.append(_fmt(abs(pred) / abs(meas)))
            cells.append(_fmt(_wrap_degrees(math.degrees(cmath.phase(pred) - cmath.phase(meas)))))
        lines.append(",".join(cells))
    _atomic_write(args.out, "\n".join(lines) + "\n")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dabss",
        description="Steady-state and sampled small-signal analysis of a dual active bridge.")
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("steady-state", help="periodic fixed point and monodromy eigenvalues")
    p.add_argument("config")
    p.add_argument("--method", choices=("full", "half"), default="full")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_steady_state)

    p = sub.add_parser("verify", help="run every structural identity check")
    p.add_argument("config")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("bode", help="frequency response CSV of one sampling surface")
    p.add_argument("config")
    p.add_argument("--surface", choices=sorted(SURFACES), default="P+")
    p.add_argument("--model", choices=("fix", "sc", "both"), default="fix")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_bode)

    p = sub.add_parser("simulate", help="steady-state waveform CSV from the simulator")
    p.add_argument("config")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("compare", help="closed-form model against injected-sinusoid measurement")
    p.add_argument("config")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_compare)
    return parser


# Exception types of a failed command, by exit code; a skew that empties an
# interval (ParameterError from build_dab) is a configuration problem.
_EXIT_CODES = (((ConfigError, ParameterError, NumericInputError), 2),
               ((MarginalSystemError, ResolventSingularityError), 3),
               ((ConvergenceError,), 4), ((AmplitudeError,), 5))


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        cfg = load_config(args.config)
        return args.func(args, cfg, build_dab(cfg.converter, t3_skew=cfg.t3_skew))
    except tuple(kind for kinds, _ in _EXIT_CODES for kind in kinds) as exc:
        print(f"error: {exc}", file=sys.stderr)
        if getattr(exc, "eigenvalues", None) is not None:
            print("eigenvalues:", *map(complex, exc.eigenvalues), file=sys.stderr)
        return next(code for kinds, code in _EXIT_CODES if isinstance(exc, kinds))


if __name__ == "__main__":
    sys.exit(main())
