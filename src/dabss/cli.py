"""Command line front end.

Exit codes: 0 success, 1 verification failure, 2 configuration problem,
3 marginal or singular system, 4 simulator non-convergence, 5 injection
amplitude violation. Result data goes to output files (or stdout for the
verify table); diagnostics go to stderr. File writes are
write-temp-then-rename so a failing command never leaves partial output,
and all output is byte deterministic for identical inputs. Each command imports
what it runs: `verify`, `bode` and `compare` load `dabss.smallsignal`, and
`simulate` and `compare` the simulator, `dabss.oracle`. Every command runs on Python
floats and loads no numpy, whatever the size of the sweep, but for a `compare` whose
measurement passes `oracle.FLOAT_HALF_CYCLES` half cycles: that one imports numpy for the
oracle's stacked kernel where numpy is installed, and gives the same bytes without it.
"""

from __future__ import annotations

import argparse
import cmath
import contextlib
import math
import os
import sys
from pathlib import Path

from . import __version__
from .config import AppConfig, load_config
from .core import (_affine, complex_abs, complex_exp, eigenvalues, fixed_point,
                   relative_residual)
from .dab import SURFACES, DabSchedule, build_dab, half_cycle_fixed_point
from .errors import (AmplitudeError, ConfigError, ConvergenceError, MarginalSystemError,
                     NumericInputError, ParameterError, ResolventSingularityError)


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
    so no other file is touched; a symlink `out` is written through to its target. An `out`
    that cannot be written, or that exists and is not a regular file (a directory, such as
    '' or '.', a FIFO, a device), is a ConfigError naming it, and its temp file does not stay
    behind."""
    path = Path(os.path.realpath(out))  # past any symlink: the rename replaces its target
    tmp = None
    try:
        if os.path.lexists(path) and not path.is_file():  # or a looping link realpath kept
            raise OSError("not a regular file")
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


def _modulus(h: complex, f: float) -> float:
    """|h| of a transfer at f hertz (`core.complex_abs`), refused where it passes the float
    range though both parts are finite."""
    size = complex_abs(h)
    if size == math.inf:
        raise NumericInputError(f"|H| at f = {f!r} Hz passes the float range")
    return size


def cmd_steady_state(args, cfg: AppConfig, dab: DabSchedule) -> int:
    # The period map's six floats: the fixed point, its closure Pi x + forcing and eigenvalues.
    period = dab.schedule._period
    if args.method == "full":
        x_star = fixed_point(period, "periodic solve")
    else:
        x_star = half_cycle_fixed_point(dab, 1, "half-cycle solve")[1]
    residual = relative_residual(_affine(period, x_star), x_star)
    eigs = sorted(eigenvalues(*period[:4]), key=lambda e: (e.real, e.imag))
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
    from .smallsignal import identity_checks, sweep_frequencies
    sweep = cfg.sweep
    checks = identity_checks(
        dab, cfg.tolerances, cfg.surfaces,
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
    from .smallsignal import bode_sweep
    surface = cfg.surfaces[args.surface]
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
                    size = _modulus(h, row.f)
                    cells.append(_fmt(20.0 * math.log10(size) if size else -math.inf))
                    cells.append(_fmt(math.degrees(cmath.phase(h))))
            if args.model == "both":
                cells.append(kind)
            lines.append(",".join(cells))
    _atomic_write(args.out, "\n".join(lines) + "\n")
    return 0


def cmd_simulate(args, cfg: AppConfig, dab: DabSchedule) -> int:
    from .oracle import _waveform
    _, rows = _waveform(dab, cfg.sim)
    lines = ["t,i_L,v_C,i_rec,v_out", *(",".join(map(_fmt, row)) for row in rows)]
    _atomic_write(args.out, "\n".join(lines) + "\n")
    return 0


def _coherent_frequencies(cfg: AppConfig, t_half: float) -> list[float]:
    from .smallsignal import sweep_frequencies
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


def _ratio(size: float, measured: float) -> float:
    """size / measured as IEEE division gives it: inf for a 0 measured, nan for 0 / 0 or NaN."""
    return size / measured if measured else (math.inf if size else math.nan)


def cmd_compare(args, cfg: AppConfig, dab: DabSchedule) -> int:
    from .oracle import _period_start, _responses
    from .smallsignal import _input_vector, _transfer_rows, half_cycle_model
    surface = cfg.surfaces["P+"]
    model = half_cycle_model(dab, surface)

    # The predicted transfers first: one past the float range is refused before the oracle runs.
    freqs = ([cfg.sim.injection.f] if cfg.sim.injection.f is not None
             else _coherent_frequencies(cfg, model.t_half))
    z = [complex_exp(2j * math.pi * f * model.t_half) for f in freqs]
    rows = _transfer_rows(model, dab.c_rev, z, _input_vector)  # transfer_fixed_freq's bits
    predicted = [[(h, _modulus(h, f)) for h in (complex(r0, s0), complex(r1, s1))]
                 for f, (r0, s0, r1, s1) in zip(freqs, rows)]

    x_model = fixed_point(dab.schedule._period, "periodic solve")
    x_sim, _ = _period_start(dab, cfg.sim)
    steady_dev = relative_residual(x_sim, x_model)

    lines = [
        f"# x_star=[{_fmt(x_model[0])}, {_fmt(x_model[1])}]",
        f"# steady_state_rel_dev={_fmt(steady_dev)}",
        "f_hz,mag_ratio_irec,phase_diff_deg_irec,mag_ratio_vout,phase_diff_deg_vout",
    ]
    # Every bin in one oracle run, from the pre-run that _period_start cached.
    measured = _responses(dab, surface, cfg.sim, freqs)
    for f, row, row_measured in zip(freqs, predicted, measured):
        cells = [_fmt(f)]
        for (pred, size), meas in zip(row, row_measured):
            cells.append(_fmt(_ratio(size, complex_abs(meas))))
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
