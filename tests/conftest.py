"""Shared fixtures: the reference converter, random parameter draws, config files, and
`run_cli`, the suite's one way to run a command."""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from dabss import DabParams, build_dab, cli, half_cycle_model
from dabss.pwlti import Schedule, Segment

# Child interpreters (`python -m dabss.cli`) import dabss from the same src/ as
# pytest's `pythonpath`, so a bare `pytest` needs no PYTHONPATH.
os.environ["PYTHONPATH"] = os.pathsep.join(
    filter(None, [str(Path(__file__).resolve().parent.parent / "src"),
                  os.environ.get("PYTHONPATH")]))

# README's exit-code table: 0 success, 1 a failing `verify`, 2-5 a refused or unsolvable run.
README_EXIT_CODES = frozenset(range(6))
# The commands that run on Python floats alone, all five: a cold run of any of them loads no
# numpy.
NUMPY_FREE_COMMANDS = ("steady-state", "verify", "bode", "simulate", "compare")


@contextlib.contextmanager
def numpy_blocked():
    """`import numpy` fails inside the block, as where numpy is not installed; code that looks
    for a loaded numpy (`sys.modules.get("numpy")`) finds none. The module is back afterwards."""
    numpy = sys.modules["numpy"]
    sys.modules["numpy"] = None
    try:
        yield
    finally:
        sys.modules["numpy"] = numpy


def run_cli(*argv: str) -> subprocess.CompletedProcess:
    """`dabss *argv`, run in this process by `dabss.cli.main`, with stdout and stderr captured
    as `subprocess.run` captures them. A warning goes to the captured stderr, as an interpreter
    prints it.

    Fails the test where an exception escapes `main` (a traceback at the command line), where
    the exit code is not in README's table, or where a command other than `verify` exits 1.
    NUMPY_FREE_COMMANDS run under `numpy_blocked`, so each takes the float path of a cold run,
    and a numpy import in it escapes as an exception."""
    command = argv[0] if argv else None
    out, err = io.StringIO(), io.StringIO()
    blocked = numpy_blocked() if command in NUMPY_FREE_COMMANDS else contextlib.nullcontext()
    try:
        with blocked, contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
                warnings.catch_warnings(record=True) as caught:
            code = cli.main(list(argv))
    except Exception as exc:
        pytest.fail(f"`dabss {' '.join(argv)}` raised {exc!r}")
    if code not in README_EXIT_CODES or (code == 1 and command != "verify"):
        pytest.fail(f"`dabss {' '.join(argv)}` exited {code!r}: README's table has 0 and 2-5, "
                    "and 1 from verify")
    err.writelines(warnings.formatwarning(w.message, w.category, w.filename, w.lineno, w.line)
                   for w in caught)
    return subprocess.CompletedProcess(argv, code, out.getvalue(), err.getvalue())


# Reference design used throughout the suite. Values chosen so every regime
# the package cares about is exercised: lossy transformer path, nonzero ESR,
# moderate load, ~1% per-period damping.
REFERENCE_KWARGS = dict(
    n_turns=1.0,
    L=10e-6,
    Co=100e-6,
    Rt=0.05,
    Rc=0.01,
    Ro=10.0,
    Vin=100.0,
    fs=100e3,
    D_phase=0.3,
    Vr=1.0,
)


@pytest.fixture(scope="session")
def ref_params() -> DabParams:
    return DabParams(**REFERENCE_KWARGS)


@pytest.fixture(scope="session")
def ref_dab(ref_params):
    return build_dab(ref_params)


def random_params(rng: np.random.Generator) -> DabParams:
    """One random but physically reasonable converter.

    Ranges are wide enough to vary damping and turns ratio by an order of
    magnitude while keeping every draw comfortably stable (spectral radius
    of the period map below one) so fixed-point solves stay well posed.
    """
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


# Forward errors of the closed-form solve of a 2x2 M x = b, as multiples of u cond(M) ||x||
# (2-norms, u = 2^-53, first order; Higham, "Accuracy and Stability of Numerical Algorithms",
# 2nd ed.). Each entry of adj(M) b is two products and a sum, so it errs by gamma_2 of
# |adj M| |b|, whose norm is at most ||M||_F ||b|| <= sqrt(2) s_max^2 ||x||; over |det M| =
# s_max s_min that is 2 sqrt(2) u cond(M) ||x||. The determinant, summed from exact products, is
# within u (1 + 10 u cond) of its value, and the division by it adds a rounding: 2 u ||x||, and
# 1 u more for the second-order terms (cond >= 1). So errs `core.resolvent_solve` on T y = v at
# z = 0 on -T (T_SOLVE; the real and imaginary parts apiece), and `core.fixed_point`, whose
# M = I - phi rounds each diagonal entry once, by gamma_3 in place of gamma_2 (CLOSED_FORM_SOLVE;
# scaling the map by a power of two first changes no bit).
T_SOLVE = 2.0 * math.sqrt(2.0) + 3.0
CLOSED_FORM_SOLVE = 3.0 * math.sqrt(2.0) + 3.0


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


def fd_sensitivities(dab, surface, delta: float = 1e-9):
    """Central-difference duration sensitivities of the rectified end state.

    Recomputes the half-cycle end state with each duration nudged by +-delta
    seconds, holding the fixed point where it was; returns the model together
    with the two difference quotients. This is the independent cross-check of
    the analytic sens_a / sens_b vectors.
    """
    model = half_cycle_model(dab, surface)
    seg_a = dab.schedule.segments[surface.a - 1]
    seg_b = dab.schedule.segments[surface.b - 1]
    u = dab.schedule.u
    rectify = np.diag([-1.0, 1.0])  # the inductor current negated

    def end_state(da: float, db: float) -> np.ndarray:
        ma = Schedule((Segment(seg_a.a, seg_a.b, seg_a.duration + da),), u).maps[0]
        mb = Schedule((Segment(seg_b.a, seg_b.b, seg_b.duration + db),), u).maps[0]
        return rectify @ (mb.phi @ (ma.phi @ model.x_star + ma.gamma) + mb.gamma)

    fd_a = (end_state(delta, 0.0) - end_state(-delta, 0.0)) / (2.0 * delta)
    fd_b = (end_state(0.0, delta) - end_state(0.0, -delta)) / (2.0 * delta)
    return model, fd_a, fd_b


def reverse_product(matrices, first: int, last: int) -> np.ndarray:
    """The paper's reverse-ordered product M_last @ ... @ M_first (one-based, inclusive),
    multiplied from the right end: (M_last @ (... @ (M_{first+1} @ M_first))).

    An empty or inverted range is an IndexError, not a silent identity that would hide an
    indexing bug in the reference sums built from it."""
    if not (1 <= first <= last <= len(matrices)):
        raise IndexError(f"reverse_product range [{first}, {last}] invalid for {len(matrices)} matrices")
    out = matrices[first - 1]
    for j in range(first, last):
        out = matrices[j] @ out
    return out


def augmented_step_matrices(dab, substeps=(1,)):
    """[[a T, b u T], [0, 0]] of every interval, for T = duration / q over each q in substeps."""
    out = []
    for seg in dab.schedule.segments:
        aug = np.zeros((3, 3))
        aug[:2, :2] = seg.a
        aug[:2, 2] = seg.b @ dab.schedule.u
        out += [aug * (seg.duration / q) for q in substeps]
    return np.array(out)


def max_abs_relative(actual, expected):
    """Per-matrix max |actual - expected| over max |expected|."""
    return np.abs(actual - expected).max(axis=(-2, -1)) / np.abs(expected).max(axis=(-2, -1))


def write_config(path, *, converter=None, sim=None, sweep=None, tolerances=None,
                 extra=None) -> str:
    """Write a JSON config file and return its path as str."""
    doc = {"converter": dict(REFERENCE_KWARGS if converter is None else converter)}
    if sim is not None:
        doc["sim"] = sim
    if sweep is not None:
        doc["sweep"] = sweep
    if tolerances is not None:
        doc["tolerances"] = tolerances
    if extra:
        doc.update(extra)
    path.write_text(json.dumps(doc, indent=2))
    return str(path)


@pytest.fixture()
def config_file(tmp_path):
    """Factory fixture: build config files inside the test's tmp dir."""
    counter = {"n": 0}

    def make(**kwargs) -> str:
        counter["n"] += 1
        return write_config(tmp_path / f"config_{counter['n']}.json", **kwargs)

    return make
