"""Property tests: every CLI command ends with a documented exit code on any design.

Runs every command in process through `tests.conftest.run_cli` over random converters,
including nearly lossless ones (Rt = Rc = 0), near-marginal ones (a load of 1e6 ohm or more),
phase shifts next to 0, 0.5 and 1, and L and Co over four decades each. README's exit-code
table is the contract, which `run_cli` holds every run to: 0, or 2-5 for a rejected or
unsolvable design, and 1 only from `verify`. An exception escaping `main` fails the test with
its traceback, and so does a numpy import in `steady-state`, `verify` or `bode`. A second
property draws every parameter over most of the double range, with RuntimeWarning as an
error: an overflow or 0/0 anywhere in a command fails it. A third property holds
`steady-state`, which runs on Python floats alone, to the library's array functions over the
draws of both.
"""

from __future__ import annotations

import json
import warnings

from hypothesis import given, settings
from hypothesis import strategies as st

from dabss import core
from dabss.cli import _EXIT_CODES
from dabss.dab import DabParams, build_dab
from dabss.pwlti import monodromy, solve_periodic_fixed_point
from tests.conftest import run_cli


def log_uniform(lo: float, hi: float):
    """10 ** e for an exponent e drawn from [lo, hi]."""
    return st.floats(lo, hi).map(lambda e: 10.0 ** e)


resistance = st.one_of(st.just(0.0), log_uniform(-3.0, -0.5))
d_phase = st.one_of(
    st.sampled_from([1e-9, 1e-6, 1e-3, 0.5 - 1e-9, 0.5, 0.5 + 1e-9, 1.0 - 1e-3,
                     1.0 - 1e-6, 1.0 - 1e-9]),
    st.floats(0.01, 0.99))

designs = st.fixed_dictionaries({
    "n_turns": st.floats(0.5, 2.0),
    "L": log_uniform(-7.0, -3.0),
    "Co": log_uniform(-6.0, -2.0),
    "Rt": resistance,
    "Rc": resistance,
    "Ro": st.one_of(log_uniform(0.0, 2.0), log_uniform(6.0, 12.0)),  # 1e6+: near marginal
    "Vin": st.floats(10.0, 400.0),
    "fs": log_uniform(4.0, 5.5),
    "D_phase": d_phase,
    "Vr": st.just(1.0),
})

COMMANDS = (("steady-state", ["--method", "full"]), ("steady-state", ["--method", "half"]),
            ("verify", []), ("bode", ["--model", "both"]), ("simulate", []), ("compare", []))


wide_designs = st.fixed_dictionaries({
    "n_turns": log_uniform(-30.0, 30.0),
    "L": log_uniform(-300.0, 300.0),
    "Co": log_uniform(-300.0, 300.0),
    "Rt": st.one_of(st.just(0.0), log_uniform(-300.0, 300.0)),
    "Rc": st.one_of(st.just(0.0), log_uniform(-300.0, 300.0)),
    "Ro": log_uniform(-300.0, 300.0),
    "Vin": log_uniform(-300.0, 300.0),
    "fs": log_uniform(-30.0, 30.0),
    "D_phase": d_phase,
    "Vr": log_uniform(-300.0, 300.0),
})


def run_every_command(work, converter) -> None:
    """Each command line of COMMANDS on `converter`, through `run_cli`."""
    config = work / "config.json"
    fs = converter["fs"]
    config.write_text(json.dumps({
        "converter": converter,
        "sim": {"periods": 2000, "substeps_per_interval": 4,
                "injection": {"settle_periods": 20, "measure_periods": 10}},
        "sweep": {"f_min": fs / 1000.0, "f_max": fs / 10.0, "points": 3, "spacing": "log"},
    }))
    for command, extra in COMMANDS:
        argv = [command, str(config), *extra]
        if command != "verify":
            argv += ["--out", str(work / f"{command}.out")]
        run_cli(*argv)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(converter=designs)
def test_every_command_exits_with_a_documented_code(tmp_path_factory, converter):
    run_every_command(tmp_path_factory.mktemp("design"), converter)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(converter=wide_designs)
def test_every_command_exits_with_a_documented_code_over_the_double_range(tmp_path_factory,
                                                                          converter):
    # The closed-form solves, cond and eigenvalues scale their 2x2 by a power of two: an
    # overflow of s_max^2 or of a determinant would show here as a RuntimeWarning or a code.
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        run_every_command(tmp_path_factory.mktemp("design"), converter)


@settings(max_examples=140, deadline=None, derandomize=True, database=None)
@given(converter=st.one_of(designs, wide_designs))
def test_steady_state_floats_are_the_array_functions_bit_for_bit(tmp_path_factory, converter):
    # x_star and the eigenvalues of Pi that `steady-state` writes, from the period map's six
    # floats, are those of solve_periodic_fixed_point and of the monodromy array, bit for bit;
    # where either fails, both fail with an exception of one exit code. Most wide draws fail,
    # so the first property's draws join them.
    work = tmp_path_factory.mktemp("design")
    config, out = work / "config.json", work / "ss.json"
    config.write_text(json.dumps({"converter": converter}))
    code = run_cli("steady-state", str(config), "--out", str(out)).returncode
    try:
        schedule = build_dab(DabParams(**converter)).schedule
        x_star = solve_periodic_fixed_point(schedule).tolist()
        eigs = sorted(core.eigenvalues(*monodromy(schedule).ravel().tolist()),
                      key=lambda e: (e.real, e.imag))
    except tuple(kind for kinds, _ in _EXIT_CODES for kind in kinds) as exc:
        assert code == next(c for kinds, c in _EXIT_CODES if isinstance(exc, kinds)), exc
        return
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["x_star"] == x_star
    assert [complex(re, im) for re, im in doc["eigenvalues_of_Pi"]] == eigs
