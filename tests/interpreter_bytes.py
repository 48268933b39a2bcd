"""The commands under other interpreters: the same exit codes and the same bytes.

Runs `steady-state`, `verify`, `bode --model both`, `simulate` and `compare` on a few config
files, once under the interpreter running this script and once under each interpreter named,
and reports every run whose exit code, stdout, stderr or `--out` file differs from the running
interpreter's.
The configs are README's config block, a design shaped like the benchmark's cli workload
(each reference parameter jittered within +-10% by a seeded `random.Random`, a 5-point sweep
from 400 Hz to 4 kHz), the reference design at a switching frequency whose interval steps
straddle the oracle's low Pade degree bound, measured past oracle.FLOAT_HALF_CYCLES, and three
that `load_config` refuses: an unknown key, a boolean where a number goes, and a missing
converter key.

    python tests/interpreter_bytes.py PYTHON [PYTHON ...]

dabss comes from this checkout's src/. The script uses the standard library only, and an
interpreter without numpy will do: no command needs numpy. A `compare` whose measurement
passes oracle.FLOAT_HALF_CYCLES (README's and the straddling design's) imports it where it
is installed and runs in floats where it is not, with the same bytes. It exits 1 on any
difference. The file has no test_ prefix, so pytest does not collect it.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import re
import subprocess
import sys
import tempfile
from pathlib import Path

_ROOT = Path(__file__).resolve().parent.parent
COMMANDS = (("steady-state",), ("verify",), ("bode", "--model", "both"), ("simulate",),
            ("compare",))
REFERENCE = dict(n_turns=1.0, L=10e-6, Co=100e-6, Rt=0.05, Rc=0.01, Ro=10.0,
                 Vin=100.0, fs=100e3, D_phase=0.3, Vr=1.0)


def configs() -> dict:
    """Each config file's name and its JSON text."""
    readme = (_ROOT / "README.md").read_text()
    block = re.search(r"### Config file\s+```json\n(.*?)```", readme, re.S).group(1)
    rng = random.Random(1)
    cli = {"converter": {k: v * rng.uniform(0.9, 1.1) for k, v in REFERENCE.items()},
           "sim": {"injection": {"settle_periods": 800, "measure_periods": 250}},
           "sweep": {"f_min": 400.0, "f_max": 4000.0, "points": 5, "spacing": "log"}}
    # fs 16,833.77 Hz takes the steps of intervals 2 and 4 to within 3e-7 of theta9, so the
    # injection moves them to either side of it; 5 bins of 4,000 half cycles pass
    # oracle.FLOAT_HALF_CYCLES, so `compare` runs the stacked kernel where numpy is installed.
    straddling = {"converter": dict(REFERENCE, fs=16833.77),
                  "sim": {"injection": {"settle_periods": 1300, "measure_periods": 700}},
                  "sweep": {"f_min": 100.0, "f_max": 1000.0, "points": 5, "spacing": "log"}}
    missing = dict(REFERENCE)
    del missing["Vr"]
    return {"readme": block, "cli-workload": json.dumps(cli), "straddling": json.dumps(straddling),
            "unknown-key": json.dumps({"converter": REFERENCE, "sweep": {"n": 3}}),
            "boolean": json.dumps({"converter": {**REFERENCE, "Ro": True}}),
            "missing-key": json.dumps({"converter": missing})}


def run(python: str, command: tuple, config: Path, out: Path) -> tuple:
    """(exit code, stdout, stderr, `--out` bytes or None) of one command under `python`."""
    out.unlink(missing_ok=True)
    argv = [python, "-m", "dabss.cli", command[0], str(config), *command[1:]]
    if command[0] != "verify":
        argv += ["--out", str(out)]
    env = dict(os.environ, PYTHONPATH=str(_ROOT / "src"), PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(argv, capture_output=True, env=env, cwd=config.parent)
    return proc.returncode, proc.stdout, proc.stderr, out.read_bytes() if out.exists() else None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("pythons", nargs="+", metavar="PYTHON", help="interpreter to compare")
    pythons = parser.parse_args(argv).pythons
    differs = 0
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "out"
        for name, text in configs().items():
            config = Path(tmp) / f"{name}.json"
            config.write_text(text)
            for command in COMMANDS:
                expected = run(sys.executable, command, config, out)
                for python in pythons:
                    got = run(python, command, config, out)
                    parts = [part for part, x, y in zip(
                        ("exit code", "stdout", "stderr", "--out"), expected, got) if x != y]
                    differs += bool(parts)
                    print(f"{name} {' '.join(command)} exit {got[0]} under {python}: "
                          f"{'differs in ' + ', '.join(parts) if parts else 'same'}")
    print(f"runs that differ: {differs}")
    return 1 if differs else 0


if __name__ == "__main__":
    sys.exit(main())
