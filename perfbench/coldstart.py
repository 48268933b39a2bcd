"""Cold-start probe: a fresh interpreter imports dabss and generates one workload's inputs.

    python3 perfbench/coldstart.py WORKLOAD SEED WORKDIR

Prints `time.monotonic()` at the point where the workload's first op could
start; the parent subtracts its own clock reading taken just before the
spawn (CLOCK_MONOTONIC is shared by all processes on the host).
"""

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import workloads  # noqa: E402  (imports dabss)

workloads.WORKLOADS[sys.argv[1]](int(sys.argv[2]), Path(sys.argv[3]))
print(repr(time.monotonic()))
