"""dabss benchmark: one workload, one closed-loop client, one JSON result.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; dabss is imported from its `src/`. The
workload's inputs come from `--seed`. Every op is checked for correctness
and a failing op counts towards `error_rate` while the run goes on.

`--trace 0` measures the end-to-end metrics of BENCHMARK.json, untraced:
set-up time (median of cold starts, spread over the run, of a fresh
interpreter that imports dabss and generates the inputs), ops per second,
median and tail op latency, and peak resident memory; the error rate is
printed beside them. All timings are host-speed normalised: a fixed numpy
reference (`reference.py`; a cold interpreter running it on `cli`) is timed
after every op, and each op's latency is rescaled by the reference's
nominal time over its mean time before and after the op, so that a shared
host's swings in speed cancel (`*_norm`). Each cold start is likewise
rescaled by a cold reference run just before it: raw set-up medians of two
sets of ten runs differed by 23% on oracle-compare. The raw wall-clock
figures are printed in the report lines. `--trace 1` spends half the
window untraced and half traced, and reports the per-layer metrics of
BENCHMARK.json from spans recorded around the benchmark's calls into each
layer, with the tracing overhead, each layer's share of the op and the
contradictions with the expected layer-to-metric table in `layers.json`.

The last line of standard output is the result object; the lines before it
are the human report and its provenance.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_POINTS = 3      # times in a run at which cold starts are made: before, inside, after
SETUP_STARTS = 3      # cold starts at each of those times; setup_s is the median of all
STARTUP_PROBES = 3    # bare interpreter and import probes per traced run
# error_rate and reference_ms are printed but not in BENCHMARK.json: error_rate
# is 0 when the program is correct, and the result line carries it as `failed`
# of `attempted`; reference_ms gauges the host, not the program.
E2E_UNITS = {"setup_s": "s", "ops_per_s_norm": "ops/s", "op_ms_p50_norm": "ms",
             "op_ms_tail_norm": "ms", "peak_rss_mb": "MB", "error_rate": "fraction",
             "reference_ms": "ms"}
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
# One client, no threads: without these a BLAS thread pool spins on the second
# core after every small LAPACK call, doubling the CPU time of a 2x2 solve.
ONE_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


@dataclass
class Window:
    """The ops of one timed window."""

    latencies: list[float] = field(default_factory=list)
    refs: list[float] = field(default_factory=list)  # reference seconds around each op
    nominal: float = 0.0                              # the reference's nominal seconds
    failed: int = 0
    wall: float = 0.0
    errors: list[str] = field(default_factory=list)

    @property
    def attempted(self) -> int:
        return len(self.latencies)

    @property
    def scaled(self) -> list[float]:
        """Op latencies rescaled to a host on which the reference takes its nominal time."""
        return [lat * self.nominal / ref for lat, ref in zip(self.latencies, self.refs)]


def run_window(workload, layers, tracer, seconds: float, window: Window | None = None) -> Window:
    """Issue ops back to back until `seconds` have passed; count the failing ones.

    With `window`, the ops and their time are added to it.
    """
    if window is None:
        window = Window(nominal=workload.reference_nominal_s)
    start = time.perf_counter()
    before = workload.reference_s()
    now = time.perf_counter()
    while now - start < seconds:
        tracer.op_id = window.attempted
        began = time.perf_counter()
        try:
            with tracer.span("op"):
                workload.op(layers, tracer)
        except Exception as exc:  # a failed op is counted and the run goes on
            window.failed += 1
            window.errors.append(f"{type(exc).__name__}: {exc}")
        window.latencies.append(time.perf_counter() - began)
        after = workload.reference_s()
        window.refs.append((before + after) / 2)
        before = after
        if tracer.enabled and hasattr(workload, "probe"):
            workload.probe(layers, tracer)
            before = workload.reference_s()
        now = time.perf_counter()
    window.wall += now - start
    return window


def tail(latencies: list[float]) -> tuple[float, float]:
    """(latency, percentile) at the highest percentile with ten samples above it.

    Never below the median: a window of twenty ops or fewer reports p50.
    """
    ordered = sorted(latencies)
    n = len(ordered)
    if n - 10 <= n // 2:
        return statistics.median(ordered), 50.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def setup_seconds(name: str, seed: int, workdir: Path, env: dict,
                  warm: bool) -> list[tuple[float, float]]:
    """Spawn-to-ready times of fresh interpreters that import dabss and build the inputs.

    Each comes with the cold reference time read just before the starts.
    Unless `warm`, a first start that only fills the bytecode and file caches
    is made and not counted.
    """
    import reference  # loads numpy, which main() must configure first

    times = []
    ref = reference.cold_seconds(env)
    for i in range(SETUP_STARTS + (not warm)):
        probe_dir = Path(tempfile.mkdtemp(prefix="coldstart-", dir=workdir))
        start = time.monotonic()
        proc = subprocess.run(
            [sys.executable, str(HERE / "coldstart.py"), name, str(seed), str(probe_dir)],
            env=env, check=True, capture_output=True, text=True)
        if warm or i:
            times.append((float(proc.stdout) - start, ref))
    return times


def provenance(seed: int) -> dict:
    import numpy
    import scipy

    commit = "unknown"
    try:
        top = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        lines = top.stdout.split()
        if top.returncode == 0 and Path(lines[0]).resolve() == ROOT:
            commit = lines[1]
    except (OSError, subprocess.SubprocessError, IndexError):
        pass
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "commit": commit, "seed": seed, "python": platform.python_version(),
        "numpy": numpy.__version__, "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)), "cpu": cpu,
        "thread_vars": {k: os.environ[k] for k in THREAD_VARS if k in os.environ},
    }


def end_to_end(workload, window: Window, setup: list[tuple[float, float]]) -> dict:
    import reference

    completed = window.attempted - window.failed
    scaled = window.scaled
    p_tail, pct = tail(scaled)
    raw_tail, _ = tail(window.latencies)
    ref_ms = statistics.median(window.refs) * 1e3
    nominal_ms = window.nominal * 1e3
    return {
        "setup_s": (statistics.median(t * reference.COLD_NOMINAL_S / ref for t, ref in setup),
                    f"median of {len(setup)} cold starts, normalised; raw "
                    f"{statistics.median(t for t, _ in setup):.4g} s"),
        "ops_per_s_norm": (completed / sum(scaled),
                           f"{completed} ops; raw {completed / sum(window.latencies):.4g} ops/s "
                           f"over {window.wall:.3f} s wall with the reference runs"),
        "op_ms_p50_norm": (statistics.median(scaled) * 1e3,
                           f"n={window.attempted}; raw "
                           f"{statistics.median(window.latencies) * 1e3:.4g} ms"),
        "op_ms_tail_norm": (p_tail * 1e3, f"p{pct:.2f}, n={window.attempted}; raw "
                            f"{raw_tail * 1e3:.4g} ms"),
        "peak_rss_mb": (workload.peak_rss_mb(), workload.rss_of),
        "error_rate": (window.failed / window.attempted,
                       f"{window.failed} of {window.attempted} ops failed"),
        "reference_ms": (ref_ms, f"median reference time; nominal {nominal_ms:g} ms"),
    }


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "dabss" / "__init__.py").is_file():
        print(f"error: no dabss sources under {src}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    # Before numpy loads; child interpreters inherit them. A value already set
    # in the environment is kept, and the provenance line records it.
    for var in ONE_THREAD_VARS:
        os.environ.setdefault(var, "1")

    import perlayer
    import workloads
    from spans import NullTracer, Tracer

    workdir = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        env = workloads.child_env()
        workload = workloads.WORKLOADS[args.workload](args.seed, workdir)
        print(f"workload {args.workload}, seed {args.seed}, window {args.seconds} s, "
              f"trace {args.trace}")
        print("provenance " + json.dumps(provenance(args.seed), sort_keys=True))
        if args.trace:
            tracer = Tracer()
            for _ in range(STARTUP_PROBES):
                workloads.startup_probe(tracer, env)
            null = NullTracer()
            workload.warm_up(workloads.bind_layers(null), null)
            untraced = run_window(workload, workloads.bind_layers(null), null, args.seconds / 2)
            window = run_window(workload, workloads.bind_layers(tracer), tracer, args.seconds / 2)
            values, notes = perlayer.per_layer(workload, tracer, window, untraced)
            specs = spec["per_layer"]
            attempted = window.attempted + untraced.attempted
            failed = window.failed + untraced.failed
            errors = untraced.errors + window.errors
        else:
            # Host speed swings last seconds to minutes, so the cold starts are
            # spread over the run: before the window, between its parts, after it.
            setup = setup_seconds(args.workload, args.seed, workdir, env, warm=False)
            null = NullTracer()
            layers = workloads.bind_layers(null)
            workload.warm_up(layers, null)
            window = Window(nominal=workload.reference_nominal_s)
            for _ in range(SETUP_POINTS - 1):
                run_window(workload, layers, null, args.seconds / (SETUP_POINTS - 1), window)
                setup += setup_seconds(args.workload, args.seed, workdir, env, warm=True)
            measured = end_to_end(workload, window, setup)
            values = {name: value for name, (value, _) in measured.items()}
            notes = [f"{name} = {value!r} {E2E_UNITS[name]} ({note})"
                     for name, (value, note) in measured.items()]
            specs = spec["end_to_end"]
            attempted, failed, errors = window.attempted, window.failed, window.errors
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            workdir.parent.rmdir()

    for line in notes:
        print(line)
    for error in errors[:5]:
        print(f"failed op: {error}", file=sys.stderr)
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in specs}
    bad = [name for name, m in metrics.items() if not math.isfinite(m["value"])]
    if bad:
        print(f"error: non-finite metrics {bad}", file=sys.stderr)
        return 1
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
