"""Tests of the benchmark itself; kept out of the repository's test suite.

    python3 -m pytest perfbench/selftest.py -q
"""

from __future__ import annotations

import functools
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import dabss  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from dabss import P_MINUS, P_PLUS, S_MINUS, Surface  # noqa: E402
from spans import NullTracer, Tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*argv, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *argv], cwd=cwd,
                          capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_tiny_run_prints_every_metric_with_its_unit(workload, trace):
    proc = bench("--workload", workload, "--seed", "7", "--seconds", "1", "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    expected = SPEC["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in expected}
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())
        assert "error_rate = 0.0 fraction" in proc.stdout


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = bench("--workload", "design-sweep", "--seed", "1", "--seconds", "1", "--trace", "0",
                 cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_skewed_design_fails_the_design_sweep_gate(tmp_path):
    null = NullTracer()
    layers = workloads.bind_layers(null)
    layers.build_dab = functools.partial(dabss.build_dab, t3_skew=5e-8)
    window = run.run_window(workloads.DesignSweep(1, tmp_path), layers, null, 0.3)
    assert window.attempted >= 2
    assert window.failed == window.attempted
    assert all(e.startswith("GateError: ") for e in window.errors)


def test_flipped_polarity_fails_the_dense_bode_gate(tmp_path):
    null = NullTracer()
    workload = workloads.DenseBode(1, tmp_path)
    workload.pairs = ((P_PLUS, Surface("S+", 2, 3, -1)), (P_MINUS, S_MINUS))
    window = run.run_window(workload, workloads.bind_layers(null), null, 0.3)
    assert window.attempted >= 2
    assert window.failed == window.attempted
    assert all(e.startswith("GateError: surface chain P+~S+") for e in window.errors)


def test_tail_is_the_highest_percentile_with_ten_samples_above():
    latencies = [float(i) for i in range(100)]
    assert run.tail(latencies) == (89.0, 90.0)
    assert run.tail(latencies[:15]) == (7.0, 50.0)


def test_normalised_latency_divides_out_the_host_speed():
    window = run.Window(latencies=[0.2, 0.4, 0.3], refs=[0.002, 0.004, 0.001], nominal=0.001)
    assert window.scaled == pytest.approx([0.1, 0.1, 0.3])


def test_self_time_excludes_child_spans():
    tracer = Tracer()
    with tracer.span("op"):
        tracer.wrap("inner", lambda: sum(range(10000)))()
    busy = tracer.self_times()
    (op_start, op_end), (in_start, in_end) = [(s, e) for _, s, e, _, _ in tracer.spans]
    assert busy["op"][1] == pytest.approx((op_end - op_start) - (in_end - in_start))
    assert tracer.spans[1][3] == 0
