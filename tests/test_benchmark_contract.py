"""The package surface the benchmark in perfbench/ calls into.

perfbench/workloads.py imports its top-level names from `dabss` and looks up
every `LAYER_FUNCTIONS` entry on its `dabss.<module>` when a run starts, so a
name trimmed from either place would break `perfbench/run.py` without any
other test noticing. A changed signature or a read-only array the benchmark
writes into would instead make its ops fail, which the benchmark only counts:
one op of each in-process workload, and one cold command line run of each of
the `cli` workload's five commands, must pass its gate here.
"""

from __future__ import annotations

import importlib
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_benchmark_workloads_import_and_their_layer_functions_resolve(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    for name in ("workloads", "reference"):
        monkeypatch.delitem(sys.modules, name, raising=False)
    workloads = importlib.import_module("workloads")  # the top-level names it imports
    missing = [f"dabss.{module}.{name}"
               for module, names in workloads.LAYER_FUNCTIONS.items()
               for name in names
               if not callable(getattr(importlib.import_module(f"dabss.{module}"), name, None))]
    assert not missing
    assert callable(workloads.dabss.cli.main)


@pytest.mark.parametrize("workload", ["design-sweep", "dense-bode", "oracle-compare"])
def test_one_op_of_each_in_process_workload_passes_its_gate(monkeypatch, tmp_path, workload):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    for name in ("workloads", "reference", "spans"):
        monkeypatch.delitem(sys.modules, name, raising=False)
    workloads = importlib.import_module("workloads")
    tracer = importlib.import_module("spans").NullTracer()
    workloads.WORKLOADS[workload](1, tmp_path).op(workloads.bind_layers(tracer), tracer)


def test_one_op_of_each_cli_command_passes_its_gate(monkeypatch, tmp_path):
    # Warm-up runs each command once and keeps its bytes; every op then needs
    # exit 0, `RESULT: PASS` from verify and the same bytes again.
    monkeypatch.syspath_prepend(str(PERFBENCH))
    for name in ("workloads", "reference", "spans"):
        monkeypatch.delitem(sys.modules, name, raising=False)
    workloads = importlib.import_module("workloads")
    tracer = importlib.import_module("spans").NullTracer()
    layers = workloads.bind_layers(tracer)
    cli = workloads.WORKLOADS["cli"](1, tmp_path)
    cli.warm_up(layers, tracer)
    for _ in cli.commands:
        cli.op(layers, tracer)
