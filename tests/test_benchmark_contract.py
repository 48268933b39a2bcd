"""The package surface the benchmark in perfbench/ calls into.

perfbench/workloads.py imports its top-level names from `dabss` and looks up
every `LAYER_FUNCTIONS` entry on its `dabss.<module>` when a run starts, so a
name trimmed from either place would break `perfbench/run.py` without any
other test noticing.
"""

from __future__ import annotations

import importlib
import sys
from pathlib import Path

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
