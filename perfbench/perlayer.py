"""Per-layer metrics of a traced window, and their check against `layers.json`."""

from __future__ import annotations

import json
import statistics
from pathlib import Path

from workloads import LAYER_FUNCTIONS, Cli

TABLE = json.loads((Path(__file__).resolve().parent / "layers.json").read_text())
LAYER_SPANS = [f"{module}.{name}" for module, names in LAYER_FUNCTIONS.items() for name in names]
SHARE_NOTE_FLOOR = 0.05   # shares below this are not worth a contradiction note


def median_or_zero(values) -> float:
    return statistics.median(values) if values else 0.0


def group_of(span: str) -> dict | None:
    return next((g for g in TABLE["groups"]
                 if any(span == s or span.startswith(s + ".") for s in g["spans"])), None)


def cli_shares(workload, tracer) -> tuple[dict[str, float], list[str]]:
    """Split the cold commands' median wall time into start-up, import, command and the rest."""
    python = median_or_zero(tracer.samples["startup.python_ms"]) / 1e3
    imports = median_or_zero(tracer.samples["startup.import_dabss_ms"]) / 1e3
    cold_sum = main_sum = 0.0
    notes = []
    for command, walls in workload.cold_walls.items():
        mains = tracer.durations(f"cli.main.{command}")
        if not (walls and mains):
            continue
        cold, main = statistics.median(walls), statistics.median(mains)
        cold_sum += cold
        main_sum += main
        notes.append(f"cli {command}: cold {cold * 1e3:.1f} ms = python {python * 1e3:.1f} "
                     f"+ import {imports * 1e3:.1f} + in-process command {main * 1e3:.1f} "
                     f"+ unexplained {(cold - python - imports - main) * 1e3:.1f} ms "
                     f"(n={len(walls)} cold, {len(mains)} in-process)")
    if not cold_sum:
        return {}, notes
    n = len(notes)
    shares = {"startup.python": n * python / cold_sum,
              "startup.import_dabss": n * imports / cold_sum,
              "cli.main": main_sum / cold_sum}
    shares["unexplained"] = 1.0 - sum(shares.values())
    return shares, notes


def per_layer(workload, tracer, window, untraced) -> tuple[dict[str, float], list[str]]:
    """Every per-layer metric of the traced window, plus report lines."""
    n_ops = max(window.attempted, 1)
    busy = tracer.self_times()
    values = {
        "startup.python_ms": median_or_zero(tracer.samples["startup.python_ms"]),
        "startup.import_dabss_ms": median_or_zero(tracer.samples["startup.import_dabss_ms"]),
        "bench.self_ms": busy.get("op", (0, 0.0))[1] * 1e3 / n_ops,
        "smallsignal.freq_points": tracer.counts["smallsignal.freq_points"] / n_ops,
        "smallsignal.flagged_frac": (tracer.counts["bode_flagged"] / tracer.counts["bode_rows"]
                                     if tracer.counts["bode_rows"] else 0.0),
        "oracle.bins": tracer.counts["oracle.bins"] / n_ops,
        "oracle.half_cycles": tracer.counts["oracle.half_cycles"] / n_ops,
        "trace.overhead_frac": (statistics.fmean(window.scaled)
                                / statistics.fmean(untraced.scaled) - 1.0),
    }
    for span in LAYER_SPANS:
        calls, seconds = busy.get(span, (0, 0.0))
        values[f"{span}.calls"] = calls / n_ops
        values[f"{span}.busy_ms"] = seconds * 1e3 / n_ops
    for command, _ in Cli.commands:
        values[f"cli.main.{command}.busy_ms"] = median_or_zero(
            tracer.durations(f"cli.main.{command}")) * 1e3

    notes = [f"traced {window.attempted} ops, untraced {untraced.attempted}; "
             f"tracing overhead {values['trace.overhead_frac']:+.4f}"]
    if workload.name == "cli":
        shares, lines = cli_shares(workload, tracer)
        notes += lines
        values["cli.unexplained_frac"] = shares.get("unexplained", 0.0)
    else:
        op_seconds = sum(window.latencies)
        in_ops = tracer.self_times(root="op")
        shares = {span: in_ops[span][1] / op_seconds for span in LAYER_SPANS if span in in_ops}
        shares["bench.self"] = in_ops.get("op", (0, 0.0))[1] / op_seconds
        values["cli.unexplained_frac"] = 0.0

    ranked = sorted(shares.items(), key=lambda kv: -kv[1])
    values["trace.largest_share"] = ranked[0][1] if ranked else 0.0
    notes.append("layer shares of the op: " + ", ".join(f"{k} {v:.3f}" for k, v in ranked))
    notes += contradictions(workload.name, ranked)
    return values, notes


def contradictions(workload: str, ranked: list[tuple[str, float]]) -> list[str]:
    """Where the measured shares disagree with the table's expectations."""
    notes = []
    if ranked:
        span, share = ranked[0]
        group = group_of(span)
        expected = group is not None and workload in group["op_time"]
        notes.append(f"largest layer share on {workload}: {span} {share:.3f}"
                     + ("" if expected else " -- contradicts layers.json, which does not "
                        f"expect it to move op time on {workload}"))
    for span, share in ranked:
        group = group_of(span)
        if group and share >= SHARE_NOTE_FLOOR and workload in group["should_not_move"]:
            notes.append(f"contradiction: {span} takes {share:.3f} of the op on {workload}, "
                         f"which layers.json says its group '{group['group']}' should not move")
    return notes
