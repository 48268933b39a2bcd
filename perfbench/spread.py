"""Repeat the benchmark over seeds and report each end-to-end metric's median and quartiles.

    python3 perfbench/spread.py --workloads design-sweep,cli --seeds 1-10 [--out FILE]

Each run is `run.py --trace 0` with the window of BENCHMARK.json, one seed
after another. The spread of a metric is the distance between its first and
third quartile (`statistics.quantiles(values, n=4)`) as a share of its
median, the figure BENCHMARK.json's bounds are judged against. `--out`
writes the medians and quartiles as a baseline record.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seed_range(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()

    report = {"run_seconds": spec["run_seconds"], "seeds": args.seeds, "workloads": {}}
    ok = True
    for workload in args.workloads.split(","):
        values: dict[str, list[float]] = {m["name"]: [] for m in spec["end_to_end"]}
        for seed in args.seeds:
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
                 "--seconds", str(spec["run_seconds"]), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True)
            result = json.loads(proc.stdout.splitlines()[-1]) if proc.returncode == 0 else None
            if result is None or not result["correct"]:
                print(f"{workload} seed {seed}: exit {proc.returncode}, "
                      f"result {result}\n{proc.stderr}", file=sys.stderr)
                ok = False
                if result is None:
                    continue
            if "provenance" not in report:
                line = next(x for x in proc.stdout.splitlines() if x.startswith("provenance "))
                report["provenance"] = json.loads(line.split(" ", 1)[1])
                del report["provenance"]["seed"]
            for name, metric in result["metrics"].items():
                values[name].append(metric["value"])
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{k} {v['value']:.6g}" for k, v in result["metrics"].items()), flush=True)
        summary = {}
        for metric in spec["end_to_end"]:
            vals = values[metric["name"]]
            if len(vals) < 2:
                continue
            q1, median, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / median
            summary[metric["name"]] = {"median": median, "q1": q1, "q3": q3, "spread": spread,
                                       "unit": metric["unit"], "values": vals}
            print(f"  {workload} {metric['name']}: median {median:.6g} {metric['unit']}, "
                  f"quartiles {q1:.6g}..{q3:.6g}, spread {spread:.4f} "
                  f"(bound {metric['bound']}, a third of it {metric['bound'] / 3:.4f})")
        report["workloads"][workload] = summary
    if args.out:
        args.out.write_text(json.dumps(report, indent=2) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
