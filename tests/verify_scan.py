"""The verdict scan of `dabss verify`: `identity_checks` over seeded property-range designs.

Draws designs with `property_range_params` (tests/conftest.py) from
`numpy.random.default_rng(7)` and runs `identity_checks` on each with the default
`Tolerances`, on 25 log points from fs/1000 to fs/10. Prints the FAIL count of each row
and the totals of designs that pass every row, fail one, and raise (exit 2 or 3).

    python tests/verify_scan.py [--designs N] [--dump FILE]
    python tests/verify_scan.py --compare A B

dabss comes from PYTHONPATH if that names a src/ (another checkout's, say), else from this
checkout's src/.

`--dump` writes one JSON line per design: its rows as [name, float.hex residual, printed
residual, passed], or its exception as [type, message]. `--compare` reads two dumps, say
of two checkouts, and reports verdict flips, changed exceptions, and per row the designs
whose residual bits or printed residuals differ, then how many designs went from each
verdict (pass, fail or raise) to each, and from each exception type to another; it exits 1
on a flip or a changed exception. The file has no test_ prefix, so pytest does not collect
it.
"""

from __future__ import annotations

import argparse
import collections
import json
import math
import sys
from pathlib import Path

import numpy as np

_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(_ROOT))  # the `tests` package
sys.path.append(str(_ROOT / "src"))  # after PYTHONPATH

from dabss import SURFACES, build_dab, sweep_frequencies  # noqa: E402
from dabss.config import Tolerances  # noqa: E402
from dabss.smallsignal import identity_checks  # noqa: E402
from tests.conftest import property_range_params  # noqa: E402


def scan(designs: int, seed: int = 7) -> list[dict]:
    """One record per design: {"rows": [[name, hex, printed, passed], ...]} or
    {"raised": [type, message]} for a design that verify rejects (exit 2 or 3)."""
    rng = np.random.default_rng(seed)
    records = []
    for _ in range(designs):
        try:
            params = property_range_params(rng)
            checks = identity_checks(build_dab(params), Tolerances(), SURFACES, sweep_frequencies(
                params.fs / 1000.0, params.fs / 10.0, 25, "log", params.t_half))
        except (ValueError, ArithmeticError) as exc:
            records.append({"raised": [type(exc).__name__, str(exc)]})
            continue
        records.append({"rows": [[c.name, float.hex(c.residual), f"{c.residual:.3e}", c.passed]
                                 for c in checks]})
    return records


def summary(records: list[dict]) -> str:
    """The FAIL count of each row, then the pass / fail / raise totals."""
    fails = collections.Counter()
    passed = failed = raised = 0
    for record in records:
        if "raised" in record:
            raised += 1
            continue
        failing = [name for name, _, _, ok in record["rows"] if not ok]
        fails.update(failing)
        failed += bool(failing)
        passed += not failing
    width = max((len(name) for name in fails), default=0)
    lines = [f"{name:<{width}}  {count:>6} FAIL" for name, count in sorted(fails.items())]
    lines.append(f"designs: {len(records)}  pass: {passed}  fail: {failed}  raise: {raised}")
    return "\n".join(lines)


def verdict(record: dict) -> str:
    """pass, fail or raise: the design-level verdict of one record."""
    if "raised" in record:
        return "raise"
    return "pass" if all(row[3] for row in record["rows"]) else "fail"


def compare(a: list[dict], b: list[dict]) -> tuple[str, bool]:
    """The differences of two dumps of the same designs, and whether a verdict or an
    exception changed."""
    if len(a) != len(b):
        return f"the dumps hold {len(a)} and {len(b)} designs", True
    flips, changed = [], []
    bits, printed = collections.Counter(), collections.Counter()
    ulps, factor = collections.Counter(), collections.Counter()
    for k, (x, y) in enumerate(zip(a, b)):
        names = [[row[0] for row in r.get("rows", ())] for r in (x, y)]
        if "raised" in x or "raised" in y or names[0] != names[1]:
            if x != y:
                changed.append(f"design {k}: {x.get('raised', 'rows')} -> "
                               f"{y.get('raised', 'rows')}")
            continue
        for (name, hex_x, print_x, ok_x), (_, hex_y, print_y, ok_y) in zip(x["rows"], y["rows"]):
            if ok_x != ok_y:
                flips.append(f"design {k}: {name} {print_x} -> {print_y}, "
                             f"{'PASS' if ok_y else 'FAIL'}")
            if hex_x != hex_y:
                r_x, r_y = float.fromhex(hex_x), float.fromhex(hex_y)
                bits[name] += 1
                printed[name] += print_x != print_y
                ulps[name] = max(ulps[name], abs(r_x - r_y) / math.ulp(max(r_x, r_y)))
                factor[name] = max(factor[name], max(r_x, r_y) / min(r_x, r_y)
                                   if min(r_x, r_y) > 0.0 else math.inf)
    lines = [f"verdict flips: {len(flips)}", *flips,
             f"changed exceptions or row lists: {len(changed)}", *changed,
             "designs whose residual differs in bits, in print; its largest move"]
    lines += [f"  {name}: {bits[name]}, {printed[name]}; {ulps[name]:.3g} ulps, "
              f"factor {factor[name]:.3g}" for name in sorted(bits)]
    verdicts = collections.Counter((verdict(x), verdict(y)) for x, y in zip(a, b))
    types = collections.Counter((x["raised"][0], y["raised"][0]) for x, y in zip(a, b)
                                if "raised" in x and "raised" in y
                                and x["raised"][0] != y["raised"][0])
    lines.append("design verdicts, A -> B")
    lines += [f"  {x} -> {y}: {n}" for (x, y), n in sorted(verdicts.items())]
    lines.append("exception types changed, A -> B")
    lines += [f"  {x} -> {y}: {n}" for (x, y), n in sorted(types.items())]
    return "\n".join(lines), bool(flips or changed)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--designs", type=int, default=6000, help="designs to draw (6000)")
    parser.add_argument("--dump", metavar="FILE", help="write every design's rows to FILE")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"),
                        help="compare two dumps instead of scanning")
    args = parser.parse_args(argv)
    if args.compare:
        dumps = [[json.loads(line) for line in Path(f).read_text().splitlines()]
                 for f in args.compare]
        report, differs = compare(*dumps)
        print(report)
        return 1 if differs else 0
    records = scan(args.designs)
    if args.dump:
        Path(args.dump).write_text("".join(json.dumps(r) + "\n" for r in records))
    print(summary(records))
    return 0


if __name__ == "__main__":
    sys.exit(main())
