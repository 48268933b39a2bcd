"""tests/verify_scan.py, the verdict scan of `dabss verify`, run in-process on a few designs."""

from __future__ import annotations

import json

from tests import verify_scan


def test_the_scan_dumps_its_designs_and_compares_dumps(tmp_path, capsys):
    dump = tmp_path / "scan.jsonl"
    assert verify_scan.main(["--designs", "20", "--dump", str(dump)]) == 0
    totals = capsys.readouterr().out.splitlines()[-1]
    records = [json.loads(line) for line in dump.read_text().splitlines()]
    raised = [r for r in records if "raised" in r]
    failed = [r for r in records if "rows" in r and not all(row[3] for row in r["rows"])]
    assert totals == (f"designs: 20  pass: {20 - len(raised) - len(failed)}  "
                      f"fail: {len(failed)}  raise: {len(raised)}")
    assert len(raised) < 20
    for record in raised:
        assert record["raised"][0] in ("MarginalSystemError", "ResolventSingularityError")
    for record in records:
        for name, residual, printed, _ in record.get("rows", ()):
            assert f"{float.fromhex(residual):.3e}" == printed, name

    assert verify_scan.main(["--compare", str(dump), str(dump)]) == 0
    out = capsys.readouterr().out
    assert out.startswith("verdict flips: 0\nchanged exceptions or row lists: 0\n")
    same = [f"  {v} -> {v}: {n}" for v, n in (("fail", len(failed)), ("pass", 20 - len(raised)
                                                 - len(failed)), ("raise", len(raised))) if n]
    assert out.endswith("\n".join(["design verdicts, A -> B", *same,
                                    "exception types changed, A -> B"]) + "\n")

    k = next(k for k, r in enumerate(records) if "rows" in r)
    row = records[k]["rows"][0]
    row[2], row[3] = "9.999e+99", not row[3]
    flipped = tmp_path / "flipped.jsonl"
    flipped.write_text("".join(json.dumps(r) + "\n" for r in records))
    assert verify_scan.main(["--compare", str(dump), str(flipped)]) == 1
    out = capsys.readouterr().out
    assert out.startswith(f"verdict flips: 1\ndesign {k}: {row[0]} ")
    was = verify_scan.verdict(json.loads(dump.read_text().splitlines()[k]))
    assert f"  {was} -> {verify_scan.verdict(records[k])}: 1\n" in out

    j = next(j for j, r in enumerate(records) if "raised" in r)
    records[j]["raised"][0] = "NumericInputError"
    retyped = tmp_path / "retyped.jsonl"
    retyped.write_text("".join(json.dumps(r) + "\n" for r in records))
    assert verify_scan.main(["--compare", str(dump), str(retyped)]) == 1
    out = capsys.readouterr().out
    assert out.endswith(f"exception types changed, A -> B\n  "
                        f"{json.loads(dump.read_text().splitlines()[j])['raised'][0]} -> "
                        f"NumericInputError: 1\n")
