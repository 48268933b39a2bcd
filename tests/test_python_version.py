"""Every source and test file parses as Python 3.10, the oldest version pyproject.toml allows.

This checks syntax only (`ast.parse` with `feature_version`, which flags grammar newer than
3.10 such as `except*` or type parameter lists); it does not run anything under 3.10.
"""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_every_file_parses_as_python_3_10():
    files = sorted([*(ROOT / "src").rglob("*.py"), *(ROOT / "tests").rglob("*.py")])
    assert len(files) > 10
    failures = []
    for path in files:
        try:
            ast.parse(path.read_text(), filename=str(path), feature_version=(3, 10))
        except SyntaxError as exc:
            failures.append(f"{path.relative_to(ROOT)}:{exc.lineno}: {exc.msg}")
    assert not failures, "\n".join(failures)
