"""Every Python file of the package, its tests and its benchmark parses as
Python 3.10, the oldest version ``pyproject.toml`` allows.

``ast.parse`` with ``feature_version=(3, 10)`` rejects syntax that came
later (``except*``, ``type X = ...``, PEP 695 generics), so a newer
interpreter catches such a line before a 3.10 one has to.  The files are
only read.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def test_every_file_parses_as_python_3_10():
    with pytest.raises(SyntaxError):  # the guard is live on this interpreter
        ast.parse("try:\n    pass\nexcept* ValueError:\n    pass\n",
                  feature_version=(3, 10))
    paths = sorted(path for folder in ("src/cep", "tests", "bench")
                   for path in (ROOT / folder).rglob("*.py"))
    assert len(paths) > 20
    rejected = []
    for path in paths:
        try:
            ast.parse(path.read_text(), str(path), feature_version=(3, 10))
        except SyntaxError as exc:
            rejected.append(f"{path.relative_to(ROOT)}:{exc.lineno}: {exc.msg}")
    assert rejected == []
