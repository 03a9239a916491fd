"""The declared floor, ``requires-python = ">=3.10"``, held for the grammar."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted([*(ROOT / "src").rglob("*.py"), *(ROOT / "tests").rglob("*.py")])


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: str(p.relative_to(ROOT)))
def test_sources_parse_as_python_3_10(path):
    """Every module under ``src/`` and ``tests/`` parses with the 3.10
    grammar (no ``except*``, no ``type`` statement, no type parameters).
    This checks grammar only: the standard-library calls are not checked
    against 3.10."""
    ast.parse(path.read_text(encoding="utf-8"), str(path), feature_version=(3, 10))
