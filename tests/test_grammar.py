"""The declared floor, ``requires-python = ">=3.10"``, held for the grammar
and for the standard-library names that 3.11 added."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted([*(ROOT / "src").rglob("*.py"), *(ROOT / "tests").rglob("*.py")])

# a denylist, not a scan of the standard library: modules, built-ins,
# module attributes, and ``.add_note`` on any object
NAMES_3_11 = {"tomllib", "typing.Self", "enum.StrEnum", "ExceptionGroup", "BaseExceptionGroup",
              "datetime.UTC", "operator.call", "hashlib.file_digest", "contextlib.chdir",
              "asyncio.TaskGroup", "asyncio.timeout", "math.exp2", "math.cbrt", ".add_note"}


def names_after_3_10(tree: ast.AST) -> list[str]:
    """The names of the denylist ``NAMES_3_11`` that ``tree`` imports or
    reads by name.  A name reached another way (an alias, ``getattr``) is
    not seen."""
    used = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            used += [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom):
            used += [node.module, *(f"{node.module}.{a.name}" for a in node.names)]
        elif isinstance(node, ast.Name):
            used.append(node.id)
        elif isinstance(node, ast.Attribute):
            used.append(f".{node.attr}")
            if isinstance(node.value, ast.Name):
                used.append(f"{node.value.id}.{node.attr}")
    return [name for name in used if name in NAMES_3_11]


def test_pyproject_declares_the_python_3_10_floor():
    # the floor the checks below hold the sources to
    assert 'requires-python = ">=3.10"' in (ROOT / "pyproject.toml").read_text(encoding="utf-8")


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: str(p.relative_to(ROOT)))
def test_sources_parse_as_python_3_10(path):
    """Every module under ``src/`` and ``tests/`` parses with the 3.10
    grammar (no ``except*``, no ``type`` statement, no type parameters).
    The standard-library names are checked by ``names_after_3_10``."""
    ast.parse(path.read_text(encoding="utf-8"), str(path), feature_version=(3, 10))


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: str(p.relative_to(ROOT)))
def test_sources_use_no_name_added_in_3_11(path):
    assert names_after_3_10(ast.parse(path.read_text(encoding="utf-8"), str(path))) == []


def test_the_denylist_sees_each_name_it_lists():
    source = ("import tomllib\nfrom typing import Self\nfrom enum import StrEnum\n"
              "raise ExceptionGroup('', [BaseExceptionGroup('', [])])\n"
              "datetime.UTC, operator.call, hashlib.file_digest, contextlib.chdir\n"
              "asyncio.TaskGroup, asyncio.timeout, math.exp2, math.cbrt, err.add_note\n")
    assert sorted(names_after_3_10(ast.parse(source))) == sorted(NAMES_3_11)
