"""No module in src/ or tests/ imports a name it never uses.  No linter is
installed, so the check is a scan of each module's syntax tree."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted([*ROOT.glob("src/**/*.py"), *ROOT.glob("tests/**/*.py")])


def string_annotation_names(note) -> set[str]:
    if not (isinstance(note, ast.Constant) and isinstance(note.value, str)):
        return set()
    return {n.id for n in ast.walk(ast.parse(note.value, mode="eval")) if isinstance(n, ast.Name)}


def unused_imports(source: str) -> list[str]:
    """Names bound by an import statement and never read in the module.
    A name read only inside a string annotation counts as read."""
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    read: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name):
            read.add(node.id)
        elif isinstance(node, (ast.arg, ast.AnnAssign)):
            read |= string_annotation_names(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            read |= string_annotation_names(node.returns)
    return [f"line {line}: {name}" for name, line in sorted(imported.items(), key=lambda kv: kv[1])
            if name not in read]


def test_scan_finds_unused_and_accepts_used_names():
    src = ("from __future__ import annotations\n"
           "import os, sys as system\n"
           "import os.path\n"
           "from math import pi, tau\n"
           "from typing import Sequence\n"
           "def f(x: 'Sequence[int]') -> float:\n"
           "    return pi + os.sep.count('/')\n")
    assert unused_imports(src) == ["line 2: system", "line 4: tau"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(ROOT)))
def test_module_has_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []
