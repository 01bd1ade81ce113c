"""The library holds no helper that only tests use."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
ENTRY_POINTS = {"load_fixture"}  # called by users, as the README shows


def _references(path):
    """The names that the code in ``path`` reads, as a variable or as an
    attribute.  A docstring, a comment, a definition and an import (the
    package's re-exports are imports) read none."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def test_every_library_definition_has_a_caller():
    sources = sorted((ROOT / "src").rglob("*.py")) + sorted((ROOT / "benchmark").rglob("*.py"))
    referenced = set().union(*map(_references, sources))
    orphans = []
    for path in sorted((ROOT / "src" / "desopacity").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            if node.name.startswith("__") or node.name in ENTRY_POINTS:
                continue
            if node.name not in referenced:
                orphans.append(f"{path.name}:{node.lineno} {node.name}")
    assert not orphans
