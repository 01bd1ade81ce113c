"""The library holds no helper that only tests use."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
ENTRY_POINTS = {"load_fixture"}  # called by users, as the README shows


def _code_without_imports(path):
    text = path.read_text()
    lines = text.splitlines()
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            lines[node.lineno - 1 : node.end_lineno] = [""] * (node.end_lineno - node.lineno + 1)
    return "\n".join(lines)


def test_every_library_definition_has_a_caller():
    # a caller is any mention, in src/ or benchmark/, besides the definition
    # itself and the imports (the package's re-exports are imports)
    sources = sorted((ROOT / "src").rglob("*.py")) + sorted((ROOT / "benchmark").rglob("*.py"))
    code = "\n".join(_code_without_imports(path) for path in sources)
    orphans = []
    for path in sorted((ROOT / "src" / "desopacity").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            if node.name.startswith("__") or node.name in ENTRY_POINTS:
                continue
            if len(re.findall(rf"\b{node.name}\b", code)) < 2:
                orphans.append(f"{path.name}:{node.lineno} {node.name}")
    assert not orphans
