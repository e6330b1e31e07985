"""The library imports nothing outside the standard library (pyproject.toml: dependencies = [])."""
import ast
import sys
from pathlib import Path

import ulamcodes

SOURCES = sorted(Path(ulamcodes.__file__).parent.rglob("*.py"))


def absolute_imports(path: Path) -> set[str]:
    """The top-level names of the absolute imports in a source file."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names


def test_library_imports_only_the_standard_library():
    assert SOURCES
    for path in SOURCES:
        outside = absolute_imports(path) - set(sys.stdlib_module_names)
        assert not outside, f"{path.name} imports {sorted(outside)}"
