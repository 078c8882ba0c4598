"""The runtime package imports nothing beyond the standard library."""

import ast
import sys
from pathlib import Path

import magilab

PACKAGE = Path(magilab.__file__).parent


def _imported_modules(path: Path):
    """Top-level names of the absolute imports in one source file."""
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name.partition(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.partition(".")[0]


def test_runtime_is_stdlib_only():
    sources = sorted(PACKAGE.glob("*.py"))
    assert sources
    allowed = set(sys.stdlib_module_names) | {"magilab"}
    outside = [(path.name, name) for path in sources
               for name in _imported_modules(path) if name not in allowed]
    assert outside == []
