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


def _unused_imports(path: Path):
    """Names a source file imports but never reads, ``from __future__``
    aside."""
    tree = ast.parse(path.read_text(), str(path))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_every_import_is_used():
    # __init__ imports only to re-export
    sources = sorted(path for path in PACKAGE.glob("*.py") if path.name != "__init__.py")
    assert sources
    unused = [(path.name, line, name) for path in sources
              for line, name in _unused_imports(path)]
    assert unused == []
