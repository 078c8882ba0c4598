"""Count the code lines of each module of ``src/magilab``, or of the
``*.py`` files of another directory.

A line counts if it holds a token other than a comment, NL, NEWLINE, INDENT
or DEDENT and lies outside every module, class and function docstring.
Run from anywhere: ``python tools/code_lines.py`` for the package, or
``python tools/code_lines.py tests`` for a directory, which is taken from
the repository root unless it is an absolute path.
"""

import ast
import sys
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "magilab"
SKIP = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
        tokenize.DEDENT, tokenize.ENDMARKER}
SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def code_lines(path: Path) -> int:
    source = path.read_text()
    docstrings = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, SCOPES) and ast.get_docstring(node, clean=False) is not None:
            first = node.body[0]
            docstrings.update(range(first.lineno, first.end_lineno + 1))
    lines = set()
    with path.open() as f:
        for tok in tokenize.generate_tokens(f.readline):
            if tok.type not in SKIP:
                lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstrings)


def main(argv=None) -> None:
    args = sys.argv[1:] if argv is None else argv
    directory = ROOT / args[0] if args else PACKAGE
    paths = sorted(directory.glob("*.py"))
    width = max([len("total"), *(len(path.stem) for path in paths)]) + 1
    total = 0
    for path in paths:
        count = code_lines(path)
        total += count
        print(f"{path.stem:<{width}}{count:>6}")
    print(f"{'total':<{width}}{total:>6}")


if __name__ == "__main__":
    main()
