"""``tools/code_lines.py`` counts code lines by the rule its docstring states."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "code_lines.py"


def _tool():
    spec = importlib.util.spec_from_file_location("code_lines", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_code_lines_skips_comments_blank_lines_and_docstrings(tmp_path):
    source = tmp_path / "sample.py"
    source.write_text('"""Module\ndocstring."""\n\n# comment\n'
                      'x = (1,\n     2)  # trailing\n\n\n'
                      'def f():\n    """Doc."""\n    return """a\nb"""\n')
    # counted: x = (1,  /  2)  /  def f():  /  return """a  /  b"""
    assert _tool().code_lines(source) == 5


def test_code_lines_counts_the_directory_it_is_given(tmp_path, capsys):
    (tmp_path / "a_long_module_name.py").write_text("x = 1\ny = 2\n")
    (tmp_path / "b.py").write_text('"""Doc."""\nz = 3\n')
    (tmp_path / "notes.txt").write_text("w = 4\n")
    _tool().main([str(tmp_path)])  # an absolute path is taken as it is
    assert capsys.readouterr().out.splitlines() == [
        "a_long_module_name      2",
        "b                       1",
        "total                   3",
    ]


def test_code_lines_counts_the_package_by_default(capsys):
    tool = _tool()
    tool.main([])
    rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    modules = sorted(path.stem for path in tool.PACKAGE.glob("*.py"))
    assert [name for name, _ in rows] == modules + ["total"]
    assert int(rows[-1][1]) == sum(int(count) for _, count in rows[:-1])
