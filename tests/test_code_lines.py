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
