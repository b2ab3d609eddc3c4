"""`tools/code_lines.py`: code lines are lines holding a token outside
comments and docstrings."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "code_lines.py"

SAMPLE = '''\
"""Module docstring,
two lines."""

# a comment
import os  # code with a comment


class A:
    """Class docstring."""

    x = """a string that is
not a docstring"""

    def f(self):
        """Function
        docstring."""
        return (1,
                2)
'''
# code: import os; class A:; x = """...; not a docstring"""; def f; return (1,; 2)


def _tool():
    spec = importlib.util.spec_from_file_location("code_lines", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_hand_counted_file(tmp_path, capsys):
    tool = _tool()
    path = tmp_path / "sample.py"
    path.write_text(SAMPLE)
    assert tool.code_lines(path) == 7
    (tmp_path / "empty.py").write_text("# nothing but a comment\n")
    assert tool.main([str(tmp_path)]) == 0
    assert capsys.readouterr().out.split("\n") == [
        "     0  empty.py",
        "     7  sample.py",
        "     7  total",
        "",
    ]
