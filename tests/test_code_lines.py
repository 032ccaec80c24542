"""tools/code_lines.py: which lines count as code."""

import importlib.util

from conftest import DATA

_SPEC = importlib.util.spec_from_file_location(
    "code_lines", DATA.parent / "tools" / "code_lines.py"
)
code_lines = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(code_lines)

SOURCE = '''"""Module docstring,
over two lines."""

# a comment line
import math  # a trailing comment


class Thing:
    """Class docstring."""

    def method(self):
        """Function
        docstring."""
        text = """a string over
two lines"""
        return (text,
                math.pi)
'''


def test_counts_code_and_leaves_out_docstrings_comments_and_blanks(tmp_path):
    path = tmp_path / "sample.py"
    path.write_text(SOURCE)
    # import, class, def, the two lines of the string, the two of the return
    assert code_lines.code_lines(path) == 7


def test_prints_each_file_and_the_total(tmp_path, capsys):
    (tmp_path / "a.py").write_text("x = 1\n")
    (tmp_path / "b.py").write_text('"""Doc."""\n\ny = 2\nz = 3\n')
    code_lines.main([str(tmp_path)])
    assert capsys.readouterr().out == (
        f"1 {tmp_path / 'a.py'}\n2 {tmp_path / 'b.py'}\n3 total\n"
    )
