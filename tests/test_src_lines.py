"""The line classes of ``tools/src_lines.py``."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "src_lines.py"
_spec = importlib.util.spec_from_file_location("src_lines", TOOL)
src_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(src_lines)

# line by line: docstring, docstring, blank, code, blank, blank, comment,
# code, docstring, blank, code, docstring x 3, code x 4 (a string that is not
# a docstring is code, its blank and '#' lines too)
MODULE = '''"""Module docstring,
on two lines."""

import os  # a trailing comment leaves the line code


# a whole-line comment
class Thing:
    """Class docstring."""

    async def method(self):
        """Method docstring

        with a blank line inside."""
        text = """not a docstring

# nor a comment"""
        return text
'''
MODULE_COUNTS = {"code": 7, "docstring": 6, "comment": 1, "blank": 4}


def test_classify_counts_each_line_once():
    assert src_lines.classify(MODULE) == MODULE_COUNTS
    assert sum(MODULE_COUNTS.values()) == len(MODULE.splitlines())


def test_a_string_after_the_first_statement_is_code():
    assert src_lines.classify('x = 1\n"""not a docstring"""\n') == {
        "code": 2, "docstring": 0, "comment": 0, "blank": 0}


def test_modules_sorted_then_the_total(tmp_path, capsys):
    (tmp_path / "sub").mkdir()
    (tmp_path / "sub" / "mod.py").write_text("x = 1\n\n# done\n")
    (tmp_path / "a.py").write_text(MODULE)
    (tmp_path / "notes.txt").write_text("not a module\n")
    rows = src_lines.package_counts(tmp_path)
    sub = {"code": 1, "docstring": 0, "comment": 1, "blank": 1}
    assert rows == [("a.py", MODULE_COUNTS), ("sub/mod.py", sub),
                    ("total", {k: MODULE_COUNTS[k] + sub[k] for k in sub})]

    assert src_lines.main([str(tmp_path)]) == 0
    out = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert out == [["module", "total", "code", "docstring", "comment", "blank"],
                   ["a.py", "18", "7", "6", "1", "4"],
                   ["sub/mod.py", "3", "1", "0", "1", "1"],
                   ["total", "21", "8", "6", "2", "5"]]
