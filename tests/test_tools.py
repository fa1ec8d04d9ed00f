"""The scripts under ``tools/``, each loaded by path as its own module."""

import importlib.util
import re
from pathlib import Path

from test_cli import ASYM3, ASYM4

TOOLS = Path(__file__).resolve().parent.parent / "tools"

# every kind of line code_lines tells apart; the code lines are the import, the
# def, the two lines of the string that is not a docstring, and the return
SOURCE = '''"""Module docstring,
over two lines."""

import math  # a comment after code


def area(r):
    """Function docstring."""
    # a comment line
    note = """a string that is
not a docstring"""
    return math.pi * r * r
'''


def _load(name):
    spec = importlib.util.spec_from_file_location(f"_tools_{name}", TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_code_lines_skips_blanks_comments_and_docstrings(tmp_path, capsys):
    tool = _load("code_lines")
    assert tool.code_lines(SOURCE) == 5
    (tmp_path / "b.py").write_text(SOURCE)
    (tmp_path / "a.py").write_text("x = 1\n")
    assert tool.main([str(tmp_path)]) == 0
    assert capsys.readouterr().out == "    1 a.py\n    5 b.py\n    6 total\n"


def test_replay_golden_profiles_are_the_cli_tests_profiles():
    # the tool writes the {ASYM3} and {ASYM4} placeholders from its own copies
    tool = _load("replay_golden")
    assert (tool.ASYM3, tool.ASYM4) == (ASYM3, ASYM4)


def test_replay_golden_goes_on_past_an_interpreter_that_cannot_run(capsys):
    # one that is not there (OSError) and one that exits non-zero: each gets
    # one line, and the next interpreter is still tried
    tool = _load("replay_golden")
    pythons = ["/nonexistent/python3", "/bin/false"]
    assert [tool.replay(python, []) for python in pythons] == [0, 0]
    assert capsys.readouterr().out == (
        "cannot run /nonexistent/python3 (No such file or directory): its 0 cases count as differing\n"
        "cannot run /bin/false (exit 1): its 0 cases count as differing\n"
    )
    # with the golden cases, each interpreter's cases differ, and the run fails
    assert tool.main(pythons) == 1
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 2
    assert all(re.search(r"\): its [1-9]\d* cases count as differing$", line) for line in lines)
