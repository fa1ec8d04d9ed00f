"""The scripts under ``tools/``, each loaded by path as its own module."""

import importlib.util
import json
import re
import subprocess
import sys
import time
from pathlib import Path

from test_docs import PAIR_KEYS

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


# appends the tree a run is in, whether lupi.cli came from that tree's src,
# and whether the tree holds no __pycache__ after the import
_RECORD = """
def record(log):
    import os, lupi.cli
    tree = os.getcwd()
    ours = os.path.samefile(lupi.cli.__file__, os.path.join(tree, "src", "lupi", "cli.py"))
    clean = not any("__pycache__" in dirs for _, dirs, _ in os.walk(tree))
    with open(log, "a") as out:
        print(os.path.basename(tree), ours, clean, file=out)
"""


def _enter_one_commit_repo(tmp_path, monkeypatch):
    """Make a repository of one commit that holds an empty lupi.cli, with an untracked __pycache__, and cd into it."""
    repo = tmp_path / "repo"
    (repo / "src" / "lupi" / "__pycache__").mkdir(parents=True)
    (repo / "src" / "lupi" / "__pycache__" / "cli.pyc").write_bytes(b"")
    for name in ("__init__.py", "cli.py"):
        (repo / "src" / "lupi" / name).write_text("")
    for git in (["init", "-q"], ["add", "src/lupi/__init__.py", "src/lupi/cli.py"],
                ["-c", "user.name=lupi", "-c", "user.email=lupi@localhost", "commit", "-qm", "one"]):
        subprocess.run(["git", *git], cwd=repo, check=True)
    monkeypatch.chdir(repo)


def test_pairs_alternates_two_archived_trees(tmp_path, monkeypatch, capsys):
    # HEAD against HEAD of a one-commit repository for 3 pairs, whole-process
    # and in-process; its untracked __pycache__ stays out of the archives, and
    # the runs write none though this environment would let them
    tool = _load("pairs")
    log = tmp_path / "log"
    _enter_one_commit_repo(tmp_path, monkeypatch)
    monkeypatch.delenv("PYTHONDONTWRITEBYTECODE", raising=False)
    call = f"record({str(log)!r})"
    order = ["parent", "change", "change", "parent", "parent", "change"]
    argv = ["HEAD", "HEAD", "--pairs", "3", "--json", "--", sys.executable, "-c", _RECORD + call]
    assert tool.main(argv) == 0
    assert log.read_text().splitlines() == [f"{side} True True" for side in order]
    (name, entry), = json.loads(capsys.readouterr().out).items()
    assert name == "wall_s" and PAIR_KEYS <= set(entry) and entry["pairs"] == 3
    assert 0 <= entry["change_better_pairs"] <= 3
    for side in ("parent", "change"):
        q1, q3 = entry[f"{side}_q1_q3"]
        assert 0 < q1 <= entry[f"{side}_median"] <= q3
    # in-process: a warm-up and a timed call per run, and the text summary
    log.unlink()
    assert tool.main(["HEAD", "HEAD", "--pairs", "3", "--in-process", "--", _RECORD, call]) == 0
    assert log.read_text().splitlines() == [f"{side} True True" for side in order for _ in range(2)]
    parent, change, won, claim = capsys.readouterr().out.splitlines()
    assert parent.startswith("parent ") and change.startswith("change ")
    assert re.fullmatch(r"the change took less time in [0-3] of 3 pairs", won)
    assert re.fullmatch(r"a gain claim would (not )?stand: 9 in 10 pairs won: (yes|no); .+ spread \d\.\d{4} s", claim)


def test_pairs_tells_whether_a_gain_claim_would_stand():
    # the parent's quartile spread is 0.045 s; 8 wins and 2 ties fall short of 9 in 10
    parent = [1.0 + k / 100 for k in range(10)]
    for change, verdict in (([t - 0.1 for t in parent], (True, True)), ([t - 0.01 for t in parent], (True, False)),
                            ([t - 0.1 for t in parent[:8]] + parent[8:], (False, True))):
        entry = _load("pairs").pairs_entry({"parent": parent, "change": change})
        assert (entry["nine_in_ten_won"], entry["median_gain_past_spread"]) == verdict


def test_pairs_holds_each_side_to_its_own_first_status(tmp_path, monkeypatch, capsys):
    # a command that exits 0 in the parent's tree and 1 in the change's, read
    # off its own PYTHONPATH, is timed, and the change's line names its status
    tool = _load("pairs")
    _enter_one_commit_repo(tmp_path, monkeypatch)
    by_tree = "import os, sys; sys.exit(os.path.basename(os.path.dirname(os.environ['PYTHONPATH'])) == 'change')"
    assert tool.main(["HEAD", "HEAD", "--pairs", "2", "--", sys.executable, "-c", by_tree]) == 0
    parent, change, _, _ = capsys.readouterr().out.splitlines()
    assert parent.endswith(" s") and change.endswith(" s, exit status 1")


def test_pairs_stops_when_a_side_changes_its_status(tmp_path, monkeypatch, capsys):
    # each side's first run exits 0 and leaves a mark; its later runs find the mark and exit 1
    tool = _load("pairs")
    marks = tmp_path / "marks"
    marks.mkdir()
    _enter_one_commit_repo(tmp_path, monkeypatch)
    mark = (f"import os, sys; mark = os.path.join({str(marks)!r}, os.path.basename(os.getcwd()));"
            " seen = os.path.exists(mark); open(mark, 'a').close(); sys.exit(seen)")
    assert tool.main(["HEAD", "HEAD", "--pairs", "2", "--", sys.executable, "-c", mark]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("pairs.py: the change run of pair 1 exited 1, not 0")


def _gone(pid):
    """True once process ``pid`` has ended: it is not there, or only a zombie is left."""
    try:
        with open(f"/proc/{pid}/stat") as stat:
            return stat.read().rsplit(")", 1)[1].split()[0] == "Z"
    except FileNotFoundError:
        return True


def test_pairs_kills_a_run_past_the_limit(tmp_path, monkeypatch, capsys):
    # the run starts a child of its own, writes both ids, and sleeps past the limit;
    # the tool names the side and the pair, exits 1, and leaves neither process running
    tool = _load("pairs")
    monkeypatch.setattr(tool, "RUN_LIMIT_S", 1.0)
    pids = tmp_path / "pids"
    _enter_one_commit_repo(tmp_path, monkeypatch)
    sleeper = ("import os, subprocess, sys, time\n"
               "child = subprocess.Popen([sys.executable, '-c', 'import time; time.sleep(60)'])\n"
               f"open({str(pids)!r}, 'w').write(f'{{os.getpid()}} {{child.pid}}')\n"
               "time.sleep(60)")
    start = time.perf_counter()
    assert tool.main(["HEAD", "HEAD", "--pairs", "2", "--", sys.executable, "-c", sleeper]) == 1
    assert time.perf_counter() - start < 30
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "pairs.py: the parent run of pair 0 ran past 1.0 s and was killed\n"
    run, child = map(int, pids.read_text().split())
    deadline = time.monotonic() + 10
    while not (_gone(run) and _gone(child)) and time.monotonic() < deadline:
        time.sleep(0.05)
    assert _gone(run) and _gone(child)
