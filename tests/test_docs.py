"""The repository's committed documents: the README's examples run as
written, its numeric claims about the engine hold, it describes every
command, option and exit code, the names, tests and paths it points to
exist, and every committed bench record holds the shared keys."""

import contextlib
import importlib
import json
import random
import re
import shlex
from pathlib import Path

import pytest

import lupi._kernels_py as kernels
import lupi.solve as solve_module
from _oracle import random_profile
from lupi import (
    StrategyProfile, exact_profile_payoffs, geometric_payoff, pure_choice_values, simulate, solve_symmetric,
    verify_profile,
)
from lupi import cli
from lupi.solve import _TOLERANCES
from lupi.cli import EXIT_NOT_NASH, EXIT_OK, main
from test_solve import EXACT_NS, MAP_NS, PAPER_NS, SIGN_NS, SIGN_POINTS

ROOT = Path(__file__).resolve().parent.parent
README = (ROOT / "README.md").read_text()
PROSE = " ".join(README.split())


def _block(heading, language):
    """The first ``language`` code block after the line ``heading``."""
    section = README.split(f"\n{heading}\n", 1)[1]
    return section.split(f"```{language}\n", 1)[1].split("```", 1)[0]


def _usage_steps():
    """(argv, expected output lines) for each ``lupi`` line of the usage block;
    a ``# name: value`` comment is an output line of the command above it."""
    steps = []
    for line in _block("## Command-line usage", "bash").splitlines():
        if line.startswith("lupi "):
            steps.append((shlex.split(line)[1:], []))
        elif re.fullmatch(r"# [\w-]+: \S.*", line):
            steps[-1][1].append(line[2:])
    return steps


def test_readme_stays_within_250_lines():
    # a design detail lives in the module or test that owns it, and the README
    # points there in one line
    assert len(README.splitlines()) <= 250


def test_readme_examples_run_as_written(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "profile.json").write_text(_block("### Profile documents", "json"))
    steps = _usage_steps()
    assert len(steps) == 8
    assert sum(len(expected) for _, expected in steps) == 3
    for argv, expected in steps:
        code = main(argv)
        out = capsys.readouterr().out.splitlines()
        # the example profile is not an equilibrium: verify reports it with exit 2
        assert code == (EXIT_NOT_NASH if argv[0] == "verify" else EXIT_OK), argv
        for line in expected:
            assert line in out, (argv, line)
    assert (tmp_path / "geo.json").exists()
    exec(compile(_block("## Library usage", "python"), "README.md", "exec"), {})
    printed = capsys.readouterr().out.splitlines()
    assert len(printed) == 2 and printed[1] == "True"


def _claim(pattern):
    """The integers that ``pattern``'s groups match in the README prose, line breaks read as spaces."""
    match = re.search(pattern, PROSE)
    assert match, pattern
    return [int(group) for group in match.groups()]


class Stopped(Exception):
    """Raised by a stand-in for a call's work or check, with the arguments it was given."""


def stop(*args):
    raise Stopped(*args)


# (what, largest accepted value) for each row of the README's "Limits" table
LIMITS = re.findall(r"^\| (.+?) \| (\d+) \|$", README.split("\n### Limits\n", 1)[1].split("\n## ", 1)[0], re.M)
_PAPER_1023 = StrategyProfile.symmetric(solve_symmetric(1023, model="paper").strategy)


def _dense(n):
    return random_profile(random.Random(n), n)


def _uniform(n, deviators=0):
    """n players uniform on 1..n, but the last ``deviators`` of them on 1."""
    return StrategyProfile([[1.0 / n] * n] * (n - deviators) + [[1.0] + [0.0] * (n - 1)] * deviators)


# the call behind each row, given the row's value
_LIMITED = {
    "`solve --model exact`: n": lambda n: solve_symmetric(n, model="exact"),
    "`solve --model paper`: n": lambda n: solve_symmetric(n, model="paper"),
    "`approx`, `table`: n": geometric_payoff,
    "`payoff`, `verify`, `best-response`: a kernel call's multiply-adds": lambda e: kernels._check_work("a call", e),
    "`payoff`, `verify`: n of a symmetric profile": lambda n: exact_profile_payoffs(_uniform(n)),
    "`payoff`, `verify`: n of a symmetric profile with one deviator": lambda n: exact_profile_payoffs(_uniform(n, 1)),
    "`payoff`, `verify`: n of a profile whose strategies all differ": lambda n: exact_profile_payoffs(_dense(n)),
    "`best-response`: n, with distinct opponents": lambda n: pure_choice_values(_dense(n).strategies[1:]),
    "`simulate --rounds`: n = 4, every row of full support": lambda rounds: simulate(_dense(4), rounds),
    "`simulate --rounds`: n = 40, every row of full support": lambda rounds: simulate(_dense(40), rounds),
    "`simulate --rounds`: the saved n = 1023 `paper` root": lambda rounds: simulate(_PAPER_1023, rounds),
}


@pytest.mark.parametrize("what, limit", LIMITS)
def test_readme_limit(what, limit, monkeypatch):
    # every row has its call, and every call its row. The call gets past its range check or work budget at the
    # limit and is refused at the next value, naming the limit or the budget. No work runs: stand-ins for the
    # solver's shots, and for the budget check once it has passed, stop the call
    assert {row for row, _ in LIMITS} == set(_LIMITED)
    check, limit = kernels._check_work, int(limit)
    monkeypatch.setattr(kernels, "_check_work", lambda route, estimate: stop(check(route, estimate)))
    for shot in ("_paper_shot", "_exact_shot"):
        monkeypatch.setattr(solve_module, shot, stop)
    with contextlib.suppress(Stopped):
        _LIMITED[what](limit)
    with pytest.raises(ValueError, match=rf"<= {limit}\b|over the budget of 2e\+07$"):
        _LIMITED[what](limit + 1)


def test_readme_solver_claims(exact_root):
    # "at most 26 steps for every n up to 100" is the largest step count of the
    # exact roots, and "changes sign once on 65 evenly spaced points" is the
    # count that test_solve.py::test_exact_map_changes_sign_once samples, with
    # the n it runs at; the two checks the README names next run at MAP_NS.
    # The exact maxima are read over test_solve.py's sample of the range; over
    # every n up to 100 they measured 26 steps (n = 58) and a residual of
    # 1.61e-14 (n = 70), both in the sample
    steps, top = _claim(r"closes its bracket in at most (\d+) steps for every n up to (\d+),")
    assert top == EXACT_NS[-1]
    assert steps == max(exact_root(n).iterations for n in EXACT_NS)
    points, top, above = _claim(r"changes sign once on (\d+) evenly spaced points for every n up to (\d+) and at "
                                r"n = (\d+) \(`tests/test_solve\.py::test_exact_map_changes_sign_once`\)\.")
    assert (points, [*range(3, top + 1), above]) == (SIGN_POINTS, SIGN_NS)
    assert _claim(r"Two checks at n = (\d+), (\d+), (\d+) and (\d+), not a proof") == MAP_NS
    # each model's fixed tolerance is over 10**4 (paper) or 10**3 (exact)
    # times its largest residual, so only an exact search stopped at its step
    # cap reports no convergence. The paper margin is read over test_solve.py's
    # sample of its range; over every n up to 1023 the largest residual
    # measured 3.5e-17. The smallest exact margin is 6.2e3, at n = 70
    paper_top, exact_top = _claim(r"Every `paper` root up to n = (\d+) is within it by more than four orders of "
                                  r"magnitude, and every `exact` root up to n = (\d+) by more than three,")
    assert (exact_top, paper_top) == (EXACT_NS[-1], PAPER_NS[-1])
    for model, roots, margin in (("exact", map(exact_root, EXACT_NS), 1e3),
                                 ("paper", (solve_symmetric(n) for n in PAPER_NS), 1e4)):
        assert max(root.residual_norm for root in roots) * margin < _TOLERANCES[model], model


def test_readme_rounding_limit_of_verify(exact_root):
    # the stated bound is the first power of ten above the exact roots' largest
    # gain, read over test_solve.py's sample of the range; over every n up to
    # 100 it measured 1.60e-14, at n = 70, which the sample holds. A smaller
    # --eps judges rounding
    exponent, top = _claim(r"the exact roots' gains are below 1e-(\d+) for every n up to (\d+), so an `--eps` "
                           r"below that judges rounding, not the strategy")
    assert top == EXACT_NS[-1]
    reports = {n: verify_profile(StrategyProfile.symmetric(exact_root(n).strategy)) for n in EXACT_NS}
    assert 10.0 ** -(exponent + 1) <= max(max(r.deviation_gains) for r in reports.values()) < 10.0 ** -exponent
    exponent, n = _claim(r"`verify --eps 1e-(\d+)` calls the n = (\d+) root not an equilibrium")
    assert reports[n].is_nash and not verify_profile(reports[n].profile, 10.0 ** -exponent).is_nash


def test_readme_describes_every_command_option_and_exit_code():
    (count,) = re.findall(r"One binary, (\w+) subcommands", PROSE)
    assert "zero one two three four five six seven eight nine ten".split().index(count) == len(cli._COMMANDS)
    for command, (_, _, options) in cli._COMMANDS.items():
        assert f"lupi {command} " in README, command
        for option in options:
            assert re.search(rf"(?<![\w-]){option.flag}(?![\w-])", README), (command, option.flag)
    (sentence,) = re.findall(r"Exit codes: ([^.]*)\.", PROSE)
    codes = sorted(value for name, value in vars(cli).items() if name.startswith("EXIT_"))
    assert codes == list(range(cli.EXIT_OK, cli.EXIT_NO_CONVERGENCE + 1))
    assert [int(code) for code in re.findall(r"`(\d+)`", sentence)] == codes


def test_readme_names_only_tests_that_exist():
    named = re.findall(r"tests/(test_\w+\.py)::(\w+)", README)
    assert len(named) >= 5
    for module, test in named:
        assert re.search(rf"^def {test}\(", (ROOT / "tests" / module).read_text(), re.M), (module, test)


def test_readme_pointers_resolve():
    # a backticked ``lupi.…`` name is the longest importable module prefix,
    # then attributes; a repo path is a file or directory of the checkout
    names = set(re.findall(r"`(lupi(?:\.\w+)+)(?:\(\))?`", PROSE))
    assert len(names) >= 5
    for name in sorted(names):
        parts = name.split(".")
        cut = len(parts)
        while True:
            try:
                target = importlib.import_module(".".join(parts[:cut]))
                break
            except ModuleNotFoundError:
                cut -= 1
        for attribute in parts[cut:]:
            assert hasattr(target, attribute), name
            target = getattr(target, attribute)
    paths = set(re.findall(r"(?<![\w/.])((?:src|tests|tools|perfbench)/[\w./]*\w)", README))
    assert len(paths) >= 5
    for path in sorted(paths):
        assert (ROOT / path).exists(), path


# ---------------------------------------------------------------------------
# bench records
#
# A committed ``BENCH_<revision>.json`` is a JSON object with
#   command   the perfbench command line that produced the runs;
#   parent    {"revision": full hash, "records": [run record, ...]};
#   change    {"revision": full hash, "records": [run record, ...]};
#   pairs     (optional) {"<workload>.<metric>": {
#                 "parent_median": float, "parent_q1_q3": [q1, q3],
#                 "change_median": float, "change_q1_q3": [q1, q3],
#                 "change_better_pairs": int}, ...}
# The records are the JSON lines ``perfbench/run.py`` prints; ``pairs``
# summarises alternating parent/change runs, one entry per metric.

PAIR_KEYS = {"parent_median", "parent_q1_q3", "change_median", "change_q1_q3", "change_better_pairs"}
BENCH_FILES = sorted(ROOT.glob("BENCH_*.json"))


def test_bench_records_are_committed():
    assert BENCH_FILES


@pytest.mark.parametrize("path", BENCH_FILES, ids=[p.name for p in BENCH_FILES])
def test_bench_record_holds_the_shared_keys(path):
    doc = json.loads(path.read_text())
    assert isinstance(doc["command"], str) and doc["command"].startswith("python3 perfbench/run.py")
    for side in ("parent", "change"):
        assert re.fullmatch(r"[0-9a-f]{40}", doc[side]["revision"]), side
    assert doc["change"]["revision"].startswith(path.stem.split("_", 1)[1])
    for metric, entry in doc.get("pairs", {}).items():
        assert PAIR_KEYS <= set(entry), metric
        for key in ("parent_q1_q3", "change_q1_q3"):
            q1, q3 = entry[key]
            assert q1 <= q3, (metric, key)
        assert 0 <= entry["change_better_pairs"], metric
